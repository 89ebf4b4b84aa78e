from __future__ import annotations

from functools import lru_cache

from . import check_int

__all__ = ["partition_count"]


def partition_count(size: int) -> int:
    """Number of partitions of `size`."""
    if check_int("size", size) < 0:
        return 0
    return _pcount(size, size)


@lru_cache(maxsize=None)
def _pcount(size: int, cap: int) -> int:
    if size == 0:
        return 1
    if cap <= 0:
        return 0
    return sum(_pcount(size - p, min(p, size - p)) for p in range(cap, 0, -1))
