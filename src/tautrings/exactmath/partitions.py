from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import check_int

__all__ = ["partition_count"]


def partition_count(size: int, max_part: Optional[int] = None) -> int:
    """Number of partitions of `size` (with parts bounded by `max_part`)."""
    check_int("size", size)
    if max_part is not None:
        check_int("max_part", max_part)
    if size < 0:
        return 0
    cap = size if max_part is None else min(max_part, size)
    return _pcount(size, cap)


@lru_cache(maxsize=None)
def _pcount(size: int, cap: int) -> int:
    if size == 0:
        return 1
    if cap <= 0:
        return 0
    return sum(_pcount(size - p, min(p, size - p)) for p in range(cap, 0, -1))
