from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import List

from . import check_int

__all__ = ["bernoulli"]

# Convention: B_1 = -1/2 ("first" Bernoulli numbers).  Only even indices feed
# the downstream formulas, where the two conventions agree.
_cache: List[Fraction] = [Fraction(1)]
_lock = threading.Lock()


def _extend(n: int) -> None:
    # The defining recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0, which gives
    # B_1 = -1/2; the odd B_m with m > 1 vanish.
    m = len(_cache)
    while m <= n:
        if m % 2 == 1 and m > 1:
            _cache.append(Fraction(0))
        else:
            s = Fraction(0)
            for k in range(m):
                if _cache[k]:
                    s += comb(m + 1, k) * _cache[k]
            _cache.append(-s / (m + 1))
        m += 1


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact Fraction (B_1 = -1/2).

    Values are cached; the cache is extended under a lock so concurrent
    callers observe at-most-once computation.
    """
    if check_int("n", n) < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < len(_cache):
        return _cache[n]
    with _lock:
        _extend(n)
    return _cache[n]
