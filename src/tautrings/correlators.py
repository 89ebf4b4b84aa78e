from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CorrelatorKey",
    "CorrelatorTable",
    "psi_intersection",
    "genus0_closed_form",
    "string_reduce",
    "odd_double_factorial",
    "default_table",
]


def odd_double_factorial(m: int) -> int:
    """(2k+1)!!-style double factorial with (-1)!! = 1 and 0!! = 1."""
    if m <= 0:
        return 1
    r = 1
    while m > 1:
        r *= m
        m -= 2
    return r


class CorrelatorKey:
    """Genus plus sorted multiset of psi-exponents.

    Exponents are stored non-increasing, so permuted inputs collide to a
    single key.  Stability 2g - 2 + n > 0 is enforced; the degree condition
    sum(k_i) = 3g - 3 + n is *not* (off-degree correlators evaluate to 0).
    """

    __slots__ = ("genus", "exponents")

    def __init__(self, genus: int, exponents: Iterable[int]) -> None:
        exps = tuple(sorted((int(k) for k in exponents), reverse=True))
        genus = int(genus)
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if any(k < 0 for k in exps):
            raise ValueError("psi-exponents must be non-negative")
        if 2 * genus - 2 + len(exps) <= 0:
            raise ValueError(f"unstable correlator ({genus}, n={len(exps)})")
        self.genus = genus
        self.exponents = exps

    @property
    def n(self) -> int:
        return len(self.exponents)

    def degree_matches(self) -> bool:
        return sum(self.exponents) == 3 * self.genus - 3 + self.n

    def serialize(self) -> str:
        return f"{self.genus}:" + ",".join(str(k) for k in self.exponents)

    @classmethod
    def deserialize(cls, s: str) -> "CorrelatorKey":
        g, _, rest = s.partition(":")
        exps = [int(x) for x in rest.split(",")] if rest else []
        return cls(int(g), exps)

    def __eq__(self, other) -> bool:
        if isinstance(other, CorrelatorKey):
            return (self.genus, self.exponents) == (other.genus, other.exponents)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.genus, self.exponents))

    def __repr__(self) -> str:
        return f"CorrelatorKey({self.genus}, {list(self.exponents)})"


class CorrelatorTable:
    """Memo table of correlator values, safe for concurrent readers.

    The table is transparent: clearing it and recomputing reproduces every
    value exactly.  `snapshot`/`load` exchange the content with the cache
    file layer (keys in the "g:k1,k2,..." form, values "num/den").
    """

    def __init__(self) -> None:
        self._data: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
        self._lock = threading.Lock()

    def get(self, g: int, exps: Tuple[int, ...]) -> Optional[Fraction]:
        return self._data.get((g, exps))

    def put(self, g: int, exps: Tuple[int, ...], value: Fraction) -> None:
        with self._lock:
            self._store((g, exps), value)

    def _store(self, key: Tuple[int, Tuple[int, ...]], value: Fraction) -> None:
        """The one write path into the memo; callers hold `_lock`."""
        prev = self._data.get(key)
        if prev is not None and prev != value:
            raise RuntimeError("divergent correlator values for one key")
        self._data[key] = value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def snapshot(self) -> Dict[str, str]:
        with self._lock:
            items = list(self._data.items())
        out = {}
        for (g, exps), v in items:
            key = CorrelatorKey(g, exps).serialize()
            out[key] = f"{v.numerator}/{v.denominator}"
        return out

    def load(self, entries: Dict[str, str]) -> None:
        with self._lock:
            for key, val in entries.items():
                try:
                    ck = CorrelatorKey.deserialize(key)
                    num, _, den = val.partition("/")
                    value = Fraction(int(num), int(den or 1))
                except (AttributeError, ValueError, ZeroDivisionError):
                    raise ValueError(
                        f"bad cache entry {key!r}: {val!r}") from None
                self._store((ck.genus, ck.exponents), value)


default_table = CorrelatorTable()


def genus0_closed_form(exponents: Sequence[int]) -> Fraction:
    """Closed form (n-3)!/prod(k_i!) for genus-0 correlators.

    Independent of the recursion below (it follows by induction on the
    string equation); used only for cross-validation.
    """
    exps = [int(k) for k in exponents]
    n = len(exps)
    if n < 3 or any(k < 0 for k in exps):
        raise ValueError("need n >= 3 non-negative exponents")
    if sum(exps) != n - 3:
        return Fraction(0)
    den = 1
    for k in exps:
        den *= factorial(k)
    return Fraction(factorial(n - 3), den)


def string_reduce(key: CorrelatorKey) -> List[Tuple[CorrelatorKey, Fraction]]:
    """One application of the string equation.

    <tau_0 prod tau_{k_i}> = sum_i <... tau_{k_i - 1} ...>: removes one zero
    exponent and returns the resulting key/coefficient pairs (terms with
    k_i = 0 are omitted; equal reduced keys are merged).
    """
    if key.genus == 0 and key.exponents == (0, 0, 0):
        raise ValueError("base case is terminal")
    if 0 not in key.exponents:
        raise ValueError("string equation needs a zero exponent")
    rest = list(key.exponents)
    rest.remove(0)
    acc: Dict[CorrelatorKey, Fraction] = {}
    for i, k in enumerate(rest):
        if k == 0:
            continue
        reduced = rest[:i] + [k - 1] + rest[i + 1:]
        rk = CorrelatorKey(key.genus, reduced)
        acc[rk] = acc.get(rk, Fraction(0)) + 1
    return sorted(acc.items(), key=lambda kv: (kv[0].genus, kv[0].exponents))


def psi_intersection(g: int, exponents: Sequence[int],
                     table: Optional[CorrelatorTable] = None) -> Fraction:
    """Top intersection of psi-classes <tau_{k_1} ... tau_{k_n}>_g.

    Everything is generated from the initial value <tau_0^3>_0 = 1, the
    string equation, and the KdV equation for the generating function of
    these numbers, coefficient-matched into the recursion on the largest
    exponent (see docs/correlator_recursion.md for the derivation).
    Off-degree queries return 0; unstable (g, n) raise.
    """
    key = CorrelatorKey(g, exponents)
    return _value(key.genus, key.exponents, table if table is not None else default_table)


def _value(g: int, exps: Tuple[int, ...], table: CorrelatorTable) -> Fraction:
    n = len(exps)
    if 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(exps) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)
    cached = table.get(g, exps)
    if cached is not None:
        return cached

    if 0 in exps:
        # string equation
        total = Fraction(0)
        for rk, coef in string_reduce(CorrelatorKey(g, exps)):
            total += coef * _value(rk.genus, rk.exponents, table)
    elif n == 1 and exps[0] == 1:
        # <tau_1>_1: the KdV equation at its base point gives
        # 6 <tau_1>_1 = (1/4) <tau_2 tau_0^4>_0.
        total = _value(0, (2, 0, 0, 0, 0), table) / 24
    else:
        total = _dvv(g, exps, table)

    table.put(g, exps, total)
    return total


def _dvv(g: int, exps: Tuple[int, ...], table: CorrelatorTable) -> Fraction:
    """Recursion on the largest exponent (exps sorted non-increasing, all
    >= 1 here, and (g, exps) is not <tau_1>_1):

    (2d+1)!! <tau_d X>_g =
        sum_{j in X} (2d+2k_j-1)!!/(2k_j-1)!! <tau_{d+k_j-1} X\\j>_g
      + 1/2 sum_{a+b=d-2} (2a+1)!!(2b+1)!! [ <tau_a tau_b X>_{g-1}
          + sum_{g1+g2=g, I sqcup J = X} <tau_a I>_{g1} <tau_b J>_{g2} ]
    """
    d = exps[0]
    rest = exps[1:]
    m = len(rest)
    total = Fraction(0)

    for j, k in enumerate(rest):
        coef = Fraction(odd_double_factorial(2 * d + 2 * k - 1),
                        odd_double_factorial(2 * k - 1))
        reduced = tuple(sorted(rest[:j] + (d + k - 1,) + rest[j + 1:], reverse=True))
        total += coef * _value(g, reduced, table)

    for a in range(d - 1):
        b = d - 2 - a
        w = Fraction(odd_double_factorial(2 * a + 1) * odd_double_factorial(2 * b + 1), 2)
        # non-separating term
        if g >= 1:
            joined = tuple(sorted((a, b) + rest, reverse=True))
            if 2 * (g - 1) - 2 + (m + 2) > 0 and sum(joined) == 3 * (g - 1) - 3 + m + 2:
                total += w * _value(g - 1, joined, table)
        # separating terms over ordered (subset, genus) splits
        for mask in range(1 << m):
            left = tuple(rest[i] for i in range(m) if mask >> i & 1)
            right = tuple(rest[i] for i in range(m) if not mask >> i & 1)
            kl = tuple(sorted((a,) + left, reverse=True))
            kr = tuple(sorted((b,) + right, reverse=True))
            for g1 in range(g + 1):
                g2 = g - g1
                if 2 * g1 - 2 + len(kl) <= 0 or 2 * g2 - 2 + len(kr) <= 0:
                    continue
                if sum(kl) != 3 * g1 - 3 + len(kl) or sum(kr) != 3 * g2 - 3 + len(kr):
                    continue
                total += w * _value(g1, kl, table) * _value(g2, kr, table)

    return total / odd_double_factorial(2 * d + 1)
