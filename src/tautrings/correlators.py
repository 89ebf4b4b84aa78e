from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from .exactmath import is_int

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
    single key.  The genus and exponents must be `int`s (not `bool`s), so
    that 1.5 or 1.9 is refused rather than truncated.  Stability
    2g - 2 + n > 0 is enforced; the degree condition sum(k_i) = 3g - 3 + n
    is *not* (off-degree correlators evaluate to 0).
    """

    __slots__ = ("genus", "exponents")

    def __init__(self, genus: int, exponents: Iterable[int]) -> None:
        exps = tuple(exponents)
        for x in (genus,) + exps:
            if not is_int(x):
                raise ValueError(f"genus and psi-exponents must be ints, got {x!r}")
        exps = tuple(sorted(exps, reverse=True))
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if any(k < 0 for k in exps):
            raise ValueError("psi-exponents must be non-negative")
        if 2 * genus - 2 + len(exps) <= 0:
            raise ValueError(f"unstable correlator ({genus}, n={len(exps)})")
        self.genus = genus
        self.exponents = exps

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
    value exactly.  An attached lookup, such as a cache file's, answers
    the keys that miss the memo: `get` and `put` ask it before they return
    None or store a value, and a value it gives enters the memo then.
    `items` and `len` see the memo alone, not what the lookup could answer.
    """

    def __init__(self) -> None:
        self._data: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
        self._lookup: Optional[Callable] = None
        self._lock = threading.Lock()

    def get(self, g: int, exps: Tuple[int, ...]) -> Optional[Fraction]:
        value = self._data.get((g, exps))
        lookup = self._lookup  # read once, since `clear` may drop it meanwhile
        if value is None and lookup is not None:
            value = lookup(g, exps)
            if value is not None:
                value = self._data.setdefault((g, exps), value)
        return value

    def put(self, g: int, exps: Tuple[int, ...], value: Fraction) -> None:
        with self._lock:
            prev = self._data.get((g, exps))
            if prev is None and self._lookup is not None:
                prev = self._lookup(g, exps)
            if prev is not None and prev != value:
                raise RuntimeError("divergent correlator values for one key")
            self._data[(g, exps)] = value

    def attach(self, lookup: Callable[[int, Tuple[int, ...]], Optional[Fraction]]) -> None:
        """Answer memo misses with `lookup(g, exps)`, a value or None, in
        place of any lookup attached before.  A memo value that `lookup`
        contradicts raises `RuntimeError` and leaves the table unchanged."""
        with self._lock:
            if any(lookup(*key) not in (None, value) for key, value in self._data.items()):
                raise RuntimeError("divergent correlator values for one key")
            self._lookup = lookup

    def items(self) -> List[Tuple[Tuple[int, Tuple[int, ...]], Fraction]]:
        """The memo's ((g, exps), value) pairs: computed, put or read."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._lookup = None

    def __len__(self) -> int:
        """The number of values in the memo: computed, put or read."""
        return len(self._data)


default_table = CorrelatorTable()


def genus0_closed_form(exponents: Sequence[int]) -> Fraction:
    """Closed form (n-3)!/prod(k_i!) for genus-0 correlators.

    Independent of the recursion below (it follows by induction on the
    string equation); used only for cross-validation.
    """
    exps = list(exponents)
    if not all(map(is_int, exps)):
        raise ValueError(f"psi-exponents must be ints, got {exps!r}")
    n = len(exps)
    if n < 3 or any(k < 0 for k in exps):
        raise ValueError("need n >= 3 non-negative exponents")
    if sum(exps) != n - 3:
        return Fraction(0)
    den = 1
    for k in exps:
        den *= factorial(k)
    return Fraction(factorial(n - 3), den)


def _runs(exps: Tuple[int, ...]) -> List[Tuple[int, int, int]]:
    """(k, multiplicity, index of the last copy) for each distinct k of a
    sorted exponent tuple, in order."""
    runs = []
    start = 0
    for i, k in enumerate(exps):
        if i + 1 == len(exps) or exps[i + 1] != k:
            runs.append((k, i + 1 - start, i))
            start = i + 1
    return runs


def _string_terms(exps: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], int]]:
    """The string equation on a sorted exponent tuple that ends in 0:
    <tau_0 X> = sum over k in X, k > 0, of <X with one k lowered by one>.

    Returns one (reduced exponents, multiplicity) pair per distinct positive
    k.  Lowering the last copy of k keeps the tuple sorted.
    """
    rest = exps[:-1]
    return [(rest[:i] + (k - 1,) + rest[i + 1:], c)
            for k, c, i in _runs(rest) if k]


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
    return sorted(((CorrelatorKey(key.genus, reduced), Fraction(mult))
                   for reduced, mult in _string_terms(key.exponents)),
                  key=lambda kv: kv[0].exponents)


def psi_intersection(g: int, exponents: Sequence[int],
                     table: Optional[CorrelatorTable] = None) -> Fraction:
    """Top intersection of psi-classes <tau_{k_1} ... tau_{k_n}>_g.

    Everything is generated from the initial value <tau_0^3>_0 = 1, the
    string equation, and the KdV equation for the generating function of
    these numbers, coefficient-matched into the recursion on the smallest
    exponent, whose quadratic sums are the shortest (see
    docs/correlator_recursion.md for the derivation).
    Off-degree queries return 0; unstable (g, n) and exponents or a genus
    that are not ints raise `ValueError`.
    """
    key = CorrelatorKey(g, exponents)
    return _value(key.genus, key.exponents, table if table is not None else default_table)


# Yields (genus, exponents) keys, is sent their values, returns a value.
_Steps = Generator[Tuple[int, Tuple[int, ...]], Fraction, Fraction]


def _value(g: int, exps: Tuple[int, ...], table: CorrelatorTable) -> Fraction:
    """Evaluate a stable key on an explicit work stack.

    Each frame holds a `_steps` generator, which yields the keys its value
    depends on and is sent their values.  A key that is neither the base
    case nor in the memo gets a frame of its own, so the depth of the
    recursion is bounded by memory, not by the interpreter's recursion
    limit.  Every key the recursion yields is stable and degree-matching.
    """
    if sum(exps) != 3 * g - 3 + len(exps):
        return Fraction(0)
    value = _known(g, exps, table)
    if value is not None:
        return value
    stack = [(g, exps, _steps(g, exps))]
    while stack:
        g, exps, steps = stack[-1]
        try:
            need = steps.send(value)
        except StopIteration as done:
            value = done.value
            table.put(g, exps, value)
            stack.pop()
            continue
        value = _known(need[0], need[1], table)
        if value is None:
            stack.append((need[0], need[1], _steps(*need)))
    return value


def _known(g: int, exps: Tuple[int, ...], table: CorrelatorTable) -> Optional[Fraction]:
    if g == 0 and len(exps) == 3:
        return Fraction(1)
    return table.get(g, exps)


def _steps(g: int, exps: Tuple[int, ...]) -> _Steps:
    """One reduction step of <tau_exps>_g, tried in this order:

    - a zero exponent: the string equation;
    - <tau_1>_1: the KdV equation at its base point gives
      6 <tau_1>_1 = (1/4) <tau_2 tau_0^4>_0;
    - an exponent 1: the dilaton equation <tau_1 X>_g = (2g-2+|X|) <X>_g;
    - otherwise (every exponent >= 2): the DVV recursion `_dvv`.
    """
    if exps[-1] == 0:
        total = Fraction(0)
        for reduced, mult in _string_terms(exps):
            total += mult * (yield g, reduced)
        return total
    if exps[-1] == 1:
        if len(exps) == 1:
            return (yield 0, (2, 0, 0, 0, 0)) / 24
        return (2 * g - 3 + len(exps)) * (yield g, exps[:-1])
    return (yield from _dvv(g, exps))


def _dvv(g: int, exps: Tuple[int, ...]) -> _Steps:
    """Recursion on the smallest exponent d (exps sorted non-increasing, all
    >= 2 here), with X the remaining multiset:

    (2d+1)!! <tau_d X>_g =
        sum_{k in X} (2d+2k-1)!!/(2k-1)!! <tau_{d+k-1} X\\k>_g
      + 1/2 sum_{a+b=d-2} (2a+1)!!(2b+1)!! [ <tau_a tau_b X>_{g-1}
          + sum_{I + J = X} prod_k C(c_k, i_k) <tau_a I>_{g1} <tau_b J>_{g-g1} ]

    The identity holds whichever exponent is distinguished; the smallest
    makes the quadratic sums over a + b = d - 2 the shortest, and keeps
    large exponents out of the memo.  The first sum runs over the distinct
    k in X, times their multiplicity; the last over sub-multisets I of X
    (i_k copies of each k that occurs c_k times), where the degree fixes
    g1 = (a + sum(I) - |I| + 2) / 3.  Each term is kept as an integer
    numerator and denominator, and the value is one Fraction over their lcm.

    Every exponent is at least 2, so no term needs a stability or genus
    guard: the degree 3g - 2 + |X| = sum(exps) >= 2 |X| + 2 gives g >= 2, so
    the genus-(g-1) key is stable; and sum(I) - |I| >= 0 gives g1 >= 1,
    likewise g - g1 = (b + sum(J) - |J| + 2) / 3 >= 1, so both split keys
    are stable with genus below g.
    """
    d = exps[-1]
    rest = exps[:-1]
    odd = [1]  # odd[i] = (2i-1)!! up to i = d + max(exps)
    for i in range(1, d + exps[0] + 1):
        odd.append(odd[-1] * (2 * i - 1))
    terms = []  # (numerator, denominator): the sum is 2 (2d+1)!! <tau_d X>_g

    runs = _runs(rest)
    for k, c, last in runs:
        # d >= 2, so d + k - 1 > k: the merged key needs sorting again
        merged = tuple(sorted(rest[:last] + rest[last + 1:] + (d + k - 1,),
                              reverse=True))
        v = yield g, merged
        terms.append((2 * c * (odd[d + k] // odd[k]) * v.numerator, v.denominator))

    splits = [((), (), 0, 0, 1)]  # (I, J, sum(I), |I|, binomial weight)
    for k, c, _ in runs:
        splits = [(left + (k,) * i, right + (k,) * (c - i), s + k * i, n + i,
                   wt * comb(c, i))
                  for left, right, s, n, wt in splits for i in range(c + 1)]

    # a + b = d - 2, and swapping a with b (and I with J) permutes the
    # terms, so only a <= b is summed, a < b twice.
    pair = [odd[a + 1] * odd[d - 1 - a] * (1 if 2 * a == d - 2 else 2)
            for a in range(d // 2)]
    for a, w in enumerate(pair):
        v = yield g - 1, tuple(sorted((a, d - 2 - a) + rest, reverse=True))
        terms.append((w * v.numerator, v.denominator))

    for left, right, s, n, wt in splits:
        for a in range((n - s - 2) % 3, d // 2, 3):  # g1 is an integer
            g1 = (a + s - n + 2) // 3
            v = yield g1, tuple(sorted((a,) + left, reverse=True))
            u = yield g - g1, tuple(sorted((d - 2 - a,) + right, reverse=True))
            terms.append((pair[a] * wt * v.numerator * u.numerator,
                          v.denominator * u.denominator))

    den = lcm(*(q for _, q in terms))
    return Fraction(sum(p * (den // q) for p, q in terms), 2 * odd[d + 1] * den)
