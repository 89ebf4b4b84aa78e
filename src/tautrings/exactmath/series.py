from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import check_int
from .gradedpoly import GeneratorTable

__all__ = ["TruncatedSeries", "series_log", "series_exp", "series_mul"]

ExpVec = Tuple[int, ...]
# one weight slice: int numerators over one positive int denominator
Slice = Tuple[Dict[ExpVec, int], int]
Slices = Dict[int, Slice]


class TruncatedSeries:
    """Sparse multivariate power series over the generators of a
    `GeneratorTable`, truncated by total weighted degree.

    A coefficient container for `series_exp`, `series_log` and
    `series_mul`, which do the multiplying; the only arithmetic on the
    series itself is multiplying by a scalar, which scales every
    coefficient.  A constant term enters through the coefficient map.

    Coefficients are rationals, stored per weight slice as int numerators
    over one positive int denominator, with no common factor of the
    denominator and all the numerators; `coeffs`, `coefficient` and
    `constant_term` give them as `Fraction`s.  Exponents may be negative
    (Laurent directions), as long as every stored monomial has
    non-negative weight and the only weight-0 monomial is the constant
    one; the truncation `order` then stays a multiplicative quotient.
    The order and the exponents must be ints.
    """

    __slots__ = ("gens", "order", "_slices")

    def __init__(self, gens: GeneratorTable, order: int,
                 coeffs: Optional[Mapping[ExpVec, Fraction]] = None) -> None:
        self.gens = gens
        self.order = check_int("order", order)
        kept: Dict[int, Dict[ExpVec, Fraction]] = {}
        for ev, c in (coeffs or {}).items():
            ev = gens.monomial(ev)
            w = gens.degree(ev)
            if not 0 <= w <= self.order:
                continue
            if w == 0 and any(ev):
                raise ValueError("weight-0 monomial other than the constant")
            c = Fraction(c)
            if c:
                kept.setdefault(w, {})[ev] = c
        # over the lcm of its denominators a slice has no common factor
        self._slices: Slices = {}
        for w, terms in kept.items():
            den = lcm(*(c.denominator for c in terms.values()))
            self._slices[w] = ({ev: c.numerator * (den // c.denominator)
                                for ev, c in terms.items()}, den)

    def _spawn(self, slices: Slices) -> "TruncatedSeries":
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.gens, s.order, s._slices = self.gens, self.order, slices
        return s

    # ---- coefficients as Fractions -------------------------------------

    @property
    def coeffs(self) -> Dict[ExpVec, Fraction]:
        """A new dict of every nonzero coefficient, weight by weight."""
        return self.coeffs_at(self._slices)

    def coeffs_at(self, weights: Iterable[int]) -> Dict[ExpVec, Fraction]:
        """`coeffs` on the given weights alone: only their slices become `Fraction`s."""
        return {ev: Fraction(n, den) for w in weights if w in self._slices
                for nums, den in (self._slices[w],) for ev, n in nums.items()}

    def __len__(self) -> int:
        """The number of nonzero coefficients."""
        return sum(len(nums) for nums, _ in self._slices.values())

    def coefficient(self, ev: ExpVec) -> Fraction:
        ev = tuple(ev)
        nums, den = self._slices.get(self.gens.degree(ev), ({}, 1))
        return Fraction(nums.get(ev, 0), den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.gens))

    # ---- scalar arithmetic ---------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return self._spawn({})
        p, q = other.as_integer_ratio()
        return self._spawn({w: _reduced({ev: n * p for ev, n in nums.items()}, den * q)
                            for w, (nums, den) in self._slices.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"TruncatedSeries({self.gens!r}, order={self.order}, "
                f"terms={len(self)})")


def _reduced(nums: Dict[ExpVec, int], den: int) -> Optional[Slice]:
    """The nonzero terms of nums/den with their common factor removed, or
    None when every term cancelled."""
    nums = {ev: n for ev, n in nums.items() if n}
    if not nums:
        return None
    g = gcd(den, *nums.values())
    if g > 1:
        nums = {ev: n // g for ev, n in nums.items()}
        den //= g
    return nums, den


def _weighted(s: TruncatedSeries) -> Slices:
    """N(s) on positive weights, where N scales each monomial by its
    weight: slice w is w times slice w of s, still without a common
    factor."""
    out: Slices = {}
    for w, (nums, den) in s._slices.items():
        if w:
            g = gcd(w, den)
            k = w // g
            out[w] = ({ev: n * k for ev, n in nums.items()}, den // g)
    return out


def _combine(pairs: Sequence[Tuple[Slice, Slice]],
             start: Optional[Slice] = None, divisor: int = 1) -> Optional[Slice]:
    """(start + sum of a * b over the slice pairs) / divisor as one slice,
    or None when it is zero.

    Every product is taken over the lcm of the denominators, so the terms
    add as ints.  Callers pair only slices whose weights sum to at most the
    order, so every product is kept."""
    dens = [a[1] * b[1] for a, b in pairs]
    if start is not None:
        dens.append(start[1])
    if not dens:
        return None
    den = lcm(*dens)
    acc: Dict[ExpVec, int] = {}
    if start is not None:
        k = den // start[1]
        acc = {ev: n * k for ev, n in start[0].items()}
    for ((na, _), (nb, _)), d in zip(pairs, dens):
        k = den // d
        for ev1, c1 in na.items():
            c1 *= k
            for ev2, c2 in nb.items():
                ev = tuple(map(add, ev1, ev2))
                acc[ev] = acc.get(ev, 0) + c1 * c2
    return _reduced(acc, den * divisor)


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential of a series with zero constant term.

    Computed degree by degree through the Euler-operator identity
    N(exp s) = N(s) * exp s, where N scales each monomial by its weight;
    this avoids forming explicit powers of s.
    """
    if s.constant_term() != 0:
        raise ValueError("series_exp requires zero constant term")
    ns = _weighted(s)
    out: Slices = {0: ({(0,) * len(s.gens): 1}, 1)}
    for w in range(1, s.order + 1):
        sl = _combine([(ns[v], out[w - v]) for v in range(1, w + 1)
                        if v in ns and w - v in out], divisor=w)
        if sl:
            out[w] = sl
    return s._spawn(out)


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term 1.

    One pass over the weights, with no reciprocal of s: L = log s solves
    s * N(L) = N(s), so since s_0 = 1,
        N(L)_w = N(s)_w - sum_{0<v<w} s_v * N(L)_{w-v},   L_w = N(L)_w / w,
    and exp(log s) == s to truncation order.
    """
    if s.constant_term() != 1:
        raise ValueError("series_log requires constant term 1")
    ns = _weighted(s)
    minus_s = {w: ({ev: -n for ev, n in nums.items()}, den)
               for w, (nums, den) in s._slices.items() if w}
    nl: Slices = {}
    out: Slices = {}
    for w in range(1, s.order + 1):
        sl = _combine([(minus_s[v], nl[w - v]) for v in range(1, w)
                        if v in minus_s and w - v in nl], ns.get(w))
        if sl:
            nl[w] = sl
            out[w] = _reduced(sl[0], sl[1] * w)
    return s._spawn(out)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The product a * b, truncated at a's order; b must be over a's
    generator table.  Pairs of weight slices past the order are never
    formed."""
    if a.gens != b.gens:
        raise ValueError("series_mul needs series over the same generators")
    pairs: Dict[int, List[Tuple[Slice, Slice]]] = {}
    for wa, sa in a._slices.items():
        for wb, sb in b._slices.items():
            if wa + wb <= a.order:
                pairs.setdefault(wa + wb, []).append((sa, sb))
    out: Slices = {}
    for w in sorted(pairs):
        sl = _combine(pairs[w])
        if sl:
            out[w] = sl
    return a._spawn(out)
