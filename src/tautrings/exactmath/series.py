from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Callable, Dict, Mapping, Optional, Tuple

from .gradedpoly import GeneratorTable

__all__ = ["TruncatedSeries", "series_log", "series_exp", "series_mul"]

ExpVec = Tuple[int, ...]
Caps = Tuple[Tuple[int, int], ...]
Slices = Dict[int, Dict[ExpVec, Fraction]]


class TruncatedSeries:
    """Sparse multivariate power series over the generators of a
    `GeneratorTable`, truncated by total weighted degree.

    A coefficient container for `series_exp`, `series_log` and
    `series_mul`, which do the multiplying; the only arithmetic on the
    series itself is adding or subtracting a scalar, which shifts the
    constant term.

    Coefficients are Fractions.  Exponents may be negative (Laurent
    directions), as long as every stored monomial has non-negative weight
    and the only weight-0 monomial is the constant one; the truncation
    `order` then stays a multiplicative quotient.  `caps` optionally bounds
    single exponents (terms beyond a cap are discarded, a further
    quotient).
    """

    __slots__ = ("gens", "order", "caps", "coeffs")

    def __init__(self, gens: GeneratorTable, order: int,
                 coeffs: Optional[Mapping[ExpVec, Fraction]] = None,
                 caps: Optional[Mapping[str, int]] = None) -> None:
        self.gens = gens
        self.order = int(order)
        # (generator index, largest exponent kept) pairs
        self.caps: Caps = tuple(
            (gens.index(n), int(c)) for n, c in (caps or {}).items())
        self.coeffs: Dict[ExpVec, Fraction] = {}
        if coeffs:
            for ev, c in coeffs.items():
                self._put(tuple(int(e) for e in ev), c)

    # ---- bookkeeping ---------------------------------------------------

    def _keep(self, ev: ExpVec) -> bool:
        w = self.gens.degree(ev)
        if w < 0 or w > self.order:
            return False
        if w == 0 and any(ev):
            raise ValueError("weight-0 monomial other than the constant")
        return _within_caps(self.caps, ev)

    def _put(self, ev: ExpVec, c) -> None:
        if not self._keep(ev):
            return
        c = Fraction(c)
        if c:
            self.coeffs[ev] = c

    def _spawn(self) -> "TruncatedSeries":
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.gens, s.order, s.caps = self.gens, self.order, self.caps
        s.coeffs = {}
        return s

    def coefficient(self, ev: ExpVec) -> Fraction:
        return self.coeffs.get(tuple(ev), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.gens), Fraction(0))

    # ---- scalar shifts -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        out = self._spawn()
        out.coeffs = dict(self.coeffs)
        zero_ev = (0,) * len(self.gens)
        s = out.coeffs.get(zero_ev, Fraction(0)) + other
        if s:
            out.coeffs[zero_ev] = s
        else:
            out.coeffs.pop(zero_ev, None)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self) -> str:
        return (f"TruncatedSeries({self.gens!r}, order={self.order}, "
                f"terms={len(self.coeffs)})")


def _within_caps(caps: Caps, ev: ExpVec) -> bool:
    return all(ev[i] <= cap for i, cap in caps)


def _slices(s: TruncatedSeries, scale: Callable[[Fraction, int], Fraction]) -> Slices:
    """The monomials of s grouped by weight w, each coefficient c replaced
    by scale(c, w); scale = mul gives N(s), where N scales each monomial by
    its weight (`series_exp` and `series_log` read only positive weights)."""
    out: Slices = {}
    for ev, c in s.coeffs.items():
        w = s.gens.degree(ev)
        out.setdefault(w, {})[ev] = scale(c, w)
    return out


def _graded_convolve(caps: Caps, a: Slices, b: Slices, wa: int, wb: int,
                     out: Dict[ExpVec, Fraction]) -> None:
    """out += (weight-wa slice of a) * (weight-wb slice of b).

    Callers keep wa + wb <= order, so every product has an admissible
    weight and only the exponent caps can reject it."""
    sa = a.get(wa)
    sb = b.get(wb)
    if not sa or not sb:
        return
    for ev1, c1 in sa.items():
        for ev2, c2 in sb.items():
            ev = tuple(map(add, ev1, ev2))
            if caps and not _within_caps(caps, ev):
                continue
            p = c1 * c2
            s = out.get(ev)
            s = p if s is None else s + p
            if s:
                out[ev] = s
            else:
                del out[ev]


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential of a series with zero constant term.

    Computed degree by degree through the Euler-operator identity
    N(exp s) = N(s) * exp s, where N scales each monomial by its weight;
    this avoids forming explicit powers of s.
    """
    if s.constant_term() != 0:
        raise ValueError("series_exp requires zero constant term")
    ns = _slices(s, mul)
    out = s._spawn()
    zero_ev = (0,) * len(s.gens)
    out.coeffs[zero_ev] = Fraction(1)
    eslices: Slices = {0: {zero_ev: Fraction(1)}}
    for w in range(1, s.order + 1):
        acc: Dict[ExpVec, Fraction] = {}
        for v in range(1, w + 1):
            _graded_convolve(s.caps, ns, eslices, v, w - v, acc)
        if acc:
            eslices[w] = {ev: c / Fraction(w) for ev, c in acc.items()}
            out.coeffs.update(eslices[w])
    return out


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term 1.

    One pass over the weights, with no reciprocal of s: L = log s solves
    s * N(L) = N(s), so since s_0 = 1,
        N(L)_w = N(s)_w - sum_{0<v<w} s_v * N(L)_{w-v},   L_w = N(L)_w / w,
    and exp(log s) == s to truncation order.
    """
    if s.constant_term() != 1:
        raise ValueError("series_log requires constant term 1")
    ns = _slices(s, mul)
    minus_s = _slices(s, lambda c, w: -c)
    out = s._spawn()
    nlslices: Slices = {}
    for w in range(1, s.order + 1):
        acc: Dict[ExpVec, Fraction] = dict(ns.get(w, {}))
        for v in range(1, w):
            _graded_convolve(s.caps, minus_s, nlslices, v, w - v, acc)
        if acc:
            nlslices[w] = acc
            out.coeffs.update((ev, c / Fraction(w)) for ev, c in acc.items())
    return out


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The product a * b, truncated at a's order and caps; b must be over
    a's generator table.  Pairs of weight slices past the order are never
    formed."""
    if a.gens != b.gens:
        raise ValueError("series_mul needs series over the same generators")
    sa = _slices(a, lambda c, w: c)
    sb = _slices(b, lambda c, w: c)
    out = a._spawn()
    for wa in sa:
        for wb in sb:
            if wa + wb <= a.order:
                _graded_convolve(a.caps, sa, sb, wa, wb, out.coeffs)
    return out
