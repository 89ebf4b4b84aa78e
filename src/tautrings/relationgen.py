from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import (GeneratorTable, GradedPolynomial, Partition,
                        SparseEchelon, TruncatedSeries, bernoulli, partitions,
                        relation_rows, series_exp, series_log)
from .closedforms import kappa_table

__all__ = [
    "KappaRelation",
    "psi_series",
    "fz_coefficients",
    "fz_admissible",
    "fz_relation",
    "fz_relation_set",
    "sq_phi_series",
    "sq_coefficients",
    "sq_admissible",
    "sq_relation",
    "sq_relation_set",
    "ideal_equivalence_check",
    "relation_span",
]


def _part_ok(p: int) -> bool:
    return p % 3 != 2


@dataclass(frozen=True)
class KappaRelation:
    """A homogeneous kappa-polynomial relation with its provenance index:
    source "FZ" with index (r, sigma) or "SQ" with index (r, d)."""

    source: str
    genus: int
    r: int
    index: Tuple[int, ...]  # sigma parts for FZ, (d,) for SQ
    polynomial: GradedPolynomial

    def export(self) -> dict:
        idx = ({"r": self.r, "sigma": list(self.index)} if self.source == "FZ"
               else {"r": self.r, "d": self.index[0]})
        return {
            "source": self.source,
            "g": self.genus,
            "index": idx,
            "polynomial": self.polynomial.export(),
        }


# ---------------------------------------------------------------------------
# The hypergeometric-branch series and its log coefficients
# ---------------------------------------------------------------------------

def _branch_a(i: int) -> Fraction:
    return Fraction(factorial(6 * i), factorial(3 * i) * factorial(2 * i))


def _branch_b(i: int) -> Fraction:
    return _branch_a(i) * Fraction(6 * i + 1, 6 * i - 1)


def _p_vars(order: int) -> List[Tuple[str, int]]:
    return [(f"p{j}", j) for j in range(1, order + 1) if _part_ok(j)]


def psi_series(order: int) -> TruncatedSeries:
    """The two-branch series in t (weight 1) and p_j (weight j, j not 2 mod
    3), truncated at total weight `order`:

        (1 + t p_3 + t^2 p_6 + ...) * sum_i a_i t^i
      + (p_1 + t p_4 + t^2 p_7 + ...) * sum_i a_i (6i+1)/(6i-1) t^i,

    a_i = (6i)!/((3i)!(2i)!).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    variables = [("t", 1)] + _p_vars(order)
    names = [n for n, _ in variables]
    nvars = len(names)

    def mono(t_exp: int, p_name: Optional[str] = None) -> Tuple[int, ...]:
        ev = [0] * nvars
        ev[0] = t_exp
        if p_name is not None:
            ev[names.index(p_name)] = 1
        return tuple(ev)

    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    for i in range(order + 1):
        a_i = _branch_a(i)
        b_i = _branch_b(i)
        # first branch: t^{k+i} p_{3k} (k = 0 term has no p factor)
        coeffs[mono(i)] = coeffs.get(mono(i), Fraction(0)) + a_i
        k = 1
        while 4 * k + i <= order:
            ev = mono(k + i, f"p{3 * k}")
            coeffs[ev] = coeffs.get(ev, Fraction(0)) + a_i
            k += 1
        # second branch: t^{k+i} p_{3k+1}
        k = 0
        while 4 * k + 1 + i <= order:
            ev = mono(k + i, f"p{3 * k + 1}")
            coeffs[ev] = coeffs.get(ev, Fraction(0)) + b_i
            k += 1
    return TruncatedSeries(variables, order, coeffs)


@lru_cache(maxsize=None)
def _fz_log(order: int) -> TruncatedSeries:
    return series_log(psi_series(order))


def fz_coefficients(order: int) -> Dict[Tuple[int, Tuple[int, ...]], Fraction]:
    """Coefficients C_r(sigma) of log of the branch series, keyed by
    (r, sigma parts), for r + |sigma| <= order."""
    log = _fz_log(order)
    names = log.variables
    out: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
    for ev, c in log.coeffs.items():
        r = ev[0]
        sigma: List[int] = []
        for name, e in zip(names[1:], ev[1:]):
            sigma.extend([int(name[1:])] * e)
        out[(r, tuple(sorted(sigma, reverse=True)))] = c
    return out


# ---------------------------------------------------------------------------
# FZ relations
# ---------------------------------------------------------------------------

def fz_admissible(g: int, r: int, sigma: Sequence[int]) -> bool:
    """The two side conditions: g - 1 + |sigma| < 3r and
    g = r + |sigma| + 1 (mod 2)."""
    size = sum(sigma)
    if any(p % 3 == 2 for p in sigma):
        raise ValueError("sigma parts must not be 2 mod 3")
    return (g - 1 + size < 3 * r) and ((g - r - size - 1) % 2 == 0)


def _kappa_value(g: int, r: int, gens: GeneratorTable,
                 kappa_ceiling: int) -> Optional[GradedPolynomial]:
    """kappa_r as a coefficient: kappa_0 = 2g-2, indices above the ceiling
    are zero (top-degree vanishing of the ring model)."""
    if r == 0:
        return GradedPolynomial.constant(gens, 2 * g - 2)
    if r > kappa_ceiling:
        return None
    return GradedPolynomial.generator(gens, f"kappa_{r}")


def _fz_exp_minus_gamma(g: int, rmax: int, smax: int,
                        gens: GeneratorTable, kappa_ceiling: int) -> TruncatedSeries:
    """exp(-gamma) with gamma = sum C_r(sigma) kappa_r t^r p^sigma, truncated
    to t-exponent <= rmax and total weight rmax + smax."""
    order = rmax + smax
    ctab = fz_coefficients(order)
    variables = [("t", 1)] + _p_vars(order)
    names = [n for n, _ in variables]
    gamma_coeffs: Dict[Tuple[int, ...], GradedPolynomial] = {}
    for (r, sigma), c in ctab.items():
        if r > rmax or sum(sigma) > smax:
            continue
        kap = _kappa_value(g, r, gens, kappa_ceiling)
        if kap is None:
            continue
        ev = [0] * len(names)
        ev[0] = r
        for part in sigma:
            ev[names.index(f"p{part}")] += 1
        gamma_coeffs[tuple(ev)] = kap * (-c)
    minus_gamma = TruncatedSeries(variables, order, gamma_coeffs,
                                  caps={"t": rmax})
    return series_exp(minus_gamma)


def fz_relation(g: int, r: int, sigma,
                _series: Optional[TruncatedSeries] = None) -> Optional[KappaRelation]:
    """The relation [exp(-gamma)]_{t^r p^sigma} as a homogeneous degree-r
    kappa-polynomial, or None when the (r, sigma) index fails the side
    conditions."""
    sigma = Partition(sigma) if not isinstance(sigma, Partition) else sigma
    if not fz_admissible(g, r, sigma.parts):
        return None
    gens = kappa_table(max(g - 2, 1))
    expo = _series if _series is not None else _fz_exp_minus_gamma(
        g, r, sigma.size, gens, max(g - 2, 0))
    ev = [0] * len(expo.variables)
    ev[0] = r
    for part in sigma.parts:
        ev[expo.var_index(f"p{part}")] += 1
    c = expo.coefficient(tuple(ev))
    poly = (GradedPolynomial.constant(gens, c) if isinstance(c, Fraction)
            else c)
    return KappaRelation("FZ", g, r, sigma.parts, poly)


def fz_relation_set(g: int, max_degree: int) -> List[KappaRelation]:
    """All admissible FZ relations of degree r <= max_degree, with kappa
    indices capped at g-2 (classes of higher degree vanish in the ring
    model, so their generators are substituted by zero)."""
    out: List[KappaRelation] = []
    if max_degree < 1:
        return out
    smax = max(3 * max_degree - g, 0)
    gens = kappa_table(max(g - 2, 1))
    expo = None
    for r in range(1, max_degree + 1):
        bound = 3 * r - g  # |sigma| < 3r - g + 1
        if bound < 0:
            continue
        for size in range(0, bound + 1):
            if (g - r - size - 1) % 2:
                continue
            for sigma in partitions(size, part_ok=_part_ok):
                if expo is None:
                    expo = _fz_exp_minus_gamma(g, max_degree, smax, gens,
                                               max(g - 2, 0))
                rel = fz_relation(g, r, sigma, _series=expo)
                if rel is not None and not rel.polynomial.is_zero():
                    out.append(rel)
    return out


# ---------------------------------------------------------------------------
# Stable-quotient relations
# ---------------------------------------------------------------------------

class _Laurent:
    """Minimal Laurent series in t with exact coefficients: dict exp -> Q."""

    __slots__ = ("c",)

    def __init__(self, c: Optional[Dict[int, Fraction]] = None) -> None:
        self.c = {k: v for k, v in (c or {}).items() if v}

    def __mul__(self, other: "_Laurent") -> "_Laurent":
        out: Dict[int, Fraction] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + v1 * v2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _Laurent(out)

    def scale(self, f: Fraction) -> "_Laurent":
        return _Laurent({e: v * f for e, v in self.c.items()})

    def add_into(self, acc: Dict[int, Fraction], f: Fraction) -> None:
        for e, v in self.c.items():
            s = acc.get(e, Fraction(0)) + v * f
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)

    def truncate(self, tmax: int) -> "_Laurent":
        return _Laurent({e: v for e, v in self.c.items() if e <= tmax})


def _phi_x_slice(d: int, tmax: int) -> _Laurent:
    """Coefficient of x^d in the stable-quotient series: the Laurent series
    (-1)^d/(d! t^d) * prod_{i=1}^{d} (1 - i t)^{-1}, to t-precision tmax."""
    if d == 0:
        return _Laurent({0: Fraction(1)})
    # prod (1 - i t)^{-1} up to t^{tmax + d}
    prec = tmax + d
    poly = [Fraction(1)] + [Fraction(0)] * prec
    for i in range(1, d + 1):
        # multiply by (1 - i t)^{-1}: y_k = x_k + i * y_{k-1}
        for k in range(1, prec + 1):
            poly[k] = poly[k] + i * poly[k - 1]
    lead = Fraction((-1) ** d, factorial(d))
    return _Laurent({k - d: lead * poly[k] for k in range(prec + 1) if poly[k]})


def sq_phi_series(order: int) -> TruncatedSeries:
    """The stable-quotient series in t (weight 1) and x (weight 2), with the
    genuine negative t-powers per x-degree (bounded below by -d at x^d, so
    all monomial weights stay non-negative)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    variables = [("t", 1), ("x", 2)]
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for d in range(0, order + 1):
        if 2 * d - d > order:
            break
        sl = _phi_x_slice(d, order)
        for e, v in sl.c.items():
            if e + 2 * d <= order:
                coeffs[(e, d)] = v
    return TruncatedSeries(variables, order, coeffs)


@lru_cache(maxsize=None)
def _sq_log_slices(dmax: int, tmax: int) -> Tuple[Tuple[Tuple[int, Fraction], ...], ...]:
    """x-slices of log of the stable-quotient series, as tuples
    (slice d=0, ..., slice d=dmax) of (t-exponent, coefficient) pairs."""
    prec = tmax + dmax + 1
    phi = [_phi_x_slice(d, prec) for d in range(dmax + 1)]
    # log(1 + u), u = sum_{d>=1} phi_d x^d: accumulate powers of u
    log_sl: List[Dict[int, Fraction]] = [dict() for _ in range(dmax + 1)]
    # power[k][d] = x^d slice of u^k
    power: List[List[_Laurent]] = [[_Laurent() for _ in range(dmax + 1)]]
    unit = [_Laurent({0: Fraction(1)})] + [_Laurent() for _ in range(dmax)]
    power[0] = unit
    for k in range(1, dmax + 1):
        prev = power[k - 1]
        cur = [_Laurent() for _ in range(dmax + 1)]
        for d1 in range(k - 1, dmax):      # u^{k-1} has x-order >= k-1
            if not prev[d1].c:
                continue
            for d2 in range(1, dmax - d1 + 1):
                if not phi[d2].c:
                    continue
                prod = prev[d1] * phi[d2]
                acc = cur[d1 + d2].c
                for e, v in prod.c.items():
                    s = acc.get(e, Fraction(0)) + v
                    if s:
                        acc[e] = s
                    else:
                        acc.pop(e, None)
        power.append(cur)
        f = Fraction((-1) ** (k + 1), k)
        for d in range(k, dmax + 1):
            power[k][d] = power[k][d].truncate(prec)
            power[k][d].add_into(log_sl[d], f)
    return tuple(
        tuple(sorted((e, v) for e, v in log_sl[d].items() if e <= tmax))
        for d in range(dmax + 1))


def sq_coefficients(dmax: int, rmax: int) -> Dict[Tuple[int, int], Fraction]:
    """Coefficients C_d^r of the log of the stable-quotient series
    (log Phi = sum C_d^r t^r x^d / d!), for 1 <= d <= dmax, r <= rmax.
    The t-order is -1 at every x-degree (deeper poles cancel)."""
    slices = _sq_log_slices(dmax, rmax)
    out: Dict[Tuple[int, int], Fraction] = {}
    for d in range(1, dmax + 1):
        for e, v in slices[d]:
            if e <= rmax:
                out[(d, e)] = v * factorial(d)
    return out


def sq_admissible(g: int, r: int, d: int) -> bool:
    """Side conditions g - 2d - 1 < r and g = r + 1 (mod 2)."""
    return d >= 1 and (g - 2 * d - 1 < r) and ((g - r - 1) % 2 == 0)


def _sq_exp_minus_gamma(g: int, rmax: int, dmax: int,
                        gens: GeneratorTable, kappa_ceiling: int) -> TruncatedSeries:
    """exp(-gamma) for the stable-quotient gamma:
    sum B_{2i} kappa_{2i-1} t^{2i-1}/(2i(2i-1))
      + sum C_d^r kappa_r t^r x^d / d!,
    with kappa_{-1} = 0 and kappa_0 = 2g-2 substituted."""
    order = rmax + 2 * dmax
    variables = [("t", 1), ("x", 2)]
    coeffs: Dict[Tuple[int, int], GradedPolynomial] = {}
    i = 1
    while 2 * i - 1 <= rmax:
        kap = _kappa_value(g, 2 * i - 1, gens, kappa_ceiling)
        if kap is not None:
            c = bernoulli(2 * i) / Fraction(2 * i * (2 * i - 1))
            coeffs[(2 * i - 1, 0)] = kap * (-c)
        i += 1
    ctab = sq_coefficients(dmax, rmax)
    for (d, r), c in ctab.items():
        if r < 0:
            continue  # kappa_{-1} = 0
        kap = _kappa_value(g, r, gens, kappa_ceiling)
        if kap is None:
            continue
        val = kap * (-c / Fraction(factorial(d)))
        key = (r, d)
        if key in coeffs:
            val = coeffs[key] + val
        if val:
            coeffs[key] = val
    minus_gamma = TruncatedSeries(variables, order, coeffs,
                                  caps={"t": rmax, "x": dmax})
    return series_exp(minus_gamma)


def sq_relation(g: int, r: int, d: int,
                _series: Optional[TruncatedSeries] = None) -> Optional[KappaRelation]:
    """The relation [exp(-gamma)]_{t^r x^d} as a homogeneous degree-r
    kappa-polynomial (kappa_{-1} = 0, kappa_0 = 2g-2 substituted), or None
    when (r, d) fails the side conditions."""
    if r < 0:
        return None
    if not sq_admissible(g, r, d):
        return None
    gens = kappa_table(max(g - 2, 1))
    expo = _series if _series is not None else _sq_exp_minus_gamma(
        g, r, d, gens, max(g - 2, 0))
    c = expo.coefficient((r, d))
    poly = (GradedPolynomial.constant(gens, c) if isinstance(c, Fraction)
            else c)
    return KappaRelation("SQ", g, r, (d,), poly)


def sq_relation_set(g: int, max_degree: int,
                    dmax: Optional[int] = None) -> List[KappaRelation]:
    """Admissible stable-quotient relations of degree r <= max_degree.

    The side condition admits arbitrarily large x-degrees d; the span of
    relations at fixed r stabilizes quickly, so d runs up to `dmax`
    (default: smallest admissible d plus max_degree + 2; see
    ideal_equivalence_check for the stabilization-controlled variant)."""
    out: List[KappaRelation] = []
    if max_degree < 1:
        return out
    gens = kappa_table(max(g - 2, 1))
    if dmax is None:
        dmax = max((g + 2) // 2, 1) + max_degree + 2
    expo = _sq_exp_minus_gamma(g, max_degree, dmax, gens, max(g - 2, 0))
    for r in range(1, max_degree + 1):
        for d in range(1, dmax + 1):
            if not sq_admissible(g, r, d):
                continue
            rel = sq_relation(g, r, d, _series=expo)
            if rel is not None and not rel.polynomial.is_zero():
                out.append(rel)
    return out


# ---------------------------------------------------------------------------
# Span comparison
# ---------------------------------------------------------------------------

def relation_span(relations: Sequence[KappaRelation], g: int,
                  degree: int) -> SparseEchelon:
    """Echelonized span at the given degree of {monomial * relation} inside
    the degree-`degree` monomial space of Q[kappa_1..kappa_{g-2}]."""
    ech = SparseEchelon()
    for row in relation_rows(kappa_table(max(g - 2, 1)),
                             [rel.polynomial for rel in relations], degree):
        ech.add_row(row)
    return ech


def ideal_equivalence_check(g: int, degree: int) -> bool:
    """Whether the FZ span and the stable-quotient span coincide in the
    given degree: both ranks equal the rank of their joint span.

    The SQ side is generated with increasing x-degree cap until two
    consecutive caps add no rank (the documented stabilization rule)."""
    if degree <= 0:
        return True
    fz = fz_relation_set(g, degree)
    fz_span = relation_span(fz, g, degree)

    dmax = max((g + 2) // 2, 1) + degree
    sq = sq_relation_set(g, degree, dmax=dmax)
    sq_span = relation_span(sq, g, degree)
    while True:
        bigger = sq_relation_set(g, degree, dmax=dmax + 2)
        bigger_span = relation_span(bigger, g, degree)
        if bigger_span.rank == sq_span.rank:
            sq = bigger
            sq_span = bigger_span
            break
        dmax += 2
        sq, sq_span = bigger, bigger_span

    return (fz_span.rank == sq_span.rank
            == relation_span(fz + sq, g, degree).rank)
