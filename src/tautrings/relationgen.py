from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import (GeneratorTable, GradedPolynomial, SparseEchelon,
                        TruncatedSeries, check_int, relation_echelon,
                        series_exp, series_log, series_mul)
from .closedforms import complete_homogeneous, kappa_table, mumford_terms

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


class KappaRelation(NamedTuple):
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
    return [(f"p{j}", j) for j in range(1, order + 1) if j % 3 != 2]


def psi_series(order: int) -> TruncatedSeries:
    """The two-branch series in t (weight 1) and p_j (weight j, j not 2 mod
    3), truncated at total weight `order`:

        (1 + t p_3 + t^2 p_6 + ...) * sum_i a_i t^i
      + (p_1 + t p_4 + t^2 p_7 + ...) * sum_i a_i (6i+1)/(6i-1) t^i,

    a_i = (6i)!/((3i)!(2i)!).
    """
    if check_int("order", order) < 0:
        raise ValueError("order must be >= 0")
    gens = GeneratorTable([("t", 1)] + _p_vars(order))

    def mono(t_exp: int, p_name: Optional[str] = None) -> Tuple[int, ...]:
        ev = [0] * len(gens)
        ev[0] = t_exp
        if p_name is not None:
            ev[gens.index(p_name)] = 1
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
    return TruncatedSeries(gens, order, coeffs)


@lru_cache(maxsize=None)
def _fz_log(order: int) -> TruncatedSeries:
    """log of the branch series, exact at every t^r p^sigma with
    r + |sigma| <= order."""
    return series_log(psi_series(order))


Index = Tuple[int, Tuple[int, ...]]  # (r, sigma parts) or (r, (d,))
RelationTable = Dict[Index, GradedPolynomial]
ExpVec = Tuple[int, ...]


def _sigma(names: Sequence[str], ev: ExpVec) -> Tuple[int, ...]:
    """The parts of the partition sigma whose monomial p^sigma has
    exponent vector ev over the variables `names` ("p1", "p3", ...)."""
    sigma: List[int] = []
    for name, e in zip(names, ev):
        sigma.extend([int(name[1:])] * e)
    return tuple(sorted(sigma, reverse=True))


def fz_coefficients(order: int) -> Dict[Index, Fraction]:
    """Coefficients C_r(sigma) of log of the branch series, keyed by
    (r, sigma parts), for r + |sigma| <= order, sorted by (r, sigma)."""
    check_int("order", order)
    log = _fz_log(order)
    return dict(sorted(((ev[0], _sigma(log.gens.names[1:], ev[1:])), c)
                       for ev, c in log.coeffs.items()))


# ---------------------------------------------------------------------------
# Relations as coefficients of exp(-gamma), shared by FZ and SQ
# ---------------------------------------------------------------------------

def _exp_minus_gamma(g: int, rmax: int, variables: GeneratorTable,
                     order: int, gamma: Dict[int, Dict[ExpVec, Fraction]]
                     ) -> RelationTable:
    """exp(-gamma) for gamma = sum_r kappa_r t^r A_r, where gamma[r] holds
    the coefficients of A_r, a series over `variables` truncated at weight
    `order`; kept up to t-degree rmax, as {(r, exponent vector of m):
    nonzero kappa-polynomial coefficient of t^r m}.

    kappa_0 = 2g-2 is substituted, and kappa_r = 0 for r < 0 and for
    r > g-2 (top-degree vanishing of the ring model).  gamma is linear in
    kappa_1..kappa_{g-2}, so the coefficient of the kappa monomial
    kappa^m (which carries t^|m|) is

        E_0 * prod_r (-A_r)^{m_r} / m_r!,   E_0 = exp(-(2g-2) A_0),

    a series over Q.  A depth-first walk over the kappa monomials of degree
    <= rmax builds them: a child appends one kappa_r, r at least its
    parent's last index, so its series is the parent's times
    -A_r/(m_r + 1), one truncated product.  The series stay in the int
    form of `TruncatedSeries` from parent to child; a coefficient becomes a
    `Fraction` only when it enters the table."""
    gens = kappa_table(g - 2)

    a = {r: TruncatedSeries(variables, order, coeffs)
         for r, coeffs in gamma.items()}
    factors: Dict[Tuple[int, int], TruncatedSeries] = {}  # (r, m_r + 1)
    grouped: Dict[Index, Dict[ExpVec, Fraction]] = {}
    e0 = series_exp(a.get(0, TruncatedSeries(variables, order)) * (2 - 2 * g))
    # (degree, kappa monomial, least next index, series)
    stack = [(0, (0,) * len(gens), 1, e0)]
    while stack:
        degree, mono, least, s = stack.pop()
        for ev, c in s.coeffs.items():
            grouped.setdefault((degree, ev), {})[mono] = c
        for r in range(least, min(g - 2, rmax - degree) + 1):
            if not gamma.get(r):
                continue
            k = mono[r - 1] + 1
            factor = factors.get((r, k))
            if factor is None:
                factor = factors[r, k] = a[r] * Fraction(-1, k)
            child = series_mul(s, factor)
            if child:
                stack.append((degree + r, mono[:r - 1] + (k,) + mono[r:], r,
                              child))
    return {key: GradedPolynomial._of(gens, poly) for key, poly in grouped.items()}


def _relation(source: str, g: int, r: int, index: Tuple[int, ...],
              table: RelationTable) -> KappaRelation:
    """The table's coefficient at (r, index) as a relation; an index the
    table lacks has the zero coefficient."""
    poly = table.get((r, index))
    if poly is None:
        poly = GradedPolynomial.zero(kappa_table(g - 2))
    return KappaRelation(source, g, r, index, poly)


def _check_request(g: int, max_degree: int) -> None:
    if check_int("g", g) < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    if check_int("max_degree", max_degree) < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")


# ---------------------------------------------------------------------------
# FZ relations
# ---------------------------------------------------------------------------

def fz_admissible(g: int, r: int, sigma: Sequence[int]) -> bool:
    """The two side conditions: g - 1 + |sigma| < 3r and
    g = r + |sigma| + 1 (mod 2)."""
    check_int("g", g)
    check_int("r", r)
    size = sum(check_int("sigma part", p) for p in sigma)
    if any(p % 3 == 2 for p in sigma):
        raise ValueError("sigma parts must not be 2 mod 3")
    return (g - 1 + size < 3 * r) and ((g - r - size - 1) % 2 == 0)


def _fz_exp_minus_gamma(g: int, rmax: int, smax: int) -> RelationTable:
    """exp(-gamma) with gamma = sum C_r(sigma) kappa_r t^r p^sigma, exact on
    the box r <= rmax, |sigma| <= smax, keyed by (r, sigma parts)."""
    log = _fz_log(rmax + smax)
    # the p_j with j <= smax come first in the log's variables
    variables = GeneratorTable(_p_vars(smax))
    n = len(variables)
    gamma: Dict[int, Dict[ExpVec, Fraction]] = {}
    for ev, c in log.coeffs.items():
        if ev[0] <= rmax and log.gens.degree(ev) - ev[0] <= smax:
            gamma.setdefault(ev[0], {})[ev[1:n + 1]] = c
    table = _exp_minus_gamma(g, rmax, variables, smax, gamma)
    sigma = {ev: _sigma(variables.names, ev) for _, ev in table}
    return {(r, sigma[ev]): poly for (r, ev), poly in table.items()}


def fz_relation(g: int, r: int, sigma) -> Optional[KappaRelation]:
    """The relation [exp(-gamma)]_{t^r p^sigma} as a homogeneous degree-r
    kappa-polynomial, or None when the (r, sigma) index fails the side
    conditions."""
    sigma = tuple(sorted((check_int("sigma part", p) for p in sigma),
                         reverse=True))
    if sigma and sigma[-1] < 1:
        raise ValueError("partition parts must be positive")
    if not fz_admissible(g, r, sigma):
        return None
    return _relation("FZ", g, r, sigma, _fz_exp_minus_gamma(g, r, sum(sigma)))


def fz_relation_set(g: int, max_degree: int, *,
                    max_sigma: Optional[int] = None) -> List[KappaRelation]:
    """All admissible nonzero FZ relations of degree r <= max_degree, with
    kappa indices capped at g-2 (classes of higher degree vanish in the ring
    model, so their generators are substituted by zero), ordered by r, then
    |sigma|, then sigma in decreasing lexicographic order.

    `max_sigma` keeps only the relations with |sigma| <= max_sigma; None
    keeps all (admissibility already bounds |sigma| by 3*max_degree - g)."""
    _check_request(g, max_degree)
    smax = max(3 * max_degree - g, 0)
    if max_sigma is not None:
        if check_int("max_sigma", max_sigma) < 0:
            raise ValueError(f"max_sigma must be >= 0, got {max_sigma}")
        smax = min(smax, max_sigma)
    table = _fz_exp_minus_gamma(g, max_degree, smax)
    keys = sorted((key for key in table if fz_admissible(g, *key)),
                  key=lambda k: (k[0], sum(k[1]), tuple(-p for p in k[1])))
    return [_relation("FZ", g, r, sigma, table) for r, sigma in keys]


# ---------------------------------------------------------------------------
# Stable-quotient relations
# ---------------------------------------------------------------------------

_SQ_GENS = GeneratorTable([("t", 1), ("x", 2)])
_X = GeneratorTable([("x", 1)])  # x alone, as the scalar series of the walk


def sq_phi_series(order: int) -> TruncatedSeries:
    """The stable-quotient series
    Phi = sum_d (-1)^d x^d / (d! t^d) prod_{i=1}^{d} (1 - i t)^{-1}
    in t (weight 1) and x (weight 2), truncated at total weight `order`.
    Its t^e x^d coefficient is (-1)^d/d! h_{e+d}(1..d) for e >= -d, so every
    monomial weight e + 2d stays non-negative."""
    if check_int("order", order) < 0:
        raise ValueError("order must be >= 0")
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for d in range(order + 1):
        lead = Fraction((-1) ** d, factorial(d))
        for m, h in enumerate(complete_homogeneous(d, order - d)):
            coeffs[(m - d, d)] = lead * h
    return TruncatedSeries(_SQ_GENS, order, coeffs)


@lru_cache(maxsize=None)
def _sq_log(order: int) -> TruncatedSeries:
    """log Phi, exact at every t^r x^d with r + 2d <= order (every weight
    is non-negative, so truncating by weight is a quotient)."""
    return series_log(sq_phi_series(order))


def sq_coefficients(dmax: int, rmax: int) -> Dict[Tuple[int, int], Fraction]:
    """Coefficients C_d^r of the log of the stable-quotient series
    (log Phi = sum C_d^r t^r x^d / d!), for 1 <= d <= dmax, r <= rmax.
    The t-order is -1 at every x-degree (deeper poles cancel)."""
    check_int("dmax", dmax)
    check_int("rmax", rmax)
    log = _sq_log(max(rmax + 2 * dmax, 0))
    return dict(sorted(((d, r), c * factorial(d))
                       for (r, d), c in log.coeffs.items()
                       if d <= dmax and r <= rmax))


def sq_admissible(g: int, r: int, d: int) -> bool:
    """Side conditions g - 2d - 1 < r and g = r + 1 (mod 2)."""
    check_int("g", g)
    check_int("r", r)
    check_int("d", d)
    return d >= 1 and (g - 2 * d - 1 < r) and ((g - r - 1) % 2 == 0)


def _sq_exp_minus_gamma(g: int, rmax: int, dmax: int) -> RelationTable:
    """exp(-gamma) for the stable-quotient gamma:
    sum B_{2i} kappa_{2i-1} t^{2i-1}/(2i(2i-1))
      + sum C_d^r kappa_r t^r x^d / d!,
    truncated to t-exponent <= rmax and x-degree <= dmax, keyed by (r, (d,))."""
    gamma: Dict[int, Dict[ExpVec, Fraction]] = {
        r: {(0,): c} for r, c in mumford_terms(rmax)}
    # log Phi has no x^0 term, so no log term meets a Mumford term; the
    # series over _X at order dmax drop its terms with d > dmax
    for (r, d), c in _sq_log(max(rmax + 2 * dmax, 0)).coeffs.items():
        gamma.setdefault(r, {})[(d,)] = c
    return _exp_minus_gamma(g, rmax, _X, dmax, gamma)


def sq_relation(g: int, r: int, d: int) -> Optional[KappaRelation]:
    """The relation [exp(-gamma)]_{t^r x^d} as a homogeneous degree-r
    kappa-polynomial (kappa_{-1} = 0, kappa_0 = 2g-2 substituted), or None
    when (r, d) fails the side conditions."""
    if not sq_admissible(g, r, d) or r < 0:
        return None
    return _relation("SQ", g, r, (d,), _sq_exp_minus_gamma(g, r, d))


def sq_relation_set(g: int, max_degree: int,
                    dmax: Optional[int] = None) -> List[KappaRelation]:
    """Admissible stable-quotient relations of degree r <= max_degree.

    The side condition admits arbitrarily large x-degrees d; the span of
    relations at fixed r stabilizes quickly, so d runs up to `dmax`
    (default: smallest admissible d plus max_degree + 2; see
    ideal_equivalence_check for the stabilization-controlled variant)."""
    _check_request(g, max_degree)
    if dmax is None:
        dmax = max((g + 2) // 2, 1) + max_degree + 2
    check_int("dmax", dmax)
    table = _sq_exp_minus_gamma(g, max_degree, dmax)
    return [_relation("SQ", g, r, index, table) for r, index in sorted(table)
            if r >= 1 and sq_admissible(g, r, index[0])]


# ---------------------------------------------------------------------------
# Span comparison
# ---------------------------------------------------------------------------

def relation_span(relations: Sequence[KappaRelation], g: int,
                  degree: int) -> SparseEchelon:
    """Echelonized span at the given degree of {monomial * relation} inside
    the degree-`degree` monomial space of Q[kappa_1..kappa_{g-2}]."""
    check_int("g", g)
    check_int("degree", degree)
    return relation_echelon(kappa_table(g - 2),
                            [rel.polynomial for rel in relations], degree)


def ideal_equivalence_check(g: int, degree: int) -> bool:
    """Whether the FZ span and the stable-quotient span coincide in the
    given degree: both ranks equal the rank of their joint span.

    The SQ side grows its x-degree bound dmax by 2 until a step adds no
    rank (the documented stabilization rule)."""
    check_int("g", g)
    if check_int("degree", degree) <= 0:
        return True
    fz = fz_relation_set(g, degree)
    fz_span = relation_span(fz, g, degree)

    dmax = max((g + 2) // 2, 1) + degree
    sq_rank = None
    while True:
        sq = sq_relation_set(g, degree, dmax=dmax)
        rank = relation_span(sq, g, degree).rank
        if rank == sq_rank:
            break
        sq_rank = rank
        dmax += 2

    return (fz_span.rank == sq_rank
            == relation_span(fz + sq, g, degree).rank)
