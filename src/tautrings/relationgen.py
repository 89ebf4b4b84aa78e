from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, prod
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import (GeneratorTable, GradedPolynomial, GradedQuotient,
                        TruncatedSeries, check_int, series_exp, series_log,
                        series_mul)
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
    "relation_rank",
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

Index = Tuple[int, Tuple[int, ...]]  # (r, sigma parts) or (r, (d,))
RelationTable = Dict[Index, GradedPolynomial]
ExpVec = Tuple[int, ...]
Gamma = Dict[int, Dict[ExpVec, Fraction]]
Keep = Callable[[int, int], bool]  # (r, weight of the index) -> materialise?


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
    coeffs: Dict[ExpVec, Fraction] = {}
    # t^(i + floor(j/3)) p_j, p_j at position pos of gens; j = 0: no p factor
    for pos, j in enumerate((0,) + gens.degrees[1:]):
        for i in range(order - j - j // 3 + 1):
            ev = [i + j // 3] + [int(k == pos) for k in range(1, len(gens))]
            coeffs[tuple(ev)] = (_branch_b if j % 3 == 1 else _branch_a)(i)
    return TruncatedSeries(gens, order, coeffs)


# t-coefficients of log A, B/A and (B/A)^q for A = sum a_i t^i, B = sum b_i t^i,
# appended to under the lock as requests grow (t^m needs only lower degrees)
_LOG_A: List[Fraction] = []
_RATIO: List[Fraction] = []
_POWERS: List[List[Fraction]] = []
_GROW = threading.Lock()


def _fz_gamma(rmax: int, smax: int
              ) -> Tuple[GeneratorTable, Dict[ExpVec, Tuple[int, ...]], Gamma]:
    """The p_j with j <= smax, the parts of sigma at each exponent vector
    ev of p^sigma, and gamma[r][ev] = C_r(sigma), the nonzero coefficients
    of log psi (`psi_series`) on the box r <= rmax, |sigma| <= smax.  As
    psi = A (1 + X), X = sum_{k>=1} t^k p_{3k} + (B/A) sum_{k>=0} t^k p_{3k+1}
    linear in the p's, C_r() = [t^r] log A and, for sigma with l parts,
    multiplicities m_j, K = sum m_j floor(j/3) and q parts 1 mod 3,

        C_r(sigma) = (-1)^(l-1) (l-1)!/prod m_j! [t^(r-K)] (B/A)^q."""
    a = [_branch_a(i) for i in range(rmax + 1)]
    with _GROW:
        for m in range(len(_RATIO), rmax + 1):  # A N(log A) = N(A), N = t d/dt
            _LOG_A.append(a[m] - Fraction(sum(a[i] * (m - i) * _LOG_A[m - i]
                                              for i in range(1, m)), m) if m else Fraction(0))
            _RATIO.append(_branch_b(m) - sum(a[i] * _RATIO[m - i] for i in range(1, m + 1)))
        _POWERS.extend([] for _ in range(len(_POWERS), smax + 1))
        for q, power in enumerate(_POWERS):
            power.extend(sum(_POWERS[q - 1][i] * _RATIO[m - i] for i in range(m + 1))
                         if q else Fraction(int(m == 0)) for m in range(len(power), rmax + 1))
    variables = GeneratorTable(_p_vars(smax))
    parts = variables.degrees
    empty = (0,) * len(parts)
    sigmas, gamma = {empty: ()}, {r: {empty: c} for r, c in enumerate(_LOG_A[:rmax + 1]) if c}
    for w in range(1, smax + 1):
        for ev in variables.monomials(w):
            sigmas[ev] = tuple(j for j, e in zip(parts[::-1], ev[::-1]) for _ in range(e))
            l, k = sum(ev), sum(e * (j // 3) for e, j in zip(ev, parts))
            t_series = _POWERS[sum(e for e, j in zip(ev, parts) if j % 3 == 1)]
            scale = Fraction((-1) ** (l - 1) * factorial(l - 1), prod(map(factorial, ev)))
            for r in range(k, rmax + 1):
                if c := scale * t_series[r - k]:
                    gamma.setdefault(r, {})[ev] = c
    return variables, sigmas, gamma


def fz_coefficients(order: int) -> Dict[Index, Fraction]:
    """Coefficients C_r(sigma) of log of the branch series, keyed by
    (r, sigma parts), for r + |sigma| <= order, sorted by (r, sigma)."""
    if check_int("order", order) < 0:
        raise ValueError("order must be >= 0")
    _, sigmas, gamma = _fz_gamma(order, order)
    return dict(sorted(((r, sigmas[ev]), c) for r, terms in gamma.items()
                       for ev, c in terms.items() if r + sum(sigmas[ev]) <= order))


# ---------------------------------------------------------------------------
# Relations as coefficients of exp(-gamma), shared by FZ and SQ
# ---------------------------------------------------------------------------

def _exp_minus_gamma(g: int, rmax: int, variables: GeneratorTable,
                     order: int, gamma: Gamma, keep: Keep) -> RelationTable:
    """exp(-gamma) for gamma = sum_r kappa_r t^r A_r, where gamma[r] holds
    the coefficients of A_r, a series over `variables` truncated at weight
    `order`; kept at the r <= rmax and weights of m that `keep` accepts, as
    {(r, exponent vector of m): nonzero kappa-polynomial coefficient of t^r m}.

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
    `Fraction` only when `keep` takes its slice into the table."""
    gens = kappa_table(g - 2)
    kept = [[w for w in range(order + 1) if keep(r, w)] for r in range(rmax + 1)]

    a = {r: TruncatedSeries(variables, order, coeffs)
         for r, coeffs in gamma.items()}
    factors: Dict[Tuple[int, int], TruncatedSeries] = {}  # (r, m_r + 1)
    grouped: Dict[Index, Dict[ExpVec, Fraction]] = {}
    e0 = series_exp(a.get(0, TruncatedSeries(variables, order)) * (2 - 2 * g))
    # (degree, kappa monomial, least next index, series)
    stack = [(0, (0,) * len(gens), 1, e0)]
    while stack:
        degree, mono, least, s = stack.pop()
        for ev, c in s.coeffs_at(kept[degree]).items():
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

def _fz_admits(g: int, r: int, size: int) -> bool:
    return (g - 1 + size < 3 * r) and ((g - r - size - 1) % 2 == 0)


def fz_admissible(g: int, r: int, sigma: Sequence[int]) -> bool:
    """The two side conditions: g - 1 + |sigma| < 3r and
    g = r + |sigma| + 1 (mod 2)."""
    check_int("g", g)
    check_int("r", r)
    size = sum(check_int("sigma part", p) for p in sigma)
    if any(p % 3 == 2 for p in sigma):
        raise ValueError("sigma parts must not be 2 mod 3")
    return _fz_admits(g, r, size)


def _fz_exp_minus_gamma(g: int, rmax: int, smax: int,
                        keep: Keep = lambda r, size: True) -> RelationTable:
    """exp(-gamma), gamma = sum C_r(sigma) kappa_r t^r p^sigma, keyed by
    (r, sigma parts), at the r <= rmax, |sigma| <= smax that `keep` accepts."""
    variables, sigmas, gamma = _fz_gamma(rmax, smax)
    table = _exp_minus_gamma(g, rmax, variables, smax, gamma, keep)
    return {(r, sigmas[ev]): poly for (r, ev), poly in table.items()}


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
    return _relation("FZ", g, r, sigma, _fz_exp_minus_gamma(
        g, r, sum(sigma), lambda *key: key == (r, sum(sigma))))


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
    table = _fz_exp_minus_gamma(g, max_degree, smax, partial(_fz_admits, g))
    keys = sorted(table, key=lambda k: (k[0], sum(k[1]), tuple(-p for p in k[1])))
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


def _sq_admits(g: int, r: int, d: int) -> bool:
    return d >= 1 and (g - 2 * d - 1 < r) and ((g - r - 1) % 2 == 0)


def sq_admissible(g: int, r: int, d: int) -> bool:
    """Side conditions g - 2d - 1 < r and g = r + 1 (mod 2)."""
    check_int("g", g)
    check_int("r", r)
    check_int("d", d)
    return _sq_admits(g, r, d)


def _sq_exp_minus_gamma(g: int, rmax: int, dmax: int,
                        keep: Keep = lambda r, d: True) -> RelationTable:
    """exp(-gamma) for the stable-quotient gamma:
    sum B_{2i} kappa_{2i-1} t^{2i-1}/(2i(2i-1))
      + sum C_d^r kappa_r t^r x^d / d!,
    keyed by (r, (d,)), at the r <= rmax, d <= dmax that `keep` accepts."""
    gamma: Gamma = {r: {(0,): c} for r, c in mumford_terms(rmax)}
    # log Phi has no x^0 term, so no log term meets a Mumford term; the
    # series over _X at order dmax drop its terms with d > dmax
    for (r, d), c in _sq_log(max(rmax + 2 * dmax, 0)).coeffs.items():
        gamma.setdefault(r, {})[(d,)] = c
    return _exp_minus_gamma(g, rmax, _X, dmax, gamma, keep)


def sq_relation(g: int, r: int, d: int) -> Optional[KappaRelation]:
    """The relation [exp(-gamma)]_{t^r x^d} as a homogeneous degree-r
    kappa-polynomial (kappa_{-1} = 0, kappa_0 = 2g-2 substituted), or None
    when (r, d) fails the side conditions."""
    if not sq_admissible(g, r, d) or r < 0:
        return None
    return _relation("SQ", g, r, (d,), _sq_exp_minus_gamma(g, r, d, lambda *key: key == (r, d)))


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
    table = _sq_exp_minus_gamma(g, max_degree, dmax, partial(_sq_admits, g))
    return [_relation("SQ", g, r, index, table) for r, index in sorted(table) if r >= 1]


# ---------------------------------------------------------------------------
# Span comparison
# ---------------------------------------------------------------------------

def relation_rank(relations: Sequence[KappaRelation], g: int,
                  degree: int) -> int:
    """Rank of the degree-`degree` span of {monomial * relation} inside the
    monomials of Q[kappa_1..kappa_{g-2}]: their number minus the dimension
    of the quotient by the relations, whose thinning and signature
    criterion skip the products that reduce to zero.  A negative degree,
    like a negative max degree of the relation sets, and relations over
    another kappa table are a ValueError."""
    check_int("g", g)
    if check_int("degree", degree) < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    gens = kappa_table(g - 2)
    quotient = GradedQuotient(gens, [rel.polynomial for rel in relations], degree)
    return len(gens.monomials(degree)) - quotient.dim(degree)


def ideal_equivalence_check(g: int, degree: int) -> bool:
    """Whether the FZ span and the stable-quotient span coincide in the
    given degree: both ranks (`relation_rank`) equal the rank of their
    joint span.

    The SQ side grows its x-degree bound dmax by 2 until a step adds no
    rank (the documented stabilization rule)."""
    check_int("g", g)
    if check_int("degree", degree) <= 0:
        return True
    fz = fz_relation_set(g, degree)
    fz_rank = relation_rank(fz, g, degree)

    dmax = max((g + 2) // 2, 1) + degree
    sq_rank = None
    while True:
        sq = sq_relation_set(g, degree, dmax=dmax)
        rank = relation_rank(sq, g, degree)
        if rank == sq_rank:
            break
        sq_rank = rank
        dmax += 2

    return fz_rank == sq_rank == relation_rank(fz + sq, g, degree)
