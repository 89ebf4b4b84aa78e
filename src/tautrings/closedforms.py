from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import List, Optional, Sequence, Tuple

from .correlators import odd_double_factorial
from .exactmath import (GeneratorTable, GradedPolynomial, TruncatedSeries,
                        bernoulli, check_int, is_int, series_exp)

__all__ = [
    "lambda_g_base",
    "lambda_g_eval",
    "lambda_gm1_lambda_g_eval",
    "kappa_socle_eval",
    "socle_constant",
    "lambda_from_kappa",
    "chern_character_even_check",
    "wl_class",
    "hyperelliptic_class",
    "hyperelliptic_coeff",
    "euler_orbifold",
    "kappa_table",
]


# ---------------------------------------------------------------------------
# Hodge integrals with one or two lambda insertions
# ---------------------------------------------------------------------------

def lambda_g_base(g: int) -> Fraction:
    """The one-point integral of psi^{2g-2} against the top Chern class of
    the Hodge bundle: (2^{2g-1}-1)/2^{2g-1} * |B_{2g}|/(2g)!."""
    if check_int("genus", g) <= 0:
        raise ValueError("genus must be >= 1")
    p = 2 ** (2 * g - 1)
    return Fraction(p - 1, p) * Fraction(abs(bernoulli(2 * g)), factorial(2 * g))


def lambda_g_eval(g: int, alpha: Sequence[int]) -> Fraction:
    """psi^alpha lambda_g integral: the multinomial (2g-3+n)!/prod a_i!
    times the one-point base value.  Off-degree requests return 0."""
    a = list(alpha)
    if not all(map(is_int, [g] + a)):
        raise ValueError(f"genus and exponents must be ints, got {g!r}, {a!r}")
    if g <= 0:
        raise ValueError("genus must be >= 1")
    if any(x < 0 for x in a):
        raise ValueError("exponents must be non-negative")
    n = len(a)
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}): need g, n >= 0 and 2g - 2 + n > 0")
    if sum(a) != 2 * g - 3 + n:
        return Fraction(0)
    return factorial(2 * g - 3 + n) // prod(map(factorial, a)) * lambda_g_base(g)


def lambda_gm1_lambda_g_constant(g: int) -> Fraction:
    """One-point psi^{g-1} lambda_{g-1} lambda_g integral:
    |B_{2g}| / (2^{2g-1} (2g-1)!! 2g)."""
    if check_int("genus", g) < 2:
        raise ValueError("genus must be >= 2")
    return Fraction(abs(bernoulli(2 * g)),
                    2 ** (2 * g - 1) * odd_double_factorial(2 * g - 1) * 2 * g)


def lambda_gm1_lambda_g_eval(g: int, alpha: Sequence[int]) -> Fraction:
    """psi^alpha lambda_{g-1} lambda_g integral,
    (2g+n-3)!(2g-1)!! / ((2g-1)! prod (2a_i-1)!!) times the one-point
    constant.  Requires every a_i >= 1; off-degree requests return 0."""
    a = list(alpha)
    if not all(map(is_int, [g] + a)):
        raise ValueError(f"genus and exponents must be ints, got {g!r}, {a!r}")
    if g < 2:
        raise ValueError("genus must be >= 2")
    if any(x < 1 for x in a):
        raise ValueError("every exponent must be >= 1")
    n = len(a)
    if sum(a) != g - 2 + n:
        return Fraction(0)
    return _two_lambda_scale(g, n) / prod(odd_double_factorial(2 * x - 1)
                                          for x in a)


@lru_cache(maxsize=None)
def _two_lambda_scale(g: int, n: int) -> Fraction:
    """C(g, n) = (2g+n-3)!(2g-1)!!/(2g-1)! times the one-point constant:
    the n-point psi^alpha lambda_{g-1} lambda_g integral is
    C(g, n) / prod (2a_i-1)!!."""
    return (Fraction(factorial(2 * g + n - 3) * odd_double_factorial(2 * g - 1),
                     factorial(2 * g - 1)) * lambda_gm1_lambda_g_constant(g))


def kappa_socle_eval(g: int, kappa_indices: Sequence[int]) -> Fraction:
    """The socle functional eps on kappa monomials: the integral of
    kappa_{a_1}...kappa_{a_k} lambda_{g-1} lambda_g over the moduli space
    of stable genus-g curves, 0 unless sum a_i = g-2.

    The kappa monomial is the signed sum over set partitions P of the k
    factors of the pushforwards of prod_{B in P} psi_B^{a_B+1}, a_B the sum
    of the block, so with C(g, n) the scale of `lambda_gm1_lambda_g_eval`

        eps = sum_P (-1)^(k-|P|) C(g, |P|) prod_B 1/(2a_B+1)!!.

    The Bell(k) set partitions are summed by number of blocks in a memoised
    recursion over sub-multisets (`_block_sums`)."""
    a = tuple(sorted(kappa_indices))
    if not all(map(is_int, (g,) + a)):
        raise ValueError(f"genus and indices must be ints, got {g!r}, {a!r}")
    if g < 2:
        raise ValueError("genus must be >= 2")
    if any(x < 1 for x in a):
        raise ValueError("every kappa index must be >= 1")
    if sum(a) != g - 2:
        return Fraction(0)
    k = len(a)
    return sum(((-1) ** (k - n) * _two_lambda_scale(g, n) * v
                for n, v in enumerate(_block_sums(a))), Fraction(0))


@lru_cache(maxsize=None)
def _block_sums(a: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """Entry n: the sum over the set partitions of the multiset `a` (sorted,
    its elements labelled) into n blocks of prod_B 1/(2a_B+1)!!.  The block
    of the first element is that element and a sub-multiset of the rest,
    counted with the number of ways to pick its labelled elements."""
    if not a:
        return (Fraction(1),)
    rest = Counter(a[1:])  # ascending values, as a is sorted
    out = [Fraction(0)] * (len(a) + 1)
    for picks in product(*(range(c + 1) for c in rest.values())):
        ways = prod(comb(c, t) for c, t in zip(rest.values(), picks))
        size = a[0] + sum(v * t for v, t in zip(rest, picks))
        left = tuple(v for (v, c), t in zip(rest.items(), picks)
                     for _ in range(c - t))
        weight = Fraction(ways, odd_double_factorial(2 * size + 1))
        for n, v in enumerate(_block_sums(left)):
            out[n + 1] += weight * v
    return tuple(out)


def socle_constant(g: int) -> Fraction:
    """kappa_{g-2} lambda_{g-1} lambda_g evaluated on the compactified
    moduli space: |B_{2g}| (g-1)! / (2^g (2g)!).  Nonzero for every g."""
    if check_int("genus", g) < 2:
        raise ValueError("genus must be >= 2")
    return Fraction(abs(bernoulli(2 * g)) * factorial(g - 1),
                    2 ** g * factorial(2 * g))


def hyperelliptic_coeff(g: int) -> Fraction:
    """Coefficient of kappa_{g-2} in the hyperelliptic-locus class:
    (2^{2g}-1) 2^{g-2} / ((2g+1)(g+1)!)."""
    if check_int("genus", g) < 2:
        raise ValueError("genus must be >= 2")
    return Fraction((2 ** (2 * g) - 1) * 2 ** (g - 2),
                    (2 * g + 1) * factorial(g + 1))


# ---------------------------------------------------------------------------
# Lambda classes as polynomials in odd kappa classes
# ---------------------------------------------------------------------------

def kappa_table(max_index: int) -> GeneratorTable:
    """Generators kappa_1..kappa_max (degree of kappa_i is i)."""
    return GeneratorTable([(f"kappa_{i}", i)
                           for i in range(1, check_int("max_index", max_index) + 1)])


def mumford_terms(max_degree: int) -> List[Tuple[int, Fraction]]:
    """(2i-1, B_{2i}/(2i(2i-1))) for 2i-1 <= max_degree: the coefficients of
    kappa_{2i-1} t^{2i-1} in the log of the Hodge bundle's total Chern
    class (Mumford's formula)."""
    return [(k, bernoulli(k + 1) / Fraction(k * (k + 1)))
            for k in range(1, max_degree + 1, 2)]


def lambda_from_kappa(max_degree: int,
                      gens: Optional[GeneratorTable] = None) -> List[GradedPolynomial]:
    """Expand sum lambda_i t^i = exp(sum B_{2i} kappa_{2i-1} t^{2i-1} /
    (2i(2i-1))) and return lambda_0..lambda_max_degree as polynomials in the
    odd kappa classes.  The expansion is formal: it does not depend on the
    genus (lambda_i vanishes for i > g on the actual moduli space).

    The kappa generators are the series variables, weighted by degree, so
    lambda_d is the weight-d part of the exponential."""
    if check_int("max_degree", max_degree) < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    if gens is None:
        gens = kappa_table(max(max_degree, 1))
    expo = series_exp(TruncatedSeries(gens, max_degree, {
        gens.unit(f"kappa_{k}"): c for k, c in mumford_terms(max_degree)}))
    coeffs = expo.coeffs
    return [GradedPolynomial._of(gens, {mono: c for mono, c in coeffs.items()
                                        if gens.degree(mono) == d})
            for d in range(max_degree + 1)]


def _power_sums_from_chern(lams: List[GradedPolynomial], top: int) -> List[GradedPolynomial]:
    """Newton's identities: power sums p_1..p_top of the Chern roots from
    the elementary symmetric functions lambda_1..lambda_top."""
    gens = lams[1].gens if len(lams) > 1 else lams[0].gens
    zero = GradedPolynomial.zero(gens)
    e = [lams[i] if i < len(lams) else zero for i in range(top + 1)]
    p: List[GradedPolynomial] = [zero]
    # p_m = sum_{i=1}^{m-1} (-1)^{i-1} e_i p_{m-i} + (-1)^{m-1} m e_m
    for m in range(1, top + 1):
        pm = e[m] * ((-1) ** (m - 1) * m)
        for i in range(1, m):
            pm = pm + e[i] * p[m - i] * ((-1) ** (i - 1))
        p.append(pm)
    return p


def chern_character_even_check(max_k: int) -> bool:
    """Every even graded piece of the Chern character of the Hodge bundle,
    recovered from the lambda expansion via Newton's identities, must be the
    zero polynomial.  Checks degrees 2, 4, ..., 2*max_k."""
    if check_int("max_k", max_k) < 1:
        raise ValueError("max_k must be >= 1")
    top = 2 * max_k
    lams = lambda_from_kappa(top)
    p = _power_sums_from_chern(lams, top)
    return all(p[2 * k].is_zero() for k in range(1, max_k + 1))


# ---------------------------------------------------------------------------
# Jet-bundle classes of the special-linear-system loci
# ---------------------------------------------------------------------------

def complete_homogeneous(l: int, top: int) -> List[int]:
    """[h_0(1..l), ..., h_top(1..l)], the complete homogeneous symmetric
    polynomials at (1, 2, ..., l), from the generating identity
    prod_{k=1}^{l} (1 - k t)^{-1} = sum_m h_m(1..l) t^m."""
    # h_m(1..l) = h_m(1..l-1) + l * h_{m-1}(1..l)
    row = [1] + [0] * top
    for k in range(1, l + 1):
        for j in range(1, top + 1):
            row[j] = row[j] + k * row[j - 1]
    return row


def wl_class(g: int, l: int, substitute_lambda: bool = False) -> GradedPolynomial:
    """Degree-(g-l) component of
    (1 - lambda_1 + lambda_2 - ... + (-1)^g lambda_g) *
    sum_{m>=1} h_m(1..l) kappa_{m-1},
    with kappa_0 = 2g-2; h_m is the complete homogeneous symmetric
    polynomial evaluated at (1, ..., l).

    This is the jet-bundle expansion of the locus of curves carrying a point
    x with h^0(l x) >= 2, pushed down with its generic fiber multiplicity.
    For l = 2 that multiplicity is the 2g+2 Weierstrass points; see
    `hyperelliptic_class` for the normalized divisor-free class.
    The result is over lambda_1..lambda_g, kappa_1..kappa_{g-1}; with
    `substitute_lambda` it is over kappa_1..kappa_{g-1} alone, each lambda
    written as its odd-kappa polynomial (`lambda_from_kappa`).
    """
    if not 2 <= check_int("l", l) <= check_int("genus", g):
        raise ValueError("need 2 <= l <= g")
    target = g - l
    if substitute_lambda:
        gens = kappa_table(g - 1)
        lams = lambda_from_kappa(target, gens)
    else:
        gens = GeneratorTable([(f"lambda_{i}", i) for i in range(1, g + 1)]
                              + [(f"kappa_{i}", i) for i in range(1, g)])
        lams = [GradedPolynomial.constant(gens, 1)] + [
            GradedPolynomial.generator(gens, f"lambda_{i}")
            for i in range(1, target + 1)]
    out = GradedPolynomial.zero(gens)
    hs = complete_homogeneous(l, target + 1)
    for i in range(target + 1):
        m = target - i + 1  # kappa_{m-1} has degree m-1 = target - i
        if m - 1 == 0:
            kap_part = GradedPolynomial.constant(gens, 2 * g - 2)
        else:
            kap_part = GradedPolynomial.generator(gens, f"kappa_{m - 1}")
        out = out + lams[i] * kap_part * ((-1) ** i * hs[m])
    return out


def hyperelliptic_class(g: int) -> GradedPolynomial:
    """The hyperelliptic-locus class [H] (in the convention where it equals
    twice the Q-stack class), from the jet-bundle expansion: the l = 2 case
    of `wl_class` over kappa_1..kappa_{g-1}, divided by the g+1 half-count
    of Weierstrass points."""
    raw = wl_class(g, 2, substitute_lambda=True)
    return raw / Fraction(g + 1)


# ---------------------------------------------------------------------------
# Orbifold Euler characteristics
# ---------------------------------------------------------------------------

def euler_orbifold(g: int, n: int) -> Fraction:
    """Orbifold Euler characteristic of the open moduli space of n-pointed
    genus-g curves: (-1)^n (2g+n-3)!/(2g(2g-2)!) B_{2g} for g > 0, and
    (-1)^{n+1} (n-3)! in genus 0."""
    if check_int("genus", g) < 0 or check_int("markings", n) < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}): need g, n >= 0 and 2g - 2 + n > 0")
    if g == 0:
        return Fraction((-1) ** (n + 1) * factorial(n - 3))
    return (Fraction((-1) ** n * factorial(2 * g + n - 3),
                     2 * g * factorial(2 * g - 2)) * bernoulli(2 * g))
