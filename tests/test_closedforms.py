from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest

from tautrings.closedforms import (chern_character_even_check,
                                   euler_orbifold, hyperelliptic_class,
                                   hyperelliptic_coeff, kappa_table,
                                   lambda_from_kappa, lambda_g_base,
                                   lambda_g_eval, lambda_gm1_lambda_g_constant,
                                   lambda_gm1_lambda_g_eval, socle_constant,
                                   wl_class)
from tautrings.correlators import odd_double_factorial, psi_intersection
from tautrings.exactmath import GradedPolynomial, bernoulli
from tautrings.tautring import (build_ring, generation_check, socle_class_check,
                                socle_pairing_ranks, vanishing_check)


def bernoulli_abs(n):
    return abs(bernoulli(n))


# ---------------------------------------------------------------------------
# One- and two-lambda integrals (substitution oracles recomputed in-test)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,expected", [
    (1, F(1, 24)), (2, F(7, 5760)), (3, F(31, 967680)),
])
def test_lambda_g_base_small_genera(g, expected):
    assert lambda_g_base(g) == expected


@pytest.mark.parametrize("g", range(1, 8))
def test_lambda_g_base_substitution_oracle(g):
    p = 2 ** (2 * g - 1)
    assert lambda_g_base(g) == F(p - 1, p) * bernoulli_abs(2 * g) / factorial(2 * g)


def test_lambda_g_eval():
    assert lambda_g_eval(1, [0]) == F(1, 24)
    assert lambda_g_eval(1, [0, 1]) == F(1, 24)
    assert lambda_g_eval(2, [2, 1]) == 3 * F(7, 5760) == F(7, 1920)
    # off-degree requests return zero (dim of M-bar_{1,1} is 1 = deg lambda_1)
    assert lambda_g_eval(1, [1]) == 0


def test_lambda_g_eval_permutation_invariance():
    assert lambda_g_eval(2, [2, 1, 0]) == lambda_g_eval(2, [0, 1, 2])


@pytest.mark.parametrize("g", range(1, 6))
def test_lambda_g_eval_one_point_equals_base(g):
    assert lambda_g_eval(g, [2 * g - 2]) == lambda_g_base(g)


def test_lambda_pair_constant_and_eval():
    assert lambda_gm1_lambda_g_eval(2, [1]) == F(1, 2880)
    # prefactor (2g+n-3)!(2g-1)!!/((2g-1)! prod(2a_i-1)!!) = 3 at g=2, a=(1,1)
    assert lambda_gm1_lambda_g_eval(2, [1, 1]) == 3 * F(1, 2880) == F(1, 960)
    # degree condition sum(a) = g-2+n leaves (2,1) as the two-point g=3 case
    pref = F(factorial(5) * odd_double_factorial(5),
             factorial(5) * odd_double_factorial(3) * odd_double_factorial(1))
    assert pref == 5
    assert lambda_gm1_lambda_g_eval(3, [2, 1]) == pref * lambda_gm1_lambda_g_constant(3)
    assert lambda_gm1_lambda_g_eval(3, [1, 1]) == 0  # off-degree


def test_lambda_pair_preconditions():
    with pytest.raises(ValueError):
        lambda_gm1_lambda_g_eval(2, [0, 2])
    assert lambda_gm1_lambda_g_eval(2, [2, 2]) == 0  # degree mismatch


def test_hodge_evals_refuse_non_int_inputs():
    """A float or bool genus or exponent is refused, not truncated to a
    legal request."""
    for g, alpha in ((1, [1.5, 0.5]), (2, [True, 2]), (1, [0, 1.0]), (1.0, [0])):
        with pytest.raises(ValueError, match="must be ints"):
            lambda_g_eval(g, alpha)
    for g, alpha in ((2, [1.5]), (2, [True]), (2.5, [1])):
        with pytest.raises(ValueError, match="must be ints"):
            lambda_gm1_lambda_g_eval(g, alpha)


@pytest.mark.parametrize("call,name", [
    (lambda: lambda_g_base(1.5), "genus"),
    (lambda: lambda_g_base(True), "genus"),
    (lambda: euler_orbifold(1.5, 1), "genus"),
    (lambda: euler_orbifold(True, 1), "genus"),
    (lambda: euler_orbifold(1, 1.0), "markings"),
])
def test_base_and_euler_refuse_non_int_inputs(call, name):
    """A float or bool genus or marking count is refused with a ValueError
    that names it, not truncated or failed on deep inside."""
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: build_ring(5.0), "genus must be an int, got 5.0"),
    (lambda: build_ring(24.0), "genus must be an int, got 24.0"),
    (lambda: socle_pairing_ranks(5.0), "genus must be an int, got 5.0"),
    (lambda: socle_class_check(4.0), "genus must be an int, got 4.0"),
    (lambda: generation_check(True), "genus must be an int, got True"),
    (lambda: vanishing_check(5.0, 5), "genus must be an int, got 5.0"),
    (lambda: vanishing_check(5, 5.0), "beyond must be an int, got 5.0"),
    (lambda: socle_constant(5.0), "genus must be an int, got 5.0"),
    (lambda: hyperelliptic_coeff(5.5), "genus must be an int, got 5.5"),
    (lambda: hyperelliptic_class(5.0), "genus must be an int, got 5.0"),
    (lambda: wl_class(5, 2.0), "l must be an int, got 2.0"),
    (lambda: wl_class(5.5, 2), "genus must be an int, got 5.5"),
    (lambda: lambda_from_kappa(5, 3.0), "max_degree must be an int, got 3.0"),
    (lambda: lambda_from_kappa(5.5, 3), "genus must be an int, got 5.5"),
    (lambda: chern_character_even_check(2.0), "max_k must be an int, got 2.0"),
    (lambda: kappa_table(3.0), "max_index must be an int, got 3.0"),
    (lambda: lambda_gm1_lambda_g_constant(True),
     "genus must be an int, got True"),
])
def test_ring_and_closed_form_entry_points_refuse_non_int_arguments(call, match):
    """A float or bool genus, degree or index is a ValueError naming it, not
    a TypeError from range() or a list index, nor a result (5.5 read as a
    genus), and it is refused before the genus ceiling of the FZ ring."""
    with pytest.raises(ValueError, match=match):
        call()


def test_consistency_with_correlators():
    assert lambda_g_base(1) == psi_intersection(1, [1]) == F(1, 24)


# ---------------------------------------------------------------------------
# Socle constant and hyperelliptic coefficient
# ---------------------------------------------------------------------------

def test_socle_constant_values():
    assert socle_constant(2) == F(1, 2880)
    # |B_6| * 2! / (2^3 * 6!) -- also equals the one-point pair integral
    # via kappa_{g-2} = pushforward of psi^{g-1} on the unpointed space
    assert socle_constant(3) == F(1, 120960)
    assert socle_constant(3) == lambda_gm1_lambda_g_eval(3, [2])


@pytest.mark.parametrize("g", range(2, 12))
def test_socle_constant_nonzero(g):
    assert socle_constant(g) != 0


@pytest.mark.parametrize("g", range(2, 9))
def test_socle_equals_pushforward_of_pair_integral(g):
    """kappa_{g-2} lambda_{g-1} lambda_g = psi^{g-1} lambda pair integral:
    two independently printed formulas agree."""
    assert socle_constant(g) == lambda_gm1_lambda_g_eval(g, [g - 1])


def test_hyperelliptic_coeff():
    assert hyperelliptic_coeff(2) == F(1, 2)
    assert hyperelliptic_coeff(3) == F(3, 4)
    assert hyperelliptic_coeff(4) == F((2 ** 8 - 1) * 4, 9 * 120) == F(17, 18)


# ---------------------------------------------------------------------------
# Lambda classes in odd kappas and the even Chern character
# ---------------------------------------------------------------------------

def test_lambda_from_kappa_low_degrees():
    lams = lambda_from_kappa(4, 4)
    gens = lams[1].gens
    k1 = GradedPolynomial.generator(gens, "kappa_1")
    k3 = GradedPolynomial.generator(gens, "kappa_3")
    assert lams[0] == 1
    assert lams[1] == k1 / 12
    assert lams[2] == k1 * k1 / 288
    assert lams[3] == k1 * k1 * k1 / 10368 - k3 / 360
    assert lams[4] == k1 * k1 * k1 * k1 / 497664 - k1 * k3 / 4320


def test_lambda_from_kappa_only_odd_indices():
    lams = lambda_from_kappa(6, 6)
    gens = lams[1].gens
    even = [i for i, name in enumerate(gens.names) if int(name.split("_")[1]) % 2 == 0]
    for lam in lams:
        for mono in lam.terms:
            assert all(mono[i] == 0 for i in even)


@pytest.mark.parametrize("k", [1, 5, 10])
def test_even_chern_character_vanishes(k):
    assert chern_character_even_check(k)


# ---------------------------------------------------------------------------
# Jet-bundle classes
# ---------------------------------------------------------------------------

def test_wl_class_raw_structure():
    w = wl_class(3, 2)
    gens = w.gens
    k1 = GradedPolynomial.generator(gens, "kappa_1")
    l1 = GradedPolynomial.generator(gens, "lambda_1")
    assert w == 7 * k1 - 12 * l1  # h_2(1,2) = 7, h_1(1,2)*kappa_0 = 12
    sub = wl_class(3, 2, substitute_lambda=True)
    ks = sub.gens
    assert sub == 6 * GradedPolynomial.generator(ks, "kappa_1")


def test_wl_class_top_lambda_coefficient():
    """The lambda_{g-2} coefficient of the raw expansion is
    (-1)^{g-2} (6g-6), matching the printed display up to the overall
    fiber-degree factor g+1."""
    for g in (3, 4, 5):
        w = wl_class(g, 2)
        gens = w.gens
        mono = [0] * len(gens)
        mono[gens.index(f"lambda_{g - 2}")] = 1
        assert w.coefficient(tuple(mono)) == (-1) ** (g - 2) * (6 * g - 6)


def test_wl_class_kappa_top_coefficient_and_weierstrass_count():
    for g in (3, 4, 5):
        w = wl_class(g, 2)
        gens = w.gens
        mono = [0] * len(gens)
        mono[gens.index(f"kappa_{g - 2}")] = 1
        assert w.coefficient(tuple(mono)) == 2 ** g - 1
        # degree-0 component of the l = g case: weighted Weierstrass count
        assert wl_class(g, g) == g ** 3 - g


def test_wl_class_range_check():
    with pytest.raises(ValueError):
        wl_class(3, 1)
    with pytest.raises(ValueError):
        wl_class(3, 4)


def test_wl_class_substituted_is_over_the_kappa_table():
    """With lambdas substituted, every l (l = g included, where no lambda
    occurs) gives a polynomial over kappa_1..kappa_{g-1}, so it adds to
    the kappa classes of that ring."""
    for g in range(2, 7):
        kappas = tuple(f"kappa_{i}" for i in range(1, g))
        for l in range(2, g + 1):
            assert wl_class(g, l, True).gens.names == kappas
    h2 = hyperelliptic_class(2)
    assert h2.gens.names == ("kappa_1",)
    k1 = GradedPolynomial.generator(h2.gens, "kappa_1")
    assert h2 + k1 == k1 + GradedPolynomial.constant(h2.gens, 2)


def test_hyperelliptic_class_cross_formula():
    h3 = hyperelliptic_class(3)
    k1 = GradedPolynomial.generator(h3.gens, "kappa_1")
    assert h3 == F(3, 2) * k1
    assert h3 == 2 * hyperelliptic_coeff(3) * k1


# ---------------------------------------------------------------------------
# Orbifold Euler characteristics
# ---------------------------------------------------------------------------

def test_euler_orbifold_values():
    assert euler_orbifold(1, 1) == F(-1, 12)
    assert euler_orbifold(0, 3) == 1
    assert euler_orbifold(0, 4) == -1
    assert euler_orbifold(0, 5) == 2
    assert euler_orbifold(2, 0) == F(-1, 240)
    assert euler_orbifold(2, 1) == F(1, 120)


def test_euler_orbifold_point_deletion_recursion():
    """chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n}): forgetting the extra
    point is a fibration by an n-punctured curve."""
    for g in range(0, 4):
        for n in range(0, 6):
            if 2 * g - 2 + n <= 0:
                continue
            assert euler_orbifold(g, n + 1) == (2 - 2 * g - n) * euler_orbifold(g, n)


def test_euler_orbifold_unstable():
    with pytest.raises(ValueError):
        euler_orbifold(0, 2)
    with pytest.raises(ValueError):
        euler_orbifold(1, 0)
