from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from functools import lru_cache, partial
from math import factorial

import pytest

from tautrings.closedforms import (kappa_table, lambda_from_kappa,
                                   lambda_gm1_lambda_g_eval)
from tautrings.exactmath import (GeneratorTable, GradedPolynomial, GradedQuotient,
                                 series_log)
from tautrings.relationgen import (fz_admissible, fz_coefficients, fz_relation,
                                   fz_relation_set, ideal_equivalence_check,
                                   psi_series, relation_rank, sq_admissible,
                                   sq_coefficients, sq_phi_series, sq_relation,
                                   sq_relation_set)


def _coeff(series, **exps):
    ev = [0] * len(series.gens)
    for name, e in exps.items():
        ev[series.gens.names.index(name)] = e
    return series.coefficient(tuple(ev))


# ---------------------------------------------------------------------------
# The two-branch series and its log coefficients
# ---------------------------------------------------------------------------

def test_psi_series_low_coefficients():
    s = psi_series(4)
    assert _coeff(s) == 1                      # a_0
    assert _coeff(s, t=1) == 60                # a_1 = 6!/(3!2!)
    assert _coeff(s, p1=1) == -1               # b_0 = a_0 * 1/(-1)
    assert _coeff(s, t=1, p1=1) == 84          # b_1 = 60 * 7/5
    assert _coeff(s, t=1, p3=1) == 1           # first branch, k=1, i=0
    assert _coeff(s, t=2) == F(factorial(12), factorial(6) * factorial(4))


def test_fz_coefficients_examples():
    c = fz_coefficients(4)
    assert (0, ()) not in c                    # C_0(empty) = 0, not stored
    assert c[(1, ())] == 60
    assert c[(0, (1,))] == -1
    assert c[(2, ())] == 25920
    assert c[(1, (1,))] == 144
    assert c[(2, (1,))] == 51840
    assert c[(0, (1, 1))] == F(-1, 2)          # log(1 - p1) expansion


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_fz_coefficients_key_range(k):
    """The keys satisfy r + |sigma| <= k, come sorted by (r, sigma), and
    the coefficients are those of a longer log restricted to them."""
    c = fz_coefficients(k)
    assert all(r + sum(sigma) <= k for r, sigma in c)
    assert list(c) == sorted(c)
    wide = fz_coefficients(k + 3)
    assert c == {(r, sigma): v for (r, sigma), v in wide.items()
                 if r + sum(sigma) <= k}


@lru_cache(maxsize=None)
def _series_log_of_psi(order):
    """The log of the branch series as {(r, sigma parts): coefficient}:
    the multivariate oracle of the closed form."""
    log = series_log(psi_series(order))
    parts = [int(name[1:]) for name in log.gens.names[1:]]
    return {(ev[0], tuple(sorted((j for j, e in zip(parts, ev[1:])
                                  for _ in range(e)), reverse=True))): c
            for ev, c in log.coeffs.items()}


def test_closed_form_gamma_matches_series_log_on_the_box():
    """The closed-form C_r(sigma) on the box r <= rmax, |sigma| <= smax
    equals, coefficient by coefficient, the box of the series log of psi
    truncated at rmax + smax, for every rmax + smax <= 14 (smax > rmax
    included); the univariate t-series grow between the calls."""
    from tautrings.relationgen import _fz_gamma
    pairs = [(rmax, smax) for total in range(15) for rmax in range(total + 1)
             for smax in [total - rmax]]
    assert any(smax > rmax for rmax, smax in pairs)
    for rmax, smax in pairs:
        _, sigmas, gamma = _fz_gamma(rmax, smax)
        closed = {(r, sigmas[ev]): c
                  for r, terms in gamma.items() for ev, c in terms.items()}
        oracle = {(r, sigma): c
                  for (r, sigma), c in _series_log_of_psi(rmax + smax).items()
                  if r <= rmax and sum(sigma) <= smax}
        assert closed == oracle, (rmax, smax)
        assert all(type(c) is F for c in closed.values())


def test_t_series_grow_safely_from_several_threads(monkeypatch):
    """Eight threads that grow the shared t-series from empty at once, each
    to its own order, read the coefficients a serial run reads (ten times
    over, as an unlocked growth fails only now and then)."""
    import sys
    import threading
    from tautrings import relationgen
    orders = [3, 11, 6, 12, 2, 9, 12, 7]
    expected = {k: fz_coefficients(k) for k in set(orders)}
    got = {}

    def work(i):
        got[i] = fz_coefficients(orders[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            for name in ("_LOG_A", "_RATIO", "_POWERS"):
                monkeypatch.setattr(relationgen, name, [])
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(orders))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == {i: expected[k] for i, k in enumerate(orders)}
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("k", range(13))
def test_fz_coefficients_match_series_log_on_the_simplex(k):
    """`fz_coefficients(k)` reads the closed form on r + |sigma| <= k and
    equals the series log of psi truncated at k, keys in sorted order."""
    assert list(fz_coefficients(k).items()) == sorted(_series_log_of_psi(k).items())


# ---------------------------------------------------------------------------
# FZ relations
# ---------------------------------------------------------------------------

def test_fz_admissibility_examples():
    assert not fz_admissible(3, 1, [])         # parity fails
    assert fz_admissible(4, 2, [1])
    assert not fz_admissible(10, 2, [1])       # size bound fails
    with pytest.raises(ValueError):
        fz_admissible(4, 2, [2])
    with pytest.raises(ValueError):
        fz_relation(4, 2, [0])


def _sigmas(size):
    """Partitions of `size` with no part 2 mod 3, largest part first: the
    degree-`size` monomials of a table with one generator p_j of degree j
    per allowed part j."""
    parts = [j for j in range(size, 0, -1) if j % 3 != 2]
    gens = GeneratorTable([(f"p{j}", j) for j in parts])
    return [tuple(j for j, e in zip(parts, mono) for _ in range(e))
            for mono in gens.monomials(size)]


def test_fz_admissibility_matches_brute_force():
    for g in range(2, 9):
        for r in range(1, g - 1):
            stream = []
            for size in range(0, 3 * r - g + 1):
                for sigma in _sigmas(size):
                    if fz_admissible(g, r, sigma):
                        stream.append((r, sigma))
            brute = [(r, sigma)
                     for size in range(0, max(3 * r - g + 1, 0))
                     for sigma in _sigmas(size)
                     if (g - 1 + size < 3 * r) and (g - r - size - 1) % 2 == 0]
            assert stream == brute


def test_fz_relation_golden_genus4():
    rel = fz_relation(4, 2, [1])
    assert rel is not None and rel.source == "FZ"
    gens = rel.polynomial.gens
    k1 = GradedPolynomial.generator(gens, "kappa_1")
    k2 = GradedPolynomial.generator(gens, "kappa_2")
    assert rel.polynomial == 19440 * k1 * k1 - 207360 * k2


def test_fz_genus4_ratio_against_lambda_pair_evaluations():
    """Independent confirmation of the degree-2 relation: the one- and
    two-point lambda-pair integrals give the socle evaluations
    eps(kappa_2) and eps(kappa_1^2) through the pushforward identity
    pi_*(psi_1^{a+1} psi_2^{b+1}) = kappa_a kappa_b + kappa_{a+b}, and the
    relation's ratio must match eps(kappa_2)/eps(kappa_1^2)."""
    eps_k2 = lambda_gm1_lambda_g_eval(4, [3])
    eps_k1k1 = lambda_gm1_lambda_g_eval(4, [2, 2]) - eps_k2
    rel = fz_relation(4, 2, [1]).polynomial
    gens = rel.gens
    mono_sq = [0] * len(gens)
    mono_sq[gens.names.index("kappa_1")] = 2
    mono_k2 = [0] * len(gens)
    mono_k2[gens.names.index("kappa_2")] = 1
    a = rel.coefficient(tuple(mono_sq))
    b = rel.coefficient(tuple(mono_k2))
    # a kappa_1^2 + b kappa_2 = 0  =>  kappa_2 = -(a/b) kappa_1^2
    ratio = -a / b
    assert eps_k2 == ratio * eps_k1k1


def test_fz_relation_absent_cases():
    assert fz_relation(3, 1, []) is None
    assert fz_relation(5, 2, [1, 1, 1, 1]) is None  # size bound


@pytest.mark.parametrize("call, match", [
    (lambda: fz_relation(6, 3, [4.5]), "sigma part must be an int, got 4.5"),
    (lambda: fz_relation(6, 3, [True]), "sigma part must be an int, got True"),
    (lambda: fz_relation(6.0, 3, [4]), "g must be an int, got 6.0"),
    (lambda: fz_relation(6, 3.0, [4]), "r must be an int, got 3.0"),
    (lambda: fz_admissible(6, 3, [1.0]), "sigma part must be an int, got 1.0"),
    (lambda: fz_relation_set(6, 3.0), "max_degree must be an int, got 3.0"),
    (lambda: fz_relation_set(6.5, 3), "g must be an int, got 6.5"),
    (lambda: fz_relation_set(6, 3, max_sigma=2.0), "max_sigma must be an int, got 2.0"),
    (lambda: fz_coefficients(4.5), "order must be an int, got 4.5"),
    (lambda: psi_series(3.5), "order must be an int, got 3.5"),
    (lambda: sq_relation(6, 3, 1.5), "d must be an int, got 1.5"),
    (lambda: sq_relation(6, True, 1), "r must be an int, got True"),
    (lambda: sq_relation_set(6, 3.5), "max_degree must be an int, got 3.5"),
    (lambda: sq_relation_set(6, 3, dmax=4.0), "dmax must be an int, got 4.0"),
    (lambda: sq_coefficients(2, 1.5), "rmax must be an int, got 1.5"),
    (lambda: sq_phi_series(2.5), "order must be an int, got 2.5"),
    (lambda: sq_admissible(6, 3, 1.0), "d must be an int, got 1.0"),
    (lambda: relation_rank([], 6.0, 2), "g must be an int, got 6.0"),
    (lambda: ideal_equivalence_check(6, 2.0), "degree must be an int, got 2.0"),
])
def test_relation_entry_points_refuse_non_int_arguments(call, match):
    """A float or bool genus, degree, sigma part, d, dmax or max_sigma is a
    ValueError naming it, not truncated (4.5 read as 4) or a TypeError from
    range()."""
    with pytest.raises(ValueError, match=match):
        call()


def test_relation_rank_refuses_relations_over_another_table():
    """Genus-6 relations live over kappa_table(4), so in genus 7 (over
    kappa_table(5)) none of their products is a column: the rank is
    refused, not read as 0."""
    with pytest.raises(ValueError, match="mixed generator tables"):
        relation_rank(fz_relation_set(6, 3), 7, 3)


def test_relation_rank_refuses_a_negative_degree():
    """A negative degree is refused like a negative max degree of the
    relation sets, while the span comparison holds trivially there."""
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        relation_rank(fz_relation_set(6, 3), 6, -1)
    for call in (fz_relation_set, sq_relation_set):
        with pytest.raises(ValueError, match="max degree must be >= 0, got -1"):
            call(6, -1)
    assert ideal_equivalence_check(6, -1) and ideal_equivalence_check(6, 0)


def test_fz_relation_set_counts():
    assert len(fz_relation_set(4, 2)) == 1
    assert fz_relation_set(3, 1) == []
    assert fz_relation_set(2, 0) == []


def test_fz_relations_homogeneous():
    for g in (4, 5, 6, 7):
        for rel in fz_relation_set(g, g - 2):
            assert rel.polynomial.degree() == rel.r


@pytest.mark.parametrize("g, d, s", [(6, 4, 0), (6, 4, 3), (8, 5, 2),
                                     (8, 6, 4), (9, 7, 5), (10, 8, 7)])
def test_fz_relation_set_max_sigma_is_a_restriction(g, d, s):
    """max_sigma keeps exactly the relations of the full set with
    |sigma| <= max_sigma, in the same order."""
    full = fz_relation_set(g, d)
    assert ([r.export() for r in fz_relation_set(g, d, max_sigma=s)]
            == [r.export() for r in full if sum(r.index) <= s])


def test_fz_truncation_stability():
    """The extracted polynomial is unchanged when computed from a series
    truncated far beyond the minimum order."""
    from tautrings.relationgen import _fz_exp_minus_gamma
    small = fz_relation(4, 2, [1])
    big = _fz_exp_minus_gamma(4, 4, 6, _every_slice)[(2, (1,))]
    assert small.polynomial == big


def _every_slice(r, size):
    return True


def _exports(table):
    return {key: poly.export() for key, poly in table.items()}


@pytest.mark.parametrize("g", range(2, 13))
def test_admissible_fz_walk_is_the_full_walk_restricted(g):
    """The walk that materialises only the admissible (r, |sigma|) slices
    gives the unfiltered walk's table on the admissible keys, at every
    |sigma| bound the ring and the relation sets use; `fz_relation`, which
    asks for its one (r, |sigma|), gives the set path's relations."""
    from tautrings.relationgen import _fz_admits, _fz_exp_minus_gamma
    d = max(g - 2, 0)
    cap = max(3 * d - g, 0)
    for s in (3, 5, 7, None):
        smax = cap if s is None else min(s, cap)
        full = _fz_exp_minus_gamma(g, d, smax, _every_slice)
        kept = _fz_exp_minus_gamma(g, d, smax, partial(_fz_admits, g))
        assert _exports(kept) == {key: poly for key, poly in _exports(full).items()
                                  if fz_admissible(g, *key)}, (g, s)
    if g <= 8:
        for rel in fz_relation_set(g, d):
            assert fz_relation(g, rel.r, rel.index) == rel


@pytest.mark.parametrize("g", range(2, 9))
def test_admissible_sq_walk_is_the_full_walk_restricted(g):
    """The SQ walk restricted to the side conditions gives the unfiltered
    walk's admissible keys, and `sq_relation` the set path's relations."""
    from tautrings.relationgen import _sq_admits, _sq_exp_minus_gamma
    d = max(g - 2, 0)
    default = max((g + 2) // 2, 1) + d + 2
    for dmax in (default, default + 2):
        full = _sq_exp_minus_gamma(g, d, dmax, _every_slice)
        kept = _sq_exp_minus_gamma(g, d, dmax, partial(_sq_admits, g))
        assert _exports(kept) == {key: poly for key, poly in _exports(full).items()
                                  if sq_admissible(g, key[0], key[1][0])}, (g, dmax)
    for rel in sq_relation_set(g, d):
        assert sq_relation(g, rel.r, rel.index[0]) == rel


def test_fz_walk_materialises_only_admissible_slices(monkeypatch):
    """At (g, rmax, smax) = (10, 8, 5) the walk reaches 94 nonzero
    coefficients of exp(-gamma) and 23 of them are admissible: only those
    become kappa-polynomials."""
    from tautrings import relationgen
    made = []
    of = GradedPolynomial._of.__func__

    def spy(cls, gens, terms):
        made.append(terms)
        return of(cls, gens, terms)

    monkeypatch.setattr(GradedPolynomial, "_of", classmethod(spy))
    rels = fz_relation_set(10, 8, max_sigma=5)
    assert len(made) == len(rels) == 23
    monkeypatch.undo()
    assert len(relationgen._fz_exp_minus_gamma(10, 8, 5, _every_slice)) == 94


def _digest(table):
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()


def test_relation_exports_pinned():
    """The FZ, SQ and lambda-in-kappa exports, order included, are pinned
    by digest, so any change to the series engine or the kappa-monomial
    walk that alters a single coefficient or the order of the relations
    shows here."""
    fz = {g: [r.export() for r in fz_relation_set(g, g - 2)]
          for g in range(2, 9)}
    sq = {g: [r.export() for r in sq_relation_set(g, g - 2)]
          for g in range(3, 8)}
    lam = {g: [p.export() for p in lambda_from_kappa(g)]
           for g in range(0, 9)}
    assert _digest(fz) == ("69edcd54eeaa419615ff3a135effa71b"
                           "941918ab0cacc8ed92bdae6ffe990b0c")
    assert _digest(sq) == ("50060ba4797b8f171bbcdd21afef3f8b"
                           "60b675b1b6333e135c8cd7c0e9e42d6b")
    assert _digest(lam) == ("feb4552e995b9d106382d59ca4e9d36b"
                            "40df7643eb38a0fe41170c590ef7c23c")
    # wider sets: FZ at degree g-2 for g = 9, 10, and FZ and SQ at degree g
    fz_wide = {g: [r.export() for r in fz_relation_set(g, g - 2)]
               for g in (9, 10)}
    fz_top = {g: [r.export() for r in fz_relation_set(g, g)]
              for g in range(2, 9)}
    sq_top = {g: [r.export() for r in sq_relation_set(g, g)]
              for g in range(3, 9)}
    assert _digest(fz_wide) == ("eca6f438c5b3251111fcfef81ac61dd4"
                                "871982cc80747190b2f8bf5f9e4ad1aa")
    assert _digest(fz_top) == ("adcaf258a4908505ea818d70b449301c"
                               "b9d63206f80cd1436288f227c021a610")
    assert _digest(sq_top) == ("ab185b62eda34ef2341e3c4bd3428e99"
                               "8df2239faead4ba019b5a4d21fca3eee")


def test_kappa_relation_export():
    rel = fz_relation(4, 2, [1])
    data = rel.export()
    assert data["source"] == "FZ" and data["g"] == 4
    assert data["index"] == {"r": 2, "sigma": [1]}
    assert [[0, 1], "-207360/1"] in data["polynomial"]


# ---------------------------------------------------------------------------
# Stable-quotient relations
# ---------------------------------------------------------------------------

def test_sq_phi_series_examples():
    s = sq_phi_series(4)
    assert _coeff(s) == 1
    assert _coeff(s, t=-1, x=1) == -1
    assert _coeff(s, x=1) == -1
    assert _coeff(s, t=1, x=1) == -1
    assert _coeff(s, t=-2, x=2) == F(1, 2)


def test_sq_coefficients():
    c = sq_coefficients(3, 3)
    assert c[(1, -1)] == -1 and c[(1, 0)] == -1 and c[(1, 1)] == -1
    assert c[(2, -1)] == 1 and c[(2, 0)] == 4 and c[(2, 1)] == 11
    # poles deeper than t^{-1} cancel in the log
    assert all(r >= -1 for (_, r) in c)


def test_sq_coefficients_closed_forms():
    """Oracle for the two lowest t-orders of log Phi:
    C_d^{-1} = (-1)^d (2d-2)!/d! and C_d^0 = (-1)^d 4^{d-1} (d-1)!."""
    c = sq_coefficients(15, 0)
    assert min(r for (_, r) in c) == -1
    for d in range(1, 16):
        assert c[(d, -1)] == F((-1) ** d * factorial(2 * d - 2), factorial(d))
        assert c[(d, 0)] == (-1) ** d * 4 ** (d - 1) * factorial(d - 1)


@pytest.mark.parametrize("dmax, rmax", [(0, 2), (1, 0), (2, 3), (3, 1), (4, 4)])
def test_sq_coefficients_key_range(dmax, rmax):
    """The keys satisfy 1 <= d <= dmax and r <= rmax, come sorted, and the
    coefficients are those of a wider box restricted to them."""
    c = sq_coefficients(dmax, rmax)
    assert all(1 <= d <= dmax and r <= rmax for d, r in c)
    assert list(c) == sorted(c)
    wide = sq_coefficients(dmax + 2, rmax + 2)
    assert c == {(d, r): v for (d, r), v in wide.items()
                 if d <= dmax and r <= rmax}


def test_sq_admissibility():
    assert not sq_admissible(4, 2, 1)          # parity fails
    assert sq_admissible(3, 2, 1)
    assert not sq_admissible(5, 2, 1)          # 5 - 2 - 1 = 2 not < 2
    assert sq_admissible(5, 2, 2)


def test_sq_relation_examples():
    assert sq_relation(4, 2, 1) is None
    rel = sq_relation(3, 2, 1)
    gens = rel.polynomial.gens
    k1 = GradedPolynomial.generator(gens, "kappa_1")
    assert rel.polynomial == F(-5, 72) * k1 * k1
    assert rel.polynomial.degree() == 2


def test_sq_side_conditions_are_sharp_at_genus5():
    """d = 1 is excluded at (g, r) = (5, 2) and is genuinely not a relation;
    every admitted d >= 2 lies in the FZ span."""
    fz = fz_relation_set(5, 2)
    span = GradedQuotient(kappa_table(3), [rel.polynomial for rel in fz], 2)

    from tautrings.relationgen import _sq_exp_minus_gamma
    table = _sq_exp_minus_gamma(5, 2, 6, _every_slice)
    bad = table[(2, (1,))]
    assert span.reduce(bad) != {}
    for d in range(2, 7):
        rel = table.get((2, (d,)))
        assert rel is not None
        assert span.reduce(rel) == {}


@pytest.mark.parametrize("g", range(3, 9))
def test_sq_span_contained_in_fz_span(g):
    """One half of the equivalence claim holds degreewise: every
    stable-quotient relation lies in the FZ ideal."""
    for degree in range(1, g - 1):
        gens = kappa_table(max(g - 2, 1))
        fz_span = GradedQuotient(gens, [rel.polynomial for rel in
                                        fz_relation_set(g, degree)], degree)
        for rel in sq_relation_set(g, degree):
            r = rel.polynomial.degree()
            for cof in gens.monomials(degree - r):
                product = rel.polynomial * GradedPolynomial(gens, {cof: F(1)})
                assert fz_span.reduce(product) == {}, (g, degree, rel.index)


@pytest.mark.parametrize("g", range(3, 9))
def test_criterion_6_ranks_match_product_oracle(g):
    """relation_rank of the FZ, SQ and joint relation sets, in every degree
    1..g-2, is the rank of eliminating every product monomial * relation
    over all kappa monomials (`_ProductOracle`: no vanishing supports, no
    thinning, no criterion)."""
    from test_exactmath import _ProductOracle
    gens = kappa_table(g - 2)
    for degree in range(1, g - 1):
        fz, sq = fz_relation_set(g, degree), sq_relation_set(g, degree)
        for rels in (fz, sq, fz + sq):
            oracle = _ProductOracle(gens, [rel.polynomial for rel in rels], degree)
            assert (relation_rank(rels, g, degree)
                    == oracle.ech[degree].rank), (g, degree, len(rels))


def test_ideal_equivalence_trivial_and_odd_genus_cells():
    assert ideal_equivalence_check(5, 0)
    assert ideal_equivalence_check(3, 1)
    assert ideal_equivalence_check(5, 2)


def test_ideal_equivalence_blocked_parity_cell():
    """The single x-variable stable-quotient side conditions admit nothing
    of even degree at even genus, so the degree-2 spans at g = 4 differ
    (FZ rank 1, SQ rank 0).  The full multi-insertion stable-quotient
    system of the literature closes this gap, but it is not part of this
    package's generators; clause (c) of acceptance criterion 6 asserts this
    mismatch in every such cell."""
    assert not ideal_equivalence_check(4, 2)


def test_equality_cells_match_characterization():
    """Observed degreewise equality cells for 3 <= g <= 8 (frozen from the
    exhaustive comparison).  Most unequal cells are parity-starved: g - d - 1
    is odd, so no single-x relation of degree d is admitted while the FZ
    system has a new one.  The exceptions are (6,3), (7,4) and (8,5), where
    admissible SQ relations exist but span less than FZ; the cause of that
    shortfall is open (see test_sq_shortfall_is_not_truncation)."""
    expected_equal = {
        3: {1},
        4: {1},
        5: {1, 2},
        6: {1, 2},
        7: {1, 2},
        8: {1, 2, 3},
    }
    for g in range(3, 9):
        got = {d for d in range(1, g - 1) if ideal_equivalence_check(g, d)}
        assert got == expected_equal[g], (g, got)


def _stabilized_sq_rank(g, degree):
    """SQ span rank under the stabilization rule of ideal_equivalence_check:
    raise the x-degree cap by 2 until two consecutive caps add no rank."""
    dmax = max((g + 2) // 2, 1) + degree
    rank = relation_rank(sq_relation_set(g, degree, dmax=dmax), g, degree)
    while True:
        dmax += 2
        bigger = relation_rank(sq_relation_set(g, degree, dmax=dmax), g, degree)
        if bigger == rank:
            return rank
        rank = bigger


@pytest.mark.parametrize("g, degree, sq_rank, fz_rank",
                         [(6, 3, 1, 2), (7, 4, 2, 4), (8, 5, 4, 6)])
def test_sq_shortfall_is_not_truncation(g, degree, sq_rank, fz_rank):
    """At the three unequal cells that are not parity-starved, the SQ rank
    reached by the stabilization rule is already the rank at x-degree cap
    12, and it stays below the FZ rank: the shortfall does not come from
    truncating the x-degree."""
    stable = _stabilized_sq_rank(g, degree)
    capped = relation_rank(sq_relation_set(g, degree, dmax=12), g, degree)
    assert capped == stable == sq_rank, (g, degree, capped, stable)
    assert relation_rank(fz_relation_set(g, degree), g, degree) == fz_rank
