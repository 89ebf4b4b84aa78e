from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from tautrings.boundary import keel_quotient
from tautrings.closedforms import hyperelliptic_coeff
from tautrings.exactmath import GradedPolynomial, partition_count
from tautrings.relationgen import fz_relation_set, sq_relation_set
from tautrings.tautring import (build_ring, generation_check, gorenstein_check,
                                ring_dims, socle_class_check, vanishing_check)


def test_ring_dims_golden():
    assert ring_dims(2) == [1]
    assert ring_dims(3) == [1, 1]
    assert ring_dims(4) == [1, 1, 1]
    assert ring_dims(5) == [1, 1, 1, 1]
    assert ring_dims(6) == [1, 1, 2, 1, 1]


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_quotient_outputs_pinned():
    """The ring reports, quotient bases and the reduction of every monomial
    for g = 3..8, and the Keel reports and bases for n = 4, 5, are pinned
    by digest."""
    ring = {}
    for g in range(3, 9):
        m = build_ring(g)
        q = m.quotient
        reduced = [sorted([list(k), f"{c.numerator}/{c.denominator}"] for k, c
                          in q.reduce(GradedPolynomial(m.gens, {mono: 1})).items())
                   for d in range(g - 1) for mono in m.gens.monomials(d)]
        ring[g] = [m.report(True).export(),
                   [[list(b) for b in q.basis(d)] for d in range(g - 1)],
                   reduced]
    keel = {}
    for n in (4, 5):
        q = keel_quotient(n)
        keel[n] = [q.report(True).export(),
                   [[list(b) for b in q.basis(d)] for d in range(n - 2)]]
    assert _digest(ring) == ("6327a36ba5040e0ae86765affb83509a"
                             "02feb06c19889ab2a906a2ddd5686ae8")
    assert _digest(keel) == ("1200fec0d6d19e7dacd4bc1852e5f6a3"
                             "32d791794a33d2054a2578965a0d834e")


def test_keel6_outputs_pinned():
    """The n = 6 Keel report with pairings, its bases, and the reduction of
    every monomial of the free ring, the ones a crossing product kills
    (which reduce to {}) included, pinned by digest."""
    q = keel_quotient(6)
    reduced, killed = [], 0
    for d in range(4):
        surviving = set(q.monomials(d))
        for mono in q.gens.monomials(d):
            res = q.reduce(GradedPolynomial(q.gens, {mono: 1}))
            killed += mono not in surviving
            assert mono in surviving or res == {}
            reduced.append(sorted([list(k), f"{c.numerator}/{c.denominator}"]
                                  for k, c in res.items()))
    assert killed == (325 - 130) + (2925 - 340)
    data = [q.report(True).export(),
            [[list(b) for b in q.basis(d)] for d in range(4)],
            reduced]
    assert _digest(data) == ("f8f4dfa0e95b96d57c6be97e8b699e38"
                             "500ce43c4a1d9656f47bf70e61d35020")


def test_ring_dims_rejects_low_genus():
    with pytest.raises(ValueError):
        ring_dims(1)


@pytest.mark.parametrize("g", range(2, 9))
def test_gorenstein_small_genera(g):
    rep = gorenstein_check(g)
    D = g - 2
    assert rep.dims[0] == 1
    assert rep.dims == rep.dims[::-1]
    assert rep.dims[D] == 1 if D >= 0 else True
    assert rep.gorenstein is True
    assert rep.pairing_ranks == [min(rep.dims[i], rep.dims[D - i])
                                 for i in range(D + 1)]


@pytest.mark.parametrize("g", range(3, 9))
def test_free_range_dimensions(g):
    dims = ring_dims(g)
    for d in range(0, g // 3 + 1):
        assert dims[d] == partition_count(d)


def test_socle_class_check():
    assert socle_class_check(3) == F(3, 4)
    assert socle_class_check(4) == hyperelliptic_coeff(4)
    assert socle_class_check(6) == hyperelliptic_coeff(6)


@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_generation_by_low_kappas(g):
    assert generation_check(g)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_vanishing_beyond_socle(g):
    assert vanishing_check(g, g)


def test_vanishing_degenerate_genus2():
    # the genus-2 model is Q in degree 0 only
    assert vanishing_check(2, 1)


def test_vanishing_precondition():
    with pytest.raises(ValueError):
        vanishing_check(4, 2)


@pytest.mark.parametrize("seed", range(4))
def test_dims_invariant_under_relation_shuffle(seed):
    g = 6
    rels = fz_relation_set(g, g - 2)
    rng = random.Random(seed)
    shuffled = rels[:]
    rng.shuffle(shuffled)
    assert build_ring(g, relations=shuffled).dims == ring_dims(g)


def test_dims_invariant_under_larger_truncation():
    """Regenerating relations with a larger series truncation must not
    change the quotient."""
    g = 5
    base = ring_dims(g)
    bigger = fz_relation_set(g, g - 2)
    # recompute each admissible relation from an over-truncated series
    from tautrings.relationgen import _fz_exp_minus_gamma
    table = _fz_exp_minus_gamma(g, g, 3 * g, lambda r, size: True)
    regenerated = []
    for rel in bigger:
        again = rel._replace(polynomial=table[(rel.r, rel.index)])
        assert again.polynomial == rel.polynomial
        regenerated.append(again)
    assert build_ring(g, relations=regenerated).dims == base


def test_sq_model_is_weaker_never_stronger():
    """The single-x stable-quotient system spans inside the FZ ideal, so
    its quotient dims dominate the FZ ones componentwise (strictly wherever
    the spans differ; see test_relationgen.py)."""
    for g in (4, 5, 6):
        fz_dims = ring_dims(g)
        sq_dims = build_ring(g, relations=sq_relation_set(g, g - 2)).dims
        assert all(s >= f for s, f in zip(sq_dims, fz_dims)), (g, sq_dims, fz_dims)


# ---------------------------------------------------------------------------
# Socle evaluations: the linear functional on the top graded piece defined
# by the two-lambda integrals must kill the whole relation span.  Iterating
# the point-forgetting pushforward (psi_i D_{i,n+1} = 0 kills the boundary
# corrections, kappa comparison adds a psi power) gives
#   Integral(psi^{a_1+1}..psi^{a_k+1} lambda pair)
#     = sum over set partitions P  prod_B (|B|-1)!  eps(kappa_P),
# with kappa_P the monomial of block sums.  Solving for the finest
# partition evaluates every kappa monomial recursively.
# ---------------------------------------------------------------------------

def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _socle_eval(g, kappa_indices, _memo={}):
    from math import factorial
    from tautrings.closedforms import lambda_gm1_lambda_g_eval
    key = (g, tuple(sorted(kappa_indices)))
    if key in _memo:
        return _memo[key]
    k = len(kappa_indices)
    total = lambda_gm1_lambda_g_eval(g, [a + 1 for a in kappa_indices])
    for part in _set_partitions(range(k)):
        if len(part) == k:
            continue  # the finest partition is the unknown
        weight = F(1)
        for block in part:
            weight *= factorial(len(block) - 1)
        merged = [sum(kappa_indices[i] for i in block) for block in part]
        total -= weight * _socle_eval(g, merged)
    _memo[key] = total
    return total


def _kappa_indices(gens, mono):
    """The kappa indices of a monomial, one per factor."""
    out = []
    for i, e in enumerate(mono):
        out.extend([gens.degrees[i]] * e)
    return out


def _socle_products(model):
    """The degree-(g-2) kappa monomials, their socle evaluations, and the
    nonzero products monomial * relation of the model in that degree,
    multiplied out by polynomial arithmetic."""
    g = model.genus
    gens = model.gens
    monos = gens.monomials(g - 2)
    eps = {m: _socle_eval(g, _kappa_indices(gens, m)) for m in monos}
    products = []
    for rel in model.relations:
        r = rel.polynomial.degree()
        if 0 < r <= g - 2:
            for cof in gens.monomials(g - 2 - r):
                prod = GradedPolynomial(gens, {cof: F(1)}) * rel.polynomial
                if not prod.is_zero():
                    products.append(prod)
    return monos, eps, products


@pytest.mark.parametrize("g", [4, 5, 6, 7, 8])
def test_relation_span_is_killed_by_socle_evaluation(g):
    """Every element of the degree-(g-2) relation span evaluates to zero
    under the two-lambda socle functional, and the functional is nonzero
    on the quotient basis monomial."""
    model = build_ring(g)
    top = g - 2
    monos, eps, products = _socle_products(model)
    # the functional annihilates every relation-times-monomial product
    assert products, g
    for prod in products:
        pairing = sum(c * eps[m] for m, c in prod.terms.items())
        assert pairing == 0, (g, prod)
    # and it is nonzero on the surviving basis monomial
    basis = model.quotient.basis(top)
    assert len(basis) == 1
    assert eps[basis[0]] != 0
    # consistency of scale: reduced coefficients match evaluation ratios
    for m in monos:
        if m == basis[0]:
            continue
        red = model.quotient.reduce(
            __import__("tautrings").GradedPolynomial(model.gens, {m: F(1)}))
        coeff = red.get(basis[0], F(0))
        assert eps[m] == coeff * eps[basis[0]], (g, m)


@pytest.mark.parametrize("g", [5, 6, 7, 8])
def test_sq_relations_are_killed_by_socle_evaluation(g):
    """The stable-quotient rows of degree g-2 are genuine relations: each
    pairs to zero with the two-lambda socle functional, so the SQ span
    falling short of FZ comes from the family being small, not from wrong
    coefficients.  (g = 4 has no SQ row in degree 2: g - d - 1 is odd
    there, so the side conditions admit none.)"""
    _, eps, products = _socle_products(build_ring(g, relations=sq_relation_set(g, g - 2)))
    assert products, g
    for prod in products:
        pairing = sum(c * eps[m] for m, c in prod.terms.items())
        assert pairing == 0, (g, prod)


def test_socle_pairing_ranks_match_ring_dims_at_genus11():
    """An oracle independent of the relations, at a genus no table pins:
    the two-lambda functional kills the FZ relations and the pairing
    (a, b) -> eps(a b) factors through R*(M_g), so its rank between
    degree-d and degree-(g-2-d) kappa monomials is at most dim R^d of the
    model; equality (known for g <= 23) is the check."""
    from tautrings.closedforms import kappa_table
    from tautrings.exactmath import exact_rank
    g = 11
    gens = kappa_table(g - 2)
    dims = ring_dims(g)
    ranks = []
    for d in range(g - 1):
        mat = [[_socle_eval(g, _kappa_indices(gens, a) + _kappa_indices(gens, b))
                for b in gens.monomials(g - 2 - d)]
               for a in gens.monomials(d)]
        ranks.append(exact_rank(mat))
    assert ranks == dims == [1, 1, 2, 3, 4, 4, 3, 2, 1, 1]


def test_socle_functional_matches_partition_oracle():
    """`kappa_socle_eval` (a recursion over sub-multisets) equals the
    set-partition oracle above on every degree-(g-2) kappa monomial,
    g = 3..9."""
    from tautrings.closedforms import kappa_socle_eval, kappa_table
    checked = 0
    for g in range(3, 10):
        gens = kappa_table(g - 2)
        for m in gens.monomials(g - 2):
            idx = _kappa_indices(gens, m)
            assert kappa_socle_eval(g, idx) == _socle_eval(g, idx), (g, m)
            checked += 1
    assert checked == 44


def test_socle_functional_preconditions():
    from tautrings.closedforms import kappa_socle_eval, socle_constant
    for g in range(3, 13):
        assert kappa_socle_eval(g, [g - 2]) == socle_constant(g)
    assert kappa_socle_eval(5, [1, 1]) == 0  # off-degree
    with pytest.raises(ValueError):
        kappa_socle_eval(4, [0, 2])
    with pytest.raises(ValueError):
        kappa_socle_eval(4, [1.0, 1])
    with pytest.raises(ValueError):
        kappa_socle_eval(1, [])


def _ring_outputs(model):
    q, gens = model.quotient, model.gens
    return [model.report(True).export(),
            [q.basis(d) for d in range(model.genus - 1)],
            [q.reduce(GradedPolynomial(gens, {mono: 1}))
             for d in range(model.genus - 1) for mono in gens.monomials(d)]]


@pytest.mark.parametrize("g", range(2, 11))
def test_certified_ring_equals_full_relation_set(g):
    """The ring built from the certified small-|sigma| subset has the
    report, bases and reductions of the ring of every FZ relation."""
    full = build_ring(g, relations=fz_relation_set(g, g - 2))
    certified = build_ring(g)
    assert _ring_outputs(certified) == _ring_outputs(full)
    assert len(certified.relations) <= len(full.relations)


def test_certified_ring_uses_one_attempt_up_to_genus10(monkeypatch):
    """|sigma| <= 5 already certifies genus 8..10, so one relation set is
    generated per ring."""
    from tautrings import tautring
    calls = []
    original = tautring.fz_relation_set

    def spy(g, max_degree, **kwargs):
        calls.append((g, kwargs.get("max_sigma")))
        return original(g, max_degree, **kwargs)

    monkeypatch.setattr(tautring, "fz_relation_set", spy)
    for g in (8, 9, 10):
        build_ring(g)
    assert calls == [(8, 5), (9, 5), (10, 5)]


def test_uncertified_subset_falls_back(monkeypatch):
    """|sigma| <= 3 is too small at genus 7: its quotient has dims above
    the socle ranks.  When the first attempt gets that subset, build_ring
    raises s and still returns the FZ dims."""
    from tautrings import tautring
    from tautrings.closedforms import kappa_table
    from tautrings.exactmath import GradedQuotient
    g = 7
    small = fz_relation_set(g, g - 2, max_sigma=3)
    dims = GradedQuotient(kappa_table(g - 2), [r.polynomial for r in small],
                          g - 2).dims
    ranks = tautring.socle_pairing_ranks(g)
    assert ranks == [1, 1, 2, 2, 1, 1]
    assert dims != ranks
    assert all(d >= r for d, r in zip(dims, ranks))

    calls = []
    original = tautring.fz_relation_set

    def first_too_small(g, max_degree, *, max_sigma=None):
        calls.append(max_sigma)
        return original(g, max_degree,
                        max_sigma=3 if len(calls) == 1 else max_sigma)

    monkeypatch.setattr(tautring, "fz_relation_set", first_too_small)
    assert build_ring(g).dims == [1, 1, 2, 2, 1, 1]
    assert calls == [5, 7]


def test_certificate_records_the_rank_mod_p():
    """The default FZ ring records the |sigma| bound it used and the prime
    whose rank met the socle ranks; given relations and SQ record none."""
    from tautrings.tautring import Certificate
    for g in (8, 9, 10):
        assert build_ring(g).certificate == Certificate(5, 2 ** 61 - 1)
    assert build_ring(8, relations=fz_relation_set(8, 6)).certificate is None
    assert build_ring(8, relations=sq_relation_set(8, 6)).certificate is None


@pytest.mark.parametrize("g", range(6, 9))
def test_small_prime_certifies_nothing(g, monkeypatch):
    """Mod 2 the rank of no |sigma| bound meets the socle ranks or makes
    the top degrees vanish, and no exact elimination stands in for it."""
    from tautrings import tautring
    monkeypatch.setattr(tautring, "PRIME", 2)
    with pytest.raises(ArithmeticError, match="certifies"):
        build_ring(g)
    with pytest.raises(ArithmeticError, match="certifies"):
        vanishing_check(g, g)


@pytest.mark.parametrize("g", [8, 10])
def test_denominator_divisible_by_prime_propagates(g, monkeypatch):
    """A relation whose denominator the prime divides has no image mod p:
    the ZeroDivisionError reaches the caller."""
    from tautrings import tautring
    prime, original = 1000003, tautring.fz_relation_set

    def scaled(*args, **kwargs):
        return [rel._replace(polynomial=rel.polynomial / prime)
                for rel in original(*args, **kwargs)]

    monkeypatch.setattr(tautring, "fz_relation_set", scaled)
    monkeypatch.setattr(tautring, "PRIME", prime)
    with pytest.raises(ZeroDivisionError):
        build_ring(g)


@pytest.mark.parametrize("call", [
    lambda: build_ring(24),
    lambda: gorenstein_check(24),
    lambda: vanishing_check(24, 23),
])
def test_default_ring_refuses_genus_past_ceiling(call, monkeypatch):
    """Past MAX_GENUS = 23 no |sigma| bound certifies (at g = 24 the dims
    mod p stay above the socle ranks), so the default FZ ring is refused
    with a ValueError naming the ceiling and the exact route, before the
    socle pairing or any relation is computed."""
    from tautrings import tautring
    assert tautring.MAX_GENUS == 23
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called past the ceiling")
        return refuse

    for name in ("_socle_pairing", "fz_relation_set"):
        monkeypatch.setattr(tautring, name, spy(name))
    with pytest.raises(ValueError, match=r"MAX_GENUS = 23.*relations="
                                         r"fz_relation_set\(g, g - 2\)"):
        call()
    assert calls == []


@pytest.mark.parametrize("g", [13, 15])
def test_certified_ring_is_gorenstein_at_genus_13_and_15(g):
    """Faber's conjecture (A conjectural description of the tautological
    ring of the moduli space of curves, 1999), which he checked with these
    relations far past these genera: the FZ ring is Gorenstein with socle
    in degree g-2, palindromic, free below g/3, and its dims are the ranks
    of the socle pairing (recomputed here as dense exact ranks).  The
    ring is certified mod 2^61 - 1."""
    from tautrings.closedforms import kappa_socle_eval, kappa_table
    from tautrings.exactmath import exact_rank
    from tautrings.tautring import Certificate
    model = build_ring(g)
    report = model.report(True)
    dims = report.dims
    assert report.gorenstein is True and report.socle_dim == 1
    assert dims == dims[::-1]
    assert all(dims[d] == partition_count(d) for d in range(g // 3 + 1))
    gens = kappa_table(g - 2)
    ranks = [exact_rank([[kappa_socle_eval(g, _kappa_indices(gens, a)
                                           + _kappa_indices(gens, b))
                          for b in gens.monomials(g - 2 - d)]
                         for a in gens.monomials(d)])
             for d in range(g - 1)]
    assert dims == ranks
    assert model.certificate == Certificate({13: 5, 15: 9}[g], 2 ** 61 - 1)


def test_fz_relation_set_max_sigma_filters_by_size():
    g = 8
    full = fz_relation_set(g, g - 2)
    small = fz_relation_set(g, g - 2, max_sigma=5)
    assert small == [rel for rel in full if sum(rel.index) <= 5]
    assert fz_relation_set(g, g - 2, max_sigma=3 * (g - 2) - g) == full
    with pytest.raises(ValueError):
        fz_relation_set(g, g - 2, max_sigma=-1)
