from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest

from tautrings.boundary import (BoundaryDivisor, h2_presentation, h2_rank,
                                kappa1_in_boundary_basis, keel_fourpoint_relations,
                                keel_generators, keel_pairing_check,
                                keel_quotient, keel_ring_dims,
                                psi_in_boundary_basis)
from tautrings.correlators import psi_intersection
from tautrings.exactmath import GradedPolynomial, SparseEchelon


def test_generator_counts():
    assert len(keel_generators(4)) == 3
    assert len(keel_generators(5)) == 10
    assert keel_generators(3) == []
    for n in range(3, 8):
        assert len(keel_generators(n)) == 2 ** (n - 1) - 1 - n


def test_generators_are_canonical():
    d1 = BoundaryDivisor(5, {1, 2})
    d2 = BoundaryDivisor(5, {3, 4, 5})
    assert d1 == d2 and hash(d1) == hash(d2)
    assert d1.side == frozenset({1, 2})
    with pytest.raises(ValueError):
        BoundaryDivisor(5, {1})
    with pytest.raises(ValueError):
        BoundaryDivisor(5, {1, 2, 3, 4})


def test_keel_ring_dims_golden():
    assert keel_ring_dims(4) == [1, 1]
    assert keel_ring_dims(5) == [1, 5, 1]
    assert keel_ring_dims(6) == [1, 16, 16, 1]


def test_keel_ring_dims_range():
    with pytest.raises(ValueError):
        keel_ring_dims(9)
    with pytest.raises(ValueError, match="3 <= n <= 8"):
        keel_pairing_check(9)


@pytest.mark.parametrize("n", [2, 9])
def test_keel_quotient_range_refused_before_building(n, monkeypatch):
    """keel_quotient itself refuses n outside 3..8, before it builds any
    divisor table: n = 9 has 246 divisors and 23,310 crossing products."""
    from tautrings import boundary

    def unreachable(n):
        raise AssertionError("divisor table built")

    monkeypatch.setattr(boundary, "_divisor_table", unreachable)
    with pytest.raises(ValueError, match="3 <= n <= 8"):
        keel_quotient(n)


def test_keel_quotient_skips_products_by_the_criterion(monkeypatch):
    """keel_quotient(6) feeds at most 663 rows to the echelon for its total
    rank of 462: the product m * f_i is not built when m is a pivot that an
    earlier relation's block raised.  Every product would be 1,110 rows."""
    rows = []
    add_row = SparseEchelon.add_row

    def counted(self, row):
        rows.append(row)
        return add_row(self, row)

    monkeypatch.setattr(SparseEchelon, "add_row", counted)
    quotient = keel_quotient(6)
    assert quotient.dims == [1, 16, 16, 1]
    assert sum(quotient._echelon(d).rank for d in range(4)) == 462
    assert len(rows) <= 663


@pytest.mark.parametrize("call, match", [
    (lambda: BoundaryDivisor(5.7, {1, 2}), "n must be an int, got 5.7"),
    (lambda: BoundaryDivisor(5, {1.2, 2}), "marking must be an int, got 1.2"),
    (lambda: BoundaryDivisor(True, {1, 2}), "n must be an int, got True"),
    (lambda: keel_quotient(5.5), "n must be an int, got 5.5"),
    (lambda: keel_ring_dims(5.5), "n must be an int, got 5.5"),
    (lambda: keel_pairing_check(5.5), "n must be an int, got 5.5"),
    (lambda: h2_rank(0, 5.5), "n must be an int, got 5.5"),
    (lambda: h2_rank(1.0, 3), "g must be an int, got 1.0"),
])
def test_non_int_sizes_are_refused(call, match):
    """A non-int size is a ValueError naming the argument, not truncated
    (5.7 read as 5) or a TypeError from deep inside."""
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("args, match", [
    ((5, True, 2, 3), "z must be an int, got True"),
    ((5.5, 1, 2, 3), "n must be an int, got 5.5"),
    ((5, 1, 2.0, 3), "x must be an int, got 2.0"),
    ((5, 1, 2, False), "y must be an int, got False"),
])
def test_psi_in_boundary_basis_refuses_non_int_arguments(args, match):
    """A bool or float size or marking is refused by name: True was read
    as marking 1, and n = 5.5 raised a TypeError."""
    with pytest.raises(ValueError, match=match):
        psi_in_boundary_basis(*args)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_keel_pairing_perfect(n):
    assert keel_pairing_check(n)


def test_keel_seven_point_report():
    """n = 7: Keel's Betti numbers, a one-dimensional socle and full-rank
    pairings into it (Poincare duality)."""
    report = keel_quotient(7).report(True)
    assert report.dims == [1, 42, 127, 42, 1]
    assert report.gorenstein is True
    assert report.pairing_ranks == [min(d, e) for d, e in
                                    zip(report.dims, report.dims[::-1])]


def test_keel_pivot_rows_are_integral():
    """The Keel rows are integral, so every pivot row of every degree is
    stored as ints (primitive, positive lead): the elimination never
    enters `Fraction` arithmetic."""
    quotient = keel_quotient(6)
    for d in range(4):
        ech = quotient._echelon(d)
        assert ech.rank == len(quotient.monomials(d)) - quotient.dim(d)
        for lead, row in ech.pivot_rows.items():
            assert all(type(v) is int for v in row.values()), (d, lead)
            assert row[lead] > 0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fourpoint_relations_reduce_to_zero(n):
    quotient = keel_quotient(n)
    for rel in keel_fourpoint_relations(n):
        assert not quotient.reduce(rel), (n, rel)


def test_psi_examples():
    p = psi_in_boundary_basis(4, 1, 2, 3)
    # the unique admissible side is {1,4}, canonically labeled {2,3}
    assert [sorted(m for m, e in zip(p.gens.names, mono) if e)
            for mono in p.terms] == [["D{2,3}"]]
    p5 = psi_in_boundary_basis(5, 1, 2, 3)
    names = {n for mono in p5.terms
             for n, e in zip(p5.gens.names, mono) if e}
    assert names == {"D{1,4}", "D{2,3}", "D{2,3,4}"}
    with pytest.raises(ValueError):
        psi_in_boundary_basis(5, 1, 1, 2)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_psi_choice_independent_modulo_relations(n):
    """Different auxiliary pairs give different formal sums but the same
    class modulo the degree-1 four-point relations."""
    rels = keel_fourpoint_relations(n)
    gens = rels[0].gens
    monos = gens.monomials(1)
    index = {m: i for i, m in enumerate(monos)}
    ech = SparseEchelon()
    for r in rels:
        ech.add_row({index[m]: c for m, c in r.terms.items()})
    for z in range(1, n + 1):
        rows = []
        for x, y in combinations(sorted(set(range(1, n + 1)) - {z}), 2):
            e = psi_in_boundary_basis(n, z, x, y)
            rows.append({index[m]: c for m, c in e.terms.items()})
        base = rows[0]
        for other in rows[1:]:
            diff = dict(base)
            for c, v in other.items():
                s = diff.get(c, F(0)) - v
                if s:
                    diff[c] = s
                else:
                    diff.pop(c, None)
            assert not ech.residual(diff), (n, z)


def test_psi_expressions_differ_formally():
    a = psi_in_boundary_basis(4, 1, 2, 3)
    b = psi_in_boundary_basis(4, 2, 3, 4)
    assert a.terms != b.terms


def test_kappa1_conventions():
    """Arbarello-Cornalba kappa_1: weight (|S| - 1)(n - |S| - 1)/(n - 1)
    on D_S, whichever side S is; there is no other convention to pick."""
    def weights(n):
        k = kappa1_in_boundary_basis(n)
        return {tuple(m for m, e in zip(k.gens.names, mono) if e): c
                for mono, c in k.terms.items()}
    assert weights(4) == {("D{1,2}",): F(1, 3), ("D{1,3}",): F(1, 3),
                          ("D{2,3}",): F(1, 3)}
    assert set(weights(5).values()) == {F(1, 2)}
    w6 = weights(6)
    assert w6[("D{1,2}",)] == w6[("D{1,2,3,4}",)] == F(3, 5)
    assert w6[("D{1,2,3}",)] == F(4, 5)
    with pytest.raises(TypeError):
        kappa1_in_boundary_basis(4, convention="canonical")
    with pytest.raises(ValueError):
        kappa1_in_boundary_basis(3)


def test_kappa1_nonzero_in_quotient():
    q = keel_quotient(4)
    assert q.reduce(kappa1_in_boundary_basis(4))


def _residues(q, factors, words):
    """Per word (a tuple of positions in `factors`), the reduction in q of
    the product of its factors, reduced after each factor: a step is the
    public `reduce` of the reduced prefix times the next factor, and every
    prefix is reduced once."""
    gens = factors[0].gens
    memo = {(): q.reduce(GradedPolynomial.constant(gens, 1))}

    def residue(word):
        if word not in memo:
            prefix = GradedPolynomial(gens, residue(word[:-1]))
            memo[word] = q.reduce(prefix * factors[word[-1]])
        return memo[word]
    return [residue(word) for word in words]


def _top_integral(q, residue, n):
    """The integral of a top-degree class, given by its `reduce` residue:
    its value over that of the point class, the product of the divisors of
    the nested chain {1,2} < {1,2,3} < ... < {1,...,n-2}."""
    point = GradedPolynomial.constant(q.gens, 1)
    for m in range(2, n - 1):
        point = point * GradedPolynomial.generator(
            q.gens, BoundaryDivisor(n, range(1, m + 1)).name())
    (mono, value), = residue.items()
    (point_mono, point_value), = q.reduce(point).items()
    assert point_mono == mono
    return value / point_value


def test_kappa1_top_power_integrates_as_pushforward():
    """kappa_1^(n-3) on the n-pointed genus-0 space integrates to 1, 5, 61,
    1379 for n = 4..7.  For n = 4 and 5 the pushforward formula over the
    correlator engine gives the same: <tau_2 tau_0^4>_0, and
    <tau_2^2 tau_0^5>_0 - <tau_3 tau_0^5>_0 = 6 - 1."""
    integrals = []
    for n in (4, 5, 6, 7):
        quotient = keel_quotient(n)
        power, = _residues(quotient, [kappa1_in_boundary_basis(n)], [(0,) * (n - 3)])
        integrals.append(_top_integral(quotient, power, n))
    assert integrals == [1, 5, 61, 1379]
    assert psi_intersection(0, [2, 0, 0, 0, 0]) == integrals[0]
    assert (psi_intersection(0, [2, 2] + [0] * 5)
            - psi_intersection(0, [3] + [0] * 5)) == integrals[1]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_psi_monomials_integrate_as_correlators(n):
    """Every psi-monomial of degree n - 3, with each psi_z from
    psi_in_boundary_basis, integrates through keel_quotient(n) to the
    correlator psi_intersection(0, a): 15 monomials at n = 5, 56 at n = 6,
    210 at n = 7."""
    quotient = keel_quotient(n)
    psis = [psi_in_boundary_basis(n, z, *[x for x in range(1, n + 1) if x != z][:2])
            for z in range(1, n + 1)]
    words = list(combinations_with_replacement(range(n), n - 3))
    for chosen, residue in zip(words, _residues(quotient, psis, words)):
        exponents = [chosen.count(z) for z in range(n)]
        assert (_top_integral(quotient, residue, n)
                == psi_intersection(0, exponents)), exponents


# ---------------------------------------------------------------------------
# H^2 presentations
# ---------------------------------------------------------------------------

def test_h2_rank_examples():
    assert h2_rank(1, 1) == 1
    assert h2_rank(2, 0) == 2
    assert h2_rank(0, 5) == 5


def test_h2_matches_keel_betti():
    for n in (4, 5, 6):
        assert h2_rank(0, n) == keel_ring_dims(n)[1]


def test_h2_known_ranks():
    # genus 1: kappa and the psi's are eliminated, leaving 2^n - n classes
    assert h2_rank(1, 2) == 2
    assert h2_rank(1, 3) == 5
    assert h2_rank(1, 4) == 12
    # unpointed: kappa_1, delta_irr and the floor(g/2) separating classes
    assert h2_rank(2, 1) == 3
    assert h2_rank(3, 0) == 3
    assert h2_rank(4, 0) == 4
    assert h2_rank(5, 0) == 4
    assert h2_rank(2, 2) == 6
    assert h2_rank(3, 1) == 5


def test_h2_ranks_match_dense_oracle():
    """Each of the 16 presentations with g <= 2 and n <= 7 (n <= 5 for
    g > 0) has rank the number of generators minus the dense rank of its
    relation matrix."""
    from test_exactmath import dense_rank_oracle
    for g in range(3):
        for n in range(8 if g == 0 else 6):
            if 2 * g - 2 + n > 0:
                pres = h2_presentation(g, n)
                monos = pres.gens.monomials(1)
                matrix = [[rel.terms.get(m, 0) for m in monos]
                          for rel in pres.relations]
                assert (pres.rank() == len(pres.names)
                        - dense_rank_oracle(matrix)), (g, n)


def test_h2_rank_past_recursion_limit():
    # 1 + 10 + 1 + 1013 = 1025 generators, more than the default recursion
    # limit: kappa_1 and the psi_i are eliminated, leaving 2^n - n classes
    assert h2_rank(1, 10) == 2 ** 10 - 10


def test_h2_generator_ceiling():
    """Past 3073 generators H^2 is refused before any relation is built;
    (0, 13) and (1, 12) have 4097."""
    for g, n in ((0, 13), (1, 12)):
        with pytest.raises(ValueError, match="4097"):
            h2_presentation(g, n)
        with pytest.raises(ValueError, match="4097"):
            h2_rank(g, n)


def test_h2_generator_lists():
    pres = h2_presentation(1, 1)
    assert pres.names == ["kappa_1", "psi_1", "delta_irr"]
    pres2 = h2_presentation(2, 0)
    assert pres2.names == ["kappa_1", "delta_irr", "delta_1{}"]


def test_h2_unstable():
    with pytest.raises(ValueError):
        h2_rank(0, 2)


def test_h2_export_round_trip():
    pres = h2_presentation(1, 2)
    data = pres.export()
    assert data["g"] == 1 and data["n"] == 2
    assert set(data["generators"]) >= {"kappa_1", "psi_1", "psi_2", "delta_irr"}
    assert all(isinstance(row, list) for row in data["relations"])


def test_h2_export_literals():
    """Every generator and coefficient of two small presentations, and the
    kappa_1 and delta_irr relations of (0, 4)."""
    assert h2_presentation(1, 2).export() == {
        "g": 1, "n": 2,
        "generators": ["kappa_1", "psi_1", "psi_2", "delta_irr", "delta_0{1,2}"],
        "relations": [
            [("delta_0{1,2}", "1/1"), ("kappa_1", "1/1"),
             ("psi_1", "-1/1"), ("psi_2", "-1/1")],
            [("delta_0{1,2}", "-12/1"), ("delta_irr", "-1/1"), ("psi_1", "12/1")],
            [("delta_0{1,2}", "-12/1"), ("delta_irr", "-1/1"), ("psi_2", "12/1")],
        ],
    }
    assert h2_presentation(2, 1).export() == {
        "g": 2, "n": 1,
        "generators": ["kappa_1", "psi_1", "delta_irr", "delta_1{}"],
        "relations": [[("delta_1{}", "-7/1"), ("delta_irr", "-1/1"),
                       ("kappa_1", "5/1"), ("psi_1", "-5/1")]],
    }
    data = h2_presentation(0, 4).export()
    assert data["relations"][:2] == [
        [("delta_0{1,2}", "-1/1"), ("delta_0{1,3}", "-1/1"),
         ("delta_0{1,4}", "-1/1"), ("kappa_1", "1/1")],
        [("delta_irr", "1/1")],
    ]


def _partition(name, n):
    """The unordered marking partition {S, S^c} of a divisor name such as
    D{1,2} or delta_0{1,2}."""
    S = frozenset(int(x) for x in name[name.index("{") + 1:-1].split(","))
    return frozenset({S, frozenset(range(1, n + 1)) - S})


@pytest.mark.parametrize("n", [4, 5, 6])
def test_h2_genus0_psi_relations_match_psi_in_boundary_basis(n):
    """The genus-0 H^2 relation psi_z = sum of delta over partitions that
    separate z from {x, y} and psi_in_boundary_basis(n, z, x, y) name the
    same partitions, whatever labelling each side uses."""
    rows = iter(h2_presentation(0, n).export()["relations"][2:])  # after kappa_1, delta_irr
    for z in range(1, n + 1):
        for x, y in combinations(sorted(set(range(1, n + 1)) - {z}), 2):
            row = dict(next(rows))
            assert row.pop(f"psi_{z}") == "1/1"
            assert set(row.values()) == {"-1/1"}
            h2_parts = {_partition(name, n) for name in row}
            for a, b in ((x, y), (y, x)):
                psi = psi_in_boundary_basis(n, z, a, b)
                keel_parts = {_partition(psi.gens.names[mono.index(1)], n)
                              for mono in psi.terms}
                assert h2_parts == keel_parts, (n, z, a, b)
    assert next(rows, None) is None
