"""Acceptance suite: one test per criterion, each printing a PASS line
after its exact assertions (run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines).  All equalities are exact rational
identities; each criterion also asserts its stated wall-clock budget.

Criterion 6 compares the FZ and the single-x stable-quotient (SQ) spans
cell by cell and asserts what holds: the SQ span lies inside the FZ span,
the FZ rank matches Faber's dimensions, and the spans agree where FZ has no
relation.  Degreewise equality does not hold in general.  Where g - d - 1
is odd the SQ side conditions admit no relation of degree d, so in every
such cell where the FZ system gains a new generator the spans differ.  At
(6,3), (7,4) and (8,5) admissible SQ relations exist but span less than FZ
(ranks 1 vs 2, 2 vs 4, 4 vs 6); that shortfall is not explained by parity
or size and stays open.  See tests/test_relationgen.py for the
containment, sharpness and equality-cell statements.
"""
from __future__ import annotations

import time
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from tautrings.boundary import h2_rank, keel_pairing_check, keel_ring_dims
from tautrings.closedforms import (chern_character_even_check,
                                   hyperelliptic_class, hyperelliptic_coeff,
                                   kappa_table, lambda_from_kappa,
                                   lambda_g_base, socle_constant, wl_class)
from tautrings.correlators import genus0_closed_form, psi_intersection
from tautrings.exactmath import (GeneratorTable, GradedPolynomial,
                                 graded_quotient, partition_count)
from tautrings.jacobian import (JacContext, JacPolynomial, apply_D, apply_e,
                                apply_h, normalize)
from tautrings.relationgen import (fz_relation_set, ideal_equivalence_check,
                                   relation_rank, sq_relation_set)
from tautrings.stablegraphs import enumerate_graphs
from tautrings.tautring import gorenstein_check, vanishing_check

from test_correlators import one_point_pde_oracle
from test_stablegraphs import brute_force_graphs, brute_isomorphic


class _Budget:
    def __init__(self, seconds: float, label: str) -> None:
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.label}: {elapsed:.1f}s exceeded {self.seconds}s budget"
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_01_correlators():
    with _Budget(10, "1 correlator base and recursion"):
        assert psi_intersection(0, [0, 0, 0]) == 1
        assert psi_intersection(1, [1]) == F(1, 24) == one_point_pde_oracle(1)
        assert psi_intersection(2, [4]) == F(1, 1152) == one_point_pde_oracle(2)
        for n in range(3, 9):
            for exps in combinations_with_replacement(range(n - 2), n):
                if sum(exps) == n - 3:
                    assert psi_intersection(0, exps) == genus0_closed_form(exps)


def test_criterion_02_hodge_closed_forms():
    with _Budget(1, "2 Hodge closed forms"):
        expected = [F(1, 24), F(7, 5760), F(31, 967680),
                    F(127, 154828800), F(73, 3503554560)]
        for g, value in zip(range(1, 6), expected):
            assert lambda_g_base(g) == value
        assert socle_constant(2) == F(1, 2880)
        assert hyperelliptic_coeff(2) == F(1, 2)
        assert hyperelliptic_coeff(3) == F(3, 4)


def test_criterion_03_grr_expansion():
    with _Budget(5, "3 lambda-in-kappa expansion and even Chern vanishing"):
        lams = lambda_from_kappa(2, 2)
        gens = lams[1].gens
        k1 = GradedPolynomial.generator(gens, "kappa_1")
        assert lams[1] == k1 / 12
        assert lams[2] == k1 * k1 / 288
        assert chern_character_even_check(10)


def test_criterion_04_presentation_engine():
    with _Budget(1, "4 presentation engine golden tests"):
        gens = GeneratorTable([("l", 1), ("d", 1)])
        lam = GradedPolynomial.generator(gens, "l")
        d1 = GradedPolynomial.generator(gens, "d")
        rep = graded_quotient(gens,
                              [d1 * d1 + lam * d1,
                               5 * lam * lam * lam - lam * lam * d1],
                              3, with_pairings=True)
        assert rep.dims == [1, 2, 2, 1]
        assert rep.gorenstein is True
        gens1 = GeneratorTable([("l", 1)])
        l = GradedPolynomial.generator(gens1, "l")
        assert graded_quotient(gens1, [l * l * l], 2).dims == [1, 1, 1]


def test_criterion_05_fz_gorenstein_suite():
    with _Budget(300, "5 FZ/Gorenstein suite g <= 10"):
        for g in range(2, 11):
            rep = gorenstein_check(g)
            D = g - 2
            assert rep.dims == rep.dims[::-1], g
            assert rep.dims[D] == 1, g
            assert rep.gorenstein is True, g
            for d in range(0, g // 3 + 1):
                assert rep.dims[d] == partition_count(d), (g, d)
            assert vanishing_check(g, g), g


# dim R^d(M_g), d = 0..g-2, from Faber's table (not computed here)
_FABER_DIMS = {
    3: [1, 1],
    4: [1, 1, 1],
    5: [1, 1, 1, 1],
    6: [1, 1, 2, 1, 1],
    7: [1, 1, 2, 2, 1, 1],
    8: [1, 1, 2, 2, 2, 1, 1],
}


def test_criterion_06_fz_sq_span_equality():
    """Cellwise FZ/SQ span comparison for 3 <= g <= 8, 1 <= d <= g-2:
    (a) the SQ span lies in the FZ span; (b) the FZ rank equals the number
    of degree-d kappa monomials minus Faber's dim R^d; (c) where g - d - 1
    is odd (no admissible SQ relation of degree d) and the FZ span gains
    rank over the degree-(d-1) FZ relations, the spans differ; (d) where the
    FZ rank is 0, the spans agree."""
    with _Budget(120, "6 FZ/SQ span comparison"):
        failures = []
        for g in range(3, 9):
            monomials = kappa_table(max(g - 2, 1)).monomials
            for d in range(1, g - 1):
                fz = fz_relation_set(g, d)
                fz_rank = relation_rank(fz, g, d)
                joint = relation_rank(fz + sq_relation_set(g, d), g, d)
                if joint != fz_rank:
                    failures.append(f"({g},{d}) clause (a): SQ rows leave "
                                    f"the FZ span (rank {fz_rank} -> "
                                    f"{joint})")
                expected = len(monomials(d)) - _FABER_DIMS[g][d]
                if fz_rank != expected:
                    failures.append(f"({g},{d}) clause (b): FZ rank "
                                    f"{fz_rank}, Faber gives {expected}")
                if (g - d - 1) % 2:
                    lower = relation_rank(fz_relation_set(g, d - 1), g, d)
                    if fz_rank > lower and ideal_equivalence_check(g, d):
                        failures.append(f"({g},{d}) clause (c): spans agree "
                                        f"in a parity-starved cell where FZ "
                                        f"gains rank {lower} -> {fz_rank}")
                if fz_rank == 0 and not ideal_equivalence_check(g, d):
                    failures.append(f"({g},{d}) clause (d): spans differ "
                                    f"where FZ has rank 0")
        assert not failures, "; ".join(failures)


def test_criterion_07_keel_suite():
    with _Budget(120, "7 Keel suite"):
        assert keel_ring_dims(4) == [1, 1]
        assert keel_ring_dims(5) == [1, 5, 1]
        assert keel_ring_dims(6) == [1, 16, 16, 1]
        for n in (4, 5, 6):
            assert keel_pairing_check(n)
            assert h2_rank(0, n) == keel_ring_dims(n)[1]
        from test_boundary import test_psi_choice_independent_modulo_relations
        for n in (4, 5, 6):
            test_psi_choice_independent_modulo_relations(n)


def test_criterion_08_h2_rank():
    with _Budget(1, "8 second-cohomology presentation"):
        assert h2_rank(1, 1) == 1


def test_criterion_09_stable_graphs():
    with _Budget(60, "9 stable graph enumeration"):
        expected = {(0, 3): 1, (0, 4): 4, (1, 1): 2, (2, 0): 7}
        for (g, n), count in expected.items():
            graphs = enumerate_graphs(g, n)
            brute = brute_force_graphs(g, n)
            assert len(graphs) == count == len(brute), (g, n)
        # no isomorphic duplicates anywhere in the g <= 2, n <= 4 box:
        # group by an isomorphism invariant, then exhaustive-bijection test
        # every within-group pair (independent of the canonical labeling
        # the enumerator itself uses for dedupe).  The invariant is the
        # edge count and the multiset, over vertices, of (genus, legs,
        # loops, valence) with the sorted data of the non-loop neighbours;
        # isomorphic graphs share it, so every isomorphic pair is compared.
        for (g, n) in [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4),
                       (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)]:
            graphs = enumerate_graphs(g, n)
            groups = {}
            for h in graphs:
                loops = [0] * h.num_vertices
                valence = [len(legs) for _, legs in h.vertices]
                for (a, b) in h.edges:
                    valence[a] += 1
                    valence[b] += 1
                    if a == b:
                        loops[a] += 1
                data = [(gv, legs, loops[v], valence[v])
                        for v, (gv, legs) in enumerate(h.vertices)]
                sig = (h.num_edges, tuple(sorted(
                    (data[v], tuple(sorted(data[b if a == v else a]
                                           for (a, b) in h.edges
                                           if a != b and v in (a, b))))
                    for v in range(h.num_vertices))))
                groups.setdefault(sig, []).append(h)
            for group in groups.values():
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        assert not brute_isomorphic(group[i], group[j]), (g, n)


def test_criterion_10_jacobian_operators():
    with _Budget(30, "10 Jacobian operators"):
        import random
        from test_jacobian import random_monomial
        rng = random.Random(101)
        P = JacPolynomial.p
        for _ in range(1000):
            g = rng.randint(2, 4)
            m = random_monomial(rng, g)
            (c, w), = m.bidegrees()
            for (c2, w2) in apply_D(m, JacContext(g)).bidegrees():
                assert (c2, w2) == (c - 1, w)
        assert apply_D(P(4, 0), JacContext(2)) == P(2, 0)
        ctx = JacContext(3)
        x = P(3, 1) * P(1, 1) + P(2, 0)
        assert normalize(normalize(x, ctx), ctx) == normalize(x, ctx)
        checked = 0
        while checked < 100:
            g = rng.randint(2, 4)
            ctx = JacContext(g)
            m = normalize(random_monomial(rng, g), ctx)
            if m.is_zero() or not m.is_bihomogeneous():
                continue
            checked += 1
            he = apply_h(apply_e(m), ctx) - apply_e(apply_h(m, ctx))
            assert he == 2 * apply_e(m)
            hf = apply_h(apply_D(m, ctx), ctx) - apply_D(apply_h(m, ctx), ctx)
            assert hf == -2 * apply_D(m, ctx)


def test_criterion_11_cross_formula_consistency():
    with _Budget(1, "11 jet-bundle vs closed-form hyperelliptic class"):
        h3 = hyperelliptic_class(3)
        k1 = GradedPolynomial.generator(h3.gens, "kappa_1")
        assert h3 == 2 * hyperelliptic_coeff(3) * k1 == F(3, 2) * k1
        # the same chain spelled out: raw component, doubled through the
        # [H] = 2[H]_Q convention with the 2g+2 Weierstrass fiber degree
        raw = wl_class(3, 2, substitute_lambda=True)
        assert raw / F(2 * 3 + 2) * 2 == F(3, 2) * k1
