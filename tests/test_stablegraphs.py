from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product

import pytest

from tautrings.boundary import keel_ring_dims
from tautrings.stablegraphs import (StableGraph, enumerate_graphs,
                                    generator_count, validate_graph)


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every labeled graph over small vertex/edge
# budgets, filter by validity, dedupe with an independent bijection-search
# isomorphism test.
# ---------------------------------------------------------------------------

def brute_force_graphs(g, n, max_vertices=4, max_edges=4):
    found = []
    legs_all = list(range(1, n + 1))
    for V in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(V) for j in range(i, V)]
        genus_vectors = [gv for gv in product(range(g + 1), repeat=V)]
        for E in range(0, max_edges + 1):
            for edges in combinations_with_replacement(pairs, E):
                for gv in genus_vectors:
                    for assign in product(range(V), repeat=n):
                        legs = [[] for _ in range(V)]
                        for leg, v in zip(legs_all, assign):
                            legs[v].append(leg)
                        graph = StableGraph(list(zip(gv, legs)), edges)
                        if not validate_graph(graph, g, n):
                            continue
                        if not any(brute_isomorphic(graph, h) for h in found):
                            found.append(graph)
    return found


def brute_isomorphic(a: StableGraph, b: StableGraph) -> bool:
    """Independent isomorphism test: try every vertex bijection."""
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return False
    if sorted(a.vertices) != sorted(b.vertices):
        return False
    for perm in permutations(range(a.num_vertices)):
        ok = all(a.vertices[i] == b.vertices[perm[i]]
                 for i in range(a.num_vertices))
        if not ok:
            continue
        mapped = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                        for u, v in a.edges)
        if mapped == sorted(b.edges):
            return True
    return False


@pytest.mark.parametrize("g,n,count", [(0, 3, 1), (0, 4, 4), (1, 1, 2), (2, 0, 7)])
def test_counts_match_brute_force(g, n, count):
    graphs = enumerate_graphs(g, n)
    brute = brute_force_graphs(g, n)
    assert len(graphs) == count
    assert len(brute) == count
    # closure: everything the oracle found appears in the enumeration
    for h in brute:
        assert any(brute_isomorphic(h, k) for k in graphs)


def test_no_isomorphic_duplicates_small():
    for (g, n) in [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]:
        graphs = enumerate_graphs(g, n)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not brute_isomorphic(graphs[i], graphs[j]), (g, n, i, j)


def test_exactly_one_smooth_graph():
    for (g, n) in [(0, 3), (0, 5), (1, 2), (2, 0), (2, 2)]:
        graphs = enumerate_graphs(g, n)
        assert sum(1 for h in graphs if h.num_edges == 0) == 1


def test_sorted_by_edge_count():
    graphs = enumerate_graphs(2, 1)
    counts = [h.num_edges for h in graphs]
    assert counts == sorted(counts)


def test_validate_graph_cases():
    assert validate_graph(StableGraph([(1, [1])], []), 1, 1)
    assert validate_graph(StableGraph([(0, [1])], [[0, 0]]), 1, 1)
    assert not validate_graph(StableGraph([(0, [1, 2])], []), 0, 2)
    # genus formula failure
    assert not validate_graph(StableGraph([(1, [1])], []), 2, 1)
    # disconnected
    assert not validate_graph(
        StableGraph([(1, [1]), (2, [])], []), 3, 1)
    # wrong legs
    assert not validate_graph(StableGraph([(1, [2])], []), 1, 1)


def test_half_edge_structure():
    theta = StableGraph([(0, []), (0, [])], [[0, 1], [0, 1], [0, 1]])
    H, a, invol = theta.half_edges()
    assert len(H) == 6
    assert all(invol[invol[h]] == h and invol[h] != h for h in H)
    assert sorted(a.values()) == [0, 0, 0, 1, 1, 1]
    assert theta.genus() == 2


def test_unstable_pair_raises():
    with pytest.raises(ValueError):
        enumerate_graphs(0, 2)
    with pytest.raises(ValueError):
        enumerate_graphs(4, 0)


def test_non_int_pair_refused():
    """A float or bool genus or marking count is refused, not truncated:
    (1.5, 1) would otherwise give the two genus-1 graphs."""
    for g, n in ((1.5, 1), (1, 1.0), (True, 1), (0, True)):
        with pytest.raises(ValueError, match="ints"):
            enumerate_graphs(g, n)


def test_generator_counts():
    assert generator_count(1, 1, 0) == 1
    assert generator_count(2, 0, 0) == 1
    assert generator_count(0, 5, 0) == 1
    # smooth graph: psi_1..psi_4 and kappa_1; plus the three 1-edge graphs
    assert generator_count(0, 4, 1) == 8


def test_generator_count_bounds_keel_betti():
    for n in (4, 5, 6):
        dims = keel_ring_dims(n)
        for d in range(len(dims)):
            assert generator_count(0, n, d) >= dims[d], (n, d)


def test_generator_count_degree_cap():
    with pytest.raises(ValueError):
        generator_count(0, 4, 2)


def test_export_shape():
    graphs = enumerate_graphs(1, 1)
    data = [h.export() for h in graphs]
    assert {"genus": 1, "legs": [1]} in data[0]["vertices"] or \
           {"genus": 0, "legs": [1]} in data[1]["vertices"]
    loops = [h for h in graphs if h.num_edges == 1]
    assert loops[0].export()["edges"] == [[0, 0]]
