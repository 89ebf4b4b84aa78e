from __future__ import annotations

import hashlib
import json
from itertools import chain, combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest

from tautrings.boundary import keel_ring_dims
from tautrings.stablegraphs import (StableGraph, _glue_steps, _graphs, _leg_steps,
                                    enumerate_graphs, generator_count, validate_graph)


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
                    # validate_graph rejects every other genus vector
                    if sum(gv) + E - V + 1 != g:
                        continue
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
    # the theta graph: two genus-0 vertices joined by three edges
    theta = StableGraph([(0, []), (0, [])], [[0, 1], [0, 1], [0, 1]])
    assert theta.genus() == 2 and validate_graph(theta, 2, 0)


@pytest.mark.parametrize("vertices,edges", [
    ([(1.5, [1])], []),
    ([(True, [1])], []),
    ([(1, [1.0])], []),
    ([(0, [1]), (0, [])], [[0, 1.0]]),
])
def test_graph_refuses_non_int_data(vertices, edges):
    """A float or bool genus, leg or edge endpoint is refused, not
    truncated: (1.5, [1]) would otherwise be the genus-1 smooth graph."""
    with pytest.raises(ValueError, match="must be an int"):
        StableGraph(vertices, edges)


@pytest.mark.parametrize("edges", [[(0, 0, 7)], [(0,)], [()], [5]])
def test_graph_refuses_edges_that_are_not_pairs(edges):
    """An edge is a pair of vertex indices: a triple was stored as the
    loop (0, 0), a 1-tuple raised a bare IndexError and an int a bare
    TypeError."""
    with pytest.raises(ValueError, match="is not a pair of vertex indices"):
        StableGraph([(0, [1, 2, 3])], edges)


@pytest.mark.parametrize("vertex", [(0, [1], 5), 5, (0,), (0, 5)])
def test_graph_refuses_vertices_that_are_not_pairs(vertex):
    """A vertex is a (genus, legs) pair: a triple, an int or a non-iterable
    legs entry raised a bare unpacking or TypeError that did not name it."""
    with pytest.raises(ValueError, match=r"vertex .* is not a \(genus, legs\) "
                                         r"pair"):
        StableGraph([vertex], [])


def test_degenerations_yield_normal_forms():
    """`_glue_steps` and `_leg_steps` build their candidates without the
    checking constructor, so each must already be in the normalized form
    that constructor would give it, and be a valid graph of its type."""
    for (g, n) in [(0, 3), (1, 1), (2, 0), (3, 0)]:
        for cand in _glue_steps(g, n):
            assert StableGraph(cand.vertices, cand.edges) == cand, cand
            assert validate_graph(cand, g, n), cand
    for (g, n) in [(0, 5), (1, 3), (2, 2)]:
        for graph in enumerate_graphs(g, n - 1):
            for cand in _leg_steps(graph, n):
                assert StableGraph(cand.vertices, cand.edges) == cand, cand
                assert validate_graph(cand, g, n), cand


def test_canonical_form_invariant_under_relabelling():
    """Every vertex relabelling of a graph, built through the checking
    constructor with unsorted legs and reversed edges, has the graph's
    canonical form; a listed graph is its own canonical form."""
    for (g, n) in [(0, 5), (1, 3), (2, 2)]:
        for graph in enumerate_graphs(g, n):
            key = graph.canonical_form()
            assert key == (graph.vertices, graph.edges)
            for perm in permutations(range(graph.num_vertices)):
                vertices = [None] * graph.num_vertices
                for i, (gv, legs) in enumerate(graph.vertices):
                    vertices[perm[i]] = (gv, list(reversed(legs)))
                edges = [[perm[b], perm[a]] for a, b in reversed(graph.edges)]
                assert StableGraph(vertices, edges).canonical_form() == key


def test_unstable_pair_raises():
    with pytest.raises(ValueError):
        enumerate_graphs(0, 2)
    with pytest.raises(ValueError):
        enumerate_graphs(4, 0)
    for g, n in ((0, 9), (1, 7), (3, 7)):
        with pytest.raises(ValueError, match="n <= 8 in genus 0"):
            enumerate_graphs(g, n)


@pytest.mark.parametrize("n,betti_sum", [(4, 2), (5, 7), (6, 34), (7, 213)])
def test_genus0_euler_characteristic_oracle(n, betti_sum):
    """The orbifold Euler characteristic of M_{0,m} is (-1)^(m-3) (m-3)!,
    and the open strata indexed by the genus-0 stable graphs of type (0, n)
    cover the compactification.  Its cohomology sits in even degrees, so
    the summed Euler characteristics equal the sum of its Betti numbers."""
    total = sum(prod((-1) ** (val - 3) * factorial(val - 3)
                     for val in graph.valences())
                for graph in enumerate_graphs(0, n))
    assert total == betti_sum
    if n <= 6:  # the Keel presentation does not reach n = 7 at desk scale
        assert total == sum(keel_ring_dims(n))


def test_non_int_pair_refused():
    """A float or bool genus or marking count is refused, not truncated:
    (1.5, 1) would otherwise give the two genus-1 graphs."""
    for g, n in ((1.5, 1), (1, 1.0), (True, 1), (0, True)):
        with pytest.raises(ValueError, match="ints"):
            enumerate_graphs(g, n)


def test_enumeration_memo_is_safe():
    """The per-(g, n) memo neither lets a bool or float pair through once
    (1, 1) is stored under the equal key (True, 1), nor shares the
    returned list between calls."""
    first = enumerate_graphs(1, 1)
    expected = list(first)
    for g, n in ((True, 1), (1, 1.0)):
        with pytest.raises(ValueError, match="ints"):
            enumerate_graphs(g, n)
    first.clear()
    assert enumerate_graphs(1, 1) == expected
    second = enumerate_graphs(1, 1)
    second.append(StableGraph([(1, [1])], []))
    assert enumerate_graphs(1, 1) == expected


@pytest.mark.parametrize("g,n", [(0, 2), (0, 0), (-1, 4)])
def test_generator_count_refuses_unstable_pair(g, n):
    with pytest.raises(ValueError, match=r"2g - 2 \+ n > 0"):
        generator_count(g, n, 0)


@pytest.mark.parametrize("g,n,degree", [(1, 1, -1), (1, 1, 2), (0, 4, -3)])
def test_generator_count_refuses_degree_out_of_range(g, n, degree):
    """A degree outside 0..3g-3+n is refused by name, below the range as
    well as above it, rather than counted as 0."""
    with pytest.raises(ValueError,
                       match=rf"degree {degree} is outside the degrees 0\.\.{3 * g - 3 + n} "):
        generator_count(g, n, degree)


@pytest.mark.parametrize("g,n,degree,name", [
    (1, 1, True, "degree"), (1, 1, 0.5, "degree"),
    (1.0, 1, 0, "g"), (1, True, 0, "n"),
])
def test_generator_count_refuses_non_int_arguments(g, n, degree, name):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        generator_count(g, n, degree)


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


PINNED_TYPES = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3),
                (1, 4), (1, 5), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0)]

# the pinned types built by the glue steps: (g, n - 1) is unstable
GLUE_STEP_TYPES = {(0, 3), (1, 1), (2, 0), (3, 0)}


def test_graph_exports_pinned():
    """The graph lists, order included, for every (g, n) that these tests,
    acceptance criterion 9 and the stable_graphs benchmark workload use,
    and the generator counts of (2, 2) and of genus 0, are pinned by
    digest: any change to the glue or leg steps, the canonical form or
    the sort that alters one graph or the order shows here."""
    table = {
        "graphs": {f"{g},{n}": [h.export() for h in enumerate_graphs(g, n)]
                   for g, n in PINNED_TYPES},
        "generator_count(2,2,d)": [generator_count(2, 2, d) for d in range(6)],
        "generator_count(0,n,d)": {str(n): [generator_count(0, n, d)
                                            for d in range(n - 2)]
                                   for n in (4, 5, 6)},
    }
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    assert digest == ("005891120cefd9f1394965d3e83e0314"
                      "d0493442a955a610a838d84a762a72d5")


# ---------------------------------------------------------------------------
# Reference oracles for the enumeration: the canonical form with colour
# refinement and class search on every graph, and the one-edge degenerations
# by the split loop over every mask with the mirror rule on raw masks.
# ---------------------------------------------------------------------------

def reference_canonical_form(graph: StableGraph):
    """Colour refinement, always run, then the least relabelled form over
    every order within the colour classes."""
    n = graph.num_vertices
    adj = [{} for _ in range(n)]
    loops = [0] * n
    for a, b in graph.edges:
        if a == b:
            loops[a] += 1
        else:
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    colors = [(gv, legs, loops[i], val) for i, ((gv, legs), val)
              in enumerate(zip(graph.vertices, graph.valences()))]
    for _ in range(n):
        new = [(colors[i], tuple(sorted((colors[j], m) for j, m in adj[i].items())))
               for i in range(n)]
        stable = len(set(new)) == len(set(colors))
        colors = new
        if stable:
            break
    classes = []
    for i in sorted(range(n), key=lambda i: (colors[i], i)):
        if classes and colors[classes[-1][0]] == colors[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    best = None
    for arrangement in product(*map(permutations, classes)):
        perm = [0] * n
        for pos, i in enumerate(chain.from_iterable(arrangement)):
            perm[i] = pos
        vertices = [None] * n
        for i, vertex in enumerate(graph.vertices):
            vertices[perm[i]] = vertex
        edges = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b]))
                             for a, b in graph.edges))
        if best is None or (tuple(vertices), edges) < best:
            best = (tuple(vertices), edges)
    return best


def reference_degenerations(graph: StableGraph):
    """Every one-edge degeneration, with its mirror twin: a loop at a
    vertex of positive genus (its own twin), or a split of v taking any
    subset of its slots (legs, then edge ends) to the new vertex w, skipped
    only when unstable or when its raw mirror (genus and complement mask)
    is smaller; the twin of a split is the same graph with v and w
    swapped."""
    vertices, edges = graph.vertices, graph.edges
    w = len(vertices)
    for v, (gv, legs) in enumerate(vertices):
        if gv >= 1:
            loop = StableGraph(vertices[:v] + ((gv - 1, legs),) + vertices[v + 1:],
                               edges + ((v, v),))
            yield loop, loop
        ends = [(k, side) for k, e in enumerate(edges) for side in (0, 1)
                if e[side] == v]
        slots = len(legs) + len(ends)
        full = (1 << slots) - 1
        for g1 in range(gv + 1):
            g2 = gv - g1
            for mask in range(full + 1):
                moved = bin(mask).count("1")
                if (2 * g1 - 1 + slots - moved <= 0 or 2 * g2 - 1 + moved <= 0
                        or (g2, full ^ mask) < (g1, mask)):
                    continue
                new_edges = [list(e) for e in edges] + [[v, w]]
                for i, (k, side) in enumerate(ends, len(legs)):
                    if mask >> i & 1:
                        new_edges[k][side] = w
                kept = [leg for i, leg in enumerate(legs) if not mask >> i & 1]
                gone = [leg for i, leg in enumerate(legs) if mask >> i & 1]
                split = vertices[:v] + ((g1, kept),) + vertices[v + 1:] + ((g2, gone),)
                swap = {v: w, w: v}
                twin = [split[swap.get(i, i)] for i in range(w + 1)]
                yield (StableGraph(split, new_edges),
                       StableGraph(twin, [[swap.get(a, a), swap.get(b, b)]
                                          for a, b in new_edges]))


def test_canonical_form_matches_reference_on_every_candidate():
    """The one-pass canonical form (relabel once when the colours differ
    pairwise) gives the reference key on every candidate the enumeration
    keys, for every pinned type: the glue steps of the types with
    (g, n - 1) unstable, and otherwise the leg steps from type (g, n - 1),
    each a valid graph of type (g, n) in the normalized form."""
    for g, n in PINNED_TYPES:
        if (g, n) in GLUE_STEP_TYPES:
            for cand in _glue_steps(g, n):
                assert cand.canonical_form() == reference_canonical_form(cand), cand
            continue
        for graph in enumerate_graphs(g, n - 1):
            for cand in _leg_steps(graph, n):
                assert cand.canonical_form() == reference_canonical_form(cand), cand
                assert validate_graph(cand, g, n), cand
                assert StableGraph(cand.vertices, cand.edges) == cand, cand


# ---------------------------------------------------------------------------
# The forgetful and gluing maps: the graphs of type (g, n) are the leg steps
# of those of type (g, n - 1), or the glue steps when (g, n - 1) is unstable,
# checked against an independent forget-and-stabilize, an independent cut of
# one edge, and the levelled enumeration by the reference one-edge
# degenerations.
# ---------------------------------------------------------------------------

def forget_last_leg(graph: StableGraph) -> StableGraph:
    """Remove the largest leg n and contract its vertex if that leaves it
    unstable: a genus-0 vertex with one leg and one edge end passes the leg
    along the edge; one with two edge ends becomes the edge joining their
    other ends."""
    n = max(graph.legs())
    v = next(i for i, (_, legs) in enumerate(graph.vertices) if n in legs)
    vertices = [(gv, [leg for leg in legs if leg != n]) for gv, legs in graph.vertices]
    edges = [list(e) for e in graph.edges]
    gv, legs = vertices[v]
    if 2 * gv - 3 + graph.valences()[v] > 0:
        return StableGraph(vertices, edges)
    ends = [(k, side) for k, e in enumerate(edges) for side in (0, 1) if e[side] == v]
    others = [edges[k][1 - side] for k, side in ends]
    if legs:
        vertices[others[0]][1].extend(legs)
        edges = [e for k, e in enumerate(edges) if k != ends[0][0]]
    else:
        edges = [e for k, e in enumerate(edges) if k not in (ends[0][0], ends[1][0])]
        edges.append(others)
    del vertices[v]
    return StableGraph(vertices, [[u - (u > v) for u in e] for e in edges])


def test_every_graph_is_a_leg_step_of_its_image_under_forgetting():
    """For every pinned type built by leg steps, forgetting leg n takes
    each graph to a graph of type (g, n - 1) that the enumeration lists,
    and the graph's class is among the leg steps of that image.  The list
    holds the smooth graph and every reference one-edge degeneration of a
    listed graph, so no class is missing."""
    for g, n in PINNED_TYPES:
        if (g, n) in GLUE_STEP_TYPES:
            continue
        lower = {graph.canonical_form() for graph in enumerate_graphs(g, n - 1)}
        listed = {graph.canonical_form() for graph in enumerate_graphs(g, n)}
        assert StableGraph([(g, range(1, n + 1))], []).canonical_form() in listed
        for graph in enumerate_graphs(g, n):
            image = forget_last_leg(graph)
            assert validate_graph(image, g, n - 1), graph
            assert image.canonical_form() in lower, graph
            assert graph.canonical_form() in {cand.canonical_form()
                                              for cand in _leg_steps(image, n)}, graph
            assert all(cand.canonical_form() in listed
                       for cand, _ in reference_degenerations(graph)), graph


def levelled_graphs(g, n):
    """The enumeration by the reference one-edge degenerations alone: one
    level per edge count, each level's new classes sorted by (vertices,
    edges)."""
    smooth = StableGraph([(g, range(1, n + 1))], [])
    levels = [[smooth]]
    seen = {smooth.canonical_form()}
    while levels[-1]:
        nxt = []
        for graph in levels[-1]:
            for cand, _ in reference_degenerations(graph):
                key = reference_canonical_form(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(StableGraph(*key))
        nxt.sort(key=lambda gr: (gr.vertices, gr.edges))
        levels.append(nxt)
    return [graph for level in levels for graph in level]


@pytest.mark.parametrize("g,n", [(2, 0), (3, 0), (4, 0), (0, 7), (3, 1), (3, 2)])
def test_enumeration_equals_levelled_degenerations(g, n):
    """The glue steps of the types (g, 0), and past the pinned digest the
    leg steps through the forgetful map, list the same graphs in the same
    order as the levelled reference degenerations from the smooth graph.
    (4, 0) lies past the ceiling of `enumerate_graphs`, so it is read from
    the memo directly."""
    assert list(_graphs(g, n)) == levelled_graphs(g, n)


def cut_edge(graph, k):
    """Cut edge k of a graph of type (g, n), its two ends becoming legs
    n + 1 and n + 2.  A non-separating edge gives one graph of type
    (g - 1, n + 2).  A separating edge of a graph with n = 0 gives the two
    sides, each with its one new leg numbered 1."""
    n = len(graph.legs())
    a, b = graph.edges[k]
    vertices = [(gv, list(legs)) for gv, legs in graph.vertices]
    vertices[a][1].append(n + 1)
    vertices[b][1].append(n + 2)
    edges = graph.edges[:k] + graph.edges[k + 1:]
    cut = StableGraph(vertices, edges)
    if cut.is_connected():
        return [cut]
    assert n == 0
    side, grew = {a}, True
    while grew:
        grew = False
        for u, v in edges:
            if (u in side) != (v in side):
                side |= {u, v}
                grew = True
    pieces = []
    for part in (sorted(side), sorted(set(range(graph.num_vertices)) - side)):
        index = {v: i for i, v in enumerate(part)}
        pieces.append(StableGraph([(vertices[v][0], [1] * len(vertices[v][1]))
                                   for v in part],
                                  [(index[u], index[v]) for u, v in edges
                                   if u in index and v in index]))
    return pieces


@pytest.mark.parametrize("g,n", [(1, 1), (2, 0), (3, 0)])
def test_every_graph_is_a_glue_step_of_each_of_its_cuts(g, n):
    """Cutting any edge of any graph of the reference enumeration gives a
    graph that the enumeration lists in type (g - 1, n + 2), or two graphs
    that it lists in types (g1, 1) and (g - g1, 1); so the graph's class
    is among the glue steps of type (g, n), and that is checked too."""
    glued = {cand.canonical_form() for cand in _glue_steps(g, n)}
    for graph in levelled_graphs(g, n):
        assert graph.canonical_form() in glued, graph
        for k in range(graph.num_edges):
            pieces = cut_edge(graph, k)
            for piece in pieces:
                piece_type = (g - 1, n + 2) if len(pieces) == 1 else (piece.genus(), 1)
                assert validate_graph(piece, *piece_type), (graph, k, piece)
                assert piece.canonical_form() in {
                    h.canonical_form() for h in enumerate_graphs(*piece_type)}, (graph, k, piece)
