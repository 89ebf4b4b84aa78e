from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, permutations, product
from math import comb
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .exactmath import check_int, is_int, partition_count

__all__ = [
    "StableGraph",
    "enumerate_graphs",
    "validate_graph",
    "generator_count",
]


class StableGraph:
    """Dual graph of a stable curve: vertices carry genera and numbered
    legs, edges (including self-loops and multi-edges) are the nodes.

    Stored in a normalized labeled form: `vertices` is a tuple of
    (genus, sorted legs) pairs, `edges` a sorted tuple of (u, v) pairs with
    u <= v.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Sequence[Tuple[int, Sequence[int]]],
                 edges: Iterable[Sequence[int]]) -> None:
        verts = []
        for vert in vertices:
            try:
                g, legs = vert
                legs = iter(legs)
            except (TypeError, ValueError):
                raise ValueError(f"vertex {vert!r} is not a (genus, legs) "
                                 f"pair") from None
            verts.append((check_int("genus", g),
                          tuple(sorted(check_int("leg", l) for l in legs))))
        self.vertices = tuple(verts)
        es = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of vertex "
                                 f"indices") from None
            u, v = check_int("edge endpoint", u), check_int("edge endpoint", v)
            if not (0 <= u < len(self.vertices) and 0 <= v < len(self.vertices)):
                raise ValueError("edge endpoint out of range")
            es.append((u, v) if u <= v else (v, u))
        self.edges = tuple(sorted(es))

    @classmethod
    def _of(cls, vertices: Tuple, edges: Tuple) -> "StableGraph":
        """Wrap data already in the normalized form (tuples of int pairs,
        legs and edges sorted, u <= v on every edge) without checking it."""
        out = cls.__new__(cls)
        out.vertices, out.edges = vertices, edges
        return out

    # -- basic data -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def legs(self) -> List[int]:
        out: List[int] = []
        for _, ls in self.vertices:
            out.extend(ls)
        return sorted(out)

    def genus(self) -> int:
        """Total genus: vertex genera plus the loop rank of the graph."""
        h1 = self.num_edges - self.num_vertices + 1
        return sum(g for g, _ in self.vertices) + h1

    def valences(self) -> List[int]:
        """Legs plus edge ends at each vertex (a loop counts twice)."""
        out = [len(ls) for _, ls in self.vertices]
        for (a, b) in self.edges:
            out[a] += 1
            out[b] += 1
        return out

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {0}
        frontier = [0]
        adj: Dict[int, Set[int]] = {i: set() for i in range(self.num_vertices)}
        for (a, b) in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.num_vertices

    # -- isomorphism ------------------------------------------------------

    def _relabeled(self, order: Sequence[int]) -> Tuple:
        """The normalized data of the graph with vertex order[pos] moved
        to position pos."""
        perm = [0] * len(order)
        for pos, i in enumerate(order):
            perm[i] = pos
        es = []
        for a, b in self.edges:
            a, b = perm[a], perm[b]
            es.append((a, b) if a <= b else (b, a))
        es.sort()
        return tuple(self.vertices[i] for i in order), tuple(es)

    def canonical_form(self) -> Tuple:
        """Label-invariant normal form: the least relabelled (vertices,
        edges) pair over the vertex orders that sort the vertex colours.
        A colour starts as (genus, legs, loops, valence), read off in one
        pass over the edges.  When these differ pairwise, which holds for
        most graphs, they fix the order and the graph is relabelled once.
        Otherwise the adjacency is built, colour refinement by the colours
        of the neighbours splits the classes (a refined colour sorts by its
        old colour first, so distinct colours keep their order), and the
        orders within the classes left are searched exhaustively (desk
        scale)."""
        vertices, edges = self.vertices, self.edges
        n = len(vertices)
        loops = [0] * n
        valences = [len(ls) for _, ls in vertices]
        for a, b in edges:
            valences[a] += 1
            valences[b] += 1
            if a == b:
                loops[a] += 1
        colors = [(gv, legs, loops[i], valences[i])
                  for i, (gv, legs) in enumerate(vertices)]
        if len(set(colors)) == n:
            return self._relabeled(sorted(range(n), key=colors.__getitem__))
        adj: List[Dict[int, int]] = [{} for _ in range(n)]
        for a, b in edges:
            if a != b:
                adj[a][b] = adj[a].get(b, 0) + 1
                adj[b][a] = adj[b].get(a, 0) + 1
        for _ in range(n):
            new = [(colors[i],
                    tuple(sorted((colors[j], m) for j, m in adj[i].items())))
                   for i in range(n)]
            stable = len(set(new)) == len(set(colors))
            colors = new
            if stable:
                break
        classes: List[List[int]] = []
        for i in sorted(range(n), key=lambda i: (colors[i], i)):
            if classes and colors[classes[-1][0]] == colors[i]:
                classes[-1].append(i)
            else:
                classes.append([i])
        return min(self._relabeled(list(chain.from_iterable(arrangement)))
                   for arrangement in product(*map(permutations, classes)))

    def export(self) -> dict:
        return {
            "vertices": [{"genus": g, "legs": list(ls)} for g, ls in self.vertices],
            "edges": [[a, b] for a, b in self.edges],
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, StableGraph):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"StableGraph({list(self.vertices)}, {list(self.edges)})"


def validate_graph(graph: StableGraph, g: int, n: int) -> bool:
    """Connected, stable at every vertex, genus formula, legs exactly 1..n."""
    if not graph.is_connected():
        return False
    for (gv, _), val in zip(graph.vertices, graph.valences()):
        if gv < 0 or 2 * gv - 2 + val <= 0:
            return False
    if graph.genus() != g:
        return False
    return graph.legs() == list(range(1, n + 1))


def _check_type(g: int, n: int) -> None:
    """Refuse a (g, n) that is not a stable pair of ints or lies beyond the
    desk-scale ceiling."""
    if not (is_int(g) and is_int(n)) or g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}): need ints g, n >= 0 and 2g - 2 + n > 0")
    if n > (8 if g == 0 else 6) or g > 3:
        raise ValueError("desk-scale ceiling: n <= 8 in genus 0, "
                         "otherwise g <= 3 and n <= 6")


def _leg_steps(graph: StableGraph, n: int) -> Iterator[StableGraph]:
    """The graphs of type (g, n) that forgetting leg n and stabilizing
    takes to `graph`, of type (g, n - 1), at least one per isomorphism
    class.  Forgetting leg n either leaves its vertex stable, or leaves a
    genus-0 vertex with two other half-edges, which is contracted; so the
    inverses are: leg n put on a vertex; a new genus-0 vertex carrying
    legs (i, n), bubbled off the vertex of leg i; or a new genus-0 vertex
    carrying leg n that splits an edge, one edge per bundle of parallel
    edges (a split loop becomes two parallel edges).  Every other vertex
    keeps its valence and the genus does not change."""
    vertices, edges = graph.vertices, graph.edges
    w = len(vertices)
    for v, (gv, legs) in enumerate(vertices):
        yield StableGraph._of(vertices[:v] + ((gv, legs + (n,)),) + vertices[v + 1:], edges)
        for i, leg in enumerate(legs):
            yield StableGraph._of(
                vertices[:v] + ((gv, legs[:i] + legs[i + 1:]),) + vertices[v + 1:]
                + ((0, (leg, n)),),
                tuple(sorted(edges + ((v, w),))))
    for k, (a, b) in enumerate(edges):
        if k == 0 or edges[k - 1] != (a, b):
            yield StableGraph._of(vertices + ((0, (n,)),),
                                  tuple(sorted(edges[:k] + edges[k + 1:] + ((a, w), (b, w)))))


def _glue_steps(g: int, n: int) -> Iterator[StableGraph]:
    """The graphs of type (g, n) that the gluing maps build, at least one
    per isomorphism class: the smooth graph; each graph of type
    (g - 1, n + 2) with legs n + 1 and n + 2 joined into one edge (a loop
    when both are on one vertex); and, for n = 0, each pair of graphs of
    types (g1, 1) and (g - g1, 1) with 1 <= g1 <= g // 2, joined at their
    legs, each unordered pair once.  Cutting any edge of a stable graph of
    type (g, 0), (0, 3) or (1, 1) gives one of these inputs, so every
    class is reached."""
    def joined(vertices: Tuple, edges: Tuple) -> StableGraph:
        a, b = (v for v, (_, legs) in enumerate(vertices) for leg in legs if leg > n)
        return StableGraph._of(
            tuple((gv, tuple(leg for leg in legs if leg <= n)) for gv, legs in vertices),
            tuple(sorted(edges + ((a, b),))))

    yield StableGraph._of(((g, tuple(range(1, n + 1))),), ())
    if g:
        for graph in _graphs(g - 1, n + 2):
            yield joined(graph.vertices, graph.edges)
    if n == 0:
        for g1 in range(1, g // 2 + 1):
            lefts = _graphs(g1, 1)
            pairs = (combinations_with_replacement(lefts, 2) if 2 * g1 == g
                     else product(lefts, _graphs(g - g1, 1)))
            for left, right in pairs:
                k = len(left.vertices)
                yield joined(left.vertices + tuple((gv, tuple(leg + 1 for leg in legs))
                                                   for gv, legs in right.vertices),
                             left.edges + tuple((u + k, v + k) for u, v in right.edges))


def enumerate_graphs(g: int, n: int) -> List[StableGraph]:
    """One representative per isomorphism class of stable graphs of type
    (g, n), sorted by edge count.  Desk scale: n <= 8 in genus 0,
    otherwise g <= 3 and n <= 6.  The graphs are computed once per (g, n)
    and process, and computing (g, n) also memoizes every stable (g, k)
    with k < n, and for (g, 0) also (g - 1, 2) and every (g1, 1) with
    1 <= g1 < g; each call returns a new list of them."""
    _check_type(g, n)
    return list(_graphs(g, n))


@lru_cache(maxsize=None)
def _graphs(g: int, n: int) -> Tuple[StableGraph, ...]:
    """The graphs of type (g, n) in canonical form, sorted by (edge count,
    vertices, edges).  Type (g, n) with (g, n - 1) stable is built by the
    leg steps from the memoized graphs of type (g, n - 1), so computing
    it memoizes every stable (g, k) with k < n.  The base types (g, 0),
    (0, 3) and (1, 1) are built by the glue steps from the memoized types
    (g - 1, n + 2) and, for n = 0, (g1, 1) with 1 <= g1 < g.  Both kinds
    of candidate are deduplicated by canonical form."""
    if n and 2 * g - 3 + n > 0:
        cands = (cand for graph in _graphs(g, n - 1) for cand in _leg_steps(graph, n))
    else:
        cands = _glue_steps(g, n)
    keys = {cand.canonical_form() for cand in cands}
    return tuple(StableGraph._of(*key)
                 for key in sorted(keys, key=lambda key: (len(key[1]), key)))


def _vertex_counts(nv: int, gv: int, top: int) -> List[int]:
    """Numbers of decoration monomials at one vertex in degrees 0..top:
    psi exponents over its nv distinguishable slots times kappa monomials,
    none above the vertex dimension 3g(v)-3+n(v)."""
    return [sum((comb(nv + e - 1, e) if e else 1) * partition_count(d - e)
                for e in range(d + 1)) if d <= 3 * gv - 3 + nv else 0
            for d in range(top + 1)]


def generator_count(g: int, n: int, degree: int) -> int:
    """Number of (stable graph, vertex decoration) pairs in the given
    degree: edges count 1 each, decorations are monomials in the psi
    classes of the vertex's own half-edges/legs and kappa classes, capped
    by the vertex moduli dimension.  Upper bound for the rank of the
    degree-`degree` tautological group."""
    for name, x in (("degree", degree), ("g", g), ("n", n)):
        check_int(name, x)
    _check_type(g, n)
    if not 0 <= degree <= 3 * g - 3 + n:
        raise ValueError(f"degree {degree} is outside the degrees "
                         f"0..{3 * g - 3 + n} of type ({g}, {n})")
    total = 0
    # per-vertex counts in degrees 0..degree, once per (valence, genus)
    rows: Dict[Tuple[int, int], List[int]] = {}
    for graph in enumerate_graphs(g, n):
        top = degree - graph.num_edges
        if top < 0:
            continue
        # convolve the per-vertex counts up to degree `top`
        counts = [1] + [0] * top
        for (gv, _), nv in zip(graph.vertices, graph.valences()):
            row = rows.get((nv, gv))
            if row is None:
                row = rows[nv, gv] = _vertex_counts(nv, gv, degree)
            counts = [sum(counts[i] * row[d - i] for i in range(d + 1))
                      for d in range(top + 1)]
        total += counts[top]
    return total
