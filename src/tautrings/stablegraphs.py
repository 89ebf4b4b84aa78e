from __future__ import annotations

from itertools import permutations
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .exactmath import is_int, partition_count

__all__ = [
    "StableGraph",
    "enumerate_graphs",
    "validate_graph",
    "generator_count",
]

Edge = Tuple[int, int]


class StableGraph:
    """Dual graph of a stable curve: vertices carry genera and numbered
    legs, edges (including self-loops and multi-edges) are the nodes.

    Stored in a normalized labeled form: `vertices` is a tuple of
    (genus, sorted legs) pairs, `edges` a sorted tuple of (u, v) pairs with
    u <= v.  The half-edge view (half-edge ids, vertex assignment, the
    fixed-point-free involution) is derived on demand.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Sequence[Tuple[int, Sequence[int]]],
                 edges: Iterable[Sequence[int]]) -> None:
        self.vertices = tuple((int(g), tuple(sorted(int(l) for l in legs)))
                              for g, legs in vertices)
        es = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < len(self.vertices) and 0 <= v < len(self.vertices)):
                raise ValueError("edge endpoint out of range")
            es.append((u, v) if u <= v else (v, u))
        self.edges = tuple(sorted(es))

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

    def valence(self, v: int) -> int:
        n = len(self.vertices[v][1])
        for (a, b) in self.edges:
            if a == v:
                n += 1
            if b == v:
                n += 1
        return n

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

    def half_edges(self) -> Tuple[List[int], Dict[int, int], Dict[int, int]]:
        """Explicit (H, vertex assignment a, involution i) for the edge set:
        half-edges 2k, 2k+1 form the k-th edge."""
        H: List[int] = []
        a: Dict[int, int] = {}
        invol: Dict[int, int] = {}
        for k, (u, v) in enumerate(self.edges):
            h1, h2 = 2 * k, 2 * k + 1
            H.extend((h1, h2))
            a[h1], a[h2] = u, v
            invol[h1], invol[h2] = h2, h1
        return H, a, invol

    # -- isomorphism ------------------------------------------------------

    def _relabeled(self, perm: Sequence[int]) -> Tuple:
        vs = [None] * self.num_vertices
        for i, (g, ls) in enumerate(self.vertices):
            vs[perm[i]] = (g, ls)
        es = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b]))
                          for a, b in self.edges))
        return tuple(vs), es

    def canonical_form(self) -> Tuple:
        """Label-invariant normal form: color refinement seeds the vertex
        order, permutations within residual color classes are searched
        exhaustively (desk scale)."""
        n = self.num_vertices
        adj: Dict[int, Dict[int, int]] = {i: {} for i in range(n)}
        loops = [0] * n
        for (a, b) in self.edges:
            if a == b:
                loops[a] += 1
            else:
                adj[a][b] = adj[a].get(b, 0) + 1
                adj[b][a] = adj[b].get(a, 0) + 1
        colors = [(self.vertices[i][0], self.vertices[i][1], loops[i],
                   self.valence(i)) for i in range(n)]
        for _ in range(n):
            new = [(colors[i],
                    tuple(sorted((colors[j], m) for j, m in adj[i].items())))
                   for i in range(n)]
            stable = len(set(new)) == len(set(colors))
            colors = new
            if stable:
                break
        order = sorted(range(n), key=lambda i: (colors[i], i))
        classes: List[List[int]] = []
        for i in order:
            if classes and colors[classes[-1][0]] == colors[i]:
                classes[-1].append(i)
            else:
                classes.append([i])
        best: Optional[Tuple] = None
        for arrangement in _class_permutations(classes):
            perm = [0] * n
            for pos, i in enumerate(arrangement):
                perm[i] = pos
            cand = self._relabeled(perm)
            if best is None or cand < best:
                best = cand
        return best

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


def _class_permutations(classes: List[List[int]]):
    """All concatenations of per-class permutations."""
    if not classes:
        yield []
        return
    head, rest = classes[0], classes[1:]
    for tail in _class_permutations(rest):
        for p in permutations(head):
            yield list(p) + tail


def validate_graph(graph: StableGraph, g: int, n: int) -> bool:
    """Connected, stable at every vertex, genus formula, legs exactly 1..n."""
    if not graph.is_connected():
        return False
    for v, (gv, _) in enumerate(graph.vertices):
        if gv < 0 or 2 * gv - 2 + graph.valence(v) <= 0:
            return False
    if graph.genus() != g:
        return False
    return graph.legs() == list(range(1, n + 1))


def _degenerations(graph: StableGraph) -> List[StableGraph]:
    """All one-edge degenerations: lower a vertex genus and add a loop, or
    split a vertex (genus split, half-edge/leg distribution, new edge)."""
    out: List[StableGraph] = []
    for v, (gv, legs) in enumerate(graph.vertices):
        if gv >= 1:
            out.append(StableGraph(graph.vertices[:v]
                                   + ((gv - 1, legs),)
                                   + graph.vertices[v + 1:],
                                   graph.edges + ((v, v),)))
        # split v into v (kept slot) + new vertex w
        slots: List[Tuple[str, object]] = [("leg", l) for l in legs]
        for k, (a, b) in enumerate(graph.edges):
            if a == v:
                slots.append(("end", (k, 0)))
            if b == v:
                slots.append(("end", (k, 1)))
        w = graph.num_vertices
        for g1 in range(0, gv + 1):
            g2 = gv - g1
            for mask in range(1 << len(slots)):
                keep_legs, move_legs = [], []
                moved_ends = set()
                for i, (kind, payload) in enumerate(slots):
                    if mask >> i & 1:
                        if kind == "leg":
                            move_legs.append(payload)
                        else:
                            moved_ends.add(payload)
                    else:
                        if kind == "leg":
                            keep_legs.append(payload)
                new_edges = []
                for k, (a, b) in enumerate(graph.edges):
                    na = w if (k, 0) in moved_ends and a == v else a
                    nb = w if (k, 1) in moved_ends and b == v else b
                    new_edges.append((na, nb))
                new_edges.append((v, w))
                vs = list(graph.vertices)
                vs[v] = (g1, tuple(sorted(keep_legs)))
                vs.append((g2, tuple(sorted(move_legs))))
                cand = StableGraph(vs, new_edges)
                stable = all(2 * cand.vertices[u][0] - 2 + cand.valence(u) > 0
                             for u in (v, w))
                if stable:
                    out.append(cand)
    return out


def enumerate_graphs(g: int, n: int) -> List[StableGraph]:
    """One representative per isomorphism class of stable graphs of type
    (g, n), sorted by edge count.  Generated by iterated one-edge
    degenerations from the smooth graph, deduplicated by canonical form."""
    if not (is_int(g) and is_int(n)) or g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}): need ints g, n >= 0 and 2g - 2 + n > 0")
    if g > 3 or n > 6:
        raise ValueError("desk-scale ceiling: g <= 3 and n <= 6")
    smooth = StableGraph([(g, range(1, n + 1))], [])
    levels: List[List[StableGraph]] = [[smooth]]
    seen = {smooth.canonical_form()}
    max_edges = 3 * g - 3 + n
    while len(levels[-1]) and len(levels) <= max_edges:
        nxt: List[StableGraph] = []
        for graph in levels[-1]:
            for cand in _degenerations(graph):
                key = cand.canonical_form()
                if key not in seen:
                    seen.add(key)
                    nxt.append(StableGraph(*key))
        nxt.sort(key=lambda gr: (gr.vertices, gr.edges))
        levels.append(nxt)
    return [gr for level in levels for gr in level]


def _vertex_monomials(nv: int, gv: int, budget: int, degree: int) -> int:
    """Number of degree-`degree` decoration monomials at one vertex: psi
    exponents over nv distinguishable slots times kappa monomials, within
    the vertex dimension budget 3g(v)-3+n(v)."""
    if degree > budget:
        return 0
    total = 0
    for e in range(degree + 1):
        psi_count = 1 if e == 0 else (comb(nv + e - 1, e) if nv else 0)
        total += psi_count * partition_count(degree - e)
    return total


def generator_count(g: int, n: int, degree: int) -> int:
    """Number of (stable graph, vertex decoration) pairs in the given
    degree: edges count 1 each, decorations are monomials in the psi
    classes of the vertex's own half-edges/legs and kappa classes, capped
    by the vertex moduli dimension.  Upper bound for the rank of the
    degree-`degree` tautological group."""
    if degree > 3 * g - 3 + n:
        raise ValueError("degree exceeds the moduli dimension")
    total = 0
    for graph in enumerate_graphs(g, n):
        e = graph.num_edges
        if e > degree:
            continue
        budgets = []
        for v, (gv, legs) in enumerate(graph.vertices):
            nv = graph.valence(v)
            budgets.append((nv, gv, 3 * gv - 3 + nv))
        # convolve per-vertex monomial counts at total degree `degree - e`
        counts = [1] + [0] * (degree - e)
        for (nv, gv, budget) in budgets:
            new = [0] * (degree - e + 1)
            for d0 in range(degree - e + 1):
                if not counts[d0]:
                    continue
                for dv in range(degree - e + 1 - d0):
                    m = _vertex_monomials(nv, gv, budget, dv)
                    if m:
                        new[d0 + dv] += counts[d0] * m
            counts = new
        total += counts[degree - e]
    return total
