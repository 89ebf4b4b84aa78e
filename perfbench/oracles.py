"""Reference values for the benchmark, computed without tautrings.

Nothing here imports the package under test: each check below is either a
closed form, a recursion from the literature, or a pinned count, so a
wrong value from the timed code cannot also be the expected value.
"""

from fractions import Fraction
from math import comb, factorial

# Graded dimensions of the candidate tautological ring R*(M_g) (Faber's
# tables); all of these are Gorenstein with a one-dimensional socle.
FZ_RING_DIMS = {
    2: [1],
    3: [1, 1],
    4: [1, 1, 1],
    5: [1, 1, 1, 1],
    6: [1, 1, 2, 1, 1],
    7: [1, 1, 2, 2, 1, 1],
    8: [1, 1, 2, 2, 2, 1, 1],
    9: [1, 1, 2, 3, 3, 2, 1, 1],
    10: [1, 1, 2, 3, 4, 3, 2, 1, 1],
}

# Isomorphism classes of stable graphs.  (3,0) = 42 and (0,6) = 236 are
# the literature values (the 42 boundary strata of M_3-bar; OEIS A000311
# for the strata of M_{0,6}-bar); the others are pinned from the seed
# commit of this repository.
STABLE_GRAPH_COUNTS = {(2, 3): 555, (1, 5): 1576, (3, 0): 42, (0, 6): 236,
                       (2, 2): 75}

# generator_count(2, 2, d) for d = 0..5, pinned from the seed commit.
GENERATOR_COUNTS_2_2 = [1, 7, 39, 179, 560, 1067]


def partition_count(n):
    """Number of integer partitions of n (Euler's recurrence by parts)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def keel_betti(n):
    """Betti numbers of M_{0,n}-bar from Keel's recursion
    P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1},
    with P_3 = 1.  Returned as the list of coefficients of q^0..q^{n-3}."""
    polys = {3: [1]}
    for m in range(3, n):
        acc = [0] * (m - 1)
        for i, c in enumerate(polys[m]):
            acc[i] += c
            acc[i + 1] += c
        half = [0] * (m - 1)
        for j in range(2, m - 1):
            a, b = polys[j + 1], polys[m - j + 1]
            for x, ca in enumerate(a):
                for y, cb in enumerate(b):
                    half[x + y + 1] += comb(m, j) * ca * cb
        polys[m + 1] = [c + h // 2 for c, h in zip(acc, half)]
    return polys[n]


def h2_rank(g, n):
    """Rank of H^2 of M_{g,n}-bar for g <= 2 from closed forms.

    g = 0: the degree-1 Betti number from Keel's recursion;
    g = 1: 2^n - n, the boundary divisors (delta_irr and delta_{0,S},
    |S| >= 2) being a basis;
    g = 2: 3 * 2^(n-1) for n >= 1 and 2 for n = 0.
    """
    if g == 0:
        betti = keel_betti(n)
        return betti[1] if len(betti) > 1 else 0
    if g == 1:
        return 2 ** n - n
    if g == 2:
        return 3 * 2 ** (n - 1) if n else 2
    raise ValueError("no closed form for genus > 2")


def one_point(g):
    """<tau_{3g-2}>_g = 1 / (24^g g!)."""
    return Fraction(1, 24 ** g * factorial(g))


def genus0(exps):
    """<prod tau_{k_i}>_0 = (n-3)! / prod k_i! on the degree n - 3."""
    den = 1
    for k in exps:
        den *= factorial(k)
    return Fraction(factorial(len(exps) - 3), den)


def correlator_failures(values):
    """Check a map (g, exps) -> value with exps sorted non-increasing.

    Closed forms for genus 0 and for one-point correlators; the string and
    dilaton equations relate entries that are both present.  Returns a list
    of (key, reason) for every entry that disagrees.
    """
    bad = []
    for (g, exps), value in values.items():
        n = len(exps)
        if g == 0 and value != genus0(exps):
            bad.append(((g, exps), f"genus-0 closed form {genus0(exps)}"))
        if n == 1 and value != one_point(g):
            bad.append(((g, exps), f"one-point closed form {one_point(g)}"))
        if 0 in exps and (g, n) != (0, 3):
            rest = list(exps)
            rest.remove(0)
            total, known = Fraction(0), True
            for i, k in enumerate(rest):
                if k == 0:
                    continue
                key = (g, tuple(sorted(rest[:i] + [k - 1] + rest[i + 1:],
                                       reverse=True)))
                if key not in values:
                    known = False
                    break
                total += values[key]
            if known and value != total:
                bad.append(((g, exps), f"string equation gives {total}"))
        if 1 in exps:
            rest = list(exps)
            rest.remove(1)
            key = (g, tuple(rest))
            if 2 * g - 2 + len(rest) > 0 and key in values:
                want = (2 * g - 2 + len(rest)) * values[key]
                if value != want:
                    bad.append(((g, exps), f"dilaton equation gives {want}"))
    return bad


def graph_failure(graph, g, n):
    """Why a stable graph is not a connected stable graph of type (g, n),
    or None.  Reads only the public `vertices` and `edges` fields."""
    verts, edges = graph.vertices, graph.edges
    valence = [len(legs) for _, legs in verts]
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    if any(2 * gv - 2 + valence[v] <= 0 for v, (gv, _) in enumerate(verts)):
        return "unstable vertex"
    reach, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in reach:
                    reach.add(y)
                    todo.append(y)
    if len(reach) != len(verts):
        return "disconnected"
    genus = sum(gv for gv, _ in verts) + len(edges) - len(verts) + 1
    if genus != g:
        return f"arithmetic genus {genus}"
    if sorted(l for _, legs in verts for l in legs) != list(range(1, n + 1)):
        return "legs are not 1..n"
    return None
