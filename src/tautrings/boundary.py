from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .exactmath import GeneratorTable, GradedPolynomial, GradedQuotient, check_int
from .exactmath.gradedpoly import Scalar

__all__ = [
    "BoundaryDivisor",
    "keel_generators",
    "keel_quotient",
    "keel_ring_dims",
    "keel_pairing_check",
    "keel_fourpoint_relations",
    "psi_in_boundary_basis",
    "kappa1_in_boundary_basis",
    "h2_presentation",
    "h2_rank",
]


class BoundaryDivisor:
    """Genus-0 boundary divisor indexed by a 2-sided marking partition.

    The canonical representative is the side *not* containing the last
    marking n, so D_S and D_{S^c} construct the identical value.
    """

    __slots__ = ("n", "side")

    def __init__(self, n: int, side) -> None:
        n = check_int("n", n)
        s = frozenset(check_int("marking", x) for x in side)
        if not s <= set(range(1, n + 1)):
            raise ValueError("side must consist of markings 1..n")
        if not (2 <= len(s) <= n - 2):
            raise ValueError("both sides need at least 2 markings")
        if n in s:
            s = frozenset(range(1, n + 1)) - s
        self.n = n
        self.side = s

    @property
    def complement(self) -> FrozenSet[int]:
        return frozenset(range(1, self.n + 1)) - self.side

    def name(self) -> str:
        return "D{" + ",".join(str(x) for x in sorted(self.side)) + "}"

    def export(self) -> List[int]:
        return sorted(self.side)

    def __eq__(self, other) -> bool:
        if isinstance(other, BoundaryDivisor):
            return (self.n, self.side) == (other.n, other.side)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.side))

    def __lt__(self, other: "BoundaryDivisor") -> bool:
        return (len(self.side), sorted(self.side)) < (len(other.side), sorted(other.side))

    def __repr__(self) -> str:
        return f"BoundaryDivisor({self.n}, {sorted(self.side)})"


def keel_generators(n: int) -> List[BoundaryDivisor]:
    """All canonical boundary divisors of the n-pointed genus-0 space;
    there are 2^(n-1) - 1 - n of them."""
    if check_int("n", n) < 3:
        raise ValueError("need n >= 3")
    out = []
    pool = list(range(1, n))  # canonical sides exclude n
    for k in range(2, n - 1):
        for side in combinations(pool, k):
            out.append(BoundaryDivisor(n, side))
    return sorted(out)


def _divisor_table(n: int) -> Tuple[List[BoundaryDivisor], GeneratorTable]:
    divs = keel_generators(n)
    gens = GeneratorTable([(d.name(), 1) for d in divs])
    return divs, gens


def _separates(side: FrozenSet[int], comp: FrozenSet[int],
               one: Set[int], other: Set[int]) -> bool:
    """Whether the markings `one` lie on one branch of the partition
    side | comp and the markings `other` on the other branch."""
    return (one <= side and other <= comp) or (one <= comp and other <= side)


def _linear(gens: GeneratorTable,
            coeffs: Iterable[Tuple[str, Scalar]]) -> GradedPolynomial:
    """The degree-1 polynomial sum of c * name over (name, c) pairs of
    degree-1 generators and int or Fraction coefficients; repeated names
    add up and zero sums are dropped.  The table's unit tuples are wrapped
    unchecked."""
    terms: Dict[str, Scalar] = {}
    for name, c in coeffs:
        terms[name] = terms.get(name, 0) + c
    return GradedPolynomial._of(gens, {gens.unit(name): Fraction(c)
                                       for name, c in terms.items() if c})


def keel_fourpoint_relations(n: int) -> List[GradedPolynomial]:
    """Degree-1 relations: for each 4-subset {i,j,k,l}, the three sums of
    divisors separating {i,j}|{k,l}, {i,k}|{j,l}, {i,l}|{j,k} agree (two
    independent differences per subset)."""
    divs, gens = _divisor_table(n)
    sides = [(div.name(), div.side, div.complement) for div in divs]

    def separating_sum(a: int, b: int, c: int, d: int) -> GradedPolynomial:
        return _linear(gens, ((name, 1) for name, side, comp in sides
                              if _separates(side, comp, {a, b}, {c, d})))

    rels = []
    for (i, j, k, l) in combinations(range(1, n + 1), 4):
        s1 = separating_sum(i, j, k, l)
        s2 = separating_sum(i, k, j, l)
        s3 = separating_sum(i, l, j, k)
        rels.append(s1 - s2)
        rels.append(s1 - s3)
    return rels


def keel_incompatibility_relations(n: int) -> List[GradedPolynomial]:
    """Degree-2 relations D_S * D_T = 0 for every crossing pair, where
    each side of one meets both sides of the other (no representatives are
    nested or disjoint); each product is built as its one exponent tuple."""
    divs, gens = _divisor_table(n)
    one = Fraction(1)
    sides = [(d.side, d.complement, gens.unit(d.name())) for d in divs]
    rels = []
    for i, (s, sc, u) in enumerate(sides):
        for t, tc, v in sides[i + 1:]:
            if not (s.isdisjoint(t) or s.isdisjoint(tc)
                    or sc.isdisjoint(t) or sc.isdisjoint(tc)):
                rels.append(GradedPolynomial._of(gens, {tuple(map(add, u, v)): one}))
    return rels


def keel_quotient(n: int) -> GradedQuotient:
    """The boundary-divisor presentation of the n-pointed genus-0 Chow
    ring, reduced by the generic quotient engine through the top degree
    n-3.  The crossing products are single-term relations, so the engine
    eliminates the four-point relations over the nested-set monomials
    only.  Supports 3 <= n <= 8: the dims of n = 8 take about 9 s of CPU
    and 200 MiB, its pairings under 1 s more.  n = 9, on 246 divisors, is
    refused."""
    if not (3 <= check_int("n", n) <= 8):
        raise ValueError(f"the Keel presentation supports 3 <= n <= 8, got {n}")
    divs, gens = _divisor_table(n)
    rels = keel_fourpoint_relations(n) + keel_incompatibility_relations(n)
    return GradedQuotient(gens, rels, n - 3)


def keel_ring_dims(n: int) -> List[int]:
    """Graded dimensions (Betti numbers) of the genus-0 presentation,
    degrees 0..n-3.  n = 7 takes about 0.2 s of CPU: degree 4 eliminates
    over its 6,251 nested-set monomials (of 455,126 in its 56 divisors)."""
    return keel_quotient(n).dims


def keel_pairing_check(n: int) -> bool:
    """Poincare-duality check: palindromic dims and nonsingular
    complementary pairings into the one-dimensional top degree.  n = 7
    takes about 0.2 s of CPU, nearly all of it in building the quotient."""
    return bool(keel_quotient(n).report(with_pairings=True).gorenstein)


def psi_in_boundary_basis(n: int, z: int, x: int, y: int) -> GradedPolynomial:
    """psi_z as the sum of boundary divisors whose z-side avoids the two
    auxiliary markings x and y."""
    for name, value in (("n", n), ("z", z), ("x", x), ("y", y)):
        check_int(name, value)
    if len({z, x, y}) != 3 or not {z, x, y} <= set(range(1, n + 1)):
        raise ValueError("markings z, x, y must be distinct and in 1..n")
    divs, gens = _divisor_table(n)
    return _linear(gens, ((div.name(), 1) for div in divs
                          if _separates(div.side, div.complement, {z}, {x, y})))


def kappa1_in_boundary_basis(n: int) -> GradedPolynomial:
    """kappa_1 in the Arbarello-Cornalba convention (the pushforward of
    psi_{n+1}^2 from the (n+1)-pointed space) as the boundary sum with
    weight (|S| - 1)(n - |S| - 1)/(n - 1) on D_S, the same for either side
    S.  Its (n-3)-th power integrates to 1, 5, 61, 1379 for n = 4..7, as
    the pushforward formula over `psi_intersection` gives."""
    if check_int("n", n) < 4:
        raise ValueError("need n >= 4")
    divs, gens = _divisor_table(n)
    return _linear(gens, ((div.name(), Fraction((len(div.side) - 1)
                                                * (n - len(div.side) - 1), n - 1))
                          for div in divs))


# ---------------------------------------------------------------------------
# Second cohomology of the compactified pointed spaces
# ---------------------------------------------------------------------------

# Relation terms are full-length exponent tuples, so memory grows with the
# square of the generator count: h2_rank(2, 11), 3,073 generators, peaks at
# 101 MiB ru_maxrss in a fresh Python 3.11 process (0.5 s CPU on a 2-vCPU
# machine); the estimate of ~10 GB for (5, 13) was not re-measured.
_H2_MAX_GENERATORS = 3073


class H2Presentation:
    """Generators and degree-1 relations for H^2 of the compactified
    n-pointed genus-g space.

    Generators: kappa_1, psi_1..psi_n, delta_irr, and the boundary classes
    delta_{a,S} (canonical under delta_{a,S} = delta_{g-a,S^c}: the pair
    with the smaller (a, sorted S)).  Relations follow the
    genus-stratified lists; for g <= 1 the psi and kappa expressions are
    instantiated for every admissible choice of auxiliary markings.
    """

    def __init__(self, g: int, n: int) -> None:
        if check_int("g", g) < 0 or check_int("n", n) < 0 or 2 * g - 2 + n <= 0:
            raise ValueError(
                f"(g, n) = ({g}, {n}): need g, n >= 0 and 2g - 2 + n > 0")
        self.g, self.n = g, n
        marks = frozenset(range(1, n + 1))
        self.sep: List[Tuple[int, FrozenSet[int]]] = []
        for a in range(0, g + 1):
            for k in range(0, n + 1):
                for S in map(frozenset, combinations(range(1, n + 1), k)):
                    # admissible, and the canonical one of (a, S) ~ (g - a, S^c)
                    if (2 * a - 2 + k >= 0 and 2 * (g - a) - 2 + n - k >= 0
                            and (a, sorted(S)) <= (g - a, sorted(marks - S))):
                        self.sep.append((a, S))
        self.sep.sort(key=lambda p: (p[0], len(p[1]), sorted(p[1])))
        count = len(self.sep) + n + 2
        if count > _H2_MAX_GENERATORS:
            raise ValueError(f"(g, n) = ({g}, {n}) has {count} H^2 generators, "
                             f"over the ceiling of {_H2_MAX_GENERATORS}")
        self.names: List[str] = (["kappa_1"]
                                 + [f"psi_{i}" for i in range(1, n + 1)]
                                 + ["delta_irr"]
                                 + [f"delta_{a}{{{','.join(str(x) for x in sorted(S))}}}"
                                    for a, S in self.sep])
        self.gens = GeneratorTable([(name, 1) for name in self.names])
        self.relations = self._relations(marks)

    def _relations(self, marks: FrozenSet[int]) -> List[GradedPolynomial]:
        g, n, gens = self.g, self.n, self.gens
        psis = self.names[1:n + 1]
        classes = [(a, S, name) for (a, S), name in zip(self.sep, self.names[n + 2:])]

        def delta(a: int, c: int) -> List[Tuple[str, int]]:
            """c times every class with a genus-a side, each class once."""
            return [(name, c) for b, _, name in classes if a in (b, g - b)]

        if g == 2:
            return [_linear(gens, [("kappa_1", 5), ("delta_irr", -1)]
                            + [(p, -5) for p in psis] + delta(0, 5) + delta(1, -7))]
        if g == 1:
            rels = [_linear(gens, [("kappa_1", 1)] + [(p, -1) for p in psis] + delta(0, 1))]
            # every canonical class has a = 0, so S is its genus-0 side
            for p in range(1, n + 1):
                rels.append(_linear(gens, [(f"psi_{p}", 12), ("delta_irr", -1)]
                                    + [(name, -12) for _, S, name in classes if p in S]))
            return rels
        if g == 0:
            rels = [_linear(gens, [("kappa_1", 1)]
                            + [(name, 1 - len(S)) for _, S, name in classes]),
                    _linear(gens, [("delta_irr", 1)])]
            for z in range(1, n + 1):
                for x, y in combinations(sorted(marks - {z}), 2):
                    # the classes whose sides separate z from x and y
                    rels.append(_linear(gens, [(f"psi_{z}", 1)] + [
                        (name, -1) for _, S, name in classes
                        if (z in S) != (x in S) == (y in S)]))
            return rels
        return []

    def rank(self) -> int:
        """Number of generators minus the rank of the relation span: the
        degree-1 dimension of the quotient by the relations."""
        return GradedQuotient(self.gens, self.relations, 1).dim(1)

    def export(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "generators": list(self.names),
            "relations": [sorted((self.names[mono.index(1)], f"{c.numerator}/{c.denominator}")
                                 for mono, c in rel.terms.items())
                          for rel in self.relations],
        }


def h2_presentation(g: int, n: int) -> H2Presentation:
    return H2Presentation(g, n)


def h2_rank(g: int, n: int) -> int:
    """Rank of H^2 of the compactified n-pointed genus-g space: number of
    listed generators minus the rank of the listed relations."""
    return H2Presentation(g, n).rank()
