from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from .exactmath import (GeneratorTable, GradedPolynomial, GradedQuotient,
                        SparseEchelon, exact_rank)

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
        n = int(n)
        s = frozenset(int(x) for x in side)
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
    if n < 3:
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


def _divisor_poly(gens: GeneratorTable, div: BoundaryDivisor) -> GradedPolynomial:
    return GradedPolynomial.generator(gens, div.name())


def keel_fourpoint_relations(n: int) -> List[GradedPolynomial]:
    """Degree-1 relations: for each 4-subset {i,j,k,l}, the three sums of
    divisors separating {i,j}|{k,l}, {i,k}|{j,l}, {i,l}|{j,k} agree (two
    independent differences per subset)."""
    divs, gens = _divisor_table(n)

    def separating_sum(a: int, b: int, c: int, d: int) -> GradedPolynomial:
        acc = GradedPolynomial.zero(gens)
        for div in divs:
            s, sc = div.side, div.complement
            if (a in s and b in s and c in sc and d in sc) or \
               (a in sc and b in sc and c in s and d in s):
                acc = acc + _divisor_poly(gens, div)
        return acc

    rels = []
    for (i, j, k, l) in combinations(range(1, n + 1), 4):
        s1 = separating_sum(i, j, k, l)
        s2 = separating_sum(i, k, j, l)
        s3 = separating_sum(i, l, j, k)
        rels.append(s1 - s2)
        rels.append(s1 - s3)
    return rels


def _compatible(a: BoundaryDivisor, b: BoundaryDivisor) -> bool:
    """Product is allowed to be nonzero iff some representatives are nested
    or disjoint, i.e. one of the four mutual intersections is empty."""
    s, t = a.side, b.side
    sc, tc = a.complement, b.complement
    return not (s & t and s & tc and sc & t and sc & tc)


def keel_incompatibility_relations(n: int) -> List[GradedPolynomial]:
    divs, gens = _divisor_table(n)
    rels = []
    for i, a in enumerate(divs):
        for b in divs[i + 1:]:
            if not _compatible(a, b):
                rels.append(_divisor_poly(gens, a) * _divisor_poly(gens, b))
    return rels


def keel_quotient(n: int) -> GradedQuotient:
    """The boundary-divisor presentation of the n-pointed genus-0 Chow
    ring, reduced by the generic quotient engine through the top degree
    n-3."""
    if not (3 <= n):
        raise ValueError("need n >= 3")
    divs, gens = _divisor_table(n)
    rels = keel_fourpoint_relations(n) + keel_incompatibility_relations(n)
    return GradedQuotient(gens, rels, n - 3)


def keel_ring_dims(n: int) -> List[int]:
    """Graded dimensions (Betti numbers) of the genus-0 presentation,
    degrees 0..n-3.  Desk-scale ceiling n <= 7."""
    if not (3 <= n <= 7):
        raise ValueError("keel_ring_dims supports 3 <= n <= 7")
    return keel_quotient(n).dims


def keel_pairing_check(n: int) -> bool:
    """Poincare-duality check: palindromic dims and nonsingular
    complementary pairings into the one-dimensional top degree."""
    if not (3 <= n <= 6):
        raise ValueError("keel_pairing_check supports 3 <= n <= 6")
    return bool(keel_quotient(n).report(with_pairings=True).gorenstein)


def psi_in_boundary_basis(n: int, z: int, x: int, y: int) -> GradedPolynomial:
    """psi_z as the sum of boundary divisors whose z-side avoids the two
    auxiliary markings x and y."""
    if len({z, x, y}) != 3 or not {z, x, y} <= set(range(1, n + 1)):
        raise ValueError("markings z, x, y must be distinct and in 1..n")
    divs, gens = _divisor_table(n)
    acc = GradedPolynomial.zero(gens)
    for div in divs:
        s, sc = div.side, div.complement
        if (z in s and x in sc and y in sc) or (z in sc and x in s and y in s):
            acc = acc + _divisor_poly(gens, div)
    return acc


def kappa1_in_boundary_basis(n: int, convention: str = "canonical") -> GradedPolynomial:
    """kappa_1 as a weighted boundary sum, weight |S| - 1.

    The printed sum does not fix whether S runs over canonical
    representatives or over all subsets; both are provided:
      - "canonical": one term per divisor, weight |S|-1 with S the
        canonical (n-free) side;
      - "all-subsets": both sides counted, total weight n-2 per divisor.
    Rank-level consequences (h2_rank, quotient dims) are identical either
    way since each variant expresses kappa_1 inside the divisor span.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    divs, gens = _divisor_table(n)
    acc = GradedPolynomial.zero(gens)
    for div in divs:
        if convention == "canonical":
            w = len(div.side) - 1
        elif convention == "all-subsets":
            w = (len(div.side) - 1) + (len(div.complement) - 1)
        else:
            raise ValueError("convention must be 'canonical' or 'all-subsets'")
        acc = acc + _divisor_poly(gens, div) * w
    return acc


# ---------------------------------------------------------------------------
# Second cohomology of the compactified pointed spaces
# ---------------------------------------------------------------------------

class H2Presentation:
    """Generators and relation rows for H^2 of the compactified n-pointed
    genus-g space.

    Generators: kappa_1, psi_1..psi_n, delta_irr, and the boundary classes
    delta_{a,S} (canonical under delta_{a,S} = delta_{g-a,S^c}).  Relation
    rows follow the genus-stratified lists; for g <= 1 the psi and kappa
    expressions are instantiated for every admissible choice of auxiliary
    markings.
    """

    def __init__(self, g: int, n: int) -> None:
        if 2 * g - 2 + n <= 0:
            raise ValueError(f"unstable pair ({g}, {n})")
        self.g, self.n = g, n
        self.sep: List[Tuple[int, FrozenSet[int]]] = self._boundary_classes()
        self.names: List[str] = (["kappa_1"]
                                 + [f"psi_{i}" for i in range(1, n + 1)]
                                 + ["delta_irr"]
                                 + [self._sep_name(a, s) for a, s in self.sep])
        self.index = {name: i for i, name in enumerate(self.names)}
        self.rows = self._relation_rows()

    # -- generators -----------------------------------------------------

    def _canonical(self, a: int, S: FrozenSet[int]) -> Tuple[int, FrozenSet[int]]:
        g, n = self.g, self.n
        other = (g - a, frozenset(range(1, n + 1)) - S)
        mine = (a, S)
        return min(mine, other, key=lambda p: (p[0], sorted(p[1])))

    def _admissible(self, a: int, S: FrozenSet[int]) -> bool:
        g, n = self.g, self.n
        Sc = frozenset(range(1, n + 1)) - S
        return 2 * a - 2 + len(S) >= 0 and 2 * (g - a) - 2 + len(Sc) >= 0

    def _boundary_classes(self) -> List[Tuple[int, FrozenSet[int]]]:
        g, n = self.g, self.n
        seen = set()
        out = []
        for a in range(0, g + 1):
            for k in range(0, n + 1):
                for side in combinations(range(1, n + 1), k):
                    S = frozenset(side)
                    if not self._admissible(a, S):
                        continue
                    key = self._canonical(a, S)
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
        return sorted(out, key=lambda p: (p[0], len(p[1]), sorted(p[1])))

    @staticmethod
    def _sep_name(a: int, S: FrozenSet[int]) -> str:
        return f"delta_{a}{{{','.join(str(x) for x in sorted(S))}}}"

    # -- relation rows ----------------------------------------------------

    def _unit(self, name: str) -> Dict[int, Fraction]:
        return {self.index[name]: Fraction(1)}

    def _add(self, row: Dict[int, Fraction], other: Dict[int, Fraction],
             scale: Fraction = Fraction(1)) -> None:
        for c, v in other.items():
            s = row.get(c, Fraction(0)) + v * scale
            if s:
                row[c] = s
            else:
                row.pop(c, None)

    def _delta_a_row(self, a: int) -> Dict[int, Fraction]:
        """Sum of all classes with a genus-a side (each unordered class
        once, per the halving rule when g = 2a)."""
        row: Dict[int, Fraction] = {}
        for (b, S) in self.sep:
            if b == a or self.g - b == a:
                self._add(row, {self.index[self._sep_name(b, S)]: Fraction(1)})
        return row

    def _relation_rows(self) -> List[Dict[int, Fraction]]:
        g, n = self.g, self.n
        rows: List[Dict[int, Fraction]] = []
        marks = range(1, n + 1)
        if g == 2:
            row: Dict[int, Fraction] = {}
            self._add(row, self._unit("kappa_1"), Fraction(5))
            for i in marks:
                self._add(row, self._unit(f"psi_{i}"), Fraction(-5))
            self._add(row, self._unit("delta_irr"), Fraction(-1))
            self._add(row, self._delta_a_row(0), Fraction(5))
            self._add(row, self._delta_a_row(1), Fraction(-7))
            rows.append(row)
        elif g == 1:
            row = {}
            self._add(row, self._unit("kappa_1"))
            for i in marks:
                self._add(row, self._unit(f"psi_{i}"), Fraction(-1))
            self._add(row, self._delta_a_row(0))
            rows.append(row)
            for p in marks:
                row = {}
                self._add(row, self._unit(f"psi_{p}"), Fraction(12))
                self._add(row, self._unit("delta_irr"), Fraction(-1))
                for (a, S) in self.sep:
                    side = S if a == 0 else frozenset(range(1, n + 1)) - S
                    if a == 0 or self.g - a == 0:
                        if p in side and len(side) >= 2:
                            self._add(row, {self.index[self._sep_name(a, S)]:
                                            Fraction(1)}, Fraction(-12))
                rows.append(row)
        elif g == 0:
            row = {}
            self._add(row, self._unit("kappa_1"))
            for (a, S) in self.sep:
                # genus-0 classes: every class has a = 0 canonical side S
                self._add(row, {self.index[self._sep_name(a, S)]: Fraction(1)},
                          Fraction(-(len(S) - 1)))
            rows.append(row)
            rows.append(self._unit("delta_irr"))
            for z in marks:
                for x, y in combinations(sorted(set(marks) - {z}), 2):
                    row = {}
                    self._add(row, self._unit(f"psi_{z}"))
                    for (a, S) in self.sep:
                        Sc = frozenset(range(1, n + 1)) - S
                        if (z in S and x in Sc and y in Sc) or \
                           (z in Sc and x in S and y in S):
                            self._add(row, {self.index[self._sep_name(a, S)]:
                                            Fraction(1)}, Fraction(-1))
                    rows.append(row)
        return rows

    def rank(self) -> int:
        return len(self.names) - self._relation_rank()

    def _relation_rank(self) -> int:
        ech = SparseEchelon()
        for row in self.rows:
            ech.add_row(dict(row))
        return ech.rank

    def export(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "generators": list(self.names),
            "relations": [sorted((self.names[c], f"{v.numerator}/{v.denominator}")
                                 for c, v in row.items()) for row in self.rows],
        }


def h2_presentation(g: int, n: int) -> H2Presentation:
    return H2Presentation(g, n)


def h2_rank(g: int, n: int) -> int:
    """Rank of H^2 of the compactified n-pointed genus-g space: number of
    listed generators minus the rank of the listed relation rows."""
    return H2Presentation(g, n).rank()
