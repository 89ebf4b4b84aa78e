from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .gradedpoly import GeneratorTable, GradedPolynomial, Monomial
from .linalg import SparseEchelon, exact_rank

__all__ = ["QuotientReport", "GradedQuotient", "graded_quotient",
           "relation_echelon", "relation_rows"]


@dataclass
class QuotientReport:
    """Per-degree data of a graded quotient ring, plus the Gorenstein verdict.

    dims[d] = (number of degree-d monomials) - (rank of the degree-d span of
    monomial * relation products).  The verdict is yes iff dims are
    palindromic over 0..max_degree and every complementary pairing matrix
    has rank min(dims[i], dims[D-i]).
    """

    max_degree: int
    dims: List[int]
    socle_dim: int
    pairing_ranks: Optional[List[int]]
    gorenstein: Optional[bool]  # None when pairings were not requested

    def export(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "dims": list(self.dims),
            "socle_dim": self.socle_dim,
            "pairing_ranks": None if self.pairing_ranks is None
            else list(self.pairing_ranks),
            "gorenstein": self.gorenstein,
        }


def relation_rows(gens: GeneratorTable,
                  relations: Sequence[GradedPolynomial],
                  d: int) -> List[Dict[int, Fraction]]:
    """Sparse rows of every product monomial * relation of degree d, with
    columns indexing gens.monomials(d).  Relations must be homogeneous
    polynomials over `gens`; zero and constant ones give no rows.  Rows are
    sorted singletons first (free pivots, no fill-in)."""
    index = {m: i for i, m in enumerate(gens.monomials(d))}
    rows: List[Dict[int, Fraction]] = []
    for rel in relations:
        r = rel.degree()
        if r > d or r == 0:
            continue
        for cof in gens.monomials(d - r):
            row: Dict[int, Fraction] = {}
            for mono, c in rel.terms.items():
                if r < d:
                    mono = tuple(map(add, mono, cof))
                i = index[mono]
                row[i] = row.get(i, Fraction(0)) + c
            rows.append({k: v for k, v in row.items() if v})
    rows.sort(key=lambda row: (len(row), sorted(row.items())))
    return rows


def relation_echelon(gens: GeneratorTable,
                     relations: Sequence[GradedPolynomial],
                     d: int) -> SparseEchelon:
    """Echelon form of the degree-d span of monomial * relation products,
    over the columns of `relation_rows`."""
    ech = SparseEchelon()
    for row in relation_rows(gens, relations, d):
        ech.add_row(row)
    return ech


class GradedQuotient:
    """Quotient of a free graded-commutative polynomial ring (commuting
    generators of positive degree) by a homogeneous relation ideal, computed
    degree by degree up to `max_degree` with exact rational elimination.

    Degenerate inputs follow the documented conventions: no generators gives
    dims [1, 0, 0, ...]; no relations gives free-ring monomial counts.
    """

    def __init__(self, gens: GeneratorTable,
                 relations: Sequence[GradedPolynomial],
                 max_degree: int) -> None:
        self.gens = gens
        self.max_degree = int(max_degree)
        self.relations: List[GradedPolynomial] = []
        for rel in relations:
            if rel.is_zero():
                continue
            if rel.gens != gens:
                raise ValueError("mixed generator tables")
            if rel.degree() == 0:
                raise ValueError("nonzero constant relation collapses the ring")
            self.relations.append(rel)
        # per degree: monomial list, index map, echelon of the relation span
        self._monomials: Dict[int, List[Monomial]] = {}
        self._index: Dict[int, Dict[Monomial, int]] = {}
        self._echelons: Dict[int, SparseEchelon] = {}
        for d in range(self.max_degree + 1):
            self._build_degree(d)

    # ---- construction ---------------------------------------------------

    def monomials(self, d: int) -> List[Monomial]:
        return self._monomials[d]

    def _build_degree(self, d: int) -> None:
        monos = self.gens.monomials(d)
        self._monomials[d] = monos
        self._index[d] = {m: i for i, m in enumerate(monos)}
        self._echelons[d] = relation_echelon(self.gens, self.relations, d)

    # ---- queries ----------------------------------------------------------

    def dim(self, d: int) -> int:
        return len(self._monomials[d]) - self._echelons[d].rank

    @property
    def dims(self) -> List[int]:
        return [self.dim(d) for d in range(self.max_degree + 1)]

    def basis(self, d: int) -> List[Monomial]:
        """Quotient basis in degree d: the pivot-free monomials, graded-lex."""
        pivots = set(self._echelons[d].pivot_columns())
        return [m for i, m in enumerate(self._monomials[d]) if i not in pivots]

    def reduce(self, poly: GradedPolynomial) -> Dict[Monomial, Fraction]:
        """Canonical representative of a homogeneous polynomial on the
        quotient basis of its degree."""
        if poly.gens != self.gens:
            raise ValueError("mixed generator tables")
        if poly.is_zero():
            return {}
        d = poly.degree()
        if d not in self._index:
            raise ValueError(f"degree {d} is outside the quotient's degrees "
                             f"0..{self.max_degree}")
        idx = self._index[d]
        row = {idx[m]: c for m, c in poly.terms.items()}
        res = self._echelons[d].residual(row)
        monos = self._monomials[d]
        return {monos[i]: c for i, c in res.items()}

    def pairing_matrix(self, i: int) -> Optional[List[List[Fraction]]]:
        """Multiplication pairing basis(i) x basis(D-i) -> socle coefficient,
        defined when the top quotient is one-dimensional."""
        D = self.max_degree
        if self.dim(D) != 1:
            return None
        socle = self.basis(D)[0]
        left = self.basis(i)
        right = self.basis(D - i)
        ech = self._echelons[D]
        idx = self._index[D]
        monos = self._monomials[D]
        socle_i = idx[socle]
        mat: List[List[Fraction]] = []
        for a in left:
            row_out: List[Fraction] = []
            for b in right:
                prod = tuple(x + y for x, y in zip(a, b))
                res = ech.residual({idx[prod]: Fraction(1)})
                row_out.append(res.get(socle_i, Fraction(0)))
            mat.append(row_out)
        return mat

    def report(self, with_pairings: bool = True) -> QuotientReport:
        dims = self.dims
        D = self.max_degree
        palindromic = all(dims[d] == dims[D - d] for d in range(D + 1))
        if not with_pairings:
            return QuotientReport(D, dims, dims[D], None, None)
        ok = palindromic
        ranks: Optional[List[int]] = None
        if dims[D] == 1:
            ranks = []
            for i in range(D + 1):
                mat = self.pairing_matrix(i)
                rk = exact_rank(mat) if (mat and mat[0]) else 0
                ranks.append(rk)
                if rk != min(dims[i], dims[D - i]):
                    ok = False
        else:
            ok = False
        return QuotientReport(D, dims, dims[D], ranks, ok)


def graded_quotient(generators: Sequence[Tuple[str, int]],
                    relations: Sequence[GradedPolynomial],
                    max_degree: int,
                    with_pairings: bool = False) -> QuotientReport:
    """Dimensions (and optionally pairing data) of the graded quotient of
    Q[generators] by the homogeneous relation ideal, in degrees
    0..max_degree."""
    gens = generators if isinstance(generators, GeneratorTable) \
        else GeneratorTable(generators)
    return GradedQuotient(gens, relations, max_degree).report(with_pairings)
