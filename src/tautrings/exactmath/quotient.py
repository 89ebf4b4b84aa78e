from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import check_int
from .gradedpoly import GeneratorTable, GradedPolynomial, Monomial, Scalar
from .linalg import SparseEchelon, exact_rank

__all__ = ["QuotientReport", "GradedQuotient", "graded_quotient",
           "relation_echelon"]


@dataclass
class QuotientReport:
    """Per-degree data of a graded quotient ring, plus the Gorenstein verdict.

    dims[d] = (number of degree-d monomials) - (rank of the degree-d span of
    monomial * relation products), counted over the monomials that survive
    the single-term relations (see GradedQuotient).  The verdict is yes iff
    dims are palindromic over 0..max_degree and every complementary pairing
    matrix has rank min(dims[i], dims[D-i]).
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


def _product_rows(relations: Sequence[GradedPolynomial], d: int, monomials: Callable,
                  index: Mapping[Monomial, int], scalar) -> List[Dict[int, Scalar]]:
    """Sparse rows of every product monomial * relation of degree d.
    `monomials(e)` lists the degree-e cofactors and `index` numbers the
    degree-d columns; product terms off those columns are dropped.
    Relations must be homogeneous polynomials; zero and constant ones give
    no rows.  Entries are `scalar(v)` of the coefficients, each relation
    mapped once.  Rows are sorted singletons first (free pivots, no
    fill-in)."""
    cofactors: Dict[int, List[Monomial]] = {}
    rows: List[Dict[int, Scalar]] = []
    for rel in relations:
        r = rel.degree()
        if r > d or r == 0:
            continue
        if r not in cofactors:
            cofactors[r] = monomials(d - r)
        terms = [(mono, c) for mono, v in rel.terms.items() if (c := scalar(v))]
        for cof in cofactors[r]:
            # distinct terms times one cofactor are distinct monomials
            row = {}
            for mono, c in terms:
                i = index.get(tuple(map(add, mono, cof)) if r < d else mono)
                if i is not None:
                    row[i] = c
            if row:
                rows.append(row)
    rows.sort(key=lambda row: (len(row), sorted(row.items())))
    return rows


def relation_echelon(gens: GeneratorTable,
                     relations: Sequence[GradedPolynomial],
                     d: int) -> SparseEchelon:
    """Echelon form over Q of the degree-d span of monomial * relation
    products, with columns indexing gens.monomials(d)."""
    ech = SparseEchelon()
    index = {m: i for i, m in enumerate(gens.monomials(d))}
    for row in _product_rows(relations, d, gens.monomials, index, ech.scalar):
        ech.add_row(row)
    return ech


class GradedQuotient:
    """Quotient of a free graded-commutative polynomial ring (commuting
    generators of positive degree) by a homogeneous relation ideal, computed
    degree by degree up to `max_degree`, by elimination over Q or F_p or
    from given spans.  Each degree is eliminated when a query first needs
    it, after the degrees below it, so a caller that stops at an early
    degree pays nothing for the later ones.

    A single-term relation c * x^a spans exactly the monomials x^a divides,
    so it adds no rows: its support is kept as vanishing, and each degree is
    eliminated only over the surviving monomials, the ones no such support
    divides (a Stanley-Reisner quotient first, then the other relations).
    A vanishing monomial is a pivot of the full row space and reduces to 0,
    so dims, bases and residuals are those of the full elimination.

    The other relations are thinned degree by degree.  Degree d starts
    from the products of the relations kept in lower degrees, then adds the
    own row (cofactor 1) of each degree-d relation in input order, and the
    relation is kept only if that row raised the rank.  A dropped relation
    lies in the ideal of the kept ones plus the vanishing monomials, and so
    does every multiple of it: no degree's row space changes, only the rows
    that would reduce to zero are not built.

    Given a prime `p`, the same elimination runs over F_p: the relations
    must be p-integral (a ZeroDivisionError otherwise), and `dim(d)` is
    the number of surviving monomials minus the rank mod p, an upper bound
    on the dimension over Q.  Pairings and reports are meant for Q.

    A caller that already knows the relation span of every degree passes
    it as `spans`: for d = 0..max_degree, maps monomial -> coefficient
    spanning the degree-d part of the ideal (terms on vanishing monomials
    are dropped).  They are inserted at once and no product row is built.
    The echelon, and so every output, depends only on the span.

    Degenerate inputs follow the documented conventions: no generators gives
    dims [1, 0, 0, ...]; no relations gives free-ring monomial counts.
    """

    def __init__(self, gens: GeneratorTable,
                 relations: Sequence[GradedPolynomial],
                 max_degree: int, p: Optional[int] = None,
                 spans: Optional[Sequence[Sequence[Mapping[Monomial, Scalar]]]]
                 = None) -> None:
        self.gens = gens
        self.max_degree = check_int("max_degree", max_degree)
        self.p = p
        # the multi-term relations by degree, each list in input order
        self.relations: Dict[int, List[GradedPolynomial]] = {}
        self.vanishing: List[Monomial] = []
        for rel in relations:
            if rel.is_zero():
                continue
            if rel.gens != gens:
                raise ValueError("mixed generator tables")
            r = rel.degree()
            if r == 0:
                raise ValueError("nonzero constant relation collapses the ring")
            if len(rel.terms) == 1:
                self.vanishing.extend(rel.terms)
            else:
                self.relations.setdefault(r, []).append(rel)
        # per degree: monomial list, index map, echelon of the relation span
        self._monomials: Dict[int, List[Monomial]] = {
            d: gens.monomials(d, self.vanishing)
            for d in range(self.max_degree + 1)}
        self._index: Dict[int, Dict[Monomial, int]] = {
            d: {m: i for i, m in enumerate(monos)}
            for d, monos in self._monomials.items()}
        self._echelons: Dict[int, SparseEchelon] = {}
        # the relations whose own row raised the rank of an eliminated degree
        self._kept: List[GradedPolynomial] = []
        if spans is not None and len(spans) != self.max_degree + 1:
            raise ValueError("spans must cover the degrees 0..max_degree")
        for d, span in enumerate(spans or ()):
            ech = self._echelons[d] = SparseEchelon(p)
            for terms in span:
                ech.add_row(self._row(d, terms))

    # ---- construction ---------------------------------------------------

    def monomials(self, d: int) -> List[Monomial]:
        """The surviving degree-d monomials, graded-lex: those no
        single-term relation divides.  They index the degree-d columns."""
        return self._monomials[d]

    def _row(self, d: int, terms: Mapping[Monomial, Scalar]) -> Dict[int, Scalar]:
        """Degree-d terms as a row over the surviving monomials."""
        idx = self._index[d]
        return {idx[m]: c for m, c in terms.items() if m in idx}

    def _echelon(self, d: int) -> SparseEchelon:
        """Echelon form of the degree-d relation span, built on first use
        after the degrees below it (which fix the kept relations)."""
        if d not in self._index:
            raise ValueError(f"degree {d} is outside the quotient's degrees "
                             f"0..{self.max_degree}")
        for e in range(len(self._echelons), d + 1):
            ech = SparseEchelon(self.p)
            for row in _product_rows(self._kept, e, self._monomials.__getitem__,
                                     self._index[e], ech.scalar):
                ech.add_row(row)
            for rel in self.relations.get(e, ()):
                if ech.add_row(self._row(e, rel.terms)):
                    self._kept.append(rel)
            self._echelons[e] = ech
        return self._echelons[d]

    # ---- queries ----------------------------------------------------------

    def dim(self, d: int) -> int:
        rank = self._echelon(d).rank
        return len(self._monomials[d]) - rank

    @property
    def dims(self) -> List[int]:
        return [self.dim(d) for d in range(self.max_degree + 1)]

    def basis(self, d: int) -> List[Monomial]:
        """Quotient basis in degree d: the pivot-free monomials, graded-lex."""
        pivots = set(self._echelon(d).pivot_columns())
        return [m for i, m in enumerate(self._monomials[d]) if i not in pivots]

    def reduce(self, poly: GradedPolynomial) -> Dict[Monomial, Fraction]:
        """Canonical representative of a homogeneous polynomial on the
        quotient basis of its degree; vanishing terms are dropped."""
        if poly.gens != self.gens:
            raise ValueError("mixed generator tables")
        if poly.is_zero():
            return {}
        d = poly.degree()
        res = self._echelon(d).residual(self._row(d, poly.terms))
        monos = self._monomials[d]
        return {monos[i]: c for i, c in res.items()}

    def pairing_matrix(self, i: int) -> Optional[List[List[Fraction]]]:
        """Multiplication pairing basis(i) x basis(D-i) -> socle coefficient,
        defined when the top quotient is one-dimensional.  A vanishing
        product pairs to 0."""
        D = self.max_degree
        if self.dim(D) != 1:
            return None
        socle = self.basis(D)[0]
        left = self.basis(i)
        right = self.basis(D - i)
        ech = self._echelon(D)
        idx = self._index[D]
        monos = self._monomials[D]
        socle_i = idx[socle]
        mat: List[List[Fraction]] = []
        for a in left:
            row_out: List[Fraction] = []
            for b in right:
                col = idx.get(tuple(map(add, a, b)))
                res = {} if col is None else ech.residual({col: Fraction(1)})
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
