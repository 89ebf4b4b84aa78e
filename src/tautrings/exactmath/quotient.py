from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Container, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import check_int
from .gradedpoly import GeneratorTable, GradedPolynomial, Monomial, Scalar
from .linalg import SparseEchelon, exact_rank

__all__ = ["QuotientReport", "GradedQuotient", "graded_quotient"]


class QuotientReport(NamedTuple):
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


# a monomial as one int with a field per exponent (GeneratorTable.packing)
Key = int
# a relation as its degree and its terms, coefficients mapped to the field
FieldRelation = Tuple[int, List[Tuple[Key, Scalar]]]


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

    Products skip by a signature criterion (Faugere's F5, in its
    Macaulay-matrix form).  Number the kept relations f_0, f_1, ... in the
    order they are kept.  A degree is built one block of rows per relation
    in that order, the products of f_i and then the own rows, and the rank
    after each block is recorded: pivots are kept in the order they were
    raised, so the first ones are those of the earlier blocks.  The row
    m * f_i is skipped when m is a pivot of degree e - deg f_i raised by a
    block j < i.  Its pivot row is an h with lead m in the span of the
    earlier blocks, and m * f_i = h * f_i - (h - m) * f_i: the first term
    lies in the earlier blocks of degree e, the second in the rows of f_i
    with later cofactors.  So every degree's row space is unchanged, over
    F_p and modulo the vanishing monomials too.

    Inside, a monomial is one int key with a field per exponent, a byte
    wide while max_degree < 256 and wider above (`GeneratorTable.packing`):
    no exponent of a monomial of degree <= max_degree exceeds that degree,
    so no field carries and the key of m * t is the sum of the keys of m
    and t.  Rows are built on multiplication
    maps: for a cofactor degree k and a term t, the list over the
    surviving degree-k monomials m of the column of m * t, one int sum and
    one lookup, or None where m * t vanishes.  Each map is built once per
    quotient and shared by every relation with the term t.  Exponent
    tuples are built only at the API edge (`monomials`, `basis`,
    `reduce`).  A `GradedPolynomial` has no negative exponent, and a span
    term with one is refused by its packing (a ValueError that names it).

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
        # per degree: the surviving monomials' keys in column order, their
        # columns, the echelon of the relation span
        width, self._pack, self._unpack = gens.packing(self.max_degree)
        lister = gens._lister(self.vanishing, width)
        self._keys: Dict[int, List[Key]] = {
            d: lister(d) for d in range(self.max_degree + 1)}
        self._index: Dict[int, Dict[Key, int]] = {
            d: {key: i for i, key in enumerate(keys)} for d, keys in self._keys.items()}
        self._echelons: Dict[int, SparseEchelon] = {}
        # per eliminated degree: [0, the rank after block 0, after block 1,
        # ...], so the first ends[i] pivots (in the order they were raised)
        # are those of the blocks before i
        self._ends: Dict[int, List[int]] = {}
        # (cofactor degree, term) -> multiplication map (see _products)
        self._maps: Dict[Tuple[int, Key], List[Optional[int]]] = {}
        # the relations whose own row raised the rank of an eliminated
        # degree, over the field, in the order they were kept: the blocks
        self._kept: List[FieldRelation] = []
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
        return list(map(self._unpack, self._keys[d]))

    def _row(self, d: int, terms: Mapping[Monomial, Scalar]) -> Dict[int, Scalar]:
        """Degree-d terms as a row over the surviving monomials."""
        idx, pack = self._index[d], self._pack
        return {i: c for m, c in terms.items() if (i := idx.get(pack(m))) is not None}

    def _products(self, k: int, d: int, t: Key) -> List[Optional[int]]:
        """The multiplication map of the degree-(d - k) term t on the
        surviving degree-k monomials: per monomial m, the column of m * t
        among the surviving degree-d ones, or None where m * t vanishes.
        Built once per (k, t)."""
        cols = self._maps.get((k, t))
        if cols is None:
            index = self._index[d]
            cols = self._maps[k, t] = [index.get(m + t) for m in self._keys[k]]
        return cols

    def _product_rows(self, d: int, r: int, terms: List[Tuple[Key, Scalar]],
                      skip: Container[int]) -> List[Dict[int, Scalar]]:
        """Sparse rows of the degree-d products cofactor * relation, for a
        kept relation of degree r with its terms over the field, except
        the cofactors whose positions are in `skip`.  Vanishing product
        terms are dropped.  Rows are sorted singletons first (free pivots,
        no fill-in)."""
        coeffs = [c for _, c in terms]
        rows: List[Dict[int, Scalar]] = []
        for q, cols in enumerate(zip(*[self._products(d - r, d, t) for t, _ in terms])):
            if q not in skip:
                # distinct terms times one cofactor are distinct columns
                row = {i: c for i, c in zip(cols, coeffs) if i is not None}
                if row:
                    rows.append(row)
        rows.sort(key=lambda row: (len(row), sorted(row.items())))
        return rows

    def _echelon(self, d: int) -> SparseEchelon:
        """Echelon form of the degree-d relation span, built on first use
        after the degrees below it (which fix the kept relations and the
        block ranks the criterion reads)."""
        if d not in self._index:
            raise ValueError(f"degree {d} is outside the quotient's degrees "
                             f"0..{self.max_degree}")
        for e in range(len(self._echelons), d + 1):
            ech = self._echelons[e] = SparseEchelon(self.p)
            ends = self._ends[e] = [0]
            for i, (r, terms) in enumerate(self._kept):
                # the pivots of degree e - r that a block before i raised
                lower = self._ends[e - r]
                skip = set(islice(self._echelons[e - r].pivot_rows,
                                  lower[min(i, len(lower) - 1)]))
                for row in self._product_rows(e, r, terms, skip):
                    ech.add_row(row)
                ends.append(ech.rank)
            idx, pack = self._index[e], self._pack
            for rel in self.relations.get(e, ()):
                terms = [(pack(m), v) for m, v in rel.terms.items()]
                if ech.add_row({i: v for t, v in terms
                                if (i := idx.get(t)) is not None}):
                    self._kept.append((e, [(t, c) for t, v in terms
                                           if (c := ech.scalar(v))]))
                    ends.append(ech.rank)
        return self._echelons[d]

    # ---- queries ----------------------------------------------------------

    def dim(self, d: int) -> int:
        rank = self._echelon(d).rank
        return len(self._keys[d]) - rank

    @property
    def dims(self) -> List[int]:
        return [self.dim(d) for d in range(self.max_degree + 1)]

    def basis(self, d: int) -> List[Monomial]:
        """Quotient basis in degree d: the pivot-free monomials, graded-lex."""
        return list(map(self._unpack, self._basis_keys(d)))

    def _basis_keys(self, d: int) -> List[Key]:
        pivots = self._echelon(d).pivot_rows
        return [key for i, key in enumerate(self._keys[d]) if i not in pivots]

    def reduce(self, poly: GradedPolynomial) -> Dict[Monomial, Fraction]:
        """Canonical representative of a homogeneous polynomial on the
        quotient basis of its degree; vanishing terms are dropped."""
        if poly.gens != self.gens:
            raise ValueError("mixed generator tables")
        if poly.is_zero():
            return {}
        d = poly.degree()
        res = self._echelon(d).residual(self._row(d, poly.terms))
        keys = self._keys[d]
        return {self._unpack(keys[i]): c for i, c in res.items()}

    def pairing_matrix(self, i: int) -> Optional[List[List[Fraction]]]:
        """Multiplication pairing basis(i) x basis(D-i) -> socle coefficient,
        defined when the top quotient is one-dimensional.  A vanishing
        product pairs to 0."""
        D = self.max_degree
        if self.dim(D) != 1:
            return None
        ech, idx = self._echelon(D), self._index[D]
        socle = idx[self._basis_keys(D)[0]]
        right = self._basis_keys(D - i)
        mat: List[List[Fraction]] = []
        for a in self._basis_keys(i):
            row_out: List[Fraction] = []
            for b in right:
                col = idx.get(a + b)
                res = {} if col is None else ech.residual({col: Fraction(1)})
                row_out.append(res.get(socle, Fraction(0)))
            mat.append(row_out)
        return mat

    def report(self, with_pairings: bool = True) -> QuotientReport:
        dims = self.dims
        D = self.max_degree
        palindromic = all(dims[d] == dims[D - d] for d in range(D + 1))
        if not with_pairings:
            return QuotientReport(D, dims, dims[D], None, None)
        if dims[D] != 1:
            return QuotientReport(D, dims, dims[D], None, False)
        # the pairing of degrees D - i and i is the transpose of that of i
        # and D - i, so it has the same rank
        ranks = [0] * (D + 1)
        for i in range(D // 2 + 1):
            mat = self.pairing_matrix(i)
            ranks[i] = ranks[D - i] = exact_rank(mat) if (mat and mat[0]) else 0
        ok = palindromic and all(rk == min(dims[i], dims[D - i])
                                 for i, rk in enumerate(ranks))
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
