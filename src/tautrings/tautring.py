from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import (GeneratorTable, GradedPolynomial, GradedQuotient,
                        QuotientReport, SparseEchelon, check_int, exact_rank,
                        partition_count)
from .exactmath.gradedpoly import Monomial
from .closedforms import hyperelliptic_coeff, kappa_socle_eval, kappa_table
from .relationgen import KappaRelation, fz_relation_set

__all__ = [
    "Certificate",
    "RingModel",
    "build_ring",
    "ring_dims",
    "socle_pairing_ranks",
    "gorenstein_check",
    "socle_class_check",
    "generation_check",
    "vanishing_check",
]


# The prime of the rank mod p that certifies the default FZ ring.
PRIME = 2 ** 61 - 1
# The largest genus whose default FZ ring certifies (`BENCH_fz_modp.json`):
# at g = 24 no |sigma| bound meets the socle ranks.
MAX_GENUS = 23


class Certificate(NamedTuple):
    """How the default FZ ring was certified: the rank mod `prime` of the
    FZ relations with |sigma| <= `max_sigma` met the socle ranks in every
    degree, so the quotient was built from the socle functional."""

    max_sigma: int
    prime: int


class RingModel(NamedTuple):
    """The candidate tautological ring of genus g: the quotient of
    Q[kappa_1..kappa_{g-2}] by the FZ relation ideal, in degrees 0..g-2.

    On the default FZ path `relations` is the subset that certified the
    quotient (see `build_ring`), not every FZ relation; it generates the
    same ideal, as `certificate` certifies.  With given relations,
    `certificate` is None."""

    genus: int
    gens: GeneratorTable
    relations: List[KappaRelation]
    quotient: GradedQuotient
    certificate: Optional[Certificate] = None

    @property
    def dims(self) -> List[int]:
        return self.quotient.dims

    def report(self, with_pairings: bool = True) -> QuotientReport:
        return self.quotient.report(with_pairings)


def build_ring(g: int, relations: Optional[Sequence[KappaRelation]] = None) -> RingModel:
    """Assemble the ring model for genus g: the quotient by `relations`,
    or by the FZ relations when none are given.  The stable-quotient model
    is `build_ring(g, relations=sq_relation_set(g, g - 2))`.

    The default FZ model is built from the relations with |sigma| <= s,
    s = 5, 7, ..., and certified degree by degree.  That subset S gives
    surjections Q_S -> Q_FZ -> R*(M_g), and the rank of the socle pairing
    P_d (`socle_pairing_ranks`) is at most dim R^d(M_g): a lower bound.
    The number of degree-d monomials minus the rank of the relation rows
    mod p = 2^61 - 1 is an upper bound on dim Q_S^d.  When the bounds meet
    in every degree, Q_S = Q_FZ, its degree-d relation space is the left
    kernel of P_d, and the quotient is built from that kernel alone
    (`_socle_pairing`) instead of eliminating relation rows over Q.  The
    echelon depends only on the span, so dims, bases, `reduce`, pairings
    and the verdict are those of the full relation set.  A genus past
    `MAX_GENUS` is refused before any work (a ValueError), and one that
    no s certifies raises ArithmeticError; `relations=fz_relation_set(g,
    g - 2)` is the exact route, every FZ relation eliminated over Q."""
    if check_int("genus", g) < 2:
        raise ValueError("genus must be >= 2")
    gens = kappa_table(g - 2)
    if relations is None:
        pairing = _socle_pairing(_below_ceiling(g))
        relations, s = _fz_quotient(g, g - 2, lambda q: all(
            q.dim(d) == rank for d, (rank, _) in enumerate(pairing)))
        quotient = GradedQuotient(gens, [], g - 2, spans=[k for _, k in pairing])
        return RingModel(g, gens, relations, quotient, Certificate(s, PRIME))
    quotient = GradedQuotient(gens, [rel.polynomial for rel in relations], g - 2)
    return RingModel(g, gens, list(relations), quotient)


def _below_ceiling(g: int) -> int:
    """`g` itself if it is at most `MAX_GENUS`, else a ValueError."""
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} is past MAX_GENUS = {MAX_GENUS}, the last one "
                         f"whose FZ ring certifies; the exact route is build_ring("
                         f"g, relations=fz_relation_set(g, g - 2))")
    return g


def _fz_quotient(g: int, max_degree: int,
                 certified: Callable[[GradedQuotient], bool]
                 ) -> Tuple[List[KappaRelation], int]:
    """The FZ relations of degree <= max_degree with |sigma| <= s, and s,
    for the first s = 5, 7, ... up to the cap 3*max_degree - g whose
    quotient mod `PRIME` is `certified`: `certified` must then hold over Q
    too, as upper bounds that meet lower bounds or vanish do.  An
    ArithmeticError when no s does.  A check that stops at its first
    failing degree leaves the later degrees uneliminated."""
    gens = kappa_table(g - 2)
    cap = max(3 * max_degree - g, 0)
    for s in [*range(min(5, cap), cap, 2), cap]:
        relations = fz_relation_set(g, max_degree, max_sigma=s)
        # PRIME divides no FZ denominator: its prime factors (6i - 1 of the
        # branch series, factorials and weights <= cap in log psi and exp,
        # multiplicities k in the kappa walk) are <= 6 * (max_degree + cap).
        if certified(GradedQuotient(gens, [rel.polynomial for rel in relations],
                                    max_degree, PRIME)):
            return relations, s
    raise ArithmeticError(f"no |sigma| bound up to {cap} certifies the "
                          f"genus-{g} FZ quotient mod {PRIME}")


def _socle_pairing(g: int) -> List[Tuple[int, List[Dict[Monomial, Fraction]]]]:
    """For d = 0..g-2, the rank of the socle pairing P_d (rows the degree-d
    kappa monomials a, columns the degree-(g-2-d) ones b, entries eps(a b),
    eps the lambda_{g-1} lambda_g functional `kappa_socle_eval`) and the
    left kernel of P_d in reduced form: one row e_a - sum_b c_b e_b, as
    {monomial: coefficient}, for each a whose row of P_d depends on the
    later rows, the b the later rows independent of all rows after them.
    It is found by one pass over the rows from the last, each row carrying
    its own unit vector in columns after those of P_d: a row that reduces
    to zero on P_d leaves its kernel row in the unit columns."""
    gens = kappa_table(g - 2)
    monomials = [gens.monomials(d) for d in range(g - 1)]
    eps = {m: kappa_socle_eval(g, [gens.degrees[i]
                                   for i, e in enumerate(m) for _ in range(e)])
           for m in monomials[g - 2]}
    out = []
    for d in range(g - 1):
        left, right = monomials[d], monomials[g - 2 - d]
        width = len(right)
        ech, kernel = SparseEchelon(), []
        for j in reversed(range(len(left))):
            row = {k: v for k, b in enumerate(right)
                   if (v := eps[tuple(map(add, left[j], b))])}
            row[width + j] = 1
            res = ech.residual(row)
            if min(res) < width:
                ech.add_row(res)
            else:
                kernel.append({left[k - width]: c for k, c in res.items()})
        out.append((ech.rank, kernel))
    return out


def socle_pairing_ranks(g: int) -> List[int]:
    """For d = 0..g-2, the rank of the pairing (a, b) -> eps(a b) between
    the degree-d and the degree-(g-2-d) kappa monomials, eps the
    lambda_{g-1} lambda_g socle functional (`kappa_socle_eval`).  The FZ
    relations hold in R*(M_g) and eps is defined there, so the pairing
    factors through R*(M_g) and each rank is at most dim R^d(M_g)."""
    if check_int("genus", g) < 2:
        raise ValueError("genus must be >= 2")
    return [rank for rank, _ in _socle_pairing(g)]


def ring_dims(g: int) -> List[int]:
    """Graded dimensions of the candidate ring in degrees 0..g-2."""
    return build_ring(g).dims


def gorenstein_check(g: int) -> QuotientReport:
    """Full Gorenstein verification: palindromic dims, one-dimensional
    socle, and nonsingular complementary pairings."""
    return build_ring(g).report(with_pairings=True)


def socle_class_check(g: int) -> Fraction:
    """Reduce kappa_{g-2} into the socle basis, assert it is nonzero there,
    and return the hyperelliptic-locus ratio [H_g]/kappa_{g-2}."""
    if check_int("genus", g) < 3:
        raise ValueError("genus must be >= 3")
    model = build_ring(g)
    top = g - 2
    if model.quotient.dim(top) != 1:
        raise ArithmeticError(f"socle of genus {g} model is not one-dimensional")
    kap = GradedPolynomial.generator(model.gens, f"kappa_{top}")
    reduced = model.quotient.reduce(kap)
    if not reduced:
        raise ArithmeticError(f"kappa_{top} vanishes in the genus-{g} model")
    return hyperelliptic_coeff(g)


def generation_check(g: int) -> bool:
    """Low kappa classes generate: dim R^d equals the partition count for
    d <= floor(g/3), and every graded piece is spanned by monomials in
    kappa_1..kappa_{floor(g/3)} modulo the relation ideal."""
    if check_int("genus", g) < 3:
        raise ValueError("genus must be >= 3")
    model = build_ring(g)
    cut = g // 3
    for d in range(0, cut + 1):
        if model.quotient.dim(d) != partition_count(d):
            return False
    # spanning test: the residues of the low-index monomials span R^d
    for d in range(1, g - 1):
        basis = model.quotient.basis(d)
        low = [model.quotient.reduce(GradedPolynomial(model.gens, {m: Fraction(1)}))
               for m in model.gens.monomials(d)
               if all(model.gens.degrees[i] <= cut or e == 0
                      for i, e in enumerate(m))]
        residues = [[res.get(b, Fraction(0)) for b in basis] for res in low]
        if exact_rank(residues) != model.quotient.dim(d):
            return False
    return True


def vanishing_check(g: int, beyond: int) -> bool:
    """Top-degree vanishing: with relations generated up to `beyond` (kappa
    indices still capped at g-2), the quotient must be zero in every degree
    g-1..beyond.  The dims mod 2^61 - 1 of a subset of the FZ relations
    are upper bounds, so their vanishing proves it for the full set: True
    for the first |sigma| bound s that vanishes, as in `build_ring`; an
    ArithmeticError when none does, a ValueError past `MAX_GENUS`."""
    if check_int("genus", g) < 2:
        raise ValueError("genus must be >= 2")
    if check_int("beyond", beyond) < g - 1:
        raise ValueError("`beyond` must be at least g-1")
    _fz_quotient(_below_ceiling(g), beyond, lambda q: all(
        q.dim(d) == 0 for d in range(g - 1, beyond + 1)))
    return True
