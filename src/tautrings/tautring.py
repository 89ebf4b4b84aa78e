from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, List, Optional, Sequence, Tuple

from .exactmath import (GeneratorTable, GradedPolynomial, GradedQuotient,
                        QuotientReport, exact_rank, partition_count)
from .closedforms import hyperelliptic_coeff, kappa_socle_eval, kappa_table
from .relationgen import KappaRelation, fz_relation_set, sq_relation_set

__all__ = [
    "RingModel",
    "build_ring",
    "ring_dims",
    "socle_pairing_ranks",
    "gorenstein_check",
    "socle_class_check",
    "generation_check",
    "vanishing_check",
]


@dataclass
class RingModel:
    """The candidate tautological ring of genus g: the quotient of
    Q[kappa_1..kappa_{g-2}] by the FZ relation ideal, in degrees 0..g-2.

    On the default FZ path `relations` is the certified subset the quotient
    was built from (see `build_ring`), not every FZ relation; it generates
    the same ideal."""

    genus: int
    gens: GeneratorTable
    relations: List[KappaRelation]
    quotient: GradedQuotient

    @property
    def dims(self) -> List[int]:
        return self.quotient.dims

    def report(self, with_pairings: bool = True) -> QuotientReport:
        return self.quotient.report(with_pairings)


def build_ring(g: int, relations: Optional[Sequence[KappaRelation]] = None,
               source: str = "FZ") -> RingModel:
    """Assemble the ring model for genus g.  `relations` overrides the
    generated set (used for shuffle/equivalence experiments); `source`
    selects the FZ or the stable-quotient generator.

    The default FZ model is built from the relations with |sigma| <= s,
    s = 5, 7, ..., and certified by the socle pairing: that subset S gives
    surjections Q_S -> Q_FZ -> R*(M_g), and the rank of the socle pairing
    in degree d (`socle_pairing_ranks`) is at most dim R^d(M_g).  So when
    dim Q_S^d equals that rank in every degree, Q_S = Q_FZ, and dims,
    bases, `reduce`, pairings and the verdict are those of the full set.
    At the full cap on |sigma| the subset is every FZ relation."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    gens = kappa_table(g - 2)
    if relations is None and source == "FZ":
        relations, quotient = _fz_quotient(g, g - 2, lambda q: all(
            q.dim(d) == rank for d, rank in enumerate(socle_pairing_ranks(g))))
        return RingModel(g, gens, relations, quotient)
    if relations is None:
        relations = sq_relation_set(g, g - 2)
    quotient = GradedQuotient(gens, [rel.polynomial for rel in relations],
                              max(g - 2, 0))
    return RingModel(g, gens, list(relations), quotient)


def _fz_quotient(g: int, max_degree: int,
                 certified: Callable[[GradedQuotient], bool]
                 ) -> Tuple[List[KappaRelation], GradedQuotient]:
    """The quotient by the FZ relations of degree <= max_degree with
    |sigma| <= s, for the first s = 5, 7, ... whose quotient is
    `certified`, or for the full cap 3*max_degree - g, where the subset is
    every relation.  A check that stops at the first failing degree leaves
    the later degrees of a failed attempt uneliminated."""
    cap = max(3 * max_degree - g, 0)
    s = min(5, cap)
    while True:
        relations = fz_relation_set(g, max_degree, max_sigma=s)
        quotient = GradedQuotient(kappa_table(g - 2),
                                  [rel.polynomial for rel in relations],
                                  max_degree)
        if s == cap or certified(quotient):
            return relations, quotient
        s = min(s + 2, cap)


def socle_pairing_ranks(g: int) -> List[int]:
    """For d = 0..g-2, the rank of the pairing (a, b) -> eps(a b) between
    the degree-d and the degree-(g-2-d) kappa monomials, eps the
    lambda_{g-1} lambda_g socle functional (`kappa_socle_eval`).  The FZ
    relations hold in R*(M_g) and eps is defined there, so the pairing
    factors through R*(M_g) and each rank is at most dim R^d(M_g)."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    gens = kappa_table(g - 2)
    eps = {m: kappa_socle_eval(g, [gens.degrees[i]
                                   for i, e in enumerate(m) for _ in range(e)])
           for m in gens.monomials(g - 2)}
    return [exact_rank([[eps[tuple(map(add, a, b))]
                         for b in gens.monomials(g - 2 - d)]
                        for a in gens.monomials(d)])
            for d in range(g - 1)]


def ring_dims(g: int, source: str = "FZ") -> List[int]:
    """Graded dimensions of the candidate ring in degrees 0..g-2."""
    return build_ring(g, source=source).dims


def gorenstein_check(g: int) -> QuotientReport:
    """Full Gorenstein verification: palindromic dims, one-dimensional
    socle, and nonsingular complementary pairings."""
    return build_ring(g).report(with_pairings=True)


def socle_class_check(g: int) -> Fraction:
    """Reduce kappa_{g-2} into the socle basis, assert it is nonzero there,
    and return the hyperelliptic-locus ratio [H_g]/kappa_{g-2}."""
    if g < 3:
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
    if g < 3:
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
    g-1..beyond.  A subset of the FZ relations whose quotient vanishes
    there proves it for the full set, so the relations with |sigma| <= s
    are tried first, as in `build_ring`."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    if beyond < g - 1:
        raise ValueError("`beyond` must be at least g-1")

    def vanishes(quotient: GradedQuotient) -> bool:
        return all(quotient.dim(d) == 0 for d in range(g - 1, beyond + 1))

    return vanishes(_fz_quotient(g, beyond, vanishes)[1])
