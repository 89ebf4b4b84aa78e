from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

__all__ = ["SparseEchelon", "exact_rank", "field_scalar"]

Scalar = Union[int, Fraction]
Row = Dict[int, Fraction]


def _lean(v: Scalar) -> Scalar:
    """An integral rational as its int numerator, any other unchanged."""
    return v.numerator if v.denominator == 1 else v


def field_scalar(p: Optional[int] = None) -> Callable[[Scalar], Scalar]:
    """The map from rationals to the field: over Q (`p` None) a rational
    stays itself, an int where integral; over F_p it becomes its residue
    in 0..p-1, and a ZeroDivisionError names a denominator that p divides."""
    if p is None:
        return _lean

    def residue(v: Scalar) -> int:
        if isinstance(v, int):
            return v % p
        if v.denominator % p == 0:
            raise ZeroDivisionError(f"{v} has a denominator divisible by {p}")
        return v.numerator * pow(v.denominator, -1, p) % p
    return residue


class SparseEchelon:
    """Incremental row echelon form with sparse rows, over Q or, given a
    prime `p`, over F_p.

    Rows are dicts column -> nonzero rational.  Insertion reduces the new
    row against existing pivots (plain elimination, first-nonzero column
    pivoting) and normalizes the pivot coefficient to 1.  The pivot
    column set of a row space is intrinsic, so ranks, pivot columns and
    `residual` representatives do not depend on insertion order.

    Over F_p the input entries are mapped by `field_scalar(p)`, so they
    must be p-integral, and the same loop runs on ints: pivot rows and
    multipliers are residues, a working row is reduced mod p only where
    the loop needs its value (a leading entry), and its other entries grow
    by less than p^2 per step.  Rows that are independent mod p are
    independent over Q, so the rank mod p of p-integral rows is a lower
    bound on their rank over Q.

    Input entries, pivot-row entries and the multiplier of each
    elimination step are Python ints where they are integral (an integral
    `Fraction` is kept as its numerator) and `Fraction`s otherwise.  Ints
    are exact rationals, so this is the same elimination over Q, but rows
    of small integers (the Keel relations) skip the gcd of every `Fraction`
    operation, and an integral `Fraction` that arises inside a row does not
    turn its products with a whole pivot row into `Fraction` arithmetic.
    A pivot of +-1 is normalized without a division.
    `residual` returns `Fraction`s over Q and residues over F_p.
    """

    def __init__(self, p: Optional[int] = None) -> None:
        self.p = p
        self.scalar = field_scalar(p)
        self.pivot_rows: Dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def pivot_columns(self) -> List[int]:
        return sorted(self.pivot_rows)

    def _forward(self, row: Row) -> Row:
        """Eliminate leading columns while they hit pivots; stops at the
        first pivot-free leading column (or empties the row)."""
        p, scalar, pivots = self.p, self.scalar, self.pivot_rows
        row = {c: w for c, v in row.items() if (w := scalar(v))}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p is None or row[lead] % p:
                    return row
                del row[lead]
                continue
            coef = scalar(row.pop(lead))
            for c, v in pivot.items():
                if c == lead:
                    continue
                s = row.get(c, 0) - coef * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        return row

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        res = self._forward(row)
        if not res:
            return False
        lead = min(res)
        a, scalar = res[lead], self.scalar
        if self.p is not None:
            inv = pow(a, -1, self.p)
        else:
            inv = a if a in (1, -1) else Fraction(1) / a
        self.pivot_rows[lead] = {c: w for c, v in res.items()
                                 if (w := scalar(v * inv))}
        return True

    def contains(self, row: Row) -> bool:
        """Whether the row lies in the span.  (The leading column of any
        span element is a pivot column, so forward elimination decides.)"""
        return not self._forward(dict(row))

    def residual(self, row: Row) -> Row:
        """Canonical representative of `row` modulo the span: every pivot
        column is eliminated, only pivot-free columns remain.  Its entries
        are `Fraction`s over Q and residues over F_p."""
        out: Row = {}
        field = Fraction if self.p is None else self.scalar
        row = self._forward(row)
        while row:
            lead = min(row)
            out[lead] = field(row.pop(lead))
            row = self._forward(row)
        return out


def exact_rank(matrix: Iterable[Sequence[Fraction]]) -> int:
    """Rank over Q of a dense rectangular matrix of ints and rationals, by
    plain rational Gaussian elimination with first-nonzero pivoting."""
    ech = SparseEchelon()
    width: Optional[int] = None
    for r in matrix:
        r = list(r)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("matrix rows have unequal lengths")
        ech.add_row({j: v if isinstance(v, int) else Fraction(v)
                     for j, v in enumerate(r) if v})
    return ech.rank
