from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Union

__all__ = ["SparseEchelon", "exact_rank"]

Row = Dict[int, Fraction]


def _lean(v: Union[int, Fraction]) -> Union[int, Fraction]:
    """An integral rational as its int numerator, any other unchanged."""
    return v.numerator if v.denominator == 1 else v


class SparseEchelon:
    """Incremental row echelon form over Q with sparse rows.

    Rows are dicts column -> nonzero rational.  Insertion reduces the new
    row against existing pivots (plain rational elimination, first-nonzero
    column pivoting) and normalizes the pivot coefficient to 1.  The pivot
    column set of a row space is intrinsic, so ranks, pivot columns and
    `residual` representatives do not depend on insertion order.

    Input entries, pivot-row entries and the multiplier of each
    elimination step are Python ints where they are integral (an integral
    `Fraction` is kept as its numerator) and `Fraction`s otherwise.  Ints
    are exact rationals, so this is the same elimination over Q, but rows
    of small integers (the Keel relations) skip the gcd of every `Fraction`
    operation, and an integral `Fraction` that arises inside a row does not
    turn its products with a whole pivot row into `Fraction` arithmetic.
    A pivot of +-1 is normalized without a division.
    `residual` returns `Fraction`s.
    """

    def __init__(self) -> None:
        self.pivot_rows: Dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def pivot_columns(self) -> List[int]:
        return sorted(self.pivot_rows)

    def _forward(self, row: Row) -> Row:
        """Eliminate leading columns while they hit pivots; stops at the
        first pivot-free leading column (or empties the row)."""
        row = {c: _lean(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                return row
            coef = _lean(row.pop(lead))
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
        a = res[lead]
        inv = a if a in (1, -1) else Fraction(1) / a
        self.pivot_rows[lead] = {c: _lean(v * inv) for c, v in res.items()}
        return True

    def contains(self, row: Row) -> bool:
        """Whether the row lies in the span.  (The leading column of any
        span element is a pivot column, so forward elimination decides.)"""
        return not self._forward(dict(row))

    def residual(self, row: Row) -> Row:
        """Canonical representative of `row` modulo the span: every pivot
        column is eliminated, only pivot-free columns remain.  Its entries
        are `Fraction`s."""
        out: Row = {}
        row = self._forward(row)
        while row:
            lead = min(row)
            out[lead] = Fraction(row.pop(lead))
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
