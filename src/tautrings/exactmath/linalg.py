from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    pivoting) and keeps the rest as a pivot row.  The pivot column set of
    a row space is intrinsic, so ranks, pivot columns and `residual`
    representatives depend neither on insertion order nor on pivot scale.

    Over Q a row entering the loop is cleared of denominators, the factor
    gathered in a scale, so the loop runs on ints only.  Pivot rows are
    primitive (content 1, positive lead), and a row with lead a meets a
    pivot row with lead b fraction-free: row * (b/g) - (a/g) * pivot,
    g = gcd(a, b).  `residual` divides by the gathered scale, so its
    coefficients are exact.

    Over F_p the input entries are mapped by `field_scalar(p)`, so they
    must be p-integral, and the same loop runs on ints: pivot rows are
    residues with lead 1, a working row is reduced mod p only where the
    loop needs its value (a leading entry), and its other entries grow
    by less than p^2 per step.  Rows that are independent mod p are
    independent over Q, so the rank mod p of p-integral rows is a lower
    bound on their rank over Q.
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

    def _forward(self, row: Row) -> Tuple[Row, int]:
        """Eliminate leading columns while they hit pivots; stops at the
        first pivot-free leading column (or empties the row).  Returns it
        and the int s with result = s * row - (a span element)."""
        p, pivots = self.p, self.pivot_rows
        if p is None:
            # clear denominators: from here on the row holds ints only
            scale = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (scale // v.denominator)
                   for c, v in row.items() if v}
        else:
            row, scale = {c: w for c, v in row.items() if (w := self.scalar(v))}, 1
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p is None or row[lead] % p:
                    return row, scale
                del row[lead]
                continue
            coef, b = row.pop(lead) if p is None else row.pop(lead) % p, pivot[lead]
            if b != 1:
                coef, m = coef // (g := gcd(coef, b)), b // g
                scale, row = scale * m, {c: v * m for c, v in row.items()}
            for c, v in pivot.items():
                if c == lead:
                    continue
                s = row.get(c, 0) - coef * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        return row, scale

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        res = self._forward(row)[0]
        if not res:
            return False
        lead = min(res)
        if self.p is None:
            g = gcd(*res.values()) if res[lead] > 0 else -gcd(*res.values())
            self.pivot_rows[lead] = {c: v // g for c, v in res.items()}
        else:
            inv, p = pow(res[lead], -1, self.p), self.p
            self.pivot_rows[lead] = {c: w for c, v in res.items() if (w := v * inv % p)}
        return True

    def contains(self, row: Row) -> bool:
        """Whether the row lies in the span.  (The leading column of any
        span element is a pivot column, so forward elimination decides.)"""
        return not self._forward(row)[0]

    def residual(self, row: Row) -> Row:
        """Canonical representative of `row` modulo the span: every pivot
        column is eliminated, only pivot-free columns remain.  Its entries
        are `Fraction`s over Q and residues over F_p."""
        out: Row = {}
        row, scale = self._forward(row)
        while row:
            v = row.pop(lead := min(row))
            out[lead] = Fraction(v, scale) if self.p is None else self.scalar(v)
            row, s = self._forward(row)
            scale *= s
        return out


def exact_rank(matrix: Iterable[Sequence[Fraction]]) -> int:
    """Rank over Q of a dense rectangular matrix of ints and rationals, by
    fraction-free Gaussian elimination with first-nonzero pivoting."""
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
