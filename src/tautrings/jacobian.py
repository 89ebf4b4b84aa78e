from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import is_int

__all__ = ["JacContext", "JacPolynomial", "jac_monomial", "normalize",
           "apply_e", "apply_D", "apply_h", "apply_h_raw"]

# A monomial is (psi_power, factors) with factors a sorted tuple of
# ((i, j), power) entries over the curve-class components p_{i,j}
# (i + j even).  Bigrading: p_{i,j} has codimension (i+j)/2 and weight j;
# the pulled-back divisor psi has codimension 1 and weight 2 (multiplication
# by k on the family fixes base classes, so 2*codim - weight = 0).
Factor = Tuple[Tuple[int, int], int]
Factors = Tuple[Factor, ...]
Monomial = Tuple[int, Factors]
Terms = Dict[Monomial, Fraction]


class JacContext(NamedTuple("JacContext", [("genus", int)])):
    __slots__ = ()

    def __new__(cls, genus: int) -> JacContext:
        if not is_int(genus) or genus < 1:
            raise ValueError(f"genus must be an int >= 1, got {genus!r}")
        return super().__new__(cls, genus)

    @classmethod
    def _make(cls, iterable) -> JacContext:  # `_replace` goes through here
        return cls(*iterable)


def _add(terms: Terms, psi: int, factors: Iterable[Factor], c: Fraction) -> None:
    """Add c at the monomial psi^psi * prod p_{i,j}^e over the ((i, j), e)
    factors.  Repeated factor keys add their powers, zero powers drop out,
    and a zero sum removes the monomial."""
    powers: Dict[Tuple[int, int], int] = {}
    for key, e in factors:
        powers[key] = powers.get(key, 0) + e
    mono = (psi, tuple(sorted((key, e) for key, e in powers.items() if e)))
    s = terms.get(mono, 0) + c
    if s:
        terms[mono] = s
    else:
        terms.pop(mono, None)


class JacPolynomial:
    """Polynomial over Q in psi and the components p_{i,j} of the curve
    class on the universal Jacobian.  Normalized form never contains
    symbols with i < 0, j < 0 or j > 2g-2, and p_{0,0} is the scalar g.
    Psi powers and factor entries must be `int`s (not `bool`s); factor
    indices may be negative (pre-normal form)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Fraction]] = None) -> None:
        self.terms: Terms = {}
        for (psi, factors), c in (terms or {}).items():
            if not is_int(psi) or psi < 0:
                raise ValueError(f"psi power must be an int >= 0, got {psi!r}")
            for ((i, j), e) in factors:
                if not (is_int(i) and is_int(j) and is_int(e)):
                    raise ValueError(f"factor entries must be ints, got {(i, j, e)!r}")
                if (i + j) % 2:
                    raise ValueError(f"p_({i},{j}) has odd i+j")
                if e <= 0:
                    raise ValueError("factor powers must be positive")
            _add(self.terms, psi, factors, Fraction(c))

    @classmethod
    def _of(cls, terms: Terms) -> "JacPolynomial":
        """Wrap clean terms (merged sorted factors to nonzero Fractions)."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- construction helpers ---------------------------------------------

    @classmethod
    def constant(cls, c) -> "JacPolynomial":
        return cls({(0, ()): Fraction(c)})

    @classmethod
    def p(cls, i: int, j: int) -> "JacPolynomial":
        return cls({(0, (((i, j), 1),)): Fraction(1)})

    @classmethod
    def psi(cls) -> "JacPolynomial":
        return cls({(1, ()): Fraction(1)})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JacPolynomial.constant(other)
        terms = dict(self.terms)
        for (psi, factors), c in other.terms.items():
            _add(terms, psi, factors, c)
        return JacPolynomial._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return JacPolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return JacPolynomial._of({m: v * c for m, v in self.terms.items()} if c else {})
        terms: Terms = {}
        for (ps1, f1), c1 in self.terms.items():
            for (ps2, f2), c2 in other.terms.items():
                _add(terms, ps1 + ps2, f1 + f2, c1 * c2)
        return JacPolynomial._of(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, JacPolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == JacPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- bigrading ----------------------------------------------------------

    def bidegrees(self) -> List[Tuple[int, int]]:
        """Distinct (codimension, weight) pairs among the terms."""
        out = set()
        for (psi, factors) in self.terms:
            c = psi + sum(e * (i + j) // 2 for ((i, j), e) in factors)
            w = 2 * psi + sum(e * j for ((i, j), e) in factors)
            out.add((c, w))
        return sorted(out)

    def is_bihomogeneous(self) -> bool:
        return len(self.bidegrees()) <= 1

    def export(self) -> List[dict]:
        out = []
        for (psi, factors), c in sorted(self.terms.items()):
            out.append({
                "psi_power": psi,
                "factors": [[i, j, e] for ((i, j), e) in factors],
                "coeff": f"{c.numerator}/{c.denominator}",
            })
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (psi, factors), c in sorted(self.terms.items()):
            parts = []
            if psi:
                parts.append("psi" + (f"^{psi}" if psi > 1 else ""))
            for ((i, j), e) in factors:
                parts.append(f"p({i},{j})" + (f"^{e}" if e > 1 else ""))
            bits.append(f"({c})*" + ("*".join(parts) if parts else "1"))
        return " + ".join(bits)


def jac_monomial(psi_power: int, factors: Sequence[Sequence[int]]) -> JacPolynomial:
    """Monomial from [[i, j, power], ...] data (the JSON wire form)."""
    return JacPolynomial({(psi_power, tuple(((i, j), e) for i, j, e in factors)):
                          Fraction(1)})


def normalize(x: JacPolynomial, ctx: JacContext) -> JacPolynomial:
    """Zero every p_{i,j} with i < 0, j < 0 or j > 2g-2, and replace
    p_{0,0} by the scalar g.  Idempotent."""
    g = ctx.genus
    terms: Terms = {}
    for (psi, factors), c in x.terms.items():
        if any(i < 0 or j < 0 or j > 2 * g - 2 for ((i, j), _) in factors):
            continue
        powers = dict(factors)
        coef = c * g ** powers.pop((0, 0), 0)
        _add(terms, psi, powers.items(), coef)
    return JacPolynomial._of(terms)


def apply_e(x: JacPolynomial) -> JacPolynomial:
    """Raising operator: multiplication by p_{2,0} (minus the theta
    divisor)."""
    return JacPolynomial.p(2, 0) * x


def apply_h_raw(x: JacPolynomial, ctx: JacContext) -> JacPolynomial:
    """Grading operator exactly as printed: x -> -(2i - j - g) x on the
    bigraded piece of codimension i and weight j."""
    bds = x.bidegrees()
    if len(bds) > 1:
        raise ValueError("apply_h requires a bihomogeneous input")
    if not bds:
        return JacPolynomial()
    c, w = bds[0]
    return x * (-(2 * c - w - ctx.genus))


def apply_h(x: JacPolynomial, ctx: JacContext) -> JacPolynomial:
    """Sign-normalized grading operator (the global flip that realizes
    [h,e] = 2e, [h,f] = -2f, [e,f] = h for e above and f = D):
    x -> (2i - j - g) x."""
    return -apply_h_raw(x, ctx)


def apply_D(x: JacPolynomial, ctx: JacContext) -> JacPolynomial:
    """Polishchuk's lowering operator

        D = 1/2 sum_{i,j,k,l} (psi p_{i-1,j-1} p_{k-1,l-1}
                               - C(i+k-2, i-1) p_{i+k-2,j+l}) d_{p_ij} d_{p_kl}
            + sum_{i,j} p_{i-2,j} d_{p_ij},

    the double sum over ordered pairs of differentiation slots with the
    printed global 1/2.  Output is normalized.  Worked example:
    D(p_{3,1}^2) = 2 p_{1,1} p_{3,1} + psi p_{2,0}^2 - 6 p_{4,2}.
    """
    terms: Terms = {}
    for (psi, factors), c in x.terms.items():
        # each term goes straight into `terms`, with a power of -1 for
        # each differentiated slot
        for ((i, j), e1) in factors:
            _add(terms, psi, factors + (((i, j), -1), ((i - 2, j), 1)), c * e1)
            for ((k, l), e2) in factors:
                mult = e1 * (e2 - 1 if (k, l) == (i, j) else e2)
                if not mult:
                    continue
                half = Fraction(c * mult, 2)
                rest = factors + (((i, j), -1), ((k, l), -1))
                _add(terms, psi + 1, rest + (((i - 1, j - 1), 1), ((k - 1, l - 1), 1)),
                     half)
                if i >= 1 and i + k >= 2:
                    _add(terms, psi, rest + (((i + k - 2, j + l), 1),),
                         -half * comb(i + k - 2, i - 1))
    return normalize(JacPolynomial._of(terms), ctx)
