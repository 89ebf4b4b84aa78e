from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "JacContext",
    "JacPolynomial",
    "jac_monomial",
    "normalize",
    "apply_e",
    "apply_D",
    "apply_h",
    "apply_h_raw",
]

# A monomial is (psi_power, factors) with factors a sorted tuple of
# ((i, j), power) entries over the curve-class components p_{i,j}
# (i + j even).  Bigrading: p_{i,j} has codimension (i+j)/2 and weight j;
# the pulled-back divisor psi has codimension 1 and weight 2 (multiplication
# by k on the family fixes base classes, so 2*codim - weight = 0).
Factors = Tuple[Tuple[Tuple[int, int], int], ...]
Monomial = Tuple[int, Factors]


@dataclass(frozen=True)
class JacContext:
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be >= 1")


class JacPolynomial:
    """Polynomial over Q in psi and the components p_{i,j} of the curve
    class on the universal Jacobian.  Normalized form never contains
    symbols with i < 0, j < 0 or j > 2g-2, and p_{0,0} is the scalar g."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Fraction]] = None) -> None:
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    psi, factors = mono
                    for ((i, j), e) in factors:
                        if (i + j) % 2:
                            raise ValueError(f"p_({i},{j}) has odd i+j")
                        if e <= 0:
                            raise ValueError("factor powers must be positive")
                    # repeated factor keys multiply, repeated monomials add
                    key = (int(psi), _merge_factors(tuple(factors), ()))
                    s = self.terms.get(key, Fraction(0)) + c
                    if s:
                        self.terms[key] = s
                    else:
                        self.terms.pop(key, None)

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
        res = JacPolynomial.__new__(JacPolynomial)
        res.terms = dict(self.terms)
        _accumulate(res, other.terms)
        return res

    __radd__ = __add__

    def __neg__(self):
        res = JacPolynomial.__new__(JacPolynomial)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JacPolynomial.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            res = JacPolynomial.__new__(JacPolynomial)
            res.terms = {m: v * c for m, v in self.terms.items()} if c else {}
            return res
        out: Dict[Monomial, Fraction] = {}
        for (ps1, f1), c1 in self.terms.items():
            for (ps2, f2), c2 in other.terms.items():
                m = (ps1 + ps2, _merge_factors(f1, f2))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        res = JacPolynomial.__new__(JacPolynomial)
        res.terms = out
        return res

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


def _merge_factors(f1: Factors, f2: Factors) -> Factors:
    acc: Dict[Tuple[int, int], int] = {}
    for ((i, j), e) in f1 + f2:
        acc[(i, j)] = acc.get((i, j), 0) + e
    return tuple(sorted(acc.items()))


def jac_monomial(psi_power: int, factors: Sequence[Sequence[int]]) -> JacPolynomial:
    """Monomial from [[i, j, power], ...] data (the JSON wire form)."""
    fs = tuple(((int(i), int(j)), int(e)) for i, j, e in factors)
    return JacPolynomial({(int(psi_power), fs): Fraction(1)})


def normalize(x: JacPolynomial, ctx: JacContext) -> JacPolynomial:
    """Zero every p_{i,j} with i < 0, j < 0 or j > 2g-2, and replace
    p_{0,0} by the scalar g.  Idempotent."""
    g = ctx.genus
    out = JacPolynomial()
    for (psi, factors), c in x.terms.items():
        coef = c
        kept: Dict[Tuple[int, int], int] = {}
        dead = False
        for ((i, j), e) in factors:
            if i < 0 or j < 0 or j > 2 * g - 2:
                dead = True
                break
            if (i, j) == (0, 0):
                coef *= Fraction(g) ** e
            else:
                kept[(i, j)] = kept.get((i, j), 0) + e
        if not dead:
            _accumulate(out, {(psi, tuple(sorted(kept.items()))): coef})
    return out


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


def _second_order_coefficient(slot1: Tuple[int, int], slot2: Tuple[int, int]) -> JacPolynomial:
    """Coefficient polynomial of d/dp_{i,j} d/dp_{k,l} in the lowering
    operator: psi p_{i-1,j-1} p_{k-1,l-1} - C(i+k-2, i-1) p_{i+k-2, j+l}."""
    (i, j), (k, l) = slot1, slot2
    first = JacPolynomial.psi() * JacPolynomial.p(i - 1, j - 1) * JacPolynomial.p(k - 1, l - 1)
    if i + k - 2 >= 0 and i - 1 >= 0:
        binom = comb(i + k - 2, i - 1)
    else:
        binom = 0
    second = JacPolynomial.p(i + k - 2, j + l) * binom
    return first - second


def apply_D(x: JacPolynomial, ctx: JacContext) -> JacPolynomial:
    """Polishchuk's lowering operator

        D = 1/2 sum_{i,j,k,l} (psi p_{i-1,j-1} p_{k-1,l-1}
                               - C(i+k-2, i-1) p_{i+k-2,j+l}) d_{p_ij} d_{p_kl}
            + sum_{i,j} p_{i-2,j} d_{p_ij},

    the double sum over ordered pairs of differentiation slots with the
    printed global 1/2.  Output is normalized.  Worked example:
    D(p_{3,1}^2) = 2 p_{1,1} p_{3,1} + psi p_{2,0}^2 - 6 p_{4,2}.
    """
    out = JacPolynomial()
    for (psi, factors), c in x.terms.items():
        base = dict(factors)
        # first-order part
        for ((i, j), e) in factors:
            rest = _decrement(base, (i, j))
            term = JacPolynomial({(psi, rest): c * e})
            term = term * JacPolynomial.p(i - 2, j)
            _accumulate(out, term.terms)
        # second-order part over ordered slot pairs
        for ((i, j), e1) in factors:
            for ((k, l), e2) in factors:
                if (i, j) == (k, l):
                    mult = e1 * (e1 - 1)
                    if not mult:
                        continue
                    rest = _decrement(base, (i, j), (i, j))
                else:
                    mult = e1 * e2
                    rest = _decrement(base, (i, j), (k, l))
                coef = Fraction(c * mult, 2)
                term = JacPolynomial({(psi, rest): coef})
                term = term * _second_order_coefficient((i, j), (k, l))
                _accumulate(out, term.terms)
    return normalize(out, ctx)


def _decrement(base: Dict[Tuple[int, int], int], *keys: Tuple[int, int]) -> Factors:
    """The factors of `base` with one power of each key removed (a key may
    repeat), as a sorted factor tuple."""
    d = dict(base)
    for key in keys:
        d[key] -= 1
        if d[key] < 0:
            raise ArithmeticError("negative exponent in differentiation")
    return tuple(sorted((k, e) for k, e in d.items() if e))


def _accumulate(acc: JacPolynomial, terms: Dict[Monomial, Fraction]) -> None:
    """Add the terms into acc in place, dropping zero sums."""
    for m, c in terms.items():
        s = acc.terms.get(m, Fraction(0)) + c
        if s:
            acc.terms[m] = s
        else:
            acc.terms.pop(m, None)
