from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from . import check_int

__all__ = ["GeneratorTable", "GradedPolynomial"]

Scalar = Union[int, Fraction]
Monomial = Tuple[int, ...]


class GeneratorTable:
    """Ordered list of named generators with positive integer degrees.

    Shared by all polynomials of one ring so monomials can be plain exponent
    tuples.  The generator order also fixes the graded-lex monomial order
    used everywhere downstream (earlier generator = more significant).
    """

    __slots__ = ("names", "degrees", "degree", "_index", "_units")

    def __init__(self, gens: Iterable[Tuple[str, int]]) -> None:
        gens = tuple((str(n), check_int("generator degree", d)) for n, d in gens)
        if any(d <= 0 for _, d in gens):
            raise ValueError("generator degrees must be positive")
        if len({n for n, _ in gens}) != len(gens):
            raise ValueError("generator names must be distinct")
        self.names = tuple(n for n, _ in gens)
        self.degrees = tuple(d for _, d in gens)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._units: Dict[str, Monomial] = {}
        # degree(mono), the weighted degree of an exponent tuple: a plain
        # sum when every generator has degree 1 (the Keel and H^2 tables)
        degrees = self.degrees
        self.degree: Callable[[Monomial], int] = sum if set(degrees) <= {1} \
            else lambda mono: sum(map(mul, mono, degrees))

    def __len__(self) -> int:
        return len(self.names)

    def monomial(self, mono) -> Monomial:
        """`mono` as an exponent tuple over this table, or a ValueError
        when it has the wrong length or an exponent that is not an int.  An
        exact int tuple is returned as is, so shared unit monomials are not
        copied."""
        if type(mono) is not tuple or not {int}.issuperset(map(type, mono)):
            mono = tuple(check_int("exponent", e) for e in mono)
        if len(mono) != len(self.names):
            raise ValueError(f"exponent vector {mono} has length {len(mono)}, "
                             f"not {len(self.names)}")
        return mono

    def unit(self, name: str) -> Monomial:
        """Exponent tuple of one generator, built once per table so that
        every polynomial using it shares the one tuple."""
        mono = self._units.get(name)
        if mono is None:
            i = self._index[name]
            mono = (0,) * i + (1,) + (0,) * (len(self.names) - i - 1)
            self._units[name] = mono
        return mono

    def packing(self, max_degree: int) -> Tuple[int, Callable[[Monomial], int],
                                                Callable[[int], Monomial]]:
        """Int keys of the exponent tuples of weighted degree <= max_degree:
        exponent j in the field at bit width * j, a byte wide below degree
        256 (the int of the bytes of m, little-endian).  No exponent of such a
        monomial exceeds its degree, so the key of a product is the sum of
        its factors' keys.  Returns the width, pack (a ValueError names a
        term with an exponent outside the field, a negative one in
        particular) and unpack."""
        n = len(self.names)
        if max_degree < 256:
            def pack(mono: Monomial) -> int:
                try:
                    return int.from_bytes(bytearray(mono), "little")
                except ValueError:
                    raise ValueError(f"term {mono} has an exponent outside 0..255") from None
            return 8, pack, lambda key: tuple(key.to_bytes(n, "little"))
        width = max_degree.bit_length()
        cap = (1 << width) - 1

        def pack_wide(mono: Monomial) -> int:
            if not 0 <= min(mono, default=0) <= max(mono, default=0) <= cap:
                raise ValueError(f"term {mono} has an exponent outside 0..{cap}")
            return sum(e << width * j for j, e in enumerate(mono))
        return width, pack_wide, lambda key: tuple(key >> width * j & cap for j in range(n))

    def monomials(self, degree: int) -> List[Monomial]:
        """All exponent tuples of the given weighted degree, graded-lex
        order (within the fixed degree: lexicographically decreasing
        exponents)."""
        width, _, unpack = self.packing(degree)
        return list(map(unpack, self._lister((), width)(degree)))

    def _lister(self, vanishing: Iterable[Monomial],
                width: int) -> Callable[[int], List[int]]:
        """The function degree -> the keys of the degree-d exponent tuples
        that no tuple in `vanishing` divides, in the order of `monomials`,
        with fields `width` bits wide (see `packing`).  `GradedQuotient`
        passes its single-term supports, `monomials` none; the supports
        are read once for every degree.  A walk on an explicit stack
        chooses the nonzero exponents only, by increasing position, each
        from the largest down, under the caps the supports impose: a
        support caps its last generator once its others are."""
        degs = self.degrees
        # second-to-last position j (None: one-generator supports) -> (its
        # exponent, needs below j) -> [mask of last positions capped at 0, caps]
        cuts: Dict[Optional[int], Dict[tuple, list]] = {}
        for mono in vanishing:
            *below, (k, e) = [(j, f) for j, f in enumerate(mono) if f]
            j, f = below.pop() if below else (None, 0)
            cut = cuts.setdefault(j, {}).setdefault((f, tuple(below)), [0, {}])
            if e == 1:
                cut[0] |= 1 << k
            else:
                cut[1][k] = min(cut[1].get(k, e), e - 1)
        top_ban, top_caps = cuts.pop(None, {}).get((0, ()), (0, {}))

        def lister(degree: int) -> List[int]:
            fits = [sum(1 << j for j, d in enumerate(degs) if d <= r)  # degree <= r
                    for r in range(min(degree, max(degs, default=0)) + 1)]
            out: List[int] = []
            stack = [(0, degree, (), 0, top_ban, top_caps)] if degree >= 0 else []
            while stack:
                i, remaining, chosen, key, ban, caps = stack.pop()
                if remaining == 0:
                    out.append(key)
                    continue
                # pushed last position first, so the first one's largest e pops first
                free, have = fits[min(remaining, len(fits) - 1)] & ~ban >> i << i, dict(chosen)
                while free:
                    j = free.bit_length() - 1
                    free ^= 1 << j
                    d, fire, unit = degs[j], cuts.get(j, {}), 1 << width * j
                    for e in range(1, min(remaining // d, caps.get(j, remaining)) + 1):
                        b, c = ban, caps
                        for (f, below), (mask, more) in fire.items():
                            if e >= f and all(have.get(x, 0) >= y for x, y in below):
                                b |= mask
                                c = {**c, **{k: min(v, c.get(k, v))
                                             for k, v in more.items()}} if more else c
                        stack.append((j + 1, remaining - e * d,
                                      chosen + ((j, e),), key + e * unit, b, c))
            return out
        return lister

    def __eq__(self, other) -> bool:
        if isinstance(other, GeneratorTable):
            return self.names == other.names and self.degrees == other.degrees
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        return "GeneratorTable(%s)" % (list(zip(self.names, self.degrees)),)


class GradedPolynomial:
    """Sparse polynomial over Q in weighted generators.

    Terms map exponent tuples to nonzero Fractions.  Exponents are
    non-negative: a term with a negative one is refused by name when the
    polynomial is built, so no product or quotient input carries one.
    Addition and multiplication respect the grading; `degree()` is
    defined for homogeneous polynomials only.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorTable,
                 terms: Optional[Mapping[Monomial, Scalar]] = None) -> None:
        self.gens = gens
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                mono, c = gens.monomial(mono), Fraction(c)
                if min(mono, default=0) < 0:
                    raise ValueError(f"term {mono} has a negative exponent")
                if c:
                    clean[mono] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def _of(cls, gens: GeneratorTable,
            terms: Dict[Monomial, Fraction]) -> "GradedPolynomial":
        """Wrap terms that are already clean (full-length int tuples to
        nonzero Fractions) without checking them again."""
        out = cls.__new__(cls)
        out.gens, out.terms = gens, terms
        return out

    @classmethod
    def zero(cls, gens: GeneratorTable) -> "GradedPolynomial":
        return cls(gens)

    @classmethod
    def constant(cls, gens: GeneratorTable, c: Scalar) -> "GradedPolynomial":
        return cls(gens, {(0,) * len(gens): Fraction(c)})

    @classmethod
    def generator(cls, gens: GeneratorTable, name: str) -> "GradedPolynomial":
        return cls(gens, {gens.unit(name): Fraction(1)})

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Weighted degree of a homogeneous polynomial (0 for the zero one)."""
        degs = set(map(self.gens.degree, self.terms))
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop() if degs else 0

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    # ---- arithmetic ---------------------------------------------------

    def _check(self, other: "GradedPolynomial") -> None:
        if self.gens != other.gens:
            raise ValueError("mixed generator tables")

    def __add__(self, other):
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return GradedPolynomial._of(self.gens, terms)

    def __neg__(self):
        return GradedPolynomial._of(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return GradedPolynomial.zero(self.gens)
            return GradedPolynomial._of(self.gens, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check(other)
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, Fraction(0)) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return GradedPolynomial._of(self.gens, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPolynomial):
            return self.gens == other.gens and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.is_zero()
            return self.terms == {(0,) * len(self.gens): c}
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---- export -------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        """Terms in graded-lex order (degree, then lexicographically
        decreasing exponent tuple)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (self.gens.degree(kv[0]), tuple(-e for e in kv[0])))

    def export(self) -> List[List[object]]:
        """JSON-ready form: [[exponent-vector, \"num/den\"], ...]."""
        return [[list(m), f"{c.numerator}/{c.denominator}"]
                for m, c in self.sorted_terms()]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in self.sorted_terms():
            factors = [f"{n}^{e}" if e > 1 else n
                       for n, e in zip(self.gens.names, mono) if e]
            body = "*".join(factors) if factors else "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)
