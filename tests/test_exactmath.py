from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb, factorial, gcd

import pytest

from tautrings.exactmath import (GeneratorTable, GradedPolynomial,
                                 GradedQuotient, SparseEchelon,
                                 TruncatedSeries, bernoulli, exact_rank,
                                 graded_quotient, partition_count,
                                 series_exp, series_log, series_mul)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def bernoulli_oracle(n):
    """Independent oracle: solve the defining recurrence
    sum_{k=0}^{m} C(m+1,k) B_k = 0 directly, without skipping odd indices."""
    vals = [F(1)]
    for m in range(1, n + 1):
        s = sum(comb(m + 1, k) * vals[k] for k in range(m))
        vals.append(-s / (m + 1))
    return vals[n]


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(3) == 0
    assert bernoulli(2) == bernoulli_oracle(2) == F(1, 6)


@pytest.mark.parametrize("n", list(range(0, 30)))
def test_bernoulli_against_recurrence_oracle(n):
    assert bernoulli(n) == bernoulli_oracle(n)


@pytest.mark.parametrize("n", list(range(1, 40)))
def test_bernoulli_recurrence_residual_is_zero(n):
    assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


@pytest.mark.parametrize("n", [True, 2.0])
def test_bernoulli_refuses_non_int_index(n):
    """A bool or float index is refused by name: True was read as 1 and
    gave -1/2, and 2.0 raised a TypeError."""
    with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
        bernoulli(n)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def _parts_table(parts):
    """Generators p_j of degree j: a degree-s monomial is a partition of s
    with parts in `parts`."""
    return GeneratorTable([(f"p{j}", j) for j in parts])


def test_partition_enumeration_counts():
    for s in range(0, 12):
        assert len(_parts_table(range(1, 12)).monomials(s)) == partition_count(s)
    assert partition_count(8, 3) == len(_parts_table([1, 2, 3]).monomials(8))


@pytest.mark.parametrize("args, name", [
    ((True,), "size"), ((2.5,), "size"), ((8, 3.0), "max_part"), ((8, False), "max_part"),
])
def test_partition_count_refuses_non_int_arguments(args, name):
    """A bool or float size or part bound is refused by name: True was
    read as 1, and 2.5 raised a TypeError."""
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        partition_count(*args)


def test_partition_part_filter():
    parts = [j for j in range(4, 0, -1) if j % 3 != 2]  # largest first
    got = sorted(tuple(j for j, e in zip(parts, mono) for _ in range(e))
                 for mono in _parts_table(parts).monomials(4))
    assert got == [(1, 1, 1, 1), (3, 1), (4,)]


# ---------------------------------------------------------------------------
# Truncated series: log/exp
# ---------------------------------------------------------------------------

def test_mercator_series():
    s = TruncatedSeries(GeneratorTable([("t", 1)]), 3, {(1,): F(1)}) + 1
    log = series_log(s)
    assert log.coefficient((1,)) == 1
    assert log.coefficient((2,)) == F(-1, 2)
    assert log.coefficient((3,)) == F(1, 3)
    # log(1 + x) at order 5 is x - x^2/2 + x^3/3 - x^4/4 + x^5/5
    s = TruncatedSeries(GeneratorTable([("x", 1)]), 5, {(1,): F(1)}) + 1
    assert series_log(s).coeffs == {(1,): 1, (2,): F(-1, 2), (3,): F(1, 3),
                                    (4,): F(-1, 4), (5,): F(1, 5)}


def test_log_of_unit_and_exp_of_zero():
    one = TruncatedSeries(GeneratorTable([("t", 1)]), 4) + 1
    assert not series_log(one).coeffs
    zero = TruncatedSeries(GeneratorTable([("t", 1)]), 4)
    assert series_exp(zero).constant_term() == 1


def test_exp_examples():
    e = series_exp(TruncatedSeries(GeneratorTable([("t", 1)]), 2, {(1,): F(1)}))
    assert e.coefficient((0,)) == 1
    assert e.coefficient((1,)) == 1
    assert e.coefficient((2,)) == F(1, 2)
    # exp(x) at order 5 is the sum of x^k/k! for k <= 5
    e = series_exp(TruncatedSeries(GeneratorTable([("x", 1)]), 5, {(1,): F(1)}))
    assert e.coeffs == {(k,): F(1, factorial(k)) for k in range(6)}
    # a Laurent direction: with t of weight 1 and x of weight 2, t^-1 x has
    # weight 1, so exp(t^-1 x) at order 5 is the sum of t^-k x^k/k!, k <= 5
    e = series_exp(TruncatedSeries(GeneratorTable([("t", 1), ("x", 2)]), 5,
                                   {(-1, 1): F(1)}))
    assert e.coeffs == {(-k, k): F(1, factorial(k)) for k in range(6)}


def test_exp_requires_zero_constant_and_log_requires_one():
    s = TruncatedSeries(GeneratorTable([("t", 1)]), 3) + 1
    with pytest.raises(ValueError):
        series_exp(s)
    with pytest.raises(ValueError):
        series_log(s - 1)


def _random_series(rng, gens, order, constant, low=None):
    """Up to 12 random terms of weight 1..order; exponents are drawn from
    low[i]..2 (default 0..2), so a negative low gives a Laurent direction."""
    coeffs = {}
    low = low or (0,) * len(gens)
    for _ in range(12):
        ev = tuple(rng.randint(lo, 2) for lo in low)
        if gens.degree(ev) in range(1, order + 1):
            coeffs[ev] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSeries(gens, order, coeffs) + constant


@pytest.mark.parametrize("seed", range(8))
def test_exp_log_round_trip(seed):
    rng = random.Random(seed)
    variables = GeneratorTable([("t", 1), ("u", 2)])
    s = _random_series(rng, variables, 6, 1)
    assert series_exp(series_log(s)).coeffs == s.coeffs
    v = _random_series(rng, variables, 6, 0)
    assert series_log(series_exp(v)).coeffs == v.coeffs
    # the stable-quotient shape: t^-1 allowed
    sq_variables, low = GeneratorTable([("t", 1), ("x", 2)]), (-1, 0)
    s = _random_series(rng, sq_variables, 6, 1, low)
    assert series_exp(series_log(s)).coeffs == s.coeffs
    v = _random_series(rng, sq_variables, 6, 0, low)
    assert series_log(series_exp(v)).coeffs == v.coeffs


@pytest.mark.parametrize("seed", range(4))
def test_series_mul_adds_exponents(seed):
    """exp(u) * exp(v) == exp(u + v), also in the Laurent shape; factors
    over different generator tables are refused."""
    rng = random.Random(seed)
    for variables, low in (
            (GeneratorTable([("t", 1), ("u", 2)]), None),
            (GeneratorTable([("t", 1), ("x", 2)]), (-1, 0))):
        u = _random_series(rng, variables, 6, 0, low)
        v = _random_series(rng, variables, 6, 0, low)
        both = dict(u.coeffs)
        for ev, c in v.coeffs.items():
            both[ev] = both.get(ev, 0) + c
        w = TruncatedSeries(variables, 6, both)
        assert (series_mul(series_exp(u), series_exp(v)).coeffs
                == series_exp(w).coeffs)
    with pytest.raises(ValueError):
        series_mul(TruncatedSeries(GeneratorTable([("t", 1)]), 2),
                   TruncatedSeries(GeneratorTable([("s", 1)]), 2))


def test_series_rejects_bad_weights_and_coefficients():
    """Weights are positive generator degrees, the constant is the only
    weight-0 monomial (a Laurent t^-2 x is refused), and coefficients are
    rationals."""
    with pytest.raises(ValueError):
        TruncatedSeries(GeneratorTable([("t", 0)]), 2)
    with pytest.raises(ValueError):
        TruncatedSeries(GeneratorTable([("t", 1), ("x", 2)]), 2, {(-2, 1): F(1)})
    k = GradedPolynomial.generator(GeneratorTable([("k", 1)]), "k")
    with pytest.raises(TypeError):
        TruncatedSeries(GeneratorTable([("t", 1)]), 2, {(1,): k})


# The int kernel against a Fraction oracle.  A series is a dict exponent
# vector -> Fraction; every product is a naive convolution over all pairs of
# terms, truncated at the order (a quotient of the series ring, so
# truncating after each product is exact).

# pairwise coprime denominators, so common denominators grow large
_BIG_DENOMINATORS = (2 ** 61 - 1, 10 ** 9 + 7, 998244353, 10 ** 9 + 9,
                     3 ** 30, 5 ** 20, 7 ** 15)


def _oracle_mul(gens, order, a, b):
    out = {}
    for ev1, c1 in a.items():
        for ev2, c2 in b.items():
            ev = tuple(x + y for x, y in zip(ev1, ev2))
            if 0 <= gens.degree(ev) <= order:
                out[ev] = out.get(ev, 0) + c1 * c2
    return {ev: F(c) for ev, c in out.items() if c}


def _oracle_power_sum(gens, order, s, coefficient):
    """sum over k = 0..order of coefficient(k) * s^k; s has no constant
    term, so s^k has weight >= k and higher powers vanish."""
    one = {(0,) * len(gens): F(1)}
    total, power = {}, one
    for k in range(order + 1):
        for ev, c in power.items():
            total[ev] = total.get(ev, 0) + coefficient(k) * c
        power = _oracle_mul(gens, order, power, s)
    return {ev: c for ev, c in total.items() if c}


def _oracle_exp(gens, order, s):
    """exp s = sum s^k / k!."""
    fact = [1]
    for k in range(1, order + 1):
        fact.append(fact[-1] * k)
    return _oracle_power_sum(gens, order, s, lambda k: F(1, fact[k]))


def _oracle_log(gens, order, s):
    """log s = sum_{k >= 1} (-1)^(k+1) (s - 1)^k / k."""
    shifted = {ev: c for ev, c in s.items() if any(ev)}
    return _oracle_power_sum(gens, order, shifted,
                             lambda k: F((-1) ** (k + 1), k) if k else F(0))


def _assert_clean(series, expected):
    """series equals the oracle's dict, its coefficients are Fractions, and
    each weight slice is int numerators over a positive denominator with no
    common factor."""
    coeffs = series.coeffs
    assert coeffs == expected
    assert all(type(c) is F for c in coeffs.values())
    assert len(series) == len(expected)
    for w, (nums, den) in series._slices.items():
        assert nums and type(den) is int and den > 0
        assert all(type(n) is int and n for n in nums.values())
        assert gcd(den, *nums.values()) == 1
        assert all(series.gens.degree(ev) == w for ev in nums)


_SHAPES = (
    # plain weights
    (GeneratorTable([("t", 1), ("u", 2)]), None),
    # the stable-quotient shape: a Laurent t^-1 direction
    (GeneratorTable([("t", 1), ("x", 2)]), (-1, 0)),
    # the FZ-log shape: two weight-1 generators
    (GeneratorTable([("t", 1), ("p1", 1), ("p3", 3)]), None),
)


def _big_random(rng, gens, order, low):
    """Random coefficients over large pairwise coprime denominators."""
    coeffs = {}
    low = low or (0,) * len(gens)
    for _ in range(10):
        ev = tuple(rng.randint(lo, 2) for lo in low)
        if gens.degree(ev) in range(1, order + 1):
            coeffs[ev] = F(rng.randint(-10 ** 12, 10 ** 12),
                           rng.choice(_BIG_DENOMINATORS))
    return coeffs


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", range(len(_SHAPES)))
def test_int_kernel_matches_fraction_oracle(seed, shape):
    """exp, log and products over int slices equal the naive Fraction
    computations, on small and on large coprime denominators."""
    rng = random.Random(seed)
    gens, low = _SHAPES[shape]
    order = 6
    for big in (False, True):
        if big:
            u = TruncatedSeries(gens, order, _big_random(rng, gens, order, low))
            v = TruncatedSeries(gens, order, _big_random(rng, gens, order, low))
        else:
            u = _random_series(rng, gens, order, 0, low)
            v = _random_series(rng, gens, order, 0, low)
        _assert_clean(series_exp(u), _oracle_exp(gens, order, u.coeffs))
        _assert_clean(series_log(v + 1), _oracle_log(gens, order, (v + 1).coeffs))
        a, b = u + F(3, 7), v - 2
        _assert_clean(series_mul(a, b), _oracle_mul(gens, order, a.coeffs, b.coeffs))
        _assert_clean(u * F(-5, 3), {ev: c * F(-5, 3) for ev, c in u.coeffs.items()})


def test_int_kernel_drops_cancelled_slices():
    """A slice whose terms cancel leaves no zero terms and no empty slice."""
    gens = GeneratorTable([("t", 1), ("u", 1)])
    a = TruncatedSeries(gens, 4, {(1, 0): F(1, 3), (0, 1): F(2, 5)}) + 1
    b = TruncatedSeries(gens, 4, {(1, 0): F(-1, 3), (0, 1): F(-2, 5)}) + 1
    prod = series_mul(a, b)  # 1 - (t/3 + 2u/5)^2: weight 1 cancels
    assert 1 not in prod._slices
    _assert_clean(prod, _oracle_mul(gens, 4, a.coeffs, b.coeffs))
    # exp(u) * exp(-u) == 1 on the large denominators: every positive weight cancels
    u = TruncatedSeries(gens, 4, {(1, 0): F(7, 2 ** 61 - 1), (1, 1): F(-3, 10 ** 9 + 7),
                                  (0, 2): F(5, 998244353)})
    _assert_clean(series_mul(series_exp(u), series_exp(u * -1)), {(0, 0): 1})
    _assert_clean(series_log(series_exp(u) * 1), u.coeffs)
    _assert_clean(u * 0, {})
    # a weight-2 slice of the log of 1 + t + t^2/2 cancels
    e = TruncatedSeries(gens, 2, {(1, 0): 1, (2, 0): F(1, 2)}) + 1
    _assert_clean(series_log(e), {(1, 0): 1})


def test_series_scalar_edges_give_fractions():
    """coefficient, constant_term and scalar shifts give Fractions."""
    gens = GeneratorTable([("t", 1)])
    s = TruncatedSeries(gens, 3, {(1,): 2, (2,): F(1, 6)}) + F(1, 4)
    for value in (s.coefficient((1,)), s.coefficient((2,)), s.coefficient((3,)),
                  s.constant_term(), (s - F(1, 4)).constant_term()):
        assert type(value) is F
    assert (s.coefficient((1,)), s.coefficient((3,)), s.constant_term()) == (2, 0, F(1, 4))
    _assert_clean(s - F(1, 4), {(1,): 2, (2,): F(1, 6)})


@pytest.mark.parametrize("make, match", [
    (lambda t: TruncatedSeries(t, 2.9), "order must be an int, got 2.9"),
    (lambda t: TruncatedSeries(t, True), "order must be an int, got True"),
    (lambda t: TruncatedSeries(t, 3, {(1.5,): 1}), "exponent must be an int, got 1.5"),
    (lambda t: TruncatedSeries(t, 3, {(True,): 1}), "exponent must be an int, got True"),
    (lambda t: TruncatedSeries(t, 3, {(1, 2): 1}), "has length 2, not 1"),
    (lambda t: GradedPolynomial(t, {(1.5,): 1}), "exponent must be an int, got 1.5"),
    (lambda t: GradedPolynomial(t, {(True,): 1}), "exponent must be an int, got True"),
    (lambda t: GradedPolynomial(t, {(1, 2): 1}), "has length 2, not 1"),
])
def test_series_and_polynomial_refuse_non_int_inputs(make, match):
    """An order or exponent that is not an int, or an exponent vector
    of the wrong length, is a ValueError naming it, not truncated."""
    with pytest.raises(ValueError, match=match):
        make(GeneratorTable([("t", 1)]))


@pytest.mark.parametrize("gens,bad", [
    ([("t", 1.5)], "1.5"),
    ([("t", 1), ("u", True)], "True"),
    ([("t", "2")], "'2'"),
])
def test_generator_degrees_must_be_ints(gens, bad):
    """A generator degree that is not an int is refused by name, not read
    through int(): 1.5 and True were both degree 1, in the table and in
    graded_quotient."""
    match = f"generator degree must be an int, got {bad}"
    with pytest.raises(ValueError, match=match):
        GeneratorTable(gens)
    with pytest.raises(ValueError, match=match):
        graded_quotient(gens, [], 2)


def test_series_variables_may_be_an_iterator():
    """The variables are a GeneratorTable, which reads an iterator of
    (name, degree) pairs once; exp, log and products keep that table."""
    gens = GeneratorTable(iter([("t", 1), ("x", 2)]))
    s = TruncatedSeries(gens, 2, {(1, 0): 1})
    assert s.gens.names == ("t", "x") and s.gens.degrees == (1, 2)
    e = series_exp(s)
    assert e.gens is gens and series_log(e).gens is gens
    assert series_mul(e, e).gens is gens
    assert e.coefficient((2, 0)) == F(1, 2) and s.coefficient((1, 0)) == 1


# ---------------------------------------------------------------------------
# Exact rank
# ---------------------------------------------------------------------------

def dense_rank_oracle(rows):
    """Naive dense fraction elimination, no pivot normalization."""
    m = [list(map(F, r)) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col] / m[row][col]
                for c in range(cols):
                    m[r][c] -= f * m[row][c]
        row += 1
        rank += 1
    return rank


def test_exact_rank_basics():
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exact_rank([[0] * 5, [0] * 5]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1


def _random_entry(rng, kind):
    """A random int, Fraction, or either."""
    if kind == "mixed":
        kind = rng.choice(("int", "rational"))
    if kind == "int":
        return rng.randint(-10, 10)
    return F(rng.randint(-9, 9), rng.randint(1, 6))


@pytest.mark.parametrize("seed", range(6))
def test_exact_rank_against_dense_oracle(seed):
    """Int, rational and mixed int/Fraction matrices; half the rows of the
    last two are combinations of the others, so the rank is not full."""
    rng = random.Random(seed)
    rows = [[rng.randint(-10, 10) for _ in range(20)] for _ in range(20)]
    assert exact_rank(rows) == dense_rank_oracle(rows)
    for kind in ("rational", "mixed"):
        rows = [[_random_entry(rng, kind) for _ in range(12)]
                for _ in range(8)]
        for _ in range(8):
            a, b = rng.sample(rows, 2)
            x, y = _random_entry(rng, kind), _random_entry(rng, kind)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        rng.shuffle(rows)
        assert exact_rank(rows) == dense_rank_oracle(rows)


def test_echelon_residual_is_canonical():
    ech = SparseEchelon()
    ech.add_row({0: F(1), 1: F(2)})
    ech.add_row({1: F(1), 2: F(3)})
    r1 = ech.residual({0: F(1), 2: F(1)})
    r2 = ech.residual({0: F(1), 1: F(0), 2: F(1)})
    assert r1 == r2
    assert all(c not in ech.pivot_rows for c in r1)
    # seeded random rows: row - residual(row) lies in the span, and the
    # residual holds no pivot column
    rng = random.Random(0)
    ech = SparseEchelon()
    for _ in range(6):
        ech.add_row({rng.randrange(12): F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(5)})
    for _ in range(20):
        row = {rng.randrange(12): F(rng.randint(-4, 4), rng.randint(1, 3))
               for _ in range(6)}
        res = ech.residual(row)
        assert all(c not in ech.pivot_rows for c in res)
        diff = {c: row.get(c, 0) - res.get(c, 0) for c in set(row) | set(res)}
        assert ech.contains(diff)


def dense_rank_mod_p_oracle(rows, p):
    """Naive dense elimination over F_p of p-integral rational rows."""
    m = [[x.numerator * pow(x.denominator, -1, p) % p for x in map(F, r)]
         for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inv
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [2, 3, 7, 2 ** 61 - 1])
def test_echelon_mod_p_against_dense_oracle(seed, p):
    """Over F_p the one elimination loop gives the rank mod p of
    p-integral rows, at most their rank over Q; its residuals are residues
    0..p-1 on pivot-free columns that differ from the row by a span
    element."""
    rng = random.Random(seed)
    rows = [[F(rng.randint(-6, 6), rng.choice((1, 1, 5))) for _ in range(9)]
            for _ in range(7)]
    for _ in range(4):
        a, b = rng.sample(rows, 2)
        rows.append([x + rng.randint(-2, 2) * y for x, y in zip(a, b)])
    ech = SparseEchelon(p)
    for r in rows:
        ech.add_row(dict(enumerate(r)))
    assert ech.rank == dense_rank_mod_p_oracle(rows, p) <= exact_rank(rows)
    for r in rows[:3]:
        res = ech.residual({j: v * 3 + 1 for j, v in enumerate(r)})
        assert all(c not in ech.pivot_rows and 0 < v < p
                   for c, v in res.items())
    assert all(0 <= v < p for row in ech.pivot_rows.values()
               for v in row.values())


def test_echelon_mod_p_edges():
    """A determinant p drops the rank mod p; a denominator that p divides
    is not an element of F_p."""
    ech = SparseEchelon(5)
    assert ech.add_row({0: 1, 1: 2})
    assert not ech.add_row({0: 3, 1: 1})
    assert ech.contains({0: 2, 1: 4}) and not ech.contains({1: 1})
    assert exact_rank([[1, 2], [3, 1]]) == 2
    with pytest.raises(ZeroDivisionError):
        SparseEchelon(7).add_row({0: 1, 1: F(3, 14)})


def test_integral_entries_leave_as_fractions():
    """Integral entries are kept as ints inside the echelon, but residuals,
    reductions and pairing entries are Fractions at the API edge."""
    ech = SparseEchelon()
    ech.add_row({0: F(1), 1: F(-1)})
    ech.add_row({1: 2, 2: F(4)})
    res = ech.residual({0: 3, 1: F(2), 2: 5, 3: F(6)})
    assert res == {2: -5, 3: 6}
    assert all(type(c) is F for c in res.values())
    gens, rels = _mbar2_presentation()
    quotient = GradedQuotient(gens, rels, 3)
    for d in range(4):
        for m in gens.monomials(d):
            red = quotient.reduce(GradedPolynomial(gens, {m: 1}))
            assert red and all(type(c) is F for c in red.values())
    for i in range(4):
        entries = [c for row in quotient.pairing_matrix(i) for c in row]
        assert entries and all(type(c) is F for c in entries)


class _ReferenceEchelon:
    """Plain elimination, the reference for `SparseEchelon`: every entry a
    `Fraction` (a residue mod p over F_p), every pivot row normalized to
    lead 1, every row fully reduced."""

    def __init__(self, p=None):
        self.p, self.rows = p, {}

    def residual(self, row):
        p = self.p
        row = {c: F(v) if p is None else F(v).numerator
               * pow(F(v).denominator, -1, p) % p for c, v in row.items()}
        out = {}
        while row := {c: v for c, v in row.items() if v}:
            lead = min(row)
            a = row.pop(lead)
            if lead not in self.rows:
                out[lead] = a
                continue
            for c, v in self.rows[lead].items():
                if c != lead:
                    row[c] = row.get(c, 0) - a * v
                    if p is not None:
                        row[c] %= p
        return out

    def add_row(self, row):
        res = self.residual(row)
        if not res:
            return False
        lead = min(res)
        inv = 1 / res[lead] if self.p is None else pow(res[lead], -1, self.p)
        self.rows[lead] = {c: v * inv if self.p is None else v * inv % self.p
                           for c, v in res.items()}
        return True


def _compare_with_reference(rows, probes, p=None):
    """Insert `rows` into both echelons, then compare rank, pivot columns,
    `contains` and `residual` of every probe row (entries and types)."""
    ech, ref = SparseEchelon(p), _ReferenceEchelon(p)
    for row in rows:
        assert ech.add_row(row) == ref.add_row(row)
    assert ech.rank == len(ref.rows)
    assert ech.pivot_columns() == sorted(ref.rows)
    for row in probes + rows:
        res = ech.residual(row)
        assert res == ref.residual(row)
        assert all(type(v) is (F if p is None else int) for v in res.values())
        assert ech.contains(row) == (not ref.residual(row))
    return ech


def _random_rows(rng, count, width, entry):
    """`count` sparse rows, a third of them combinations of earlier ones
    (so some reduce to zero and many leads are not units)."""
    rows = []
    for _ in range(count):
        if len(rows) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            x, y = entry(), entry()
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
        else:
            row = {rng.randrange(width): entry()
                   for _ in range(rng.randint(1, width // 2))}
        rows.append({c: v for c, v in row.items() if v})
    return rows


@pytest.mark.parametrize("seed", range(10))
def test_fraction_free_elimination_matches_fraction_reference(seed):
    """Integer rows with non-unit leads (entries -4..4) are eliminated
    without fractions, into primitive pivot rows (content 1, positive
    lead, ints only), with the rank, pivots, membership and exact
    residuals of plain `Fraction` elimination."""
    rng = random.Random(seed)
    rows = _random_rows(rng, 14, 10, lambda: rng.randint(-4, 4))
    probes = _random_rows(rng, 8, 10, lambda: rng.randint(-4, 4))
    ech = _compare_with_reference(rows, probes)
    for lead, row in ech.pivot_rows.items():
        assert all(type(v) is int for v in row.values())
        assert row[lead] > 0 and gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(10))
def test_mixed_rows_match_fraction_reference(seed):
    """Rows mixing ints and `Fraction`s with non-unit leads.  Each row's
    denominators are cleared on entry, so every pivot row is primitive
    ints here too, and the residuals are those of `Fraction` elimination."""
    rng = random.Random(seed)
    entry = lambda: rng.choice((rng.randint(-4, 4),
                                F(rng.randint(-4, 4), rng.randint(1, 4))))
    rows = _random_rows(rng, 14, 10, lambda: rng.randint(-4, 4))
    rows = [row if rng.random() < 0.5 else
            {c: entry() for c in row} for row in rows]
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    probes = _random_rows(rng, 8, 10, entry)
    ech = _compare_with_reference([r for r in rows if r], probes)
    for lead, row in ech.pivot_rows.items():
        assert all(type(v) is int for v in row.values())
        assert row[lead] > 0 and gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [3, 7, 2 ** 61 - 1])
def test_elimination_mod_p_matches_reference(seed, p):
    """Over F_p the pivot rows stay residues with lead 1 and the same
    reference decides rank, pivots, membership and residuals."""
    rng = random.Random(seed)
    entry = lambda: rng.choice((rng.randint(-4, 4),
                                F(rng.randint(-4, 4), rng.choice((1, 2, 5)))))
    rows = _random_rows(rng, 14, 10, entry)
    probes = _random_rows(rng, 8, 10, entry)
    ech = _compare_with_reference(rows, probes, p)
    assert all(row[lead] == 1 for lead, row in ech.pivot_rows.items())


# ---------------------------------------------------------------------------
# Graded quotient engine
# ---------------------------------------------------------------------------

def test_monomials_graded_lex_order():
    gens = GeneratorTable([("a", 1), ("b", 2), ("c", 1)])
    assert gens.monomials(2) == [(2, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 2)]
    assert gens.monomials(0) == [(0, 0, 0)]
    assert gens.monomials(-1) == []


def test_monomials_past_recursion_limit():
    # more generators than the default recursion limit
    gens = GeneratorTable([(f"x{i}", 1) for i in range(3000)])
    units = gens.monomials(1)
    assert len(units) == 3000
    assert units[0] == gens.unit("x0") and units[-1] == gens.unit("x2999")


def _mbar2_presentation():
    gens = GeneratorTable([("l", 1), ("d", 1)])
    lam = GradedPolynomial.generator(gens, "l")
    d1 = GradedPolynomial.generator(gens, "d")
    return gens, [d1 * d1 + lam * d1, 5 * lam * lam * lam - lam * lam * d1]


def test_quotient_golden_two_pointed_compactification():
    gens, rels = _mbar2_presentation()
    rep = graded_quotient(gens, rels, 3, with_pairings=True)
    assert rep.dims == [1, 2, 2, 1]
    assert rep.pairing_ranks == [1, 2, 2, 1]
    assert rep.gorenstein is True


def test_quotient_golden_free_and_truncated():
    assert graded_quotient([("x", 1)], [], 3).dims == [1, 1, 1, 1]
    gens = GeneratorTable([("l", 1)])
    l = GradedPolynomial.generator(gens, "l")
    assert graded_quotient(gens, [l * l * l], 4).dims == [1, 1, 1, 0, 0]


def test_quotient_degenerate_inputs():
    assert graded_quotient([], [], 3).dims == [1, 0, 0, 0]


def test_quotient_refuses_non_int_max_degree():
    """max_degree 2.9 or True is refused, not read as 2 or 1."""
    gens = GeneratorTable([("x", 1)])
    with pytest.raises(ValueError, match="max_degree must be an int, got 2.9"):
        GradedQuotient(gens, [], 2.9)
    with pytest.raises(ValueError, match="max_degree must be an int, got True"):
        graded_quotient(gens, [], True)


def test_quotient_rejects_inhomogeneous():
    gens = GeneratorTable([("x", 1)])
    x = GradedPolynomial.generator(gens, "x")
    with pytest.raises(ValueError):
        graded_quotient(gens, [x + x * x], 2)


def test_quotient_rejects_another_table():
    """A polynomial over another table is an error, not re-mapped by name:
    "a" has degree 2 in the relation and degree 1 in the quotient."""
    other = GradedPolynomial.generator(GeneratorTable([("a", 2)]), "a")
    gens = GeneratorTable([("a", 1)])
    with pytest.raises(ValueError, match="mixed generator tables"):
        GradedQuotient(gens, [other], 2)
    quotient = GradedQuotient(gens, [], 2)
    with pytest.raises(ValueError, match="mixed generator tables"):
        quotient.reduce(other)


def test_quotient_reduce_rejects_degree_out_of_range():
    """A polynomial above max_degree has no quotient basis to reduce onto:
    the error names its degree and the quotient's range."""
    gens = GeneratorTable([("a", 1), ("b", 2)])
    a = GradedPolynomial.generator(gens, "a")
    b = GradedPolynomial.generator(gens, "b")
    quotient = GradedQuotient(gens, [a * a], 3)
    with pytest.raises(ValueError, match=r"degree 4 .*0\.\.3"):
        quotient.reduce(b * b)
    # dim and basis refuse it too, before eliminating any degree past 3
    for query in (quotient.dim, quotient.basis):
        with pytest.raises(ValueError, match=r"degree 4 .*0\.\.3"):
            query(4)
    with pytest.raises(ValueError, match=r"degree -1 .*0\.\.3"):
        quotient.basis(-1)
    assert not quotient._echelons
    assert quotient.reduce(a * b) == {(1, 1): 1}


@pytest.mark.parametrize("seed", range(5))
def test_quotient_dims_order_invariant(seed):
    gens, rels = _mbar2_presentation()
    rng = random.Random(seed)
    shuffled = rels[:]
    rng.shuffle(shuffled)
    assert graded_quotient(gens, shuffled, 3).dims == [1, 2, 2, 1]


def test_monomials_skip_vanishing_supports():
    """monomials(d, vanishing) is monomials(d) without the multiples of
    the vanishing supports, in the same order."""
    gens = GeneratorTable([("a", 1), ("b", 2), ("c", 1), ("e", 1)])
    supports = [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 3), (2, 0, 0, 1)]
    for d in range(7):
        expected = [m for m in gens.monomials(d)
                    if not any(all(x >= y for x, y in zip(m, s)) for s in supports)]
        assert gens.monomials(d, supports) == expected
    assert gens.monomials(3, [(0, 0, 0, 1)]) == [(3, 0, 0, 0), (2, 0, 1, 0),
                                                 (1, 1, 0, 0), (1, 0, 2, 0),
                                                 (0, 1, 1, 0), (0, 0, 3, 0)]


def _monomials_oracle(degrees, d, vanishing):
    """Brute force: every exponent tuple of weighted degree d (a multiset
    of generators of total degree d), without the multiples of a
    vanishing support, sorted lexicographically decreasing."""
    n = len(degrees)
    out = set()
    for k in range(d + 1):
        for picks in combinations_with_replacement(range(n), k):
            if sum(degrees[j] for j in picks) == d:
                out.add(tuple(picks.count(j) for j in range(n)))
    return sorted((m for m in out if not any(
        all(x >= y for x, y in zip(m, s)) for s in vanishing)), reverse=True)


def _random_supports(rng, n):
    """Vanishing supports of every shape: single-generator powers, pairs,
    supports of three or more generators with exponents up to 3, and
    duplicate or redundant (divisible by another) supports."""
    def support(k, top):
        mono = [0] * n
        for j in rng.sample(range(n), k):
            mono[j] = rng.randint(1, top)
        return tuple(mono)
    out = []
    for _ in range(rng.randint(0, 2)):
        out.append(support(1, 3))
    for _ in range(rng.randint(0, 3)):
        out.append(support(min(2, n), 1))
    if n >= 3:
        for _ in range(rng.randint(0, 2)):
            out.append(support(rng.randint(3, n), 3))
    for s in rng.sample(out, min(3, len(out))):
        last = max(j for j, e in enumerate(s) if e)
        out.append(rng.choice((
            s, tuple(e + rng.randint(0, 1) for e in s),
            tuple(e + (j == last) for j, e in enumerate(s)))))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_monomials_match_brute_force_oracle(seed):
    """Seeded random tables of degrees 1..3 with every kind of vanishing
    support: the same tuples as the brute force, in the same order."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    degrees = [rng.randint(1, 3) for _ in range(n)]
    gens = GeneratorTable([(f"x{i}", e) for i, e in enumerate(degrees)])
    vanishing = _random_supports(rng, n)
    for d in range(-1, 8):
        expected = _monomials_oracle(degrees, d, vanishing) if d >= 0 else []
        assert gens.monomials(d, vanishing) == expected
        assert gens.monomials(d) == (_monomials_oracle(degrees, d, ())
                                     if d >= 0 else [])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_monomials_match_brute_force_on_keel_supports(n):
    """The crossing products of the Keel presentation as supports: the
    nested-set monomials of each degree, as the brute force lists them."""
    from tautrings.boundary import keel_quotient
    quotient = keel_quotient(n)
    degrees = list(quotient.gens.degrees)
    for d in range(n - 2):
        expected = _monomials_oracle(degrees, d, quotient.vanishing)
        assert quotient.gens.monomials(d, quotient.vanishing) == expected
        assert quotient.monomials(d) == expected


def _random_presentation(rng):
    """Weighted generators, a few random relations, and two distinct
    monomials x^a, x^b of one degree."""
    gens = GeneratorTable([(f"x{i}", rng.choice((1, 1, 2)))
                           for i in range(rng.randint(2, 4))])
    degrees = [d for d in (2, 3) if len(gens.monomials(d)) >= 2]
    a, b = rng.sample(gens.monomials(rng.choice(degrees)), 2)
    rels = []
    for _ in range(rng.randint(1, 3)):
        monos = gens.monomials(rng.randint(2, 3))
        picked = rng.sample(monos, min(len(monos), rng.randint(2, 3)))
        rels.append(GradedPolynomial(gens, {m: rng.choice((-2, -1, 1, 3))
                                            for m in picked}))
    return gens, rels, a, b


@pytest.mark.parametrize("seed", range(20))
def test_quotient_monomial_relations_match_two_term_relations(seed):
    """x^a and x^b span the ideal that x^a + x^b and x^a - x^b span, so the
    quotient that takes them as vanishing supports has the dims, bases,
    reductions and pairings of the one that eliminates two-term rows."""
    rng = random.Random(seed)
    gens, rels, a, b = _random_presentation(rng)
    xa, xb = GradedPolynomial(gens, {a: 1}), GradedPolynomial(gens, {b: 1})
    top = rng.randint(3, 5)
    pruned = GradedQuotient(gens, rels + [xa, xb * 2], top)
    full = GradedQuotient(gens, rels + [xa + xb, xa - xb], top)
    assert {a, b} <= set(pruned.vanishing)
    assert pruned.report(True) == full.report(True)
    for d in range(top + 1):
        assert pruned.basis(d) == full.basis(d)
        for m in gens.monomials(d):
            poly = GradedPolynomial(gens, {m: F(rng.randint(1, 5), rng.randint(1, 3))})
            assert pruned.reduce(poly) == full.reduce(poly)
            if m not in pruned.monomials(d):
                assert pruned.reduce(poly) == {}


class _ProductOracle:
    """Quotient by eliminating every product monomial * relation of the
    full relation list over all monomials of each degree, single-term
    relations included: no vanishing supports, no thinning, no criterion.
    The products are `GradedPolynomial` products (`_product_spans`), not
    the rows of the engine under test."""

    def __init__(self, gens, rels, top):
        self.gens, self.top = gens, top
        self.monos = [gens.monomials(d) for d in range(top + 1)]
        self.index = [{m: i for i, m in enumerate(ms)} for ms in self.monos]
        self.ech = []
        for d, span in enumerate(_product_spans(gens, rels, top)):
            ech = SparseEchelon()
            for terms in sorted(span, key=len):
                ech.add_row({self.index[d][m]: c for m, c in terms.items()})
            self.ech.append(ech)

    def basis(self, d):
        pivots = set(self.ech[d].pivot_columns())
        return [m for i, m in enumerate(self.monos[d]) if i not in pivots]

    def reduce(self, m):
        d = self.gens.degree(m)
        res = self.ech[d].residual({self.index[d][m]: F(1)})
        return {self.monos[d][i]: c for i, c in res.items()}

    def pairing_matrix(self, i):
        if len(self.basis(self.top)) != 1:
            return None
        socle = self.basis(self.top)[0]
        return [[self.reduce(tuple(x + y for x, y in zip(a, b))).get(socle, 0)
                 for b in self.basis(self.top - i)]
                for a in self.basis(i)]


def _assert_matches_product_oracle(gens, rels, top, quotient):
    """Dims, bases, the reduction of every monomial and, where the top
    degree is one-dimensional, the pairings equal the oracle's."""
    oracle = _ProductOracle(gens, rels, top)
    for d in range(top + 1):
        assert quotient.dim(d) == len(oracle.basis(d))
        assert quotient.basis(d) == oracle.basis(d)
        for m in gens.monomials(d):
            assert (quotient.reduce(GradedPolynomial(gens, {m: F(1)}))
                    == oracle.reduce(m))
    if quotient.dim(top) == 1:
        for i in range(top + 1):
            assert quotient.pairing_matrix(i) == oracle.pairing_matrix(i)


def _dependent_presentation(rng):
    """Generators of degrees 1, 1, 2, 3; random two- and three-term base
    relations; relations that are scalar multiples, sums and monomial
    multiples of them, some listed before the relation they depend on; and
    single-term relations."""
    gens = GeneratorTable([("a", 1), ("b", 1), ("c", 2), ("e", 3)])

    def random_poly(d, terms):
        monos = gens.monomials(d)
        picked = rng.sample(monos, min(len(monos), terms))
        return GradedPolynomial(gens, {m: rng.choice((-3, -1, 1, 2))
                                       for m in picked})

    base = [random_poly(rng.randint(2, 4), rng.randint(2, 3))
            for _ in range(rng.randint(3, 5))]
    derived = []
    for _ in range(6):
        p = rng.choice(base)
        kind = rng.randrange(3)
        if kind == 0:
            derived.append(p * F(rng.choice((-2, 3)), rng.choice((1, 5))))
        elif kind == 1:
            q = rng.choice([r for r in base if r.degree() == p.degree()])
            derived.append(p + 2 * q)
        else:
            m = rng.choice(gens.monomials(rng.randint(1, 2)))
            derived.append(p * GradedPolynomial(gens, {m: F(1)}))
    singles = [random_poly(rng.randint(3, 5), 1) for _ in range(2)]
    rels = derived[:3] + base + singles + derived[3:]
    return gens, rels


@pytest.mark.parametrize("seed", range(12))
def test_quotient_thinning_matches_product_oracle(seed):
    """Thinning the relations degree by degree and skipping products by
    the signature criterion keep every degree's row space: dims, bases,
    reductions and pairings are those of eliminating every product row of
    the full relation list, in the given and in a shuffled order (which
    changes the kept relations, their blocks and the rows skipped)."""
    rng = random.Random(seed)
    gens, rels = _dependent_presentation(rng)
    for order in (rels, rng.sample(rels, len(rels))):
        quotient = GradedQuotient(gens, order, 6)
        _assert_matches_product_oracle(gens, order, 6, quotient)
        # pairings need a one-dimensional top degree: cut at each such degree
        for top in range(6):
            if quotient.dim(top) == 1:
                _assert_matches_product_oracle(gens, order, top,
                                               GradedQuotient(gens, order, top))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_keel_quotient_matches_product_oracle(n):
    """The Keel quotient, whose product rows the criterion prunes most
    (1,110 rows at n = 6 without it, 663 with it), has the dims, bases,
    reductions and pairings of eliminating every product row."""
    from tautrings import boundary
    quotient = boundary.keel_quotient(n)
    rels = (boundary.keel_fourpoint_relations(n)
            + boundary.keel_incompatibility_relations(n))
    _assert_matches_product_oracle(quotient.gens, rels, n - 3, quotient)


@pytest.mark.parametrize("g", range(2, 9))
def test_exact_fz_ring_matches_product_oracle(g):
    """The exact FZ route, every FZ relation eliminated over Q, has the
    dims, bases, reductions and pairings of eliminating every product."""
    from tautrings.relationgen import fz_relation_set
    from tautrings.tautring import build_ring
    relations = fz_relation_set(g, g - 2)
    model = build_ring(g, relations=relations)
    _assert_matches_product_oracle(model.gens,
                                   [rel.polynomial for rel in relations],
                                   g - 2, model.quotient)


def _product_spans(gens, rels, top):
    """Per degree, every monomial * relation product as a term map."""
    spans = []
    for d in range(top + 1):
        span = []
        for rel in rels:
            r = rel.degree()
            if 0 < r <= d:
                for m in gens.monomials(d - r):
                    span.append((rel * GradedPolynomial(gens, {m: 1})).terms)
        spans.append(span)
    return spans


@pytest.mark.parametrize("seed", range(12))
def test_quotient_mod_p_dims_match_product_oracle(seed):
    """Over F_p the thinned quotient, which skips products by the
    criterion, has in every degree the surviving monomials minus the rank
    mod p of every product row, for the given and a shuffled relation
    order: an upper bound on the dimension over Q, equal to it at
    p = 2^61 - 1 here."""
    rng = random.Random(seed)
    gens, rels = _dependent_presentation(rng)
    exact = GradedQuotient(gens, rels, 6)
    spans = _product_spans(gens, rels, 6)
    for p in (2, 3, 7, 2 ** 61 - 1):
        for order in (rels, rng.sample(rels, len(rels))):
            quotient = GradedQuotient(gens, order, 6, p)
            for d in range(7):
                monos = quotient.monomials(d)
                rows = [[terms.get(m, 0) for m in monos] for terms in spans[d]]
                assert (quotient.dim(d)
                        == len(monos) - dense_rank_mod_p_oracle(rows, p))
                assert quotient.dim(d) >= exact.dim(d)
                if p > 7:
                    assert quotient.dim(d) == exact.dim(d)


def test_quotient_mod_p_refuses_non_integral_relation():
    gens = GeneratorTable([("x", 1), ("y", 1)])
    x, y = (GradedPolynomial.generator(gens, n) for n in "xy")
    assert GradedQuotient(gens, [x * x + y * y / 7], 2, 5).dims == [1, 2, 2]
    with pytest.raises(ZeroDivisionError):
        GradedQuotient(gens, [x * x + y * y / 7], 2, 7).dims


@pytest.mark.parametrize("seed", range(12))
def test_quotient_from_spans_matches_elimination(seed):
    """A quotient given the span of every degree (here all product rows,
    unreduced) has the dims, bases, reductions and pairings of the one
    that eliminates its relations: the echelon depends only on the span."""
    rng = random.Random(seed)
    gens, rels = _dependent_presentation(rng)
    for top in range(7):
        eliminated = GradedQuotient(gens, rels, top)
        spanned = GradedQuotient(gens, rels, top,
                                 spans=_product_spans(gens, rels, top))
        assert spanned.report(True) == eliminated.report(True)
        for d in range(top + 1):
            assert spanned.basis(d) == eliminated.basis(d)
            for m in gens.monomials(d):
                poly = GradedPolynomial(gens, {m: F(1)})
                assert spanned.reduce(poly) == eliminated.reduce(poly)
    with pytest.raises(ValueError, match="spans"):
        GradedQuotient(gens, rels, 3, spans=[[]] * 3)
