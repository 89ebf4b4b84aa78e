from __future__ import annotations

import random
import sys
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import factorial

import pytest

from tautrings.cache import CacheFile
from tautrings.correlators import (CorrelatorKey, CorrelatorTable,
                                   default_table, genus0_closed_form,
                                   psi_intersection, string_reduce)


# ---------------------------------------------------------------------------
# Independent oracle: one-point values straight from the generating-function
# PDE.  Matching coefficients of t_{3g}t_0^2-monomials in the equation gives
#     (6g+1) <tau_{3g} tau_0^2>_g = <tau_{3g-1} tau_0>_g <tau_0^3>_0
#                                   + 1/4 <tau_{3g-1} tau_0^4>_{g-1},
# and the string equation collapses both gauge factors, leaving
#     <tau_{3g-2}>_g = <tau_{3g-1} tau_0^4>_{g-1} / (24 g).
# The genus-(g-1) input is reduced by the string equation alone, so this
# path never touches the production recursion.
# ---------------------------------------------------------------------------

def _string_only(genus, exps):
    """Evaluate by the string equation alone (fails if a zero-free,
    non-base correlator is reached)."""
    exps = tuple(sorted(exps, reverse=True))
    n = len(exps)
    if sum(exps) != 3 * genus - 3 + n:
        return F(0)
    if genus == 0 and exps == (0, 0, 0):
        return F(1)
    assert 0 in exps, "oracle input must be string-reducible"
    rest = list(exps)
    rest.remove(0)
    total = F(0)
    for i, k in enumerate(rest):
        if k:
            total += _string_only(genus, rest[:i] + [k - 1] + rest[i + 1:])
    return total


def one_point_pde_oracle(g):
    """<tau_{3g-2}>_g through the PDE identity alone.

    Four string steps send <tau_{3h-1} tau_0^4>_{h-1} to <tau_{3h-5}>_{h-1}
    (only one positive index to decrement), so the identity in the header
    iterates to value_h = value_{h-1}/(24h) with the genus-0 seed evaluated
    by the string equation.
    """
    value = _string_only(0, (2, 0, 0, 0, 0)) / 24
    for h in range(2, g + 1):
        value = value / (24 * h)
    return value


def test_initial_condition():
    assert psi_intersection(0, [0, 0, 0]) == 1


def test_string_equation_single_step():
    assert psi_intersection(0, [1, 0, 0, 0]) == 1


@pytest.mark.parametrize("g,expected", [(1, F(1, 24)), (2, F(1, 1152)),
                                        (3, F(1, 82944))])
def test_one_point_values_match_pde_oracle(g, expected):
    assert one_point_pde_oracle(g) == expected
    assert psi_intersection(g, [3 * g - 2]) == expected


def test_degree_mismatch_returns_zero():
    assert psi_intersection(0, [2, 0, 0]) == 0
    assert psi_intersection(2, [1, 1]) == 0


def test_unstable_and_negative_raise():
    with pytest.raises(ValueError):
        psi_intersection(0, [0, 0])
    with pytest.raises(ValueError):
        psi_intersection(0, [1, -1, 0])


@pytest.mark.parametrize("g,exps", [(1, [1.5]), (1.9, [1]), (1, [F(1)]),
                                    (True, [1]), (1, [True]), (0, [1, 0, False]),
                                    (1, ["1"])])
def test_non_int_genus_or_exponent_raises(g, exps):
    """No truncation through int(): 1.5 and 1.9 used to give <tau_1>_1."""
    with pytest.raises(ValueError, match="must be ints"):
        psi_intersection(g, exps)
    with pytest.raises(ValueError, match="must be ints"):
        CorrelatorKey(g, exps)


def test_genus0_closed_form_examples():
    assert genus0_closed_form([0, 0, 0]) == 1
    assert genus0_closed_form([1, 0, 0, 0]) == 1
    assert genus0_closed_form([2, 0, 0, 0, 0]) == 1
    assert genus0_closed_form([1, 1, 0, 0, 0]) == 2
    assert genus0_closed_form([2, 1, 0, 0]) == 0  # degree mismatch


@pytest.mark.parametrize("exps", [[1.9, 0, 0, 0], [True, False, False, False],
                                  [1, 0, 0, F(0)], [1, 0, 0, "0"]])
def test_genus0_closed_form_refuses_non_int_exponents(exps):
    """No truncation through int(): [1.9, 0, 0, 0] used to give 1."""
    with pytest.raises(ValueError, match="must be ints"):
        genus0_closed_form(exps)


def test_genus0_agreement_up_to_eight_markings():
    for n in range(3, 9):
        deg = n - 3
        for exps in combinations_with_replacement(range(deg + 1), n):
            if sum(exps) == deg:
                assert psi_intersection(0, exps) == genus0_closed_form(exps)


def test_permutation_invariance():
    rng = random.Random(3)
    for _ in range(20):
        exps = [rng.randint(0, 3) for _ in range(5)]
        base = psi_intersection(1, exps)
        perm = exps[:]
        rng.shuffle(perm)
        assert psi_intersection(1, perm) == base


def _keys_of_degree(g, n):
    deg = 3 * g - 3 + n
    if deg < 0 or 2 * g - 2 + n <= 0:
        return []
    return [k for k in combinations_with_replacement(range(deg + 1), n)
            if sum(k) == deg]


def test_dilaton_cross_check():
    """<tau_1 X>_g = (2g-2+n) <X>_g on every stable key with g <= 3 and
    n <= 6.  The engine reduces a tau_1 by this equation, so this is a
    consistency check of the public API; `test_matches_reference_dvv`
    checks the values against a recursion that never uses it."""
    for g in range(0, 4):
        for n in range(1, 7):
            for exps in _keys_of_degree(g, n):
                lhs = psi_intersection(g, list(exps) + [1])
                rhs = (2 * g - 2 + n) * psi_intersection(g, exps)
                assert lhs == rhs, (g, exps)


def test_known_two_point_genus2_values():
    assert psi_intersection(2, [5, 0]) == F(1, 1152)
    assert psi_intersection(2, [4, 1]) == F(1, 384)
    assert psi_intersection(2, [3, 2]) == F(29, 5760)


def _poly_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (x, y), d in q.items():
            out[a + x, b + y] = out.get((a + x, b + y), 0) + c * d
    return out


def _poly_pow(p, e):
    out = {(0, 0): F(1)}
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def _dijkgraaf_two_point(g):
    """{(a, b): <tau_a tau_b>_g}, g >= 1, from Dijkgraaf's closed form

        sum <tau_a tau_b>_g w^a z^b
          = exp((w^3+z^3)/24)/(w+z) sum_n n!/(2n+1)! (wz(w+z)/2)^n.

    Its genus-g part is the degree-(3g-1) part; with w^3+z^3 =
    (w+z)(w^2-wz+z^2) the division by w+z is exact, leaving
    sum_{k+n=g} (w+z)^(g-1) (w^2-wz+z^2)^k (wz)^n n!/(24^k k! (2n+1)! 2^n)."""
    total = {}
    for k in range(g + 1):
        n = g - k
        scale = F(factorial(n), 24 ** k * factorial(k) * factorial(2 * n + 1)
                  * 2 ** n)
        term = _poly_mul(_poly_pow({(1, 0): F(1), (0, 1): F(1)}, g - 1),
                         _poly_pow({(2, 0): F(1), (1, 1): F(-1),
                                    (0, 2): F(1)}, k))
        for key, c in _poly_mul(term, {(n, n): scale}).items():
            total[key] = total.get(key, 0) + c
    return total


def test_two_point_correlators_match_dijkgraaf():
    """Every two-point correlator with 1 <= g <= 12 equals the coefficient
    of Dijkgraaf's closed form, an oracle outside the KdV recursion."""
    checked = 0
    for g in range(1, 13):
        closed = _dijkgraaf_two_point(g)
        assert set(closed) == {(a, 3 * g - 1 - a) for a in range(3 * g)}
        for (a, b), value in closed.items():
            assert psi_intersection(g, [a, b]) == value, (g, a, b)
            checked += 1
    assert checked == 234


def test_string_reduce_examples():
    pairs = string_reduce(CorrelatorKey(0, [0, 1, 0, 0]))
    assert pairs == [(CorrelatorKey(0, [0, 0, 0]), F(1))]
    pairs = string_reduce(CorrelatorKey(1, [0, 2]))
    assert pairs == [(CorrelatorKey(1, [1]), F(1))]
    with pytest.raises(ValueError):
        string_reduce(CorrelatorKey(0, [0, 0, 0]))
    with pytest.raises(ValueError):
        string_reduce(CorrelatorKey(1, [1, 1]))


def test_string_reduce_merges_equal_targets():
    pairs = string_reduce(CorrelatorKey(0, [0, 1, 1, 0, 0]))
    assert pairs == [(CorrelatorKey(0, [1, 0, 0, 0]), F(2))]


def test_cache_transparency():
    table = CorrelatorTable()
    values = {}
    for (g, exps) in [(1, (1,)), (2, (4,)), (1, (2, 0)), (2, (3, 2))]:
        values[(g, exps)] = psi_intersection(g, exps, table)
    table.clear()
    for (g, exps), v in values.items():
        assert psi_intersection(g, exps, table) == v


def _lookup(values):
    """A lookup that answers the keys of `values`, a dict."""
    return lambda g, exps: values.get((g, exps))


def _cache_of(tmp_path, entries):
    """A cache file that holds `entries`, saved and loaded again."""
    cache = CacheFile(str(tmp_path / "c.json"))
    cache.sections["correlators"].update(entries)
    cache.save()
    return CacheFile(cache.path).load()


def test_table_items_round_trip():
    table = CorrelatorTable()
    psi_intersection(2, [4], table)
    items = dict(table.items())
    assert items[(2, (4,))] == F(1, 1152)
    fresh = CorrelatorTable()
    fresh.attach(_lookup(items))
    assert fresh.get(2, (4,)) == F(1, 1152)


def test_table_attach_rejects_divergent_value():
    """A lookup that disagrees with a value already in the memo is
    rejected, as `put` rejects it, and the table keeps the old value and
    does not use the lookup."""
    table = CorrelatorTable()
    table.put(0, (0, 0, 0), F(1))
    with pytest.raises(RuntimeError, match="divergent"):
        table.attach(_lookup({(0, (0, 0, 0)): F(5), (1, (1,)): F(1, 24)}))
    assert table.items() == [((0, (0, 0, 0)), F(1))]
    assert table.get(1, (1,)) is None
    table.attach(_lookup({(0, (0, 0, 0)): F(1)}))  # an agreeing lookup is accepted


def test_table_parses_an_entry_when_first_read(tmp_path):
    """Attaching a cache file parses no entry; `get` parses one when its
    key first misses the memo, and `len` counts only the entries read so
    far."""
    table = CorrelatorTable()
    _cache_of(tmp_path, {"1:1": "1/24", "2:4": "1/1152"}).attach_correlators(table)
    assert len(table) == 0
    assert table.get(1, (1,)) == F(1, 24)
    assert len(table) == 1
    assert table.items() == [((1, (1,)), F(1, 24))]
    assert psi_intersection(2, [4], table) == F(1, 1152)


def test_cache_load_accepts_the_written_grammar(tmp_path):
    """Two-digit genera, stable keys with no markings and fractions not in
    lowest terms are entries too."""
    table = CorrelatorTable()
    _cache_of(tmp_path, {"0:0,0,0": "1/1", "2:": "0/1", "10:28": "1/2",
                         "3:7": "-2/4"}).attach_correlators(table)
    assert table.get(3, (7,)) == F(-1, 2)
    assert table.get(10, (28,)) == F(1, 2)
    assert table.get(2, ()) == 0


def test_table_unread_entries_keep_the_divergence_rule(tmp_path):
    """An entry not yet read still counts as held: a `put` that disagrees
    with it is rejected and leaves the memo unchanged."""
    table = CorrelatorTable()
    _cache_of(tmp_path, {"1:1": "1/24", "2:4": "1/1152"}).attach_correlators(table)
    with pytest.raises(RuntimeError, match="divergent"):
        table.put(1, (1,), F(1, 25))
    assert len(table) == 0
    table.put(1, (1,), F(2, 48))  # the same value
    assert table.get(2, (4,)) == F(1, 1152)


def test_canonical_key_sorting(tmp_path):
    k = CorrelatorKey(1, [0, 2, 1])
    assert k.exponents == (2, 1, 0)
    table = CorrelatorTable()
    _cache_of(tmp_path, {"1:2,1,0": "1/12"}).attach_correlators(table)
    assert table.get(k.genus, k.exponents) == F(1, 12)


def test_concurrent_queries_are_consistent():
    """Memo table behaves as a concurrent map with at-most-once semantics:
    hammer the same keys from several threads and compare against a serial
    run."""
    import threading

    serial = CorrelatorTable()
    keys = [(2, (4,)), (2, (3, 2)), (1, (1, 1, 1)), (3, (7,)), (2, (2, 2, 1))]
    expected = {k: psi_intersection(k[0], k[1], serial) for k in keys}

    table = CorrelatorTable()
    results = []
    errors = []

    def worker():
        try:
            got = {k: psi_intersection(k[0], k[1], table) for k in keys}
            results.append(got)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for got in results:
        assert got == expected


def test_one_point_tower_closed_form():
    """<tau_{3g-2}>_g = 1/(24^g g!), the iterated form of the PDE identity
    value_g = value_{g-1}/(24 g)."""
    from math import factorial
    for g in range(1, 6):
        assert psi_intersection(g, [3 * g - 2]) == F(1, 24 ** g * factorial(g))
        assert one_point_pde_oracle(g) == F(1, 24 ** g * factorial(g))


def test_high_genus_one_point_stays_small():
    """<tau_{3g-2}>_g = 1/(24^g g!) for g = 13..20 from an empty memo.  The
    DVV step on the smallest exponent reaches 3,722 keys (about 0.1 s);
    on the largest it reached 81,465 (about 12 s)."""
    table = CorrelatorTable()
    for g in range(13, 21):
        assert psi_intersection(g, [3 * g - 2], table) == \
            F(1, 24 ** g * factorial(g))
    assert len(table) < 5000


# ---------------------------------------------------------------------------
# Reference recursion: the plain DVV evaluation the engine replaced, on the
# largest exponent, with ordered subsets, a loop over every g1 and no
# dilaton step.  Slow, but it shares no code with the engine.
# ---------------------------------------------------------------------------

def _odd_df(m):
    r = 1
    while m > 1:
        r *= m
        m -= 2
    return r


def _reference_value(g, exps, memo):
    exps = tuple(sorted(exps, reverse=True))
    n = len(exps)
    if 2 * g - 2 + n <= 0 or sum(exps) != 3 * g - 3 + n:
        return F(0)
    if g == 0 and n == 3:
        return F(1)
    if (g, exps) in memo:
        return memo[g, exps]
    if 0 in exps:
        rest = list(exps)
        rest.remove(0)
        total = F(0)
        for i, k in enumerate(rest):
            if k:
                total += _reference_value(g, rest[:i] + [k - 1] + rest[i + 1:], memo)
    elif exps == (1,):
        total = _reference_value(0, (2, 0, 0, 0, 0), memo) / 24
    else:
        d, rest = exps[0], exps[1:]
        m = len(rest)
        total = F(0)
        for j, k in enumerate(rest):
            coef = F(_odd_df(2 * d + 2 * k - 1), _odd_df(2 * k - 1))
            total += coef * _reference_value(
                g, rest[:j] + (d + k - 1,) + rest[j + 1:], memo)
        for a in range(d - 1):
            b = d - 2 - a
            w = F(_odd_df(2 * a + 1) * _odd_df(2 * b + 1), 2)
            if g >= 1:
                total += w * _reference_value(g - 1, (a, b) + rest, memo)
            for mask in range(1 << m):
                left = (a,) + tuple(rest[i] for i in range(m) if mask >> i & 1)
                right = (b,) + tuple(rest[i] for i in range(m) if not mask >> i & 1)
                for g1 in range(g + 1):
                    total += w * (_reference_value(g1, left, memo)
                                  * _reference_value(g - g1, right, memo))
        total /= _odd_df(2 * d + 1)
    memo[g, exps] = total
    return total


def test_matches_reference_dvv():
    """Every degree-matching stable key with g <= 4 and n <= 6, the
    one-point keys with g <= 7 and the all-2 keys <tau_2^{3g-3}>_g with
    g = 2..4 equal the reference recursion, from an empty memo.  The
    reference distinguishes the largest exponent and the engine the
    smallest, so the two reach each value by different routes."""
    keys = [(g, exps) for g in range(5) for n in range(1, 7)
            for exps in _keys_of_degree(g, n)]
    assert len(keys) == 483
    keys += [(g, (3 * g - 2,)) for g in range(5, 8)]
    keys += [(g, (2,) * (3 * g - 3)) for g in range(2, 5)]
    table, memo = CorrelatorTable(), {}
    for g, exps in keys:
        assert psi_intersection(g, exps, table) == \
            _reference_value(g, exps, memo), (g, exps)


def test_deep_chains_at_default_recursion_limit():
    """A string chain of depth 1998 and a dilaton chain of depth 1499 run
    on the work stack, with the interpreter's recursion limit untouched."""
    limit = sys.getrecursionlimit()
    table = CorrelatorTable()
    assert psi_intersection(0, [1998] + [0] * 2000, table) == 1
    assert psi_intersection(1, [1] * 1500, table) == F(factorial(1499), 24)
    assert sys.getrecursionlimit() == limit
