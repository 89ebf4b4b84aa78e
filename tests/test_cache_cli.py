from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from tautrings import cache as cache_module
from tautrings import correlators
from tautrings.cache import CacheError, CacheFile
from tautrings.cli import run
from tautrings.correlators import CorrelatorTable, default_table, psi_intersection


@pytest.fixture
def empty_memo():
    """Start the CLI's memo empty, as a fresh process starts it."""
    default_table.clear()
    yield
    default_table.clear()


# ---------------------------------------------------------------------------
# Cache file
# ---------------------------------------------------------------------------

def test_cache_round_trip_byte_identical(tmp_path):
    path = tmp_path / "cache.json"
    table = CorrelatorTable()
    psi_intersection(2, [4], table)
    cache = CacheFile(str(path))
    cache.collect(table)
    cache.save()
    first = path.read_bytes()

    again = CacheFile(str(path)).load()
    again.save()
    assert path.read_bytes() == first
    assert list(json.loads(first)["sections"]) == ["correlators"]

    # a section no adapter reads, such as the "bernoulli" table of older
    # files, is kept as read
    again.sections["bernoulli"] = {"0": "1/1", "2": "1/6"}
    again.save()
    first = path.read_bytes()
    CacheFile(str(path)).load().save()
    assert path.read_bytes() == first


def test_collect_adds_only_memo_entries(tmp_path):
    """`collect` compares the memo with the section, not the entries the
    table could still look up: a table attached to another file passes on
    only the DVV-step values it read or computed."""
    source = CacheFile(str(tmp_path / "source.json"))
    source.sections["correlators"].update(
        {"2:3,2": "29/5760", "2:4": "1/1152", "3:7": "1/82944"})
    table = CorrelatorTable()
    source.attach_correlators(table)
    cache = CacheFile(str(tmp_path / "c.json"))
    assert cache.collect(table) is False
    assert table.get(2, (4,)) == F(1, 1152)
    assert psi_intersection(2, [5, 0], table) == F(1, 1152)
    assert psi_intersection(2, [3, 2, 1], table) == F(29, 1440)
    assert cache.collect(table) is True
    assert cache.sections["correlators"] == {"2:3,2": "29/5760", "2:4": "1/1152"}
    assert dict(table.items()) == {
        (2, (4,)): F(1, 1152), (2, (5, 0)): F(1, 1152),
        (2, (3, 2)): F(29, 5760), (2, (3, 2, 1)): F(29, 1440)}


def _sweep():
    """Every degree-matching stable key with g, n <= 6, exponents sorted
    non-increasing."""
    return [(g, exps[::-1]) for g in range(7) for n in range(7)
            if 2 * g - 2 + n > 0
            for exps in combinations_with_replacement(range(3 * g - 2 + n), n)
            if sum(exps) == 3 * g - 3 + n]


def _counting_dvv(monkeypatch):
    """Count the DVV frames that `psi_intersection` runs from now on."""
    frames = []
    dvv = correlators._dvv

    def counted(g, exps):
        frames.append((g, exps))
        return dvv(g, exps)
    monkeypatch.setattr(correlators, "_dvv", counted)
    return frames


def test_collect_keeps_only_dvv_step_values(tmp_path):
    """`collect` skips every key with an exponent 0 or 1, <tau_1>_1 among
    them, and says it added nothing when only such keys are new."""
    table = CorrelatorTable()
    for g, exps, v in [(1, (1,), F(1, 24)), (0, (1, 0, 0, 0), F(1)),
                       (2, (5, 0), F(1, 1152)), (2, (3, 2, 1), F(29, 1440)),
                       (2, (4, 1, 1), F(5, 1152))]:
        table.put(g, exps, v)
    cache = CacheFile(str(tmp_path / "c.json"))
    assert cache.collect(table) is False
    assert cache.sections["correlators"] == {}
    table.put(2, (4,), F(1, 1152))
    assert cache.collect(table) is True
    assert cache.sections["correlators"] == {"2:4": "1/1152"}


def test_dvv_values_answer_the_sweep_without_dvv(tmp_path, monkeypatch):
    """A file built from the whole g, n <= 6 sweep holds only DVV-step
    values, and a fresh table attached to it answers every sweep key with
    the value an empty memo computes, without running one DVV frame."""
    cold = CorrelatorTable()
    expected = {key: psi_intersection(*key, cold) for key in _sweep()}
    path = tmp_path / "c.json"
    cache = CacheFile(str(path))
    assert cache.collect(cold) is True
    cache.save()
    entries = json.loads(path.read_text())["sections"]["correlators"]
    dvv_keys = [key for key, _ in cold.items() if min(key[1]) >= 2]
    assert len(entries) == len(dvv_keys) < len(cold)
    frames = _counting_dvv(monkeypatch)
    warm = CorrelatorTable()
    CacheFile(str(path)).load().attach_correlators(warm)
    assert {key: psi_intersection(*key, warm) for key in expected} == expected
    assert frames == []


def test_full_file_still_answers_and_round_trips(tmp_path, capsys, monkeypatch):
    """A file holding every memo key, as older versions wrote it, loads and
    answers without a DVV frame; load-then-save and a cached call leave its
    bytes as they were."""
    cold = CorrelatorTable()
    psi_intersection(3, [7], cold)
    path = tmp_path / "c.json"
    full = CacheFile(str(path))
    full.sections["correlators"].update(
        {cache_module._key_text(g, exps): f"{v.numerator}/{v.denominator}"
         for (g, exps), v in cold.items()})
    full.save()
    before = path.read_bytes()
    CacheFile(str(path)).load().save()
    assert path.read_bytes() == before
    frames = _counting_dvv(monkeypatch)
    warm = CorrelatorTable()
    CacheFile(str(path)).load().attach_correlators(warm)
    assert all(psi_intersection(g, exps, warm) == v for (g, exps), v in cold.items())
    assert run(["correlator", "3", "7", "--cache", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1/82944"
    assert frames == []
    assert path.read_bytes() == before


def test_cache_version_mismatch_rejected(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": "999", "sections": {}, "checksum": ""}))
    with pytest.raises(CacheError):
        CacheFile(str(path)).load()


def test_cache_checksum_mismatch_rejected(tmp_path):
    path = tmp_path / "cache.json"
    cache = CacheFile(str(path))
    cache.sections["correlators"]["1:1"] = "1/24"
    cache.save()
    data = json.loads(path.read_text())
    data["sections"]["correlators"]["1:1"] = "1/25"
    path.write_text(json.dumps(data))
    with pytest.raises(CacheError):
        CacheFile(str(path)).load()


def test_cache_feeds_table(tmp_path):
    path = tmp_path / "cache.json"
    cache = CacheFile(str(path))
    cache.sections["correlators"]["2:4"] = "1/1152"
    cache.save()
    table = CorrelatorTable()
    CacheFile(str(path)).load().attach_correlators(table)
    assert table.get(2, (4,)) == F(1, 1152)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_correlator_plain(capsys):
    assert run(["correlator", "0", "0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_correlator_json(capsys):
    assert run(["correlator", "1", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "1/24"


def test_cli_ring_dims_json(capsys):
    assert run(["ring-dims", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dims": [1, 1, 1]}


def test_cli_keel_plain(capsys):
    assert run(["keel", "5", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "1 5 1"


def test_cli_gorenstein_exit_codes(capsys):
    assert run(["gorenstein", "4"]) == 0
    capsys.readouterr()


def test_cli_h2(capsys):
    assert run(["h2", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_h2_over_ceiling_is_usage_error(capsys):
    assert run(["h2", "5", "13"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "24577" in err


@pytest.mark.parametrize("command", ["gorenstein", "ring-dims"])
def test_cli_genus_past_fz_ceiling_is_usage_error(capsys, command):
    """Past MAX_GENUS = 23 the default FZ ring is refused up front: a usage
    error naming the ceiling, and nothing on stdout."""
    assert run([command, "24", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "MAX_GENUS = 23" in captured.err
    assert captured.out == ""


def test_cli_failed_certification_is_internal(capsys, monkeypatch):
    """Inside the ceiling a ring that does not certify is an internal
    failure (exit 1), not a usage error."""
    from tautrings import tautring
    monkeypatch.setattr(tautring, "PRIME", 2)
    assert run(["ring-dims", "7", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error:") and "certifies" in captured.err
    assert captured.out == ""


def test_cli_inhomogeneous_relation_is_usage_error(capsys):
    payload = json.dumps({"generators": [["a", 1], ["b", 2]],
                          "relations": [[[[1, 0], "1"], [[0, 1], "-1"]]],
                          "max_degree": 4})
    assert run(["presentation-dims", payload]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "homogeneous" in err


def test_cli_graphs(capsys):
    assert run(["graphs", "2", "0", "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_cli_usage_errors(capsys):
    assert run(["correlator", "0", "5"]) == 2          # unstable
    assert run(["bogus-command"]) == 2
    assert run(["euler", "0", "2"]) == 2
    capsys.readouterr()


def test_cli_seed_flag_rejected(capsys):
    """No command draws random numbers, so there is no --seed flag."""
    assert run(["euler", "1", "1", "--seed", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,key", [
    (["presentation-dims", '{"relations": []}'], "generators"),
    (["presentation-dims", '{"generators": [["l", 1]]}'], "max_degree"),
    (["jac-apply", "D", "2", '[{"psi_power": 0, "factors": []}]'], "coeff"),
])
def test_cli_missing_input_key_is_usage_error(capsys, argv, key):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_cli_internal_key_error_is_internal(capsys, monkeypatch):
    """A KeyError raised inside the engine is an internal failure, not a
    usage error."""
    from tautrings import tautring

    def broken(g):
        raise KeyError("internal")

    monkeypatch.setattr(tautring, "ring_dims", broken)
    assert run(["ring-dims", "4"]) == 1
    assert capsys.readouterr().err.startswith("internal error:")


def test_cli_fz_json_schema(capsys):
    assert run(["fz", "4", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["source"] == "FZ"
    rel = data["relations"][0]
    assert rel["index"] == {"r": 2, "sigma": [1]}
    for expvec, coeff in rel["polynomial"]:
        assert isinstance(expvec, list)
        num, _, den = coeff.partition("/")
        int(num), int(den)


def test_cli_jac_apply_round_trip(capsys):
    poly = json.dumps([{"psi_power": 0, "factors": [[4, 0, 1]], "coeff": "1/1"}])
    assert run(["jac-apply", "D", "2", poly, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == [
        {"psi_power": 0, "factors": [[2, 0, 1]], "coeff": "1/1"}]


def test_cli_presentation_dims(capsys):
    payload = json.dumps({
        "generators": [["l", 1], ["d", 1]],
        "relations": [
            [[[0, 2], "1/1"], [[1, 1], "1/1"]],
            [[[3, 0], "5/1"], [[2, 1], "-1/1"]],
        ],
        "max_degree": 3,
        "pairings": True,
    })
    assert run(["presentation-dims", payload, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dims"] == [1, 2, 2, 1]
    assert data["gorenstein"] is True


def test_cli_presentation_monomial_relation(capsys):
    """Q[a, b]/(ab, a^2 - b^2): the single-term relation ab is a vanishing
    support, a*b pairs to 0, and the output is that of the two-term
    presentation ab +- (a^2 - b^2) of the same ideal."""
    def presentation(relations):
        return json.dumps({"generators": [["a", 1], ["b", 1]],
                           "relations": relations, "max_degree": 2,
                           "pairings": True})
    square_diff = [[[2, 0], "1/1"], [[0, 2], "-1/1"]]
    flip = [[[2, 0], "-1/1"], [[0, 2], "1/1"]]
    assert run(["presentation-dims", "--format", "json",
                presentation([[[[1, 1], 1]], square_diff])]) == 0
    monomial = json.loads(capsys.readouterr().out)
    assert monomial == {"dims": [1, 2, 1], "gorenstein": True, "max_degree": 2,
                        "pairing_ranks": [1, 2, 1], "socle_dim": 1}
    assert run(["presentation-dims", "--format", "json",
                presentation([[[[1, 1], 1]] + square_diff,
                              [[[1, 1], 1]] + flip])]) == 0
    assert json.loads(capsys.readouterr().out) == monomial


def test_cli_presentation_repeated_exponent_vectors_add_up(capsys):
    """Terms with one exponent vector add up: a - a is the zero relation,
    and a + a = 2a still kills the degree-1 class."""
    def relation(*coeffs):
        return json.dumps({"generators": [["a", 1]], "max_degree": 1,
                           "relations": [[[[1], c] for c in coeffs]]})
    assert run(["presentation-dims", relation("1/1", "-1/1")]) == 0
    assert capsys.readouterr().out.split() == ["1", "1"]
    assert run(["presentation-dims", relation("1/1", "1/1")]) == 0
    assert capsys.readouterr().out.split() == ["1", "0"]


def _presentation(coeff):
    return json.dumps({"generators": [["l", 1]],
                       "relations": [[[[2], coeff]]], "max_degree": 2})


def test_cli_integer_coefficients_accepted(capsys):
    """A coefficient may be a JSON integer as well as a "num/den" string."""
    assert run(["presentation-dims", _presentation(3)]) == 0
    assert capsys.readouterr().out.split() == ["1", "1", "0"]
    poly = json.dumps([{"psi_power": 0, "factors": [[4, 0, 1]], "coeff": 1}])
    assert run(["jac-apply", "D", "2", poly, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == [
        {"psi_power": 0, "factors": [[2, 0, 1]], "coeff": "1/1"}]


@pytest.mark.parametrize("coeff", ["1/0", "1/", 1.5, True])
def test_cli_bad_coefficient_is_usage_error(capsys, coeff):
    assert run(["presentation-dims", _presentation(coeff)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(coeff) in err
    poly = json.dumps([{"psi_power": 0, "factors": [], "coeff": coeff}])
    assert run(["jac-apply", "D", "2", poly]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(coeff) in err


@pytest.mark.parametrize("argv,field", [
    (["presentation-dims", '{"generators": 5, "max_degree": 2}'], "generators"),
    (["presentation-dims", '{"generators": [["l", 1]], '
      '"relations": [[[2, "1"]]], "max_degree": 2}'], "exponent vector"),
    (["presentation-dims", '{"generators": [["l", 1]], '
      '"relations": [[[[2], "1", 3]]], "max_degree": 2}'], "relation term"),
    (["presentation-dims", '{"generators": [["l", 1]], '
      '"relations": {"a": 1}, "max_degree": 2}'], "relations"),
    (["presentation-dims", '{"generators": [["l", 1.5]], "max_degree": 2}'],
     "generator degree"),
    (["presentation-dims", '{"generators": [["l", 1]], "max_degree": 2.9}'], "max_degree"),
    (["presentation-dims", '{"generators": [["l", 1]], "max_degree": true}'], "max_degree"),
    (["presentation-dims", '{"generators": [["l", 1]], '
      '"relations": [[[["2"], "1"]]], "max_degree": 2}'], "exponent"),
    (["presentation-dims", '{"generators": [["l", 1], ["m", 1]], '
      '"relations": [[[[2, -1], "1"]]], "max_degree": 2}'], "exponent"),
    (["presentation-dims", '{"generators": [["l", 1]], "max_degree": -1}'], "max_degree"),
    (["jac-apply", "D", "2", "5"], "polynomial"),
    (["jac-apply", "D", "2", '"x"'], "polynomial"),
    (["jac-apply", "D", "2", '[{"coeff": 1, "factors": 5}]'], "factors"),
    (["jac-apply", "D", "2", '[{"coeff": 1, "psi_power": 1.7}]'], "psi_power"),
    (["jac-apply", "D", "2", '[{"coeff": 1, "factors": [[4.2, 0, 1]]}]'], "factor entry"),
    (["jac-apply", "D", "2", '[{"coeff": 1, "factors": [[4, 0]]}]'], "factor"),
    (["presentation-dims", '{"generators": [["a", 1]], "max_degree": 2, '
      '"pairings": "no"}'], "pairings"),
    (["presentation-dims", '{"generators": [["a", 1]], "max_degree": 2, '
      '"pairings": 1}'], "pairings"),
])
def test_cli_wrong_shape_json_is_usage_error(capsys, argv, field):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("argv", [
    ["h2", "-1", "5"], ["h2", "2", "-1"], ["graphs", "-1", "5"],
    ["graphs", "2", "-1"], ["fz", "-1", "2"], ["sq", "-1", "2"],
    ["lambda-in-kappa", "-1"], ["euler", "2", "-1"], ["euler", "-1", "5"],
    ["fz", "2", "-1"], ["sq", "2", "-1"],
])
def test_cli_negative_genus_or_markings_is_usage_error(capsys, argv):
    """A negative genus or marking count is malformed input, reported
    with the values, not an empty or nonsense answer."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-1" in err


def test_cli_unreadable_presentation_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["presentation-dims", f"@{missing}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


_JAC_INPUT = '[{"psi_power":0,"factors":[[3,1,2]],"coeff":"1/1"}]'
_LAMBDA_3_PLAIN = ("lambda_0 = (1)*1\nlambda_1 = (1/12)*kappa_1\n"
                   "lambda_2 = (1/288)*kappa_1^2\n"
                   "lambda_3 = (1/10368)*kappa_1^3 + (-1/360)*kappa_3\n")


@pytest.mark.parametrize("argv,outputs", [
    (["hodge", "lambda-g", "2", "2,1"], {
        "plain": "7/1920\n",
        "json": '{"alpha": [2, 1], "flavor": "lambda-g", "genus": 2, '
                '"value": "7/1920"}\n',
        "csv": "7/1920\n"}),
    (["lambda-in-kappa", "3"], {
        "plain": _LAMBDA_3_PLAIN,
        "json": '{"genus": 3, "lambda": [[[[0, 0, 0], "1/1"]], '
                '[[[1, 0, 0], "1/12"]], [[[2, 0, 0], "1/288"]], '
                '[[[3, 0, 0], "1/10368"], [[0, 0, 1], "-1/360"]]]}\n',
        "csv": _LAMBDA_3_PLAIN}),
    (["graphs", "1", "1", "--list"], {
        "plain": "StableGraph([(1, (1,))], [])\n"
                 "StableGraph([(0, (1,))], [(0, 0)])\n",
        "json": '{"count": 2, "genus": 1, "graphs": [{"edges": [], '
                '"vertices": [{"genus": 1, "legs": [1]}]}, {"edges": [[0, 0]], '
                '"vertices": [{"genus": 0, "legs": [1]}]}], "markings": 1}\n',
        "csv": "2\n"}),
    (["jac-apply", "e", "3", _JAC_INPUT], {
        "plain": "(1)*p(2,0)*p(3,1)^2\n",
        "json": '{"genus": 3, "operator": "e", "result": [{"coeff": "1/1", '
                '"factors": [[2, 0, 1], [3, 1, 2]], "psi_power": 0}]}\n',
        "csv": "(1)*p(2,0)*p(3,1)^2\n"}),
    (["jac-apply", "h", "3", _JAC_INPUT], {
        "plain": "(3)*p(3,1)^2\n",
        "json": '{"genus": 3, "operator": "h", "result": [{"coeff": "3/1", '
                '"factors": [[3, 1, 2]], "psi_power": 0}]}\n',
        "csv": "(3)*p(3,1)^2\n"}),
    (["jac-apply", "h-raw", "3", _JAC_INPUT], {
        "plain": "(-3)*p(3,1)^2\n",
        "json": '{"genus": 3, "operator": "h-raw", "result": [{"coeff": "-3/1", '
                '"factors": [[3, 1, 2]], "psi_power": 0}]}\n',
        "csv": "(-3)*p(3,1)^2\n"}),
])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_cli_outputs_pinned(capsys, argv, outputs, fmt):
    """Exact stdout, byte for byte, of each command in each format."""
    assert run(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == outputs[fmt] and captured.err == ""


def test_cli_jac_apply_h_needs_bihomogeneous_input(capsys):
    poly = json.dumps([{"psi_power": 0, "factors": [[3, 1, 1]], "coeff": "1/1"},
                       {"psi_power": 0, "factors": [[2, 0, 1]], "coeff": "1/1"}])
    assert run(["jac-apply", "h", "3", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: apply_h requires a bihomogeneous input\n"


@pytest.mark.parametrize("fmt,out", [
    ("plain", "1 2 2 1\n"),
    ("json", '{"dims": [1, 2, 2, 1], "gorenstein": true, "max_degree": 3, '
             '"pairing_ranks": [1, 2, 2, 1], "socle_dim": 1}\n'),
    ("csv", "1,2,2,1\n"),
])
def test_cli_presentation_dims_from_file(tmp_path, capsys, fmt, out):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({
        "generators": [["l", 1], ["d", 1]],
        "relations": [[[[0, 2], "1/1"], [[1, 1], "1/1"]],
                      [[[3, 0], "5/1"], [[2, 1], "-1/1"]]],
        "max_degree": 3, "pairings": True}), encoding="utf-8")
    assert run(["presentation-dims", f"@{path}", "--format", fmt]) == 0
    assert capsys.readouterr().out == out


def _checksummed(sections):
    payload = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    return json.dumps({"version": "1", "sections": sections,
                       "checksum": hashlib.sha256(payload.encode()).hexdigest()})


def _beside_good_entry(key, value):
    """A checksummed file holding `key` next to the entry that the query
    `1 1` reads, so `key` is never read."""
    return _checksummed({"correlators": {"1:1": "1/24", key: value}})


# An entry is "g:k1,...,kn" (ints without sign, spaces, underscores or
# leading zeros; a stable key) mapped to "num/den" (den > 0).  Forms that
# int() also reads are refused, since the file never holds them.
_BAD_ENTRIES = [
    ("2:4", 5), ("2:4", "1/0"), ("2:x", "1/1152"), ("2:4", "a/1152"),
    ("1:-1", "1/24"), ("2:4,-1", "0/1"), ("0:0,0", "1/1"), ("1:", "0/1"),
    ("2:4", "1152"), ("2:4", " 1/1152"), ("2:4", "+1/1152"),
    ("2:4", "1_0/2_40"), ("1: 1", "1/24"), ("2:4", "01/1152"),
    ("2:4", "1/-1152"), ("02:4", "1/1152"), ("2:4\n1:1", "1/1152"),
    ("2:4", "1/1152\n1/24"),
]


@pytest.mark.parametrize("text, fragment", [
    ("[]", "not a JSON object"),
    (_checksummed([]), "sections"),
    (_checksummed({"correlators": {"1:1": "1/0"}}), "'1:1'"),
    ("", "Expecting value"),
    (b"\xff", "can't decode byte 0xff"),
] + [(_beside_good_entry(k, v), repr(k)) for k, v in _BAD_ENTRIES],
    ids=["top-level", "sections", "value", "not-json", "not-utf-8"]
    + [f"{k!r}={v!r}" for k, v in _BAD_ENTRIES])
def test_cli_malformed_cache_is_usage_error(tmp_path, capsys, text, fragment):
    """A cache file that is not JSON, of the wrong shape, or with a
    checksummed entry outside the entry grammar, is bad input (exit 2)
    naming the file, not an internal failure, even when the query never
    reads that entry."""
    path = tmp_path / "cache.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert run(["correlator", "1", "1", "--cache", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert repr(str(path)) in err


def test_cache_load_rejects_a_bad_entry(tmp_path):
    """`load` checks every correlator entry, so a loaded file is valid as a
    whole: a checksummed entry outside the grammar is a `CacheError`
    naming the file and the entry, before any table reads the file."""
    path = tmp_path / "cache.json"
    path.write_text(_beside_good_entry("2:4", "1/0"))
    with pytest.raises(CacheError) as info:
        CacheFile(str(path)).load()
    assert "'2:4'" in str(info.value) and repr(str(path)) in str(info.value)


def test_cli_negative_max_seconds_rejected(capsys):
    assert run(["euler", "1", "1", "--max-seconds", "-1"]) == 2
    assert "--max-seconds" in capsys.readouterr().err


def test_cli_cache_equivalence(tmp_path, capsys):
    path = str(tmp_path / "c.json")
    assert run(["correlator", "2", "4", "--cache", path]) == 0
    with_cache = capsys.readouterr().out
    assert run(["correlator", "2", "4", "--cache", path]) == 0
    warm = capsys.readouterr().out
    assert run(["correlator", "2", "4"]) == 0
    without = capsys.readouterr().out
    assert with_cache == warm == without
    # cached file round-trips byte-identically when nothing new is added
    before = open(path, "rb").read()
    assert run(["correlator", "2", "4", "--cache", path]) == 0
    capsys.readouterr()
    assert open(path, "rb").read() == before


def test_cli_unsorted_cache_key_is_kept_and_never_read(tmp_path, capsys,
                                                      empty_memo):
    """A key whose exponents are not non-increasing is never looked up, so
    its value, right or wrong, is not used; the entry stays as written, and
    the call, which needs no DVV step, leaves the file untouched."""
    path = tmp_path / "c.json"
    path.write_text(_checksummed({"correlators": {"0:0,1,0,0": "7/1"}}))
    before = path.read_bytes()
    assert run(["correlator", "0", "1,0,0,0", "--cache", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert path.read_bytes() == before


def test_cli_cache_untouched_when_nothing_is_added(tmp_path, capsys, empty_memo):
    """A cached call whose values are all in the file, or that computes
    none, does not write: same bytes, same mtime, no temporary file."""
    path = tmp_path / "c.json"
    assert run(["correlator", "2", "4", "--cache", str(path)]) == 0
    os.utime(path, ns=(10**9, 10**9))
    before = path.read_bytes()
    for g, exps in [("2", "4"), ("1", "1"), ("2", "3"), ("0", "0,0,0")]:
        default_table.clear()
        assert run(["correlator", g, exps, "--cache", str(path)]) == 0
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == 10**9
        assert os.listdir(tmp_path) == ["c.json"]
    missing = tmp_path / "new.json"
    default_table.clear()
    assert run(["correlator", "0", "0,0,0", "--cache", str(missing)]) == 0
    assert not missing.exists()
    capsys.readouterr()


def test_cli_cache_after_adding_calls_matches_one_save(tmp_path, capsys,
                                                       empty_memo):
    """Cached calls that each add entries leave the file that one `collect`
    and `save` of a table which computed the same keys writes."""
    queries = [("1", "1"), ("2", "3,2"), ("2", "4"), ("3", "7"), ("2", "4")]
    path = tmp_path / "c.json"
    for g, exps in queries:
        default_table.clear()
        assert run(["correlator", g, exps, "--cache", str(path)]) == 0
    capsys.readouterr()
    table = CorrelatorTable()
    for g, exps in queries:
        psi_intersection(int(g), [int(k) for k in exps.split(",")], table)
    fresh = CacheFile(str(tmp_path / "fresh.json"))
    assert fresh.collect(table) is True
    assert fresh.collect(table) is False
    fresh.save()
    assert path.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_cli_cached_calls_in_one_process_keep_files_apart(tmp_path, capsys):
    """Two cached calls in one process write what two fresh processes
    write: the second file holds only its own query's entries, not the
    genus-2 DVV values that the first query computed."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["correlator", "3", "7", "--cache", str(a)]) == 0
    assert run(["correlator", "2", "4", "--cache", str(b)]) == 0
    capsys.readouterr()
    assert {"2:4", "3:7"} < set(json.loads(a.read_text())["sections"]["correlators"])
    table = CorrelatorTable()
    psi_intersection(2, [4], table)
    alone = CacheFile(str(tmp_path / "alone.json"))
    alone.collect(table)
    alone.save()
    assert b.read_bytes() == (tmp_path / "alone.json").read_bytes()
    assert json.loads(b.read_text())["sections"]["correlators"] == {"2:4": "1/1152"}


def test_cli_cache_in_missing_directory_is_usage_error(tmp_path, capsys):
    """A cache path that cannot be written is bad input (exit 2) naming
    the path, and leaves no temporary file."""
    path = tmp_path / "no" / "such" / "c.json"
    assert run(["correlator", "2", "4", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and repr(str(path)) in captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize("genus, exps", [("0", "0,0,0"), ("2", "4")])
def test_cli_cache_without_its_directory_fails_before_computing(
        tmp_path, capsys, parent, genus, exps):
    """A cache path whose directory is missing, or is a file, is refused
    when the file is read: exit 2 naming the path, nothing on stdout and
    no temporary file, whether or not the call would add an entry."""
    if parent == "file":
        (tmp_path / "file").write_text("")
    path = tmp_path / parent / "c.json"
    assert run(["correlator", genus, exps, "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and repr(str(path)) in captured.err
    assert os.listdir(tmp_path) == ([] if parent == "missing" else ["file"])


def test_cli_cache_that_is_a_directory_is_usage_error(tmp_path, capsys):
    """A cache path that names a directory cannot be read: exit 2 naming
    the path, and no temporary file beside or inside it."""
    assert run(["correlator", "2", "4", "--cache", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and repr(str(tmp_path)) in captured.err
    assert os.listdir(tmp_path) == []
    assert not os.path.exists(str(tmp_path) + ".tmp")


def test_cache_io_lets_an_alarm_through(tmp_path, monkeypatch):
    """A wall-clock alarm's TimeoutError (an OSError too) during cache file
    I/O stays a TimeoutError, the CLI's internal failure, not a CacheError."""
    def alarm(*args, **kwargs):
        raise TimeoutError("exceeded --max-seconds=1")
    path = tmp_path / "c.json"
    path.write_text("{}")
    monkeypatch.setattr(cache_module, "open", alarm, raising=False)
    with pytest.raises(TimeoutError):
        CacheFile(str(path)).load()
    with pytest.raises(TimeoutError):
        CacheFile(str(path)).save()


def _flags_placed(before, flags, command):
    """argv with `flags` before the subcommand or after its arguments."""
    return flags + command if before else command + flags


@pytest.mark.parametrize("before", [True, False])
def test_cli_format_flag_on_either_side(capsys, before):
    assert run(_flags_placed(before, ["--format", "json"], ["correlator", "1", "1"])) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1/24"
    assert run(_flags_placed(before, ["--format", "csv"], ["keel", "5"])) == 0
    assert capsys.readouterr().out.strip() == "1,5,1"


@pytest.mark.parametrize("before", [True, False])
def test_cli_cache_flags_on_either_side(tmp_path, capsys, before):
    """--cache acts wherever it stands."""
    kept = tmp_path / "kept.json"
    command = ["correlator", "2", "4"]
    assert run(_flags_placed(before, ["--cache", str(kept)], command)) == 0
    assert capsys.readouterr().out.split() == ["1/1152"]
    assert os.listdir(tmp_path) == ["kept.json"]


def test_cli_flag_after_subcommand_wins(capsys):
    assert run(["--format", "json", "correlator", "1", "1", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "1/24"


def test_cli_rationals_are_exact_strings(capsys):
    assert run(["euler", "1", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "-1/12"
    assert run(["hodge", "lambda-pair", "2", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip() == "1/2880"


def test_cli_max_seconds_budget(capsys):
    """A command that exceeds its wall-clock budget exits 1.  The H^2
    rank of M_{0,11} takes over ten seconds, so the 1 s alarm always
    interrupts it."""
    assert run(["h2", "0", "11", "--max-seconds", "1"]) == 1
    err = capsys.readouterr().err
    assert "max-seconds" in err
