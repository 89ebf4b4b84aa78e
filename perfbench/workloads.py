"""The benchmark's workloads: inputs drawn from a seed, the calls into the
public tautrings API, and the oracle check of every result.

The seed only orders the calls or draws query samples; tautrings sees the
generated arguments and nothing else.  Calls go through module attributes
(`tautring.gorenstein_check`, not an imported name) so that the tracer's
patches are the functions that run.

A workload is a function `(seed, tmp) -> (ops, verify)`.  `ops` is a list of
`(label, thunk)`; `verify(results)` takes `{label: value}` for the calls that
returned and gives `{label: reason}` for the ones whose value is wrong.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from tautrings import boundary, cli, correlators, stablegraphs, tautring
from tautrings.cache import CacheFile

import oracles

WARM_QUERIES = 40


def fz_ring(seed, tmp):
    """Gorenstein verification up to genus 10 and top-degree vanishing up to
    genus 6: acceptance criterion 5 at reduced size."""
    calls = {f"gorenstein({g})": ("gorenstein", g) for g in range(2, 11)}
    calls.update({f"vanishing({g},{g})": ("vanishing", g)
                  for g in range(2, 7)})
    ops = []
    for label, (kind, g) in _shuffled(calls, seed):
        if kind == "gorenstein":
            ops.append((label,
                        lambda g=g: tautring.gorenstein_check(g).export()))
        else:
            ops.append((label, lambda g=g: tautring.vanishing_check(g, g)))

    def verify(results):
        bad = {}
        for label, value in results.items():
            kind, g = calls[label]
            if kind == "vanishing":
                if value is not True:
                    bad[label] = f"returned {value!r}"
            elif value["dims"] != oracles.FZ_RING_DIMS[g]:
                bad[label] = f"dims {value['dims']}"
            elif any(value["dims"][d] != oracles.partition_count(d)
                     for d in range(g // 3 + 1)):
                bad[label] = "dims differ from partition counts below g/3"
            else:
                bad.update(_gorenstein_failure(label, value))
        return bad

    return ops, verify


def _shuffled(calls, seed):
    items = list(calls.items())
    random.Random(seed).shuffle(items)
    return items


def _gorenstein_failure(label, report):
    """{label: reason} unless the exported report is Gorenstein with every
    complementary pairing of full rank."""
    dims = report["dims"]
    top = len(dims) - 1
    if report["gorenstein"] is not True:
        return {label: "not Gorenstein"}
    if report["pairing_ranks"] != [min(dims[i], dims[top - i])
                                   for i in range(top + 1)]:
        return {label: f"pairing ranks {report['pairing_ranks']}"}
    return {}


def keel_boundary(seed, tmp):
    """Genus-0 Keel presentation with pairings for n = 4..6 and the H^2
    presentations: sparse +-1 relation rows, no series."""
    calls = {f"keel({n})": ("keel", 0, n) for n in (4, 5, 6)}
    calls.update({f"h2_rank({g},{n})": ("h2", g, n)
                  for g in range(3) for n in range(8)
                  if 2 * g - 2 + n > 0 and (g == 0 or n <= 5)})
    ops = []
    for label, (kind, g, n) in _shuffled(calls, seed):
        if kind == "keel":
            ops.append((label, lambda n=n: boundary.keel_quotient(n)
                        .report(with_pairings=True).export()))
        else:
            ops.append((label, lambda g=g, n=n: boundary.h2_rank(g, n)))

    def verify(results):
        bad = {}
        for label, value in results.items():
            kind, g, n = calls[label]
            if kind == "h2":
                if value != oracles.h2_rank(g, n):
                    bad[label] = f"rank {value}"
            elif value["dims"] != oracles.keel_betti(n):
                bad[label] = f"dims {value['dims']}"
            else:
                bad.update(_gorenstein_failure(label, value))
        return bad

    return ops, verify


def correlator_sweep():
    """Every degree-matching stable correlator with g <= 6 and n <= 6, as
    (g, exponents sorted non-increasing)."""
    def multisets(total, n, top):
        if n == 0:
            if total == 0:
                yield ()
            return
        for k in range(min(total, top), -1, -1):
            for rest in multisets(total - k, n - 1, k):
                yield (k,) + rest

    return [(g, exps) for g in range(7) for n in range(7)
            if 2 * g - 2 + n > 0
            for exps in multisets(3 * g - 3 + n, n, 3 * g - 3 + n)]


def _correlator_label(g, exps):
    return f"{g}:{','.join(map(str, exps))}"


def correlators_cold(seed, tmp):
    """Every stable correlator with g, n <= 6 in seed order, then the
    one-point correlators of genus 7..12, all from an empty memo."""
    queries = correlator_sweep()
    random.Random(seed).shuffle(queries)
    queries += [(g, (3 * g - 2,)) for g in range(7, 13)]
    ops = [(_correlator_label(g, exps),
            lambda g=g, exps=exps: correlators.psi_intersection(g, exps))
           for g, exps in queries]
    keys = {_correlator_label(g, exps): (g, exps) for g, exps in queries}

    def verify(results):
        values = {keys[label]: value for label, value in results.items()}
        return {_correlator_label(*key): reason for key, reason
                in oracles.correlator_failures(values)}

    return ops, verify


def build_warm_cache(seed, tmp):
    """Fill a cache file with the correlators_cold values, using the code
    under test, and record those values for the warm oracle.  Returns the
    number of wrong values among them."""
    ops, verify = correlators_cold(seed, tmp)
    results = {label: thunk() for label, thunk in ops}
    cache = CacheFile(os.path.join(tmp, "cache.json"))
    cache.collect(correlators.default_table)
    cache.save()
    with open(os.path.join(tmp, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({label: f"{v.numerator}/{v.denominator}"
                   for label, v in results.items()}, fh)
    return len(verify(results))


def correlators_warm(seed, tmp):
    """Sampled `tautrings correlator ... --cache` CLI calls, each starting
    from an empty memo as a fresh CLI process does: load and checksum the
    cache file, answer from the memo, save the file again."""
    path = os.path.join(tmp, "cache.json")
    with open(os.path.join(tmp, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    queries = random.Random(seed).sample(correlator_sweep(), WARM_QUERIES)

    def call(g, exps):
        correlators.default_table.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["correlator", str(g), ",".join(map(str, exps)),
                            "--cache", path, "--format", "json"])
        return code, out.getvalue()

    ops = [(_correlator_label(g, exps),
            lambda g=g, exps=exps: call(g, exps)) for g, exps in queries]

    def verify(results):
        bad = {}
        for label, (code, out) in results.items():
            if code != 0:
                bad[label] = f"exit code {code}"
                continue
            value = Fraction(json.loads(out)["value"])
            if value != Fraction(expected[label]):
                bad[label] = f"{value} != cold value {expected[label]}"
        return bad

    return ops, verify


def stable_graphs(seed, tmp):
    """Stable-graph enumeration for five (g, n) types and the decorated
    generator counts of (2, 2): no exact arithmetic at all."""
    calls = {f"enumerate_graphs({g},{n})": ("graphs", g, n)
             for g, n in oracles.STABLE_GRAPH_COUNTS}
    calls.update({f"generator_count(2,2,{d})": ("generators", d, None)
                  for d in range(6)})
    ops = []
    for label, (kind, a, b) in _shuffled(calls, seed):
        if kind == "graphs":
            ops.append((label, lambda g=a, n=b:
                        stablegraphs.enumerate_graphs(g, n)))
        else:
            ops.append((label, lambda d=a:
                        stablegraphs.generator_count(2, 2, d)))

    def verify(results):
        bad = {}
        for label, value in results.items():
            kind, a, b = calls[label]
            if kind == "generators":
                if value != oracles.GENERATOR_COUNTS_2_2[a]:
                    bad[label] = f"count {value}"
                continue
            if len(value) != oracles.STABLE_GRAPH_COUNTS[a, b]:
                bad[label] = f"{len(value)} graphs"
                continue
            for graph in value:
                reason = oracles.graph_failure(graph, a, b)
                if reason:
                    bad[label] = f"{graph!r}: {reason}"
                    break
        return bad

    return ops, verify


WORKLOADS = {
    "fz_ring": fz_ring,
    "keel_boundary": keel_boundary,
    "correlators_cold": correlators_cold,
    "correlators_warm": correlators_warm,
    "stable_graphs": stable_graphs,
}
