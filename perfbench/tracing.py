"""Spans and counts taken at the layer boundaries of tautrings, from outside.

`Tracer.install` replaces public functions and methods with wrappers that
record a span (name, start, end, parent span, run id) and update counts.
Names imported by value are patched where the caller looks them up, e.g.
`relationgen.series_exp` and `tautring.fz_relation_set`; methods are
patched on their class.  Spans stay in memory until `write`.
"""

import json
import os
import time
from collections import Counter, defaultdict

from tautrings import (boundary, cache, cli, correlators, relationgen,
                       stablegraphs, tautring)
from tautrings.exactmath import linalg, quotient

# Units of the per-layer metrics.
COUNT, SECONDS, RATIO, BYTES = "count", "s", "ratio", "bytes"


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._restore = []

    def span(self, name, fn, on_result=None):
        """Wrap `fn` so that each call records a span named `name`; the
        optional `on_result(args, result)` updates counts."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, time.monotonic(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, owner, attr, name, on_result=None):
        self._patch(owner, attr,
                    self.span(name, getattr(owner, attr), on_result))

    def _add(self, key, amount_of):
        def on_result(args, result):
            self.counts[key] += amount_of(args, result)
        return on_result

    def install(self):
        """Patch every layer boundary the per-layer metrics read."""
        counts = self.counts
        self._spanned(correlators, "psi_intersection",
                      "correlators.psi_intersection")
        table = correlators.CorrelatorTable
        get, put = table.get, table.put

        def counted_get(self_, g, exps):
            value = get(self_, g, exps)
            counts["memo.gets"] += 1
            counts["memo.hits"] += value is not None
            return value

        def counted_put(self_, g, exps, value):
            counts["memo.puts"] += 1
            return put(self_, g, exps, value)

        self._patch(table, "get", counted_get)
        self._patch(table, "put", counted_put)

        self._spanned(tautring, "fz_relation_set", "relationgen.fz_relation_set",
                      self._add("relations", lambda a, r: len(r)))
        for name in ("series_exp", "series_log"):
            self._spanned(relationgen, name, f"series.{name}",
                          self._add(f"{name}.terms", lambda a, r: len(r.coeffs)))

        gq = quotient.GradedQuotient
        self._spanned(gq, "__init__", "quotient.build", self._add(
            "monomials", lambda a, r: sum(len(a[0].monomials(d))
                                          for d in range(a[0].max_degree + 1))))
        self._spanned(gq, "report", "quotient.report")
        self._spanned(linalg.SparseEchelon, "add_row", "linalg.add_row",
                      self._add("add_row.useful", lambda a, r: bool(r)))

        for name in ("keel_fourpoint_relations",
                     "keel_incompatibility_relations"):
            self._spanned(boundary, name, "boundary.relations",
                          self._add("boundary.relations", lambda a, r: len(r)))
        self._spanned(boundary, "h2_rank", "boundary.h2_rank")

        self._spanned(stablegraphs, "enumerate_graphs",
                      "stablegraphs.enumerate_graphs",
                      self._add("graphs_out", lambda a, r: len(r)))
        self._spanned(stablegraphs.StableGraph, "canonical_form",
                      "stablegraphs.canonical_form")

        self._spanned(cache.CacheFile, "load", "cache.load")
        self._spanned(cache.CacheFile, "save", "cache.save", self._add(
            "cache.file_bytes", lambda a, r: os.path.getsize(a[0].path)))
        self._spanned(cache.CacheFile, "attach_correlators", "cache.attach")
        self._spanned(cli, "run", "cli.run")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: number of calls, summed duration, summed self
        time (duration minus the time covered by direct children)."""
        calls, total, child = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        return calls, total, self_time

    def metrics(self):
        """The benchmark's per-layer metrics as {name: (value, unit)}."""
        calls, total, self_time = self.totals()
        c = self.counts
        gets, saves = c["memo.gets"], calls["cache.save"]
        return {
            "correlators.psi_intersection.calls":
                (calls["correlators.psi_intersection"], COUNT),
            "correlators.psi_intersection.s":
                (total["correlators.psi_intersection"], SECONDS),
            "correlators.memo.entries":
                (len(correlators.default_table), COUNT),
            "correlators.memo.gets": (gets, COUNT),
            "correlators.memo.hit_ratio": (_ratio(c["memo.hits"], gets), RATIO),
            "correlators.memo.puts": (c["memo.puts"], COUNT),
            "relationgen.fz_relation_set.calls":
                (calls["relationgen.fz_relation_set"], COUNT),
            "relationgen.fz_relation_set.s":
                (total["relationgen.fz_relation_set"], SECONDS),
            "relationgen.fz_relation_set.self_s":
                (self_time["relationgen.fz_relation_set"], SECONDS),
            "relationgen.relations": (c["relations"], COUNT),
            "series.series_exp.calls": (calls["series.series_exp"], COUNT),
            "series.series_exp.s": (total["series.series_exp"], SECONDS),
            "series.series_exp.terms_out": (c["series_exp.terms"], COUNT),
            "series.series_log.calls": (calls["series.series_log"], COUNT),
            "series.series_log.s": (total["series.series_log"], SECONDS),
            "series.series_log.terms_out": (c["series_log.terms"], COUNT),
            "quotient.build.s": (total["quotient.build"], SECONDS),
            "quotient.build.self_s": (self_time["quotient.build"], SECONDS),
            "quotient.monomials": (c["monomials"], COUNT),
            "quotient.report.s": (total["quotient.report"], SECONDS),
            "linalg.add_row.calls": (calls["linalg.add_row"], COUNT),
            "linalg.add_row.s": (total["linalg.add_row"], SECONDS),
            "linalg.add_row.useful_ratio":
                (_ratio(c["add_row.useful"], calls["linalg.add_row"]), RATIO),
            "linalg.rank": (c["add_row.useful"], COUNT),
            "boundary.relations.s": (total["boundary.relations"], SECONDS),
            "boundary.relations.count": (c["boundary.relations"], COUNT),
            "boundary.h2_rank.s": (total["boundary.h2_rank"], SECONDS),
            "stablegraphs.enumerate_graphs.s":
                (total["stablegraphs.enumerate_graphs"], SECONDS),
            "stablegraphs.enumerate_graphs.self_s":
                (self_time["stablegraphs.enumerate_graphs"], SECONDS),
            "stablegraphs.graphs_out": (c["graphs_out"], COUNT),
            "stablegraphs.canonical_form.calls":
                (calls["stablegraphs.canonical_form"], COUNT),
            "stablegraphs.canonical_form.s":
                (total["stablegraphs.canonical_form"], SECONDS),
            "stablegraphs.dedupe_yield":
                (_ratio(c["graphs_out"], calls["stablegraphs.canonical_form"]),
                 RATIO),
            "cache.load.s": (total["cache.load"], SECONDS),
            "cache.save.s": (total["cache.save"], SECONDS),
            "cache.attach.s": (total["cache.attach"], SECONDS),
            "cache.file_bytes":
                (c["cache.file_bytes"] // saves if saves else 0, BYTES),
            "cli.run.calls": (calls["cli.run"], COUNT),
            "cli.run.self_s": (self_time["cli.run"], SECONDS),
        }

    def write(self, path, origin):
        """Write the spans as JSON, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[n, round(s - origin, 7), round(e - origin, 7), p]
                                 for n, s, e, p in self.spans]}, fh)
