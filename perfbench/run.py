"""Benchmark of tautrings: time to a verified result, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from anywhere; the program is taken from `src/` next to this directory.
Every pass is a fresh worker process (perfbench/worker.py) with cold memos,
no inherited PYTHONPATH or TAUTRINGS_CACHE, and a time limit; a killed or
crashed pass counts all its operations as failed.  Passes repeat until
`--seconds` is spent (at least MIN_PASSES), and each metric is the median
over passes.  Times are in reference seconds (see speed.py).  With
`--trace 1` a few untraced passes give the baseline and TRACED_PASSES
traced passes give the per-layer metrics; their counts must agree exactly.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every metric
with its unit.  Full results, machine facts and spans go to `.bench_out/`.
Exits with code 2, printing no result, when the program is not there.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from worker import EXIT_NO_PROGRAM as WORKER_NO_PROGRAM

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

MIN_PASSES = 3
SETUP_SAMPLES = 7      # setup-only workers per run, besides the passes
TRACED_PASSES = 2
PASS_LIMIT_S = 60      # a pass that runs longer is killed and fails
RUN_LIMIT_S = 165      # no pass may end later than this into the run
EXIT_NO_PROGRAM = 2


class NoProgram(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


class Run:
    """One run of one workload: its worker processes and their results."""

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.failures = {}
        self.ops = None

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, mode, spans=None):
        """Run one worker; its JSON result, or None if it was killed or
        crashed."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "TAUTRINGS_CACHE")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        timeout = max(min(PASS_LIMIT_S, self.remaining()), 1)
        spawned = time.monotonic()
        argv = [sys.executable, WORKER, mode, self.workload, str(self.seed),
                self.tmp, repr(spawned)] + ([spans] if spans else [])
        try:
            proc = subprocess.run(argv, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.note(mode, f"killed after {timeout:.0f} s")
            return None
        if proc.returncode == WORKER_NO_PROGRAM:
            raise NoProgram(proc.stderr.strip())
        if proc.returncode != 0:
            self.note(mode, f"worker exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def note(self, where, reason):
        self.failures.setdefault(where, reason)

    def prepare(self):
        """Fill the warm cache (warm workload only) and import once, so that
        bytecode compilation is not in any timed sample.  False if the
        program failed there."""
        if self.workload == "correlators_warm":
            built = self.spawn("build")
            if built is None:
                return False
            if built["wrong"]:
                self.note("build", f"{built['wrong']} wrong correlators")
                return False
        first = self.spawn("setup")
        if first is None:
            return False
        self.ops = first["ops"]
        return True

    def pass_(self, mode, spans=None):
        """One measured pass; counts its operations; None if it failed."""
        self.attempted += self.ops
        result = self.spawn(mode, spans)
        if result is None:
            self.failed += self.ops
            return None
        self.failed += result["failed"]
        for label, reason in result["failures"].items():
            self.note(label, reason)
        return result

    def passes(self, mode, seconds, at_least):
        """Repeat passes until `seconds` is spent, `at_least` of them."""
        done, lengths, begin = [], [], time.monotonic()
        while True:
            spent = time.monotonic() - begin
            if len(done) >= at_least and (
                    spent + statistics.median(lengths) > seconds):
                break
            if lengths and self.remaining() < max(lengths):
                break
            t = time.monotonic()
            result = self.pass_(mode)
            lengths.append(time.monotonic() - t)
            if result is None:
                break
            done.append(result)
        return done


def describe(values):
    if not values or len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (median of {len(values)}, quartiles {q1:.6g}..{q3:.6g})"


def end_to_end(run, seconds):
    setups = [run.spawn("setup") for _ in range(SETUP_SAMPLES)]
    passes = run.passes("run", seconds, MIN_PASSES)
    if not passes:
        return {}, {}
    samples = {name: [p[name] for p in passes]
               for name in ("wall_s", "wall_raw_s", "peak_rss_mb")}
    for name in ("setup_s", "setup_raw_s"):
        samples[name] = [s[name] for s in setups + passes if s]
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def per_layer(run, seconds):
    base = run.passes("run", seconds / 2, 1)
    traced = []
    for k in range(TRACED_PASSES):
        spans = os.path.join(OUT_DIR, f"{run.workload}-seed{run.seed}"
                             f"-spans{k}.json")
        result = run.pass_("trace", spans)
        if result is None:
            break
        traced.append(result)
    if not traced or not base:
        return {}, {}
    metrics = {}
    for name, (value, unit) in traced[0]["metrics"].items():
        if unit == "s":
            value = statistics.median(t["metrics"][name][0] for t in traced)
        else:
            for other in traced[1:]:
                if other["metrics"][name][0] != value:
                    run.note("nondeterminism", f"{name}: {value} vs "
                             f"{other['metrics'][name][0]} across passes")
        metrics[name] = value
    metrics["worker.cpu_s"] = statistics.median(t["cpu_s"] for t in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(p["wall_s"] for p in base))
    samples = {"untraced_wall_s": [p["wall_s"] for p in base],
               "traced_wall_s": [t["wall_s"] for t in traced]}
    return metrics, samples


def run_workload(spec, workload, seed, seconds, trace):
    """Measure one workload; returns the result object the driver reads."""
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=TMP_DIR)
    run = Run(workload, seed, tmp)
    try:
        if run.prepare():
            measure = per_layer if trace else end_to_end
            values, samples = measure(run, seconds)
        else:
            run.attempted = run.failed = 1
            values, samples = {}, {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = spec["per_layer" if trace else "end_to_end"]
    facts = machine_facts()
    complete = all(m["name"] in values for m in declared)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    correct = complete and run.failed == 0 and not run.failures
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}

    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu']!r} "
          f"python={facts['python']}")
    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{run.attempted} operations, {run.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}"
              f"{describe(samples.get(name))}")
    for name in sorted(samples.keys() - metrics.keys()):
        print(f"  {name:42s} {statistics.median(samples[name]):.6g} s"
              f"{describe(samples[name])}")
    if not trace:
        print(f"  {'ops_failed_ratio':42s} "
              f"{run.failed / max(run.attempted, 1):.6g} ratio")
    for where, reason in list(run.failures.items())[:10]:
        print(f"  FAILED {where}: {reason}")
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "workload": workload, "seed": seed,
                   "seconds": seconds, "trace": trace, "result": result,
                   "samples": samples, "failures": run.failures}, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        ap.error(f"unknown workload; choose from {', '.join(names)} or all")
    if not os.path.isfile(os.path.join(ROOT, "src", "tautrings",
                                       "__init__.py")):
        print(f"no tautrings sources under {ROOT}/src", file=sys.stderr)
        return EXIT_NO_PROGRAM
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, seconds, args.trace)
                   for w in chosen}
    except NoProgram as exc:
        print(f"cannot run the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
