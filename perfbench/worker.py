"""One benchmark pass in a fresh process: import tautrings, generate the
workload's inputs, make the calls, check the results against the oracles,
and print one JSON line with the measurements.

    python3 perfbench/worker.py MODE WORKLOAD SEED TMPDIR SPAWNED [SPANS]

MODE is `setup` (stop after the inputs exist), `build` (fill the warm
workload's cache file), `run` (untraced pass) or `trace` (traced pass that
writes its spans to SPANS).  SPAWNED is the `time.monotonic()` reading of
the parent just before it started this process.
"""

import json
import os
import resource
import sys
import time

import speed

EXIT_NO_PROGRAM = 3

# The warm workload mostly parses and writes the JSON cache file, and that
# slows under contention more than arithmetic does, so its speed probe does
# the same kind of work; every other workload is exact arithmetic.
PROBE_CHUNK = {"correlators_warm": "json"}


def main(argv):
    probe = speed.SpeedProbe(PROBE_CHUNK.get(argv[1], "fraction"))
    probe.start(speed.SETUP_PERIOD_S)
    try:
        return measure(probe, *argv)
    finally:
        probe.stop()


def measure(probe, mode, workload, seed, tmp, spawned, spans=None):
    seed, spawned = int(seed), float(spawned)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    try:
        import tautrings
    except ImportError as exc:
        print(f"cannot import tautrings: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if os.path.dirname(os.path.dirname(os.path.abspath(
            tautrings.__file__))) != src:
        print(f"tautrings imported from {tautrings.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads

    if mode == "build":
        probe.stop()
        wrong = workloads.build_warm_cache(seed, tmp)
        print(json.dumps({"wrong": wrong}))
        return 0

    ops, verify = workloads.WORKLOADS[workload](seed, tmp)
    ready = time.monotonic()
    out = {"setup_raw_s": ready - spawned - probe.probe_seconds(spawned, ready),
           "setup_s": probe.reference_seconds(spawned, ready),
           "ops": len(ops)}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
        tracer.install()
        ops = [(label, tracer.span("op", thunk)) for label, thunk in ops]

    results, errors = {}, {}
    probe.start(speed.PERIOD_S)
    cpu0 = time.process_time()
    start = time.monotonic()
    for label, thunk in ops:
        try:
            results[label] = thunk()
        except Exception as exc:  # an operation that raises has failed
            errors[label] = f"{type(exc).__name__}: {exc}"
    end = time.monotonic()
    cpu_s = time.process_time() - cpu0
    probe.stop()

    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = tracer.metrics()
        tracer.write(spans, start)
    errors.update(verify(results))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(
        wall_raw_s=end - start - probe.probe_seconds(start, end),
        wall_s=probe.reference_seconds(start, end),
        cpu_s=cpu_s, peak_rss_mb=usage.ru_maxrss / 1024,
        failed=len(errors), failures=dict(list(errors.items())[:5]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
