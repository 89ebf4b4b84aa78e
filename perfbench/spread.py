"""Run each workload with several seeds and report, per end-to-end metric,
the median over runs and the quartile spread (Q3 - Q1) / median, next to
the metric's bound from BENCHMARK.json.  Optionally adds one traced run per
workload and writes everything, with the machine facts, to a JSON file.

    python3 perfbench/spread.py --runs 10 --first-seed 100 \\
        [--workloads fz_ring,keel_boundary] [--traced] [--out FILE]

A spread above a third of the bound is flagged as not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = bench.load_spec()
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    report = {"machine": bench.machine_facts(), "run_seconds": seconds,
              "runs": args.runs, "workloads": {}}
    steady = True
    for workload in names:
        results = [one_run(workload, args.first_seed + k, seconds, 0)
                   for k in range(args.runs)]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values)
            ok = s <= m["bound"] / 3
            steady &= ok or m["name"] == "setup_s"
            entry["metrics"][m["name"]] = {
                "median": statistics.median(values), "spread": s,
                "unit": m["unit"], "values": values}
            print(f"{workload:18s} {m['name']:12s} median "
                  f"{statistics.median(values):10.5g} {m['unit']:4s} spread "
                  f"{s:.3f} (bound {m['bound']}){'' if ok else '  NOT STEADY'}")
        print(f"{workload:18s} {entry['failed']} of {entry['attempted']} "
              f"operations failed")
        if args.traced:
            traced = one_run(workload, args.first_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
