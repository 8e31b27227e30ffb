#!/usr/bin/env python3
"""Steadiness report for the perfbench workloads.

Runs every workload in BENCHMARK.json K times, alternating workloads
(w1 w2 w3 w1 w2 w3 ...), run k of each with seed k, through the command in
BENCHMARK.json. A first round with seed 0 builds the program and warms the
host up, and is not reported: after the host has been idle, throughput
rises by up to half over the first tens of seconds of load. For every
end-to-end metric it prints the median, the quartiles, IQR / median (the
spread, with quartiles as statistics.quantiles(values, n=4) gives them)
and the metric's bound, and flags a spread at or above a third of the
bound or above the bound. It also prints every run's steal and every
run's value in run order, so a wide spread can be traced to the host or
to a drift.

The set is saved as JSON (each run's result and header lines). Given
earlier saved sets, it prints for every metric and workload how far this
set's median is worse than each earlier set's, as a share of the earlier
median, and flags a difference above the bound.

    python3 _perfbench/steady.py                          # 10 runs of every workload
    python3 _perfbench/steady.py --runs 10 .bench_build/steady-20261017-070000.json

Run it from the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def spread(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (K)")
    ap.add_argument("earlier", nargs="*", help="sets saved by earlier runs of this report, to compare medians with")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    earlier = []
    for path in args.earlier:
        with open(path) as f:
            earlier.append((path, json.load(f)))

    runs = []
    for seed in range(args.runs + 1):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {out.returncode}:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            m = re.search(r"steal_pct=([0-9.]+)", out.stdout)
            run = {"workload": w, "seed": seed, "steal": float(m.group(1)) if m else float("nan"),
                   "result": res, "header": lines[:-1]}
            if seed > 0:
                runs.append(run)
            label = f"run {seed}/{args.runs}" if seed > 0 else "warm-up"
            print(f"{label} {w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} steal={run['steal']:.2f}%",
                  file=sys.stderr, flush=True)

    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(build, exist_ok=True)
    path = os.path.join(build, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump({"run_seconds": spec["run_seconds"], "runs": runs}, f)
    print(f"set saved to {path}")

    this = values(runs)
    for w in workloads:
        steal = [r["steal"] for r in runs if r["workload"] == w]
        print(f"\n{w}: steal per run (%) " + " ".join(f"{s:.2f}" for s in steal))
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name in sorted(this[w]):
            med, q1, q3, sp = spread(this[w][name])
            bound = e2e[name]["bound"]
            flag = ""
            if sp > bound:
                flag = "  <-- spread above the bound"
            elif sp >= bound / 3:
                flag = "  <-- spread at or above bound/3"
            print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {bound:6.3f}{flag}")
        print("  per run, in run order:")
        for name in sorted(this[w]):
            print(f"  {name:14s} " + " ".join(f"{v:.5g}" for v in this[w][name]))

    for epath, eset in earlier:
        before = values(eset["runs"])
        print(f"\nmedian worse than in {epath} by (share of its median; negative is better):")
        print(f"  {'metric':14s} " + " ".join(f"{w:>10s}" for w in workloads) + f" {'bound':>6s}")
        for name in sorted(e2e):
            cells = []
            for w in workloads:
                if name not in before.get(w, {}) or name not in this[w]:
                    cells.append(f"{'-':>10s}")
                    continue
                b, a = statistics.median(before[w][name]), statistics.median(this[w][name])
                worse = (b - a if e2e[name]["better"] == "higher" else a - b) / abs(b) if b else 0.0
                cells.append(f"{worse:+9.4f}" + ("!" if worse > e2e[name]["bound"] else " "))
            print(f"  {name:14s} " + " ".join(cells) + f" {e2e[name]['bound']:6.3f}")
        print("  ! marks a median worse by more than the bound")
    return 0


def values(runs):
    """Per workload, per metric, the values in run order."""
    out = {}
    for r in runs:
        for name, v in r["result"]["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(v["value"])
    return out


if __name__ == "__main__":
    sys.exit(main())
