#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload N times, one seed per round, alternating the workload
order between rounds, then prints for each end-to-end metric the median,
the quartiles, the quartile spread and (max - min) as shares of the
median, beside the bound BENCHMARK.json gives it. Run from the repository
root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads cold_start --seed 11

A quartile spread above a third of its bound is flagged `WIDE`; one above
the bound itself is flagged `OVER`. Exits 1 if any run fails or is
incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    ok = True
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result = run_once(spec["command"], w, args.seed + r, args.seconds)
            ok &= result["correct"]
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {r + 1}/{args.runs} {w} seed {args.seed + r}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    for w in workloads:
        print(f"\n{w}: failed share {sorted(shares[w])}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = values[w].get(m["name"], [])
            if len(vals) < 2:
                print(f"  {m['name']:<34} missing")
                ok = False
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            bound = m["bound"]
            flag = "OVER" if iqr > bound else "WIDE" if iqr > bound / 3 else ""
            print(f"  {m['name']:<34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{iqr:8.3f} {rng:8.3f} {bound:6.2f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
