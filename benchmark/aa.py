#!/usr/bin/env python3
"""A/A comparison: the same build against itself.

Runs N alternating sets of the benchmark (A1 B1 A2 B2 ...), each pair on
a seed of its own, and prints for every (workload, end-to-end metric)
the two medians, how much worse B's is than A's, and the inter-quartile
spread of each set as a share of its median, beside the bound
BENCHMARK.json fixes. Exits 1 if a median difference or a spread exceeds
its bound; the spread of setup_s is printed but not judged, as in the
driver.

    benchmark/aa.sh 10                      # all four workloads
    benchmark/aa.sh 5 kiosk_hot wire_closed # two of them
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) < 2 or not sys.argv[1].isdigit():
        sys.exit(__doc__)
    runs = int(sys.argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
    exceeded = []
    print(f"{'workload':<14}{'metric':<18}{'median A':>14}{'median B':>14}"
          f"{'B worse':>9}{'IQR A':>8}{'IQR B':>8}{'bound':>7}")
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(runs):
            for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
                sets[label].append(
                    run_once(spec["command"], workload, 1000 + i, spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            over = abs(worse) > bound or (name != "setup_s" and max(sa, sb) > bound)
            if over:
                exceeded.append(f"{workload}/{name}")
            print(f"{workload:<14}{name:<18}{ma:>14.4f}{mb:>14.4f}"
                  f"{worse:>+9.1%}{sa:>8.1%}{sb:>8.1%}{bound:>7.0%}"
                  f"{'  EXCEEDED' if over else ''}", flush=True)
    if exceeded:
        sys.exit("bound exceeded: " + ", ".join(exceeded))
    print("every median difference and spread is within its bound")


if __name__ == "__main__":
    main()
