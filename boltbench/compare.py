#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per (workload, metric).

    python3 boltbench/compare.py A.jsonl B.jsonl [--benchmark BENCHMARK.json]

A is the parent (or the first set), B the change (or the second set). Each
file is the concatenated stdout of `run.py` runs; every detail line (the one
carrying "workload") is one run, and --trace runs are skipped. Bounds and
directions come from BENCHMARK.json's end_to_end list.

Verdict per row, following the choosing-metrics method:
  unresolved    either side's quartile spread is wider than the bound
                (unless every B run beats every A run: "better, every run")
  regressed     B's median is worse than A's by more than the bound
  within bound  otherwise

When A and B hold the same number of runs of a workload, run i of A and run
i of B form pair i (alternate which side runs first). The win rule claims a
gain only when B wins at least 9 of 10 pairs (ties count for neither) and
the medians differ by more than A's interquartile range.

Exit status: 1 when any row regressed, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "workload" not in record or record.get("trace"):
            continue
        values = {name: s["value"] for name, s in record["stats"].items()}
        runs.setdefault(record["workload"], []).append(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, lower):
    """True when b is strictly better than a."""
    return b < a if lower else b > a


def compare(metric, a, b):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a25, a50, a75 = quartiles(a)
    b25, b50, b75 = quartiles(b)
    spread = max((a75 - a25) / a50 if a50 else 0, (b75 - b25) / b50 if b50 else 0)
    change = (b50 - a50) / a50 if a50 else 0.0
    worse = change if lower else -change
    if spread > bound:
        if all(better(x, y, lower) for x in a for y in b):
            verdict = "better, every run"
        else:
            verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    wins = ""
    if len(a) == len(b):
        won = sum(better(x, y, lower) for x, y in zip(a, b))
        gain = won >= 0.9 * len(a) and abs(b50 - a50) > (a75 - a25)
        wins = f"{won}/{len(a)}{' gain' if gain else ''}"
    return (f"{a50:.4g} [{a25:.4g}, {a75:.4g}]", f"{b50:.4g} [{b25:.4g}, {b75:.4g}]",
            f"{change * 100:+.1f}%", f"{spread * 100:.1f}%", verdict, wins)


def main():
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=str(here.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    header = ("workload", "metric", "A median [p25, p75]", "B median [p25, p75]",
              "change", "spread", "verdict", "B wins")
    rows = [header]
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in runs_a[workload]]
            b = [r[name] for r in runs_b[workload]]
            row = compare(metric, a, b)
            regressed = regressed or row[4] == "regressed"
            rows.append((workload, f"{name} ({metric['unit']}, ±{metric['bound']:.0%})") + row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
