#!/usr/bin/env python3
"""Compare end-to-end metrics of a parent and a change, run as alternating pairs.

    compare.py --parent p1.json p2.json ... --change c1.json c2.json ...
               [--bench BENCHMARK.json]

Each file is the --json output of one `sdd_bench` invocation; traced runs are
skipped. The i-th parent run of a workload is paired with the i-th change run
of the same workload, so pass the files in the order they were run and
alternate which side runs first.

One row per workload x end-to-end metric: each side's median and quartiles
(statistics.quantiles, n=4), pair wins, and a verdict:

  improved    the change wins at least 9/10 of at least 10 pairs (ties count
              for neither side), the medians differ by more than the parent's
              own quartile spread, and no more requests failed than at the parent
  worse       the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the parent's spread, as a share of its median, is wider than the
              bound, and not every change run beats every parent run
  same        none of the above

Exits 1 when any row is worse.
"""
import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths):
    """{workload: [(metrics, failed), ...]} in file order, untraced runs only."""
    runs = {}
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            sys.exit(f"compare.py: cannot read {path}: {e}")
        for run in doc.get("runs", []):
            if run.get("trace"):
                continue
            result = run["result"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(run["workload"], []).append((metrics, result["failed"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, parent_failed, change_failed, better, bound):
    """Returns (verdict, wins, losses) for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > spread
            and change_failed <= parent_failed):
        return "improved", wins, losses
    if -gain > bound * abs(p_med):
        return "worse", wins, losses
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med != 0 and spread / abs(p_med) > bound and not all_better:
        return "unresolved", wins, losses
    return "same", wins, losses


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    header = (f"{'workload':<13} {'metric':<15} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'wins':>7}  verdict")
    print(header)
    worse = False
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, [])
        c_runs = change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:<13} (runs on one side only: parent {len(p_runs)}, "
                  f"change {len(c_runs)})")
            continue
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        p_failed = sum(failed for _, failed in p_runs)
        c_failed = sum(failed for _, failed in c_runs)
        for metric in metrics:
            name = metric["name"]
            p = [m[name] for m, _ in p_runs]
            c = [m[name] for m, _ in c_runs]
            result, wins, losses = verdict(p, c, p_failed, c_failed, metric["better"],
                                           metric["bound"])
            worse = worse or result == "worse"
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            print(f"{workload:<13} {name:<15} {pmed:>12.6g} [{pq1:.6g}, {pq3:.6g}]"
                  f"{'':>2} {cmed:>12.6g} [{cq1:.6g}, {cq3:.6g}] {wins:>3}/{n:<3}  {result}"
                  f"{'' if losses + wins == n else f' ({n - wins - losses} ties)'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
