#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]
                                 [--per-layer]

BASE and CHANGE are results files written by run.py (JSON lines, one
record per run) or directories holding such files. Typically BASE holds
the parent commit's runs and CHANGE the change's, made with the same
benchmark code and --seconds.

For each workload and end-to-end metric it prints both sides' median and
quartiles (statistics.quantiles, n=4) and the change of the median, then
gives a verdict:

  worse       the change's median is worse than the base median by more
              than the metric's bound in BENCHMARK.json
  better      the change wins at least 9 in 10 of the pairs (ties count
              for neither) and the medians differ by more than the base's
              own interquartile distance
  unresolved  either side spreads wider than the bound and the change
              is not better on every run
  same        none of the above

Pairs join runs of the same seed; without common seeds they join runs in
order. The exit code is 1 if any metric is worse. --per-layer also prints
medians of the per-layer metrics of traced runs (they have no bound).
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records, traced):
    out = {}
    for r in records:
        ctx = r.get("context", {})
        if bool(ctx.get("trace")) == traced:
            out.setdefault(ctx.get("workload"), []).append(r)
    return out


def pairs(base, change):
    bseed = {r["context"]["seed"]: r for r in base}
    common = [r for r in change if r["context"]["seed"] in bseed]
    if common:
        return [(bseed[r["context"]["seed"]], r) for r in common]
    return list(zip(base, change))


def verdict(spec, base_vals, change_vals, paired):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b1, bmed, b3 = quartiles(base_vals)
    c1, cmed, c3 = quartiles(change_vals)

    def better(c, b):
        return c < b if lower else c > b

    worse_by = (cmed - bmed) if lower else (bmed - cmed)
    if bmed and worse_by / abs(bmed) > bound:
        return "worse"
    wins = sum(better(c, b) for b, c in paired)
    ties = sum(c == b for b, c in paired)
    decided = len(paired) - ties
    if (paired and wins >= 0.9 * len(paired) and decided > 0 and
            abs(cmed - bmed) > (b3 - b1)):
        return "better"
    spread = max((b3 - b1) / abs(bmed) if bmed else 0,
                 (c3 - c1) / abs(cmed) if cmed else 0)
    all_better = all(better(c, b) for c in change_vals for b in base_vals)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    base_all, change_all = load(args.base), load(args.change)
    base, change = by_workload(base_all, False), by_workload(change_all, False)

    any_worse = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in change:
            print(f"\n{w}: missing on one side "
                  f"(base {len(base.get(w, []))}, change "
                  f"{len(change.get(w, []))} runs)")
            continue
        paired = pairs(base[w], change[w])
        print(f"\n{w}: base {len(base[w])} runs, change {len(change[w])} "
              f"runs, {len(paired)} pairs")
        print(f"  {'metric':20} {'unit':8} {'base median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'Δmedian':>8}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base[w]
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change[w]
                  if name in r["metrics"]]
            if not bv or not cv:
                print(f"  {name:20} missing")
                continue
            pv = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                  for b, c in paired
                  if name in b["metrics"] and name in c["metrics"]]
            v = verdict(m, bv, cv, pv)
            any_worse |= v == "worse"
            b1, bmed, b3 = quartiles(bv)
            c1, cmed, c3 = quartiles(cv)
            delta = (cmed / bmed - 1) * 100 if bmed else float("nan")
            print(f"  {name:20} {m['unit']:8} "
                  f"{bmed:12.5g} [{b1:9.4g}, {b3:9.4g}]  "
                  f"{cmed:12.5g} [{c1:9.4g}, {c3:9.4g}]  "
                  f"{delta:+7.1f}%  {v}")

    if args.per_layer:
        tb, tc = by_workload(base_all, True), by_workload(change_all, True)
        for w in sorted(set(tb) & set(tc)):
            print(f"\n{w} per-layer medians (traced runs: base {len(tb[w])}, "
                  f"change {len(tc[w])})")
            for m in spec["per_layer"]:
                name = m["name"]
                bv = [r["metrics"][name]["value"] for r in tb[w]]
                cv = [r["metrics"][name]["value"] for r in tc[w]]
                print(f"  {name:30} {m['unit']:8} "
                      f"{statistics.median(bv):14.6g} "
                      f"{statistics.median(cv):14.6g}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
