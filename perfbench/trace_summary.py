#!/usr/bin/env python3
"""Summarise a traced benchmark run: per-layer busy time, self time and
call counts, and the tracing overhead on the end-to-end metrics.

    python3 perfbench/trace_summary.py SPANS.jsonl [RESULTS.jsonl]

SPANS.jsonl is what `run.py --trace 1` writes under <build>/spans/. A
span's layer is its name up to the first '.', e.g. "stream/wal" for
"stream/wal.append". Busy time is the sum of a span's durations. Self
time is busy time minus the time its child spans cover; children sit on
the parent's lane, which runs one call at a time, so they never overlap.
Times are per traced round, so runs of different lengths compare.

The overhead table sets each end-to-end metric of the traced rounds
against the untraced rounds of the same run (the last traced record for
the workload in RESULTS.jsonl). Traced rounds also make the per-layer
shadow calls, so the overhead covers those calls' effect on the caches
and the background threads as well as the span bookkeeping.
Standard library only.
"""

import json
import sys
from collections import defaultdict


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def layer_of(name):
    return name.partition(".")[0]


def layer_table(spans):
    """Per workload: {span name: [calls, busy_ns, self_ns]}, the same per
    layer, and the number of traced rounds. A layer's busy time counts
    only its outermost spans, so nested calls within one layer are not
    counted twice."""
    by_name = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    by_layer = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    rounds = defaultdict(set)
    child_ns = defaultdict(int)
    name_at = {}
    for s in spans:
        name_at[(s["workload"], s["lane"], s["index"])] = s["name"]
        if s["parent"] >= 0:
            child_ns[(s["workload"], s["lane"], s["parent"])] += (
                s["end_ns"] - s["start_ns"])
    for s in spans:
        w = s["workload"]
        dur = s["end_ns"] - s["start_ns"]
        self_ns = dur - child_ns[(w, s["lane"], s["index"])]
        parent = name_at.get((w, s["lane"], s["parent"]), "")
        outermost = layer_of(parent) != layer_of(s["name"])
        for row, busy in ((by_name[w][s["name"]], dur),
                          (by_layer[w][layer_of(s["name"])],
                           dur if outermost else 0)):
            row[0] += 1
            row[1] += busy
            row[2] += self_ns
        rounds[w].add(s["round"])
    return by_name, by_layer, {w: len(r) for w, r in rounds.items()}


def report(spans_path, record=None, out=sys.stdout):
    by_name, by_layer, rounds = layer_table(load_spans(spans_path))
    for workload in sorted(by_name):
        r = max(1, rounds[workload])
        print(f"\n{workload}: {r} traced round(s); times per round", file=out)
        for title, table in (("layer", by_layer), ("span", by_name)):
            print(f"  {title:52} {'calls':>8} {'busy_s':>10} {'self_s':>10}",
                  file=out)
            for name, (count, busy, self_) in sorted(
                    table[workload].items(), key=lambda kv: -kv[1][1]):
                print(f"  {name:52} {count / r:8.1f} {busy / r * 1e-9:10.4f} "
                      f"{self_ / r * 1e-9:10.4f}", file=out)
    if record and "traced_end_to_end" in record:
        print("\ntracing overhead (traced rounds vs untraced rounds of the "
              "same run):", file=out)
        print(f"  {'metric':22} {'untraced':>14} {'traced':>14} "
              f"{'change':>8}", file=out)
        for name, u in sorted(record["end_to_end"].items()):
            t = record["traced_end_to_end"].get(name)
            if t is None or name in ("peak_rss_mb", "setup_s"):
                continue
            change = (t["value"] / u["value"] - 1) * 100 if u["value"] else 0
            print(f"  {name:22} {u['value']:14.6g} {t['value']:14.6g} "
                  f"{change:+7.1f}%", file=out)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    record = None
    if len(argv) == 3:
        with open(argv[2]) as f:
            traced = [json.loads(line) for line in f if line.strip()]
        spans = load_spans(argv[1])
        workloads = {s["workload"] for s in spans}
        traced = [r for r in traced if "traced_end_to_end" in r and
                  r.get("context", {}).get("workload") in workloads]
        record = traced[-1] if traced else None
    report(argv[1], record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
