#!/usr/bin/env python3
"""Summarises saved benchmark runs.

Each LOG is the captured stdout of one `perfbench/run.py` run.

    python3 perfbench/compare.py spread LOG...
        Per workload and metric: median, quartiles and the spread
        (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py diff --base LOG... --head LOG...
        Per workload and metric: base and head medians and the change, as a
        share of the base median, against the bound. Runs whose host/build
        context differs are reported as not comparable, never as a change.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: m for m in spec["per_layer"]})
    return out


def load(path):
    """(workload, context, result) of one run log."""
    workload = context = None
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    for line in lines:
        if line.startswith("perfbench "):
            workload = line.split()[1]
        elif line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    return workload, context, json.loads(lines[-1])


def group(paths):
    runs = {}
    for p in paths:
        try:
            workload, context, result = load(p)
        except (IndexError, ValueError):
            print(f"skipping {p}: no result line", file=sys.stderr)
            continue
        runs.setdefault(workload, []).append((context, result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(paths):
    meta = bounds()
    for workload, runs in sorted(group(paths).items()):
        failed = sum(r["failed"] for _, r in runs)
        print(f"{workload}: {len(runs)} runs, failed ops {failed}")
        for name in runs[0][1]["metrics"]:
            vals = [r["metrics"][name]["value"] for _, r in runs]
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else 0.0
            bound = meta.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if rel <= bound / 3 else (
                    "WIDE" if rel <= bound else "OVER BOUND")
            print(f"  {name:28s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {rel:7.4f}  "
                  f"bound {bound if bound is not None else '-'} {flag}")


def diff(base_paths, head_paths):
    meta = bounds()
    base, head = group(base_paths), group(head_paths)
    for workload in sorted(set(base) & set(head)):
        contexts = {json.dumps(c, sort_keys=True)
                    for c, _ in base[workload] + head[workload]}
        if len(contexts) > 1:
            print(f"{workload}: not comparable (host/build context differs)")
            for c in sorted(contexts):
                print(f"  {c}")
            continue
        print(f"{workload}:")
        for name in base[workload][0][1]["metrics"]:
            b = statistics.median(r["metrics"][name]["value"]
                                  for _, r in base[workload])
            h = statistics.median(r["metrics"][name]["value"]
                                  for _, r in head[workload])
            m = meta.get(name, {})
            change = (h - b) / b if b else 0.0
            worse = change if m.get("better") == "lower" else -change
            verdict = ""
            if "bound" in m:
                verdict = "REGRESSION" if worse > m["bound"] else "within bound"
            print(f"  {name:28s} base {b:14.6g}  head {h:14.6g}  "
                  f"change {change:+8.4f}  {verdict}")


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        spread(argv[1:])
    elif len(argv) >= 4 and argv[0] == "diff" and "--head" in argv:
        i = argv.index("--head")
        diff([p for p in argv[1:i] if p != "--base"], argv[i + 1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
