"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that ``run.py --record FILE`` appends; run
the two commits alternately so that the i-th record of each side forms a
pair. For every metric the tool prints both sides' median and quartiles and
a verdict:

- ``gain`` / ``loss``: at least ten pairs, the change wins (or loses) at
  least nine tenths of them, ties counting for neither, and the medians
  differ by more than the parent's interquartile distance;
- ``regression``: an end-to-end metric whose change median is worse than
  the parent's by more than the bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread (interquartile distance over
  median) is wider than the bound, and not every change run beats every
  parent run;
- ``same``: none of the above.

Per-layer metrics have no bound, so they get ``gain``, ``loss`` or
``same`` only. The exit code is 1 when any regression is found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
HIGHER_IS_BETTER_SUFFIXES = ("gflop_per_s", "cpu_util")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher_better: bool, bound) -> tuple[str, str]:
    """Apply the pairing rule to one metric; returns (verdict, wins text)."""
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    moved = abs(c_med - p_med) > (p_q3 - p_q1)
    enough = len(pairs) >= MIN_PAIRS
    wins_text = f"{wins}/{losses}/{len(pairs)}"
    if enough and moved and wins >= WIN_SHARE * len(pairs):
        return "gain", wins_text
    if bound is not None:
        spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
        every_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if spread > bound and not every_better:
            return "unresolved", wins_text
        if sign * (c_med - p_med) < -bound * abs(p_med):
            return "regression", wins_text
    if enough and moved and losses >= WIN_SHARE * len(pairs):
        return "loss", wins_text
    return "same", wins_text


def load(path: str) -> dict:
    """(workload, trace) -> metric -> values, in file order."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, metric in rec["metrics"].items():
                    out[(rec["workload"], rec["trace"])][name].append(metric["value"])
    return out


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        for name in parent[key]:
            if name not in change[key]:
                continue
            p, c = parent[key][name], change[key][name]
            if name in bounds:
                higher, bound = bounds[name]["better"] == "higher", bounds[name]["bound"]
            else:
                higher, bound = name.endswith(HIGHER_IS_BETTER_SUFFIXES), None
            result, wins = verdict(p, c, higher, bound)
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "parent": quartiles(p), "change": quartiles(c),
                "wins": wins, "verdict": result,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load(args.parent), load(args.change), spec)
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"== {workload}  (median [q1, q3]; wins/losses/pairs)")
        p, c = row["parent"], row["change"]
        print(
            f"  {row['metric']:<46} {p[1]:>11.5g} [{p[0]:.5g}, {p[2]:.5g}]"
            f" -> {c[1]:>11.5g} [{c[0]:.5g}, {c[2]:.5g}]  {row['wins']:>9}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
