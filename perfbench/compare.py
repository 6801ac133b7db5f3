"""Compare two sets of benchmark results: a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``run.py --save DIR`` writes. For every
workload and metric the tool prints each side's median and quartiles, the
share of run-order pairs the change won, and a verdict (see README.md).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
HELD_OUT_SEED = 7919


def load(directory: Path) -> dict:
    """{(workload, metric): [values in run order]} and the seeds seen."""
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    records.sort(key=lambda r: r["facts"]["started_unix"])
    values = defaultdict(list)
    seeds = set()
    for rec in records:
        seeds.add(rec["facts"]["seed"])
        for name, metric in rec["result"]["metrics"].items():
            values[(rec["facts"]["workload"], name)].append(metric["value"])
    return {"values": values, "seeds": seeds}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def cell(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.5g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: list[float], change: list[float], higher: bool,
            bound: float | None) -> tuple[str, float]:
    """(improved | unchanged | worse | unresolved, share of pairs won)."""
    sign = 1.0 if higher else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, pmed, q3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (cmed - pmed)  # > 0: the change is better
    spread = q3 - q1
    if pairs and won >= 0.9 * len(pairs) and gain > spread:
        return "improved", won / len(pairs)
    share = won / len(pairs) if pairs else float("nan")
    if bound is None:
        if pairs and lost >= 0.9 * len(pairs) and -gain > spread:
            return "worse", share
        return ("unchanged" if abs(gain) <= spread else "unresolved"), share
    if -gain > bound * abs(pmed):
        return "worse", share
    all_better = min(sign * x for x in change) > max(sign * x for x in parent)
    if spread > bound * abs(pmed) and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = (load(Path(d)) for d in argv)
    for side, data in (("parent", parent), ("change", change)):
        held = "yes" if HELD_OUT_SEED in data["seeds"] else "NO"
        print(f"{side}: seeds {sorted(data['seeds'])}; "
              f"held-out seed {HELD_OUT_SEED} present: {held}")
    print(f"{'workload':<18} {'metric':<38} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>5} verdict")
    for key in sorted(set(parent["values"]) & set(change["values"])):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        p, c = parent["values"][key], change["values"][key]
        v, won = verdict(p, c, m["better"] == "higher", m.get("bound"))
        print(f"{workload:<18} {name:<38} {cell(p):<34} {cell(c):<34} "
              f"{won:>5.2f} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
