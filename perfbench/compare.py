"""Compare two sets of benchmark runs, parent commit against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results files that ``perfbench/run.py --trace 0``
writes into ``perfbench/results/``. Runs pair up by workload and seed. For
every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won, and a verdict:

* improved: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile spread;
* unresolved: otherwise, when either side's spread is wider than the
  metric's bound, unless every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unchanged: within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values of the untraced runs."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = {
                name: m["value"] for name, m in record["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * pairs and gain > p3 - p1:
        return "improved"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path, benchmark: dict) -> list[str]:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines = [f"{'workload':22s} {'metric':14s} {'parent q1/median/q3':>30s} "
             f"{'change q1/median/q3':>30s} {'won':>7s}  verdict"]
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric in benchmark["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            p = [parent[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            if not seeds:
                continue
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            pq, cq = quartiles(p), quartiles(c)
            lines.append(
                f"{workload:22s} {name:14s} {'/'.join(f'{x:.4g}' for x in pq):>30s} "
                f"{'/'.join(f'{x:.4g}' for x in cq):>30s} {wins:>3d}/{len(seeds):<3d}  "
                f"{verdict(p, c, wins, len(seeds), metric['better'], metric['bound'])}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        lines.append(f"workloads on one side only: {', '.join(missing)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(compare(args.parent, args.change, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
