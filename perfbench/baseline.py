"""Re-measure the reference figures quoted in perfbench/README.md.

    python3 perfbench/baseline.py [--seed N] [--repeats R]

Two fixed datasets: ER n=30 p=0.2 in the full regime and BA n=120 m=3 in
the reduced regime. For each it reports ms per graph with the transport
and homomorphism-count shares (from a traced invocation), and the plain
wall time at ``--threads 1`` against ``--threads 2``; each figure is the
median of R invocations. It also reports the import time of
``graphinv.invariants.patterns``.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

DATASETS = {
    # name: (regime, graphs, generator)
    "er30": ("full", 20, lambda gen, rng, i: W.connected_er(gen, 30, 0.2, rng, f"er{i}")),
    "ba120": ("reduced", 10, lambda gen, rng, i: W.graph_obj(gen.barabasi_albert(120, 3, rng, id=f"ba{i}"))),
}


def measure(name: str, seed: int, repeats: int, work: Path) -> str:
    regime, count, make = DATASETS[name]
    gen, rng = W.generators(), random.Random(f"baseline-{name}:{seed}")
    W.write_jsonl(work / f"{name}.jsonl", [make(gen, rng, i) for i in range(count)])

    def argv(threads):
        return ["--threads", str(threads), "fingerprint", "--regime", regime,
                "--dataset", str(work / f"{name}.jsonl"), "--out", str(work / f"{name}.csv")]

    run.run_child("setup", regime, [])
    traced = [run.run_child("trace", regime, argv(1)) for _ in range(repeats)]
    walls = {t: statistics.median(run.run_child("plain", regime, argv(t))["wall_s"]
                                  for _ in range(repeats)) for t in (1, 2)}
    ms = statistics.median(1000 * s["wall_s"] / count for s in traced)
    share = {layer: statistics.median(s["layers"]["metrics"][layer] / s["wall_s"] for s in traced)
             for layer in ("transport.ollivier_ricci_s", "homcount.count_all_patterns_s",
                           "graph.bfs_all_pairs_s")}
    return (f"{name} ({count} graphs, {regime} regime): {ms:.0f} ms per graph traced; "
            f"transport {share['transport.ollivier_ricci_s']:.0%}, "
            f"homomorphism counts {share['homcount.count_all_patterns_s']:.0%}, "
            f"BFS {share['graph.bfs_all_pairs_s']:.1%}; "
            f"--threads 1 {walls[1]:.2f} s, --threads 2 {walls[2]:.2f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    work = HERE / ".work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name in DATASETS:
            print(measure(name, args.seed, args.repeats, work), flush=True)
        imports = statistics.median(run.importtime_patterns_s() for _ in range(args.repeats))
        print(f"graphinv.invariants.patterns import: {imports:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
