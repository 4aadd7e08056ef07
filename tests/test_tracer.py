"""The benchmark's tracer (``perfbench/tracer.py``) times a CLI run from
outside the program: it primes the per-graph caches through their public
functions and counts transport edges by the misses of
``topo.ollivier_ricci``'s cache. A traced run must count every edge once
and write the same bytes as a plain run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from graphinv.graph import graph_to_obj

from conftest import complete_graph, cycle_graph, path_graph

ROOT = Path(__file__).resolve().parents[1]


def run_child(mode: str, dataset: Path, out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode, "full", "--",
           "fingerprint", "--dataset", str(dataset), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_matches_plain_run(tmp_path):
    graphs = [cycle_graph(5), complete_graph(4), path_graph(4)]
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("".join(json.dumps(graph_to_obj(g)) + "\n" for g in graphs))
    plain = run_child("plain", dataset, tmp_path / "plain.csv")
    traced = run_child("trace", dataset, tmp_path / "traced.csv")

    assert plain["rc"] == traced["rc"] == 0
    metrics = traced["layers"]["metrics"]
    assert metrics["invariants.failed_blocks"] == 0
    assert metrics["transport.edges"] == sum(g.n_edges for g in graphs)
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
