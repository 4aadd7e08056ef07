"""The benchmark's tracer (``perfbench/tracer.py``) times a CLI run from
outside the program: it primes the per-graph caches through their public
functions, counts transport edges by the misses of
``topo.ollivier_ricci``'s cache, times ``topo.count_all_patterns`` and
wraps the entry points and writers that ``graphinv.cli`` calls. A traced
run must reach all of them through the names the tracer replaces, count
every edge once and write the same bytes as a plain run."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from graphinv.graph import make_graph
from graphinv.registry import RegimeConfig, build_catalog, fingerprint

from conftest import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    graph_to_obj,
    path_graph,
    random_permutation,
    relabel,
    two_triangles,
)

ROOT = Path(__file__).resolve().parents[1]


def write_jsonl(path: Path, objs) -> Path:
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return path


def run_child(mode: str, regime: str, argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode, regime, "--", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, result
    return result


def run_both(tmp_path: Path, regime: str, argv: list[str], outputs: list[str], failed_blocks: int = 0) -> dict:
    """Run `argv` plain and traced, with "{out}" in it standing for a
    directory of each run's own, and require equal stdout (past that
    directory), equal bytes in every file of `outputs` and `failed_blocks`
    failed blocks counted by the tracer. Returns the traced run's layer
    metrics."""
    runs = {}
    for mode in ("plain", "trace"):
        out = tmp_path / mode
        out.mkdir()
        runs[mode] = run_child(mode, regime, [a.replace("{out}", str(out)) for a in argv])
        runs[mode]["stdout"] = runs[mode]["stdout"].replace(str(out), "{out}")
    assert runs["plain"]["stdout"] == runs["trace"]["stdout"]
    for name in outputs:
        assert (tmp_path / "trace" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name
    metrics = runs["trace"]["layers"]["metrics"]
    assert metrics["invariants.failed_blocks"] == failed_blocks
    return metrics


def test_traced_run_matches_plain_run(tmp_path):
    graphs = [cycle_graph(5), complete_graph(4), path_graph(4)]
    dataset = write_jsonl(tmp_path / "d.jsonl", map(graph_to_obj, graphs))
    argv = ["fingerprint", "--dataset", str(dataset), "--out", "{out}/fp.csv"]
    metrics = run_both(tmp_path, "full", argv, ["fp.csv", "fp.csv.meta.json"])
    assert metrics["transport.edges"] == sum(g.n_edges for g in graphs)
    assert metrics["homcount.count_all_patterns_s"] > 0


def test_expressivity_traced_matches_plain(tmp_path):
    rng = random.Random(5)
    g = erdos_renyi(8, 0.4, rng, id="g")
    pairs = [
        ("c6-2c3", cycle_graph(6), two_triangles()),
        ("control", g, relabel(g, random_permutation(8, rng))),
        ("k4-p4", complete_graph(4), path_graph(4)),
    ]
    path = write_jsonl(tmp_path / "pairs.jsonl", (
        {"pair_id": f"p{k}", "category": cat, "left": graph_to_obj(a), "right": graph_to_obj(b)}
        for k, (cat, a, b) in enumerate(pairs)
    ))
    argv = ["expressivity", "--pairs", str(path), "--report", "{out}/report.json",
            "--heatmap", "{out}/heatmap.csv"]
    metrics = run_both(tmp_path, "full", argv, ["report.json", "heatmap.csv"])
    assert metrics["transport.edges"] == sum(a.n_edges + b.n_edges for _, a, b in pairs)
    assert metrics["homcount.count_all_patterns_s"] > 0


def test_meta_traced_matches_plain(tmp_path):
    rng = random.Random(6)
    paths = [
        write_jsonl(tmp_path / f"{name}.jsonl",
                    (graph_to_obj(erdos_renyi(9, p, rng, id=f"{name}{i}")) for i in range(5)))
        for name, p in (("sparse", 0.4), ("dense", 0.8))
    ]
    argv = ["--seed", "3", "meta", "--datasets", *map(str, paths), "--regime", "reduced",
            "--sample", "4", "--out", "{out}/meta.csv", "--smoke-accuracy"]
    run_both(tmp_path, "reduced", argv, ["meta.csv", "meta.csv.meta.json"])


def test_features_traced_matches_plain(tmp_path):
    rng = random.Random(7)

    def featured(n, edges, id):
        return make_graph(n, edges, id=id,
                          node_features=[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(n)],
                          edge_features=[[rng.random()] for _ in edges])

    graphs = [
        featured(5, cycle_graph(5).edges, "c5"),
        featured(4, path_graph(4).edges, "p4"),
        featured(3, [], "edgeless"),
    ]
    dataset = write_jsonl(tmp_path / "d.jsonl", map(graph_to_obj, graphs))
    argv = ["features", "--dataset", str(dataset), "--mode", "agg", "--hops", "2",
            "--combine", "I", "--out", "{out}/features.csv"]
    # The edgeless graph's curvature and degree-ratio blocks fail as declared.
    catalog = build_catalog(RegimeConfig())
    failed = sum(not v.ok for g in graphs for v in fingerprint(g, catalog))
    metrics = run_both(tmp_path, "full", argv, ["features.csv"], failed_blocks=failed)
    assert failed > 0
    assert metrics["features.feature_agg_s"] > 0
    assert metrics["transport.edges"] == sum(g.n_edges for g in graphs)
