"""Seeded inputs for the four benchmark workloads.

Each workload's input files are a pure function of (workload name, seed):
the same seed gives byte-identical files on any machine. Graphs come from
the seeded generators in ``tests/conftest.py``; the program under test
only ever sees the written files.

Sizes and parameters are fixed schedules, so a seed changes which edges a
graph has but not how many graphs there are or of what order; that keeps
the cost of one invocation nearly the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# fingerprint-full: mid-size ER graphs on a fixed (n, p) grid, small BA
# graphs, and vertex-relabelled copies of some of them.
ER_ORDERS = (24, 27, 30, 33, 36)
ER_DENSITIES = (0.15, 0.20, 0.25)
FP_ER_GRAPHS = 30
FP_BA_SHAPES = ((20, 2), (24, 2), (28, 2), (20, 3), (24, 3), (28, 3))
FP_COPIES = 6

# meta-reduced-large: two datasets of large sparse graphs, each bigger
# than the sample so that sampling drops graphs.
META_ORDERS = (100, 110, 120, 130, 140)
META_SAMPLE = 8
META_PER_DATASET = 10
META_ER_DEGREE = 4.0
META_BA_M = 3
META_TEST_FRAC = 0.25

# expressivity-wl-hard: pairs per category.
EXP_ROOK_PAIRS = 6
EXP_CYCLE_PAIRS = 4
EXP_ER_PAIRS = 6
EXP_CONTROL_PAIRS = 6
EXP_ER_ORDER = 16
EXP_ER_DENSITY = 0.3
EXP_TOL = 1e-6

# features-agg: many small graphs with node and edge features and a label;
# one id in a hundred carries a comma.
FEAT_GRAPHS = 3000
FEAT_ORDERS = (8, 24)
FEAT_MEAN_DEGREE = 4.0
FEAT_NODE_DIM = 8
FEAT_EDGE_DIM = 4
FEAT_HOPS = 3
FEAT_COMMA_EVERY = 100

CATEGORY_ROOK = "rook-shrikhande"
CATEGORY_CYCLES = "c6-2c3"
CATEGORY_ER = "er-equal-nm"
CATEGORY_CONTROL = "isomorphic-control"


@dataclass
class Workload:
    """Generated inputs of one workload, ready to run in ``work_dir``."""

    name: str
    seed: int
    work_dir: Path
    argv: list[str]          # CLI arguments after the program name
    regime: str | None       # regime of the catalog the command builds
    graphs: int              # graphs per invocation (a pair counts 2)
    rows: int                # operations (output rows) per invocation
    data: dict               # what the checks need
    input_sha256: str


def generators():
    """The test suite's graph generators, imported by file path."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location("_bench_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graph_obj(g) -> dict:
    """The JSONL record of a generated graph, without features."""
    return {"id": g.id, "num_nodes": g.n_vertices, "edges": [list(e) for e in g.edges]}


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_er(gen, n: int, p: float, rng: random.Random, gid: str) -> dict:
    while True:
        obj = graph_obj(gen.erdos_renyi(n, p, rng, id=gid))
        if _connected(n, obj["edges"]):
            return obj


def _relabel(obj: dict, perm: list[int], rng: random.Random, gid: str) -> dict:
    """Apply a vertex permutation and shuffle the edge order."""
    edges = [[perm[u], perm[v]] for u, v in obj["edges"]]
    rng.shuffle(edges)
    return {"id": gid, "num_nodes": obj["num_nodes"], "edges": edges}


def write_jsonl(path: Path, objs: list[dict]) -> None:
    path.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n" for o in objs),
                    encoding="utf-8")


def _fingerprint_full(gen, rng, work: Path) -> tuple[list[str], dict]:
    graphs = []
    for i in range(FP_ER_GRAPHS):
        n = ER_ORDERS[i % len(ER_ORDERS)]
        p = ER_DENSITIES[(i // len(ER_ORDERS)) % len(ER_DENSITIES)]
        graphs.append(connected_er(gen, n, p, rng, f"er{i}-n{n}"))
    for i, (n, m) in enumerate(FP_BA_SHAPES):
        graphs.append(graph_obj(gen.barabasi_albert(n, m, rng, id=f"ba{i}-n{n}m{m}")))
    copies = {}
    for k, src in enumerate(sorted(rng.sample(range(len(graphs)), FP_COPIES))):
        orig = graphs[src]
        perm = gen.random_permutation(orig["num_nodes"], rng)
        copy = _relabel(orig, perm, rng, f"{orig['id']}~perm{k}")
        copies[len(graphs)] = src
        graphs.append(copy)
    write_jsonl(work / "graphs.jsonl", graphs)
    argv = ["--threads", "1", "fingerprint", "--regime", "full", "--subset", "I",
            "--dataset", str(work / "graphs.jsonl"), "--out", "{out}/fingerprint.csv"]
    return argv, {"graphs": graphs, "copies": copies}


def _meta_reduced_large(gen, rng, work: Path, seed: int) -> tuple[list[str], dict]:
    datasets = {}
    for name in ("er", "ba"):
        objs = []
        for i in range(META_PER_DATASET):
            n = META_ORDERS[i % len(META_ORDERS)]
            if name == "er":
                objs.append(connected_er(gen, n, META_ER_DEGREE / (n - 1), rng, f"er{i}-n{n}"))
            else:
                objs.append(graph_obj(gen.barabasi_albert(n, META_BA_M, rng, id=f"ba{i}-n{n}")))
        write_jsonl(work / f"{name}.jsonl", objs)
        datasets[name] = objs
    argv = ["--threads", "1", "--seed", str(seed), "meta",
            "--datasets", str(work / "er.jsonl"), str(work / "ba.jsonl"),
            "--regime", "reduced", "--sample", str(META_SAMPLE),
            "--test-frac", str(META_TEST_FRAC), "--out", "{out}/meta.csv", "--smoke-accuracy"]
    return argv, {"datasets": datasets}


def _rewired(obj: dict, rng: random.Random, gid: str) -> dict:
    """Same order and size, different first Zagreb index (so the two graphs
    are not isomorphic), still connected."""
    n = obj["num_nodes"]
    zagreb = _zagreb_first(n, obj["edges"])
    while True:
        edges = {tuple(e) for e in obj["edges"]}
        for _ in range(3):
            edges.remove(rng.choice(sorted(edges)))
            while True:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in edges:
                    edges.add((u, v))
                    break
        out = sorted(edges)
        if _connected(n, out) and _zagreb_first(n, out) != zagreb:
            return {"id": gid, "num_nodes": n, "edges": [list(e) for e in out]}


def _zagreb_first(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sum(d * d for d in deg)


def _expressivity_wl_hard(gen, rng, work: Path) -> tuple[list[str], dict]:
    rook, shrikhande = graph_obj(gen.rook_graph_4x4()), graph_obj(gen.shrikhande_graph())
    c6 = graph_obj(gen.cycle_graph(6))
    two_c3 = graph_obj(gen.two_triangles())
    pairs = []

    def add(category: str, left: dict, right: dict) -> None:
        pid = f"{category}-{len(pairs)}"
        pairs.append({"pair_id": pid, "category": category, "left": {**left, "id": pid + ".L"},
                      "right": {**right, "id": pid + ".R"}})

    def shuffled(obj: dict) -> dict:
        return _relabel(obj, gen.random_permutation(obj["num_nodes"], rng), rng, obj["id"])

    for _ in range(EXP_ROOK_PAIRS):
        add(CATEGORY_ROOK, shuffled(rook), shuffled(shrikhande))
    for _ in range(EXP_CYCLE_PAIRS):
        add(CATEGORY_CYCLES, shuffled(c6), shuffled(two_c3))
    for i in range(EXP_ER_PAIRS):
        left = connected_er(gen, EXP_ER_ORDER, EXP_ER_DENSITY, rng, f"er{i}")
        add(CATEGORY_ER, left, _rewired(left, rng, f"er{i}r"))
    for i in range(EXP_CONTROL_PAIRS):
        left = connected_er(gen, EXP_ER_ORDER, EXP_ER_DENSITY, rng, f"ctl{i}")
        add(CATEGORY_CONTROL, left, shuffled(left))
    write_jsonl(work / "pairs.jsonl", pairs)
    argv = ["--threads", "1", "expressivity", "--regime", "full",
            "--pairs", str(work / "pairs.jsonl"), "--tol", repr(EXP_TOL),
            "--report", "{out}/report.json", "--heatmap", "{out}/heatmap.csv"]
    return argv, {"pairs": pairs, "rook": rook, "shrikhande": shrikhande}


def _features_agg(gen, rng, work: Path) -> tuple[list[str], dict]:
    comma = set(rng.sample(range(FEAT_GRAPHS), FEAT_GRAPHS // FEAT_COMMA_EVERY))
    graphs = []
    for i in range(FEAT_GRAPHS):
        n = rng.randint(*FEAT_ORDERS)
        gid = f"mol,{i}" if i in comma else f"mol-{i}"
        obj = connected_er(gen, n, FEAT_MEAN_DEGREE / (n - 1), rng, gid)
        # Multiples of 1/64, so every sum the program forms is exact.
        obj["node_features"] = [[(rng.getrandbits(8) - 128) / 64 for _ in range(FEAT_NODE_DIM)]
                                for _ in range(n)]
        obj["edge_features"] = [[rng.getrandbits(7) / 64 for _ in range(FEAT_EDGE_DIM)]
                                for _ in obj["edges"]]
        obj["label"] = rng.randint(0, 4)
        graphs.append(obj)
    write_jsonl(work / "features.jsonl", graphs)
    argv = ["features", "--dataset", str(work / "features.jsonl"), "--mode", "agg",
            "--hops", str(FEAT_HOPS), "--combine", "none", "--out", "{out}/features.csv"]
    return argv, {"graphs": graphs, "comma_ids": len(comma)}


def generate(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `work_dir`."""
    gen = generators()
    rng = random.Random(f"{name}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    if name == "fingerprint-full":
        argv, data = _fingerprint_full(gen, rng, work_dir)
        rows = graphs = len(data["graphs"])
        regime = "full"
    elif name == "meta-reduced-large":
        argv, data = _meta_reduced_large(gen, rng, work_dir, seed)
        rows = graphs = META_SAMPLE * len(data["datasets"])
        regime = "reduced"
    elif name == "expressivity-wl-hard":
        argv, data = _expressivity_wl_hard(gen, rng, work_dir)
        rows = len(data["pairs"])
        graphs = 2 * rows
        regime = "full"
    elif name == "features-agg":
        argv, data = _features_agg(gen, rng, work_dir)
        rows = graphs = len(data["graphs"])
        regime = None
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    digest = hashlib.sha256()
    for path in sorted(work_dir.glob("*.jsonl")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return Workload(name, seed, work_dir, argv, regime, graphs, rows, data,
                    digest.hexdigest())


WORKLOADS = ("fingerprint-full", "meta-reduced-large", "expressivity-wl-hard", "features-agg")


def main(argv=None) -> int:
    """Write one workload's inputs and print the command that runs it:
    ``python3 perfbench/workloads.py NAME SEED DIR``."""
    import argparse
    p = argparse.ArgumentParser(description=main.__doc__)
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("dir", type=Path)
    args = p.parse_args(argv)
    wl = generate(args.workload, args.seed, args.dir.resolve())
    print(f"inputs sha256 {wl.input_sha256}")
    print("graphinv " + " ".join(a.replace("{out}", str(args.dir.resolve())) for a in wl.argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
