"""Correctness checks of one invocation's outputs.

Each check compares the program's output against a computation made apart
from the program (the oracles in ``tests/oracles.py``, numpy and scipy on
matrices built here from the input JSONL) or against a property the method
must have. A checker returns ``{row index: reason}`` for the rows that
failed; a fault in a whole-table property fails every row.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as W

# Mirrors the CLI defaults the workloads run with.
ALPHA = 0.5
REL_TOL = 1e-9
LINPROG_TOL = 1e-7
LINPROG_SAMPLE = 4
DEGREE_INDICES = ("randic", "zagreb_first", "zagreb_second", "forgotten")


def _oracles():
    if "oracles" not in sys.modules:
        spec = importlib.util.spec_from_file_location("oracles", W.ROOT / "tests" / "oracles.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # Every distance-based oracle index runs its own Floyd-Warshall pass;
        # one pass per graph keeps the checks short.
        passes, floyd_warshall = {}, module.floyd_warshall

        def shared_floyd_warshall(n, edges):
            key = (n, tuple(tuple(e) for e in edges))
            if key not in passes:
                passes[key] = floyd_warshall(n, edges)
            return passes[key]
        module.floyd_warshall = shared_floyd_warshall
        sys.modules["oracles"] = module
    return sys.modules["oracles"]


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Relative agreement with a floor of 1 on the scale."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _all(n_rows: int, reason: str) -> dict[int, str]:
    return {r: reason for r in range(n_rows)}


def adjacency(obj: dict) -> np.ndarray:
    n = obj["num_nodes"]
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in obj["edges"]:
        a[u, v] = a[v, u] = 1
    return a


# ---------------------------------------------------------------------------
# fingerprint-full


def _closed_form_counts(a: np.ndarray) -> dict[tuple, int]:
    """Homomorphism counts with closed forms, keyed by (pattern order,
    pattern size, sorted pattern degrees): walk counts, traces, degree powers."""
    deg = a.sum(axis=1)
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    return {
        (1, 0, (0,)): a.shape[0],
        (2, 1, (1, 1)): int(a.sum()),
        (3, 2, (1, 1, 2)): int((deg**2).sum()),
        (3, 3, (2, 2, 2)): int(np.trace(a3)),
        (4, 3, (1, 1, 1, 3)): int((deg**3).sum()),
        (4, 3, (1, 1, 2, 2)): int(a3.sum()),
        (4, 4, (2, 2, 2, 2)): int(np.trace(a4)),
        (5, 4, (1, 1, 1, 1, 4)): int((deg**4).sum()),
        (5, 4, (1, 1, 2, 2, 2)): int(a4.sum()),
        (5, 5, (2, 2, 2, 2, 2)): int(np.trace(a4 @ a)),
    }


def _pattern_key(pattern) -> tuple:
    deg = [0] * pattern.n_vertices
    for u, v in pattern.edges:
        deg[u] += 1
        deg[v] += 1
    return pattern.n_vertices, len(pattern.edges), tuple(sorted(deg))


def pattern_offsets() -> dict[tuple, int]:
    """Pattern key -> column offset in the homomorphism_counts block."""
    from graphinv.invariants.patterns import PATTERN_CATALOG
    return {_pattern_key(p): i for i, p in enumerate(PATTERN_CATALOG)}


def ollivier_ricci_mean_linprog(obj: dict, dist) -> float:
    """Mean over edges of 1 - W1 of the lazy walks, each W1 solved as a
    transportation LP by scipy."""
    from scipy.optimize import linprog
    n = obj["num_nodes"]
    nbrs = [set() for _ in range(n)]
    for u, v in obj["edges"]:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def walk(x):
        support = [x] + sorted(nbrs[x])
        mass = [ALPHA] + [(1.0 - ALPHA) / len(nbrs[x])] * len(nbrs[x])
        return support, mass

    kappas = []
    for u, v in obj["edges"]:
        (su, mu), (sv, nu) = walk(u), walk(v)
        p, q = len(su), len(sv)
        a_eq = np.zeros((p + q, p * q))
        for i in range(p):
            a_eq[i, i * q:(i + 1) * q] = 1.0
        for j in range(q):
            a_eq[p + j, j::q] = 1.0
        cost = [dist[i][j] for i in su for j in sv]
        res = linprog(cost, A_eq=a_eq, b_eq=mu + nu, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"linprog failed: {res.message}")
        kappas.append(1.0 - res.fun)
    return float(np.mean(kappas))


def check_fingerprint(wl, out: Path, stdout: str) -> dict[int, str]:
    orc = _oracles()
    graphs = wl.data["graphs"]
    header, rows = read_csv(out / "fingerprint.csv")
    if len(rows) != len(graphs):
        return _all(len(graphs), f"{len(rows)} rows for {len(graphs)} graphs")
    col = {name: i for i, name in enumerate(header)}
    statuses = [i for name, i in col.items() if name.endswith(".status")]
    hom = col["homomorphism_counts.0"]
    hom_cols = pattern_offsets()
    compared = [i for name, i in col.items()
                if not name.endswith(".status") and name != "graph_id"
                and not name.startswith("kolmogorov_proxy.")]
    linprog_rows = set(range(0, len(graphs), max(1, len(graphs) // LINPROG_SAMPLE)))
    failed: dict[int, str] = {}

    def fail(r, reason):
        failed.setdefault(r, reason)

    for r, (row, g) in enumerate(zip(rows, graphs)):
        if len(row) != len(header):
            fail(r, f"ragged row: {len(row)} cells under {len(header)} columns")
            continue
        try:
            values = {name: float(row[i]) for name, i in col.items()
                      if name != "graph_id" and not name.endswith(".status")}
        except ValueError as exc:
            fail(r, f"unparsable value: {exc}")
            continue
        n, edges = g["num_nodes"], [tuple(e) for e in g["edges"]]
        if row[0] != g["id"]:
            fail(r, f"row holds {row[0]!r}, input has {g['id']!r}")
        bad = [header[i] for i in statuses if row[i] != "ok"]
        if bad:
            fail(r, f"status not ok: {bad[0]}={row[col[bad[0]]]!r}")
        if values["num_vertices.0"] != n or values["num_edges.0"] != len(edges):
            fail(r, "vertex or edge count")
        d = orc.floyd_warshall(n, edges)
        ecc = [max(x for x in di if x != math.inf) for di in d]
        if values["diameter.0"] != max(ecc) or values["radius.0"] != min(ecc):
            fail(r, "diameter or radius")
        for name, oracle in orc.NAIVE_INDICES.items():
            if not close(values[f"{name}.0"], oracle(n, edges)):
                fail(r, f"{name} differs from the oracle")
        a = adjacency(g)
        for key, count in _closed_form_counts(a).items():
            if float(row[hom + hom_cols[key]]) != float(count):
                fail(r, f"homomorphism count of pattern {key} differs from its closed form")
        lap = np.diag(a.sum(axis=1)) - a
        sign, logdet = np.linalg.slogdet(lap[1:, 1:].astype(np.float64))
        if sign <= 0 or not close(values["spanning_tree_count.0"], math.exp(logdet), 1e-8):
            fail(r, "spanning-tree count differs from the Kirchhoff determinant")
        if r in linprog_rows:
            if not close(values["ollivier_ricci_mean.0"], ollivier_ricci_mean_linprog(g, d), LINPROG_TOL):
                fail(r, "Ollivier-Ricci mean differs from linprog")

    for copy, src in wl.data["copies"].items():
        a, b = rows[copy], rows[src]
        if len(a) != len(header) or len(b) != len(header):
            fail(copy, "ragged row")
        elif any(a[i] != b[i] for i in statuses) or not all(
                close(float(a[i]), float(b[i])) for i in compared):
            fail(copy, f"relabelled copy disagrees with {b[0]}")
    return failed


# ---------------------------------------------------------------------------
# meta-reduced-large


def _wiener(obj: dict) -> float:
    from scipy.sparse.csgraph import shortest_path
    d = shortest_path(adjacency(obj), unweighted=True, directed=False)
    return float(d[np.isfinite(d)].sum() / 2.0)


def _centroid_accuracy(x: np.ndarray, labels: np.ndarray, train: np.ndarray) -> float:
    """Nearest centroid on columns z-scored with train statistics; columns
    constant on train are dropped."""
    mean, std = x[train].mean(axis=0), x[train].std(axis=0)
    keep = std > 0
    z = (x[:, keep] - mean[keep]) / std[keep]
    ks = sorted(set(labels.tolist()))
    centroids = np.stack([z[train & (labels == k)].mean(axis=0) for k in ks])
    test = np.flatnonzero(~train)
    guess = [ks[int(np.argmin(np.linalg.norm(centroids - z[i], axis=1)))] for i in test]
    return float(np.mean(np.asarray(guess) == labels[test]))


def check_meta(wl, out: Path, stdout: str) -> dict[int, str]:
    names = list(wl.data["datasets"])
    n_rows = W.META_SAMPLE * len(names)
    header, rows = read_csv(out / "meta.csv")
    if len(rows) != n_rows:
        return _all(n_rows, f"{len(rows)} rows, expected {n_rows}")
    if any(len(row) != len(header) for row in rows):
        return {r: "ragged row" for r, row in enumerate(rows) if len(row) != len(header)}
    col = {name: i for i, name in enumerate(header)}
    sidecar = json.loads((out / "meta.csv.meta.json").read_text(encoding="utf-8"))
    if sidecar["labels"] != {str(i): nm for i, nm in enumerate(names)}:
        return _all(n_rows, f"sidecar labels {sidecar['labels']}")
    labels = [row[col["label"]] for row in rows]
    splits = [row[col["split"]] for row in rows]
    n_test = min(max(round(W.META_TEST_FRAC * W.META_SAMPLE), 1), W.META_SAMPLE - 1)
    for k in range(len(names)):
        if labels.count(str(k)) != W.META_SAMPLE:
            return _all(n_rows, f"label {k} has {labels.count(str(k))} rows")
        if sum(1 for lb, sp in zip(labels, splits) if lb == str(k) and sp == "test") != n_test:
            return _all(n_rows, f"label {k} test-split count")
    try:
        x = np.array([[float(row[i]) for i in range(len(header) - 2)] for row in rows])
    except ValueError as exc:
        return _all(n_rows, f"unparsable value: {exc}")
    if np.isnan(x).any():
        bad = sorted(set(np.flatnonzero(np.isnan(x).any(axis=1)).tolist()))
        return {r: "nan value (failed block)" for r in bad}
    y = np.array([int(lb) for lb in labels])
    accuracy = _centroid_accuracy(x, y, np.array([sp == "train" for sp in splits]))
    printed = re.search(r"nearest-centroid accuracy: ([0-9.]+)", stdout)
    if accuracy < 0.9 or printed is None or float(printed.group(1)) < 0.9:
        return _all(n_rows, f"nearest-centroid accuracy {accuracy} (printed {printed and printed.group(1)})")

    failed: dict[int, str] = {}
    for k, name in enumerate(names):
        pool = Counter((g["num_nodes"], len(g["edges"]), _wiener(g)) for g in wl.data["datasets"][name])
        for r in (r for r in range(n_rows) if y[r] == k):
            key = (x[r, col["num_vertices.0"]], x[r, col["num_edges.0"]], x[r, col["wiener.0"]])
            if pool[key] > 0:
                pool[key] -= 1
            else:
                failed[r] = f"no unused graph of {name} with (n, m, Wiener) = {key}"
    return failed


# ---------------------------------------------------------------------------
# expressivity-wl-hard


def _oracle_hom_counts(obj: dict) -> np.ndarray:
    from graphinv.invariants.patterns import PATTERN_CATALOG
    orc = _oracles()
    a = orc.adjacency(obj["num_nodes"], obj["edges"])
    return np.array([orc.count_homomorphisms_einsum(p.n_vertices, p.edges, a)
                     for p in PATTERN_CATALOG], dtype=np.float64)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)))


def check_expressivity(wl, out: Path, stdout: str) -> dict[int, str]:
    pairs = wl.data["pairs"]
    n_pairs = len(pairs)
    header, rows = read_csv(out / "heatmap.csv")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if header[1:] != [p["pair_id"] for p in pairs]:
        return _all(n_pairs, "heatmap columns do not follow the pairs")
    failed: dict[int, str] = {}
    cells: dict[str, list[float]] = {}
    for row in rows:
        if len(row) != len(header):
            return _all(n_pairs, f"ragged heatmap row {row[0]!r}")
        try:
            cells[row[0]] = [float(x) for x in row[1:]]
        except ValueError as exc:
            return _all(n_pairs, f"unparsable cell: {exc}")
    tol = W.EXP_TOL
    diff = [[cells[name][j] > tol for name in cells] for j in range(n_pairs)]

    hom_gap = relative_difference(_oracle_hom_counts(wl.data["rook"]),
                                  _oracle_hom_counts(wl.data["shrikhande"]))
    for j, pair in enumerate(pairs):
        column = {name: values[j] for name, values in cells.items()}
        nan = [name for name, x in column.items() if math.isnan(x)]
        if nan:
            failed[j] = f"failed block {nan[0]}"
        elif pair["category"] == W.CATEGORY_CONTROL:
            hits = [name for name, x in column.items() if x > tol and name != "kolmogorov_proxy"]
            if hits:
                failed[j] = f"isomorphic control differentiated by {hits[0]}"
        elif not any(diff[j]):
            failed[j] = "non-isomorphic pair not differentiated"
        elif pair["category"] == W.CATEGORY_ROOK:
            if not close(column["homomorphism_counts"], hom_gap, 1e-12):
                failed[j] = f"homomorphism cell {column['homomorphism_counts']} != oracle {hom_gap}"
            hits = [name for name in DEGREE_INDICES if column[name] > tol]
            if hits:
                failed.setdefault(j, f"degree index {hits[0]} differentiates a regular pair")

    recount: dict[str, dict] = {}
    for j, pair in enumerate(pairs):
        stats = recount.setdefault(pair["category"], {"size": 0, "count": 0})
        stats["size"] += 1
        stats["count"] += any(diff[j])
    if {c: {"size": s["size"], "count": s["count"]} for c, s in report["categories"].items()} != recount:
        return _all(n_pairs, "report category totals differ from the heatmap recount")
    if report["total"]["count"] != sum(any(d) for d in diff) or report["total"]["size"] != n_pairs:
        return _all(n_pairs, "report total differs from the heatmap recount")
    picked = [entry["name"] for entry in report["greedy_subset"]]
    covered = [any(cells[name][j] > tol for name in picked) for j in range(n_pairs)]
    if covered != [any(d) for d in diff]:
        return _all(n_pairs, "greedy subset does not cover what the catalog covers")
    return failed


# ---------------------------------------------------------------------------
# features-agg


def aggregated_features(obj: dict, hops: int) -> np.ndarray:
    """Column sums of A^i X_init, i = 0..hops, with X_init = [X, B E]."""
    n, edges = obj["num_nodes"], obj["edges"]
    b = np.zeros((n, len(edges)))
    for e, (u, v) in enumerate(edges):
        b[u, e] = b[v, e] = 1.0
    x = np.concatenate([np.asarray(obj["node_features"], dtype=np.float64),
                        b @ np.asarray(obj["edge_features"], dtype=np.float64)], axis=1)
    a = adjacency(obj).astype(np.float64)
    blocks = []
    for _ in range(hops + 1):
        blocks.append(x.sum(axis=0))
        x = a @ x
    return np.concatenate(blocks)


def check_features(wl, out: Path, stdout: str) -> dict[int, str]:
    graphs = wl.data["graphs"]
    header, rows = read_csv(out / "features.csv")
    if len(rows) != len(graphs):
        return _all(len(graphs), f"{len(rows)} rows for {len(graphs)} graphs")
    failed: dict[int, str] = {}
    for r, (row, g) in enumerate(zip(rows, graphs)):
        if len(row) != len(header):
            failed[r] = f"ragged row: {len(row)} cells under {len(header)} columns"
        elif row[0] != g["id"] or row[-1] != str(g["label"]):
            failed[r] = "graph_id or label cell differs from the input"
        else:
            try:
                got = np.array([float(x) for x in row[1:-1]])
            except ValueError as exc:
                failed[r] = f"unparsable value: {exc}"
                continue
            want = aggregated_features(g, W.FEAT_HOPS)
            if got.shape != want.shape or not np.all(
                    np.abs(got - want) <= REL_TOL * np.maximum(np.maximum(abs(got), abs(want)), 1.0)):
                failed[r] = "aggregated features differ from A^i X_init column sums"
    return failed


CHECKS = {
    "fingerprint-full": check_fingerprint,
    "meta-reduced-large": check_meta,
    "expressivity-wl-hard": check_expressivity,
    "features-agg": check_features,
}


def check(wl, out: Path, stdout: str) -> dict[int, str]:
    """Failed rows of one invocation; unreadable output fails every row."""
    try:
        return CHECKS[wl.name](wl, out, stdout)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return _all(wl.rows, f"unreadable output: {type(exc).__name__}: {exc}")
