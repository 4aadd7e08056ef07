"""Pairwise differentiation of non-isomorphic graph pairs, per-category
scoring, greedy expressive-subset selection, and heatmap export.

A pair counts as differentiated when any invariant block differs beyond
tolerance; failed blocks never differentiate (a crash must not look like
expressivity).
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, GraphDataError, graph_from_obj, make_graph, read_jsonl
from .registry import InvariantDescriptor, fingerprint_dataset, float_cells, write_csv


@dataclass(frozen=True)
class GraphPair:
    """Two (intended non-isomorphic) graphs with a category tag."""

    left: Graph
    right: Graph
    category: str
    pair_id: str


@dataclass(frozen=True)
class DifferentiationReport:
    """Per-pair, per-invariant differentiation outcomes."""

    invariant_names: tuple[str, ...]
    pair_ids: tuple[str, ...]
    categories: tuple[str, ...]
    max_rel_diff: np.ndarray  # (n_pairs, n_invariants) float, NaN for failed blocks
    tolerance: float
    mode: str  # "relative" or "absolute"

    @property
    def differentiated(self) -> np.ndarray:
        """(n_pairs, n_invariants) bool; a NaN difference never differentiates."""
        return self.max_rel_diff > self.tolerance

    def pair_differentiated(self) -> np.ndarray:
        return self.differentiated.any(axis=1)

    def _stats(self, mask: np.ndarray) -> dict:
        count = int(self.pair_differentiated()[mask].sum())
        size = int(mask.sum())
        return {"size": size, "count": count, "accuracy": count / size}

    def category_stats(self) -> dict[str, dict]:
        categories = np.array(self.categories)
        return {cat: self._stats(categories == cat) for cat in dict.fromkeys(self.categories)}  # first-seen order

    def total_stats(self) -> dict:
        return self._stats(np.ones(len(self.pair_ids), dtype=bool))


def score_pairs(
    pairs: list[GraphPair],
    catalog: tuple[InvariantDescriptor, ...],
    tol: float = 1e-6,
    mode: str = "relative",
) -> DifferentiationReport:
    """Fingerprint both sides of every pair, serially and in pair order,
    and take each block's largest difference: relative to the larger
    magnitude with a floor of 1, or absolute. A block failed on either
    side gets NaN, as does one holding the same infinity on both sides."""
    if not pairs:
        raise ValueError("no pairs to score")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")

    sides = fingerprint_dataset([g for p in pairs for g in (p.left, p.right)], catalog)
    left, right = sides.values[0::2], sides.values[1::2]
    ok = sides.ok()
    starts = np.cumsum([0, *(d.width for d in catalog)])[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN here
        diff = np.abs(left - right)
        if mode == "relative":
            diff /= np.maximum(np.maximum(np.abs(left), np.abs(right)), 1.0)
    max_rel_diff = np.where(ok[0::2] & ok[1::2], np.maximum.reduceat(diff, starts, axis=1), np.nan)
    return DifferentiationReport(
        invariant_names=tuple(d.name for d in catalog),
        pair_ids=tuple(p.pair_id for p in pairs),
        categories=tuple(p.category for p in pairs),
        max_rel_diff=max_rel_diff,
        tolerance=tol,
        mode=mode,
    )


def greedy_subset(report: DifferentiationReport) -> list[tuple[str, int]]:
    """Greedy cover: repeatedly take the invariant differentiating the most
    not-yet-covered pairs (catalog order breaks ties) until the marginal
    gain hits 0. Covers exactly the pairs the full catalog covers."""
    remaining = report.differentiated.copy()
    picked: list[tuple[str, int]] = []
    while True:
        gains = remaining.sum(axis=0)
        best = int(np.argmax(gains))  # argmax returns the first (catalog-order) maximum
        gain = int(gains[best])
        if gain == 0:
            return picked
        picked.append((report.invariant_names[best], gain))
        remaining = remaining & ~remaining[:, best][:, None]


def heatmap_row_order(report: DifferentiationReport) -> list[int]:
    """Greedy-selected invariants first (selection order), then the rest in
    catalog order."""
    picked = [name for name, _ in greedy_subset(report)]
    index = {name: i for i, name in enumerate(report.invariant_names)}
    rest = [name for name in report.invariant_names if name not in picked]
    return [index[name] for name in picked + rest]


def export_heatmap(report: DifferentiationReport, path: str | Path) -> None:
    """CSV of per-pair, per-invariant max relative difference; one row per
    invariant, one column per pair."""
    write_csv(
        path,
        ["invariant", *report.pair_ids],
        (
            [report.invariant_names[j], *float_cells(report.max_rel_diff[:, j])]
            for j in heatmap_row_order(report)
        ),
    )


def export_report_json(report: DifferentiationReport, path: str | Path) -> None:
    payload = {
        "tolerance": report.tolerance,
        "mode": report.mode,
        "categories": report.category_stats(),
        "total": report.total_stats(),
        "greedy_subset": [
            {"name": name, "marginal_gain": gain} for name, gain in greedy_subset(report)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Pair input formats


def parse_pairs_jsonl(stream) -> list[GraphPair]:
    """Pairs text stream: one JSON object {pair_id, category, left, right}
    per line, where left/right follow the dataset graph schema."""
    pairs = []
    for lineno, obj, words in read_jsonl(stream, prefix="pairs line"):
        pair_id = str(obj.get("pair_id", f"pair{lineno - 1}"))
        category = str(obj.get("category", "Uncategorized"))
        try:
            left = graph_from_obj(obj["left"], f"{pair_id}.left", words)
            right = graph_from_obj(obj["right"], f"{pair_id}.right", words)
        except KeyError as exc:
            raise GraphDataError(f"pairs line {lineno}: malformed record ({exc})") from None
        pairs.append(GraphPair(left, right, category, pair_id))
    return pairs


def load_pairs(path: str | Path) -> list[GraphPair]:
    """Load pairs from JSONL, or from a BREC-style .npy of graph6 strings."""
    path = Path(path)
    if path.suffix == ".npy":
        return load_brec_npy(path)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pairs_jsonl(fh)


def graph6_to_graph(data: bytes | str, id: str = "") -> Graph:
    """Decode one graph6-encoded graph (the standard printable encoding)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    vals = [b - 63 for b in data]
    if any(v < 0 or v > 63 for v in vals):
        raise GraphDataError("invalid graph6 byte")
    # The vertex count is 1, 4 or 8 bytes long; the longer forms open with one or two '~'.
    if vals and vals[0] <= 62:
        size, digits = 1, vals[:1]
    elif len(vals) > 1 and vals[1] <= 62:
        size, digits = 4, vals[1:4]
    else:
        size, digits = 8, vals[2:8]
    if len(vals) < size:
        raise GraphDataError(f"graph6 data too short for its {size}-byte size header")
    n = 0
    for d in digits:
        n = (n << 6) + d
    bits = vals[size:]
    need = n * (n - 1) // 2
    stream = []
    for v in bits:
        stream.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if len(stream) < need:
        raise GraphDataError(f"graph6 bit stream too short for n={n}")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream[k]:
                edges.append((i, j))
            k += 1
    return make_graph(n, edges, id=id)


#: Pair-index ranges of the BREC distribution mapped onto the four
#: reported categories (the trailing 4-vertex-condition and
#: distance-regular sections count as Regular).
BREC_CATEGORY_RANGES = (
    ("Basic", 0, 60),
    ("Regular", 60, 160),
    ("Extension", 160, 260),
    ("CFI", 260, 360),
    ("Regular", 360, 400),
)


def _brec_category(pair_index: int) -> str:
    for cat, lo, hi in BREC_CATEGORY_RANGES:
        if lo <= pair_index < hi:
            return cat
    return "Uncategorized"


class _ArrayUnpickler(pickle.Unpickler):
    """Unpickles what numpy writes for an object array and nothing else:
    any global other than the array-reconstruct ones is refused, so a
    crafted file cannot run code while it loads."""

    ALLOWED = {
        ("numpy._core.multiarray", "_reconstruct"),
        ("numpy.core.multiarray", "_reconstruct"),
        ("numpy", "ndarray"),
        ("numpy", "dtype"),
    }

    def find_class(self, module, name):
        if (module, name) not in self.ALLOWED:
            raise GraphDataError(f"refusing pickled global {module}.{name} in a .npy file")
        return super().find_class(module, name)


def _read_npy(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        fmt = np.lib.format
        version = fmt.read_magic(fh)
        _, _, dtype = (fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0)(fh)
        if not dtype.hasobject:
            fh.seek(0)
            return fmt.read_array(fh, allow_pickle=False)
        try:
            return np.asarray(_ArrayUnpickler(fh).load())
        except (pickle.UnpicklingError, EOFError, TypeError) as exc:
            raise GraphDataError(f"unreadable object array in {path}: {exc}") from exc


def load_brec_npy(path: str | Path) -> list[GraphPair]:
    """Ingest the BREC distribution: a .npy array of graph6 strings where
    consecutive entries form the non-isomorphic pairs."""
    flat = list(_read_npy(Path(path)).reshape(-1))
    if not all(isinstance(x, (str, bytes)) for x in flat):
        raise GraphDataError(f"BREC file {path} holds an entry that is not a graph6 string")
    if len(flat) % 2 != 0:
        raise GraphDataError(f"BREC file {path} holds an odd number of graphs")
    pairs = []
    for k in range(len(flat) // 2):
        left = graph6_to_graph(flat[2 * k], id=f"brec{k}.left")
        right = graph6_to_graph(flat[2 * k + 1], id=f"brec{k}.right")
        pairs.append(GraphPair(left, right, _brec_category(k), f"brec{k}"))
    return pairs
