"""Feature-side input configurations: initial node-feature matrix, summed
features, hop-aggregated features, and combination with invariant
fingerprints.

The aggregation concatenates column sums of A^i X_init for i = 0..hops,
mimicking message passing without nonlinearities; the i = 0 block is the
plain feature sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, adjacency_matrix, incidence_matrix
from .registry import fingerprint_dataset, write_csv

DEFAULT_HOPS = 3

MODES = ("sum", "agg")


@dataclass(frozen=True)
class FeatureConfig:
    mode: str = "sum"
    hops: int = DEFAULT_HOPS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown feature mode {self.mode!r}")
        if self.mode == "agg" and self.hops < 1:
            raise ValueError(f"agg needs hops >= 1, got {self.hops}")


def build_x_init(g: Graph) -> np.ndarray:
    """Initial node features: X when there are no edge features, else
    X concatenated with B E (each node gains the sum of incident edge
    features; for unit edge features that column is the degree).
    Feature-less graphs receive constant unit node features first."""
    x = g.node_features
    if x is None:
        x = np.ones((g.n_vertices, 1))
    if g.edge_features is None:
        return np.asarray(x, dtype=np.float64)
    summed = incidence_matrix(g) @ g.edge_features
    return np.concatenate([x, summed], axis=1)


def feature_sum(g: Graph) -> np.ndarray:
    """Column sum of X_init over nodes (zero vector for empty graphs)."""
    x = build_x_init(g)
    return x.sum(axis=0)


def feature_agg(g: Graph, hops: int = DEFAULT_HOPS) -> np.ndarray:
    """Concatenated column sums of A^i X_init for i = 0..hops."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    x = build_x_init(g)
    a = adjacency_matrix(g)
    blocks = [x.sum(axis=0)]
    current = x
    for _ in range(hops):
        current = a @ current
        blocks.append(current.sum(axis=0))
    return np.concatenate(blocks)


def feature_columns(config: FeatureConfig, dim: int) -> list[str]:
    n_blocks = config.hops + 1 if config.mode == "agg" else 1
    return [f"{config.mode}.{i}.{d}" for i in range(n_blocks) for d in range(dim)]


def _format_label(label) -> str:
    if isinstance(label, (list, tuple)):
        return ";".join(_format_label(x) for x in label)
    if isinstance(label, float):
        return repr(label)
    return str(label)


def write_features_csv(dataset, config: FeatureConfig, catalog, path) -> None:
    """One row per graph: graph_id, feature columns, invariant columns and
    statuses when a catalog is given, and a trailing label column when the
    dataset carries targets."""
    fingerprints = None if catalog is None else fingerprint_dataset(dataset, catalog)
    vecs = [feature_sum(g) if config.mode == "sum" else feature_agg(g, config.hops) for g in dataset]
    dims = {vec.shape[0] for vec in vecs}
    if len(dims) > 1:
        raise ValueError(f"inconsistent feature widths across dataset: {sorted(dims)}")

    header: list[str] = ["graph_id"]
    if vecs:
        n_blocks = config.hops + 1 if config.mode == "agg" else 1
        dim = next(iter(dims)) // n_blocks
        header += feature_columns(config, dim)
    if fingerprints is not None:
        header += fingerprints.value_columns() + fingerprints.status_columns()
    has_labels = any(g.label is not None for g in dataset)
    if has_labels:
        header.append("label")

    body = []
    for i, (g, vec) in enumerate(zip(dataset, vecs)):
        cells = [g.id] + [repr(float(x)) for x in vec]
        if fingerprints is not None:
            cells += fingerprints.value_cells(i) + list(fingerprints.statuses[i])
        if has_labels:
            cells.append("" if g.label is None else _format_label(g.label))
        body.append(cells)
    write_csv(path, header, body)
