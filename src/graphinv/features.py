"""Feature-side input configurations: initial node-feature matrix, summed
features, hop-aggregated features, and combination with invariant
fingerprints.

The aggregation concatenates column sums of A^i X_init for i = 0..hops,
mimicking message passing without nonlinearities; the i = 0 block is the
plain feature sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, adjacency_matrix, incidence_matrix
from .registry import fingerprint_dataset, float_cells, write_csv

DEFAULT_HOPS = 3

MODES = ("sum", "agg")


@dataclass(frozen=True)
class FeatureConfig:
    mode: str = "sum"
    hops: int = DEFAULT_HOPS

    def __post_init__(self):
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


def feature_agg(g: Graph, hops: int = DEFAULT_HOPS) -> np.ndarray:
    """Concatenated column sums of A^i X_init for i = 0..hops; hops = 0
    gives the plain feature sum (a zero vector for an empty graph)."""
    x = build_x_init(g)
    blocks = [x.sum(axis=0)]
    current = x
    for _ in range(hops):
        current = adjacency_matrix(g) @ current
        blocks.append(current.sum(axis=0))
    return np.concatenate(blocks)


def feature_columns(mode: str, hops: int, dim: int) -> list[str]:
    """Names of the hops + 1 blocks of `dim` feature columns."""
    return [f"{mode}.{i}.{d}" for i in range(hops + 1) for d in range(dim)]


def _format_label(label) -> str:
    """A label's cell: the items of a list joined by ";" at every level of
    list nesting, a float by its repr, anything else, an object too, by
    str. Lists are walked with a stack, so list nesting of any depth
    formats without running out of recursion; an object's str recurses in
    C no deeper than `json` did to parse it."""
    parts: list[str] = []
    stack = [label]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            # The items go on in reverse with ";" between them: a str
            # formats as itself, so a separator can ride along as an item.
            stack += [y for item in reversed(x) for y in (item, ";")][:-1]
        else:
            parts.append(repr(x) if isinstance(x, float) else str(x))
    return "".join(parts)


def write_features_csv(dataset, config: FeatureConfig, catalog, path) -> None:
    """One row per graph: graph_id, feature columns, invariant columns and
    statuses when a catalog is given, and a trailing label column when the
    dataset carries targets."""
    # JSON keeps no edge-feature width for a graph without edges, so an
    # edgeless graph takes the width of the dataset's edge features.
    edge_dims = {g.edge_features.shape[1] for g in dataset if g.n_edges and g.edge_features is not None}
    featured = dataset
    if len(edge_dims) == 1:
        no_edges = np.zeros((0, *edge_dims))
        featured = [g if g.n_edges else replace(g, edge_features=no_edges) for g in dataset]
    hops = config.hops if config.mode == "agg" else 0
    vecs = [feature_agg(g, hops) for g in featured]
    dims = {vec.shape[0] for vec in vecs}
    if len(dims) > 1:
        raise ValueError(f"inconsistent feature widths across dataset: {sorted(dims)}")
    fingerprints = None if catalog is None else fingerprint_dataset(dataset, catalog)

    header: list[str] = ["graph_id"]
    if vecs:
        dim = next(iter(dims)) // (hops + 1)
        header += feature_columns(config.mode, hops, dim)
    if fingerprints is not None:
        header += fingerprints.value_columns() + fingerprints.status_columns()
    has_labels = any(g.label is not None for g in dataset)
    if has_labels:
        header.append("label")

    body = []
    for i, (g, vec) in enumerate(zip(dataset, vecs)):
        cells = [g.id, *float_cells(vec)]
        if fingerprints is not None:
            cells += float_cells(fingerprints.values[i]) + list(fingerprints.statuses[i])
        if has_labels:
            cells.append("" if g.label is None else _format_label(g.label))
        body.append(cells)
    write_csv(path, header, body)
