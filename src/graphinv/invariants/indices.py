"""Molecular topological indices: Wiener, Randić (plain and general), ABC,
GA, hyper-Wiener, Estrada, Zagreb, Schultz, Gutman, Szeged, forgotten,
and Balaban.

Distance-sum indices follow the per-component convention: pairs in
different components are skipped rather than poisoning the sum.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, UNREACHABLE, adjacency_matrix, bfs_all_pairs, degree_vector
from ..linalg import eigenvalues_sym
from .basic import circuit_rank

DEFAULT_RANDIC_EXPONENTS = (-1.0, 0.5)


def _finite_dist(g: Graph) -> np.ndarray:
    dist = bfs_all_pairs(g)
    return np.where(dist != UNREACHABLE, dist, 0).astype(np.float64)


def _edge_degrees(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    deg = degree_vector(g).astype(np.float64)
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    return deg[e[:, 0]], deg[e[:, 1]]


def wiener(g: Graph) -> float:
    d = _finite_dist(g)
    return 0.5 * d.sum()


def hyper_wiener(g: Graph) -> float:
    d = _finite_dist(g)
    return 0.5 * (d + d**2).sum()


def randic(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(1.0 / np.sqrt(du * dv))


def general_randic(g: Graph, c: float) -> float:
    du, dv = _edge_degrees(g)
    return np.sum((du * dv) ** c)


def atom_bond_connectivity(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(np.sqrt((du + dv - 2.0) / (du * dv)))


def geometric_arithmetic(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(2.0 * np.sqrt(du * dv) / (du + dv))


def estrada(g: Graph) -> float:
    return np.sum(np.exp(eigenvalues_sym(adjacency_matrix(g))))


def zagreb_first(g: Graph) -> float:
    deg = degree_vector(g).astype(np.float64)
    return np.sum(deg**2)


def zagreb_second(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(du * dv)


def forgotten(g: Graph) -> float:
    deg = degree_vector(g).astype(np.float64)
    return np.sum(deg**3)


def schultz(g: Graph) -> float:
    d = _finite_dist(g)
    deg = degree_vector(g).astype(np.float64)
    return 0.5 * float(deg @ d.sum(axis=1) + d.sum(axis=0) @ deg)


def gutman(g: Graph) -> float:
    d = _finite_dist(g)
    deg = degree_vector(g).astype(np.float64)
    return 0.5 * float(deg @ d @ deg)


def szeged(g: Graph) -> float:
    """Per edge, count vertices strictly closer to each endpoint;
    equidistant and unreachable vertices count for neither side.

    The two endpoints of an edge share a component, so a vertex is
    unreachable from both (UNREACHABLE on both rows, neither closer) or
    from neither. Edges go in chunks of at most n, so no comparison is
    larger than the distance matrix."""
    dist = bfs_all_pairs(g)
    n = g.n_vertices
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    total = 0
    for start in range(0, len(e), max(n, 1)):
        du, dv = dist[e[start:start + n, 0]], dist[e[start:start + n, 1]]
        closer_u = np.count_nonzero(du < dv, axis=1)
        closer_v = np.count_nonzero(dv < du, axis=1)
        total += sum((closer_u * closer_v).tolist())
    return float(total)


def balaban(g: Graph) -> float:
    """n_E / (rank + 1) times the sum over edges of the inverse square
    root of the endpoints' finite-distance sums."""
    d = _finite_dist(g)
    row_sums = d.sum(axis=1)
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    terms = 1.0 / np.sqrt(row_sums[e[:, 0]] * row_sums[e[:, 1]])
    return g.n_edges / (circuit_rank(g) + 1.0) * terms.sum()
