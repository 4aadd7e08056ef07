"""Molecular topological indices: Wiener, Randić (plain and general), ABC,
GA, hyper-Wiener, Estrada, Zagreb, Schultz, Gutman, Szeged, forgotten,
and Balaban.

Distance-sum indices follow the per-component convention: pairs in
different components are skipped rather than poisoning the sum.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, UNREACHABLE, adjacency_matrix, bfs_all_pairs, degree_vector
from ..linalg import eigenvalues_sym, sym_matrix
from .basic import circuit_rank

DEFAULT_RANDIC_EXPONENTS = (-1.0, 0.5)


def _finite_dist(g: Graph) -> np.ndarray:
    dist = bfs_all_pairs(g)
    return np.where(dist != UNREACHABLE, dist, 0).astype(np.float64)


def _edge_degrees(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    deg = degree_vector(g).astype(np.float64)
    if g.n_edges == 0:
        return np.zeros(0), np.zeros(0)
    e = np.asarray(g.edges)
    return deg[e[:, 0]], deg[e[:, 1]]


def wiener(g: Graph) -> float:
    d = _finite_dist(g)
    return 0.5 * d.sum()


def hyper_wiener(g: Graph) -> float:
    d = _finite_dist(g)
    return 0.5 * (d + d**2).sum()


def randic(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(1.0 / np.sqrt(du * dv)) if du.size else 0.0


def general_randic(g: Graph, c: float) -> float:
    du, dv = _edge_degrees(g)
    return np.sum((du * dv) ** c) if du.size else 0.0


def atom_bond_connectivity(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(np.sqrt((du + dv - 2.0) / (du * dv))) if du.size else 0.0


def geometric_arithmetic(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(2.0 * np.sqrt(du * dv) / (du + dv)) if du.size else 0.0


def estrada(g: Graph) -> float:
    if g.n_vertices == 0:
        return 0.0
    return np.sum(np.exp(eigenvalues_sym(sym_matrix(adjacency_matrix(g)))))


def zagreb_first(g: Graph) -> float:
    deg = degree_vector(g).astype(np.float64)
    return np.sum(deg**2)


def zagreb_second(g: Graph) -> float:
    du, dv = _edge_degrees(g)
    return np.sum(du * dv) if du.size else 0.0


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
    equidistant and unreachable vertices count for neither side."""
    dist = bfs_all_pairs(g)
    total = 0.0
    for u, v in g.edges:
        du, dv = dist[u], dist[v]
        reachable = (du != UNREACHABLE) & (dv != UNREACHABLE)
        closer_u = int(np.sum(reachable & (du < dv)))
        closer_v = int(np.sum(reachable & (dv < du)))
        total += closer_u * closer_v
    return total


def balaban(g: Graph) -> float:
    """n_E / (rank + 1) times the sum over edges of the inverse square
    root of the endpoints' finite-distance sums."""
    if g.n_edges == 0:
        return 0.0
    d = _finite_dist(g)
    row_sums = d.sum(axis=1)
    e = np.asarray(g.edges)
    terms = 1.0 / np.sqrt(row_sums[e[:, 0]] * row_sums[e[:, 1]])
    return g.n_edges / (circuit_rank(g) + 1.0) * terms.sum()
