"""Molecular topological indices: Wiener, Randić (plain and general), ABC,
GA, hyper-Wiener, Estrada, Zagreb, Schultz, Gutman, Szeged, forgotten,
and Balaban.

Distance-sum indices follow the per-component convention: pairs in
different components are skipped rather than poisoning the sum.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, UNREACHABLE, adjacency_matrix, bfs_all_pairs, connected_components, degree_vector
from ..linalg import NumericalError, eigenvalues_sym, sym_matrix
from . import InvariantValue, value_failed, value_ok

DEFAULT_RANDIC_EXPONENTS = (-1.0, 0.5)


def _finite_dist(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    dist = bfs_all_pairs(g)
    finite = dist != UNREACHABLE
    return np.where(finite, dist, 0).astype(np.float64), finite


def _edge_degrees(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    deg = degree_vector(g).astype(np.float64)
    if g.n_edges == 0:
        return np.zeros(0), np.zeros(0)
    e = np.asarray(g.edges)
    return deg[e[:, 0]], deg[e[:, 1]]


def wiener(g: Graph) -> InvariantValue:
    d, _ = _finite_dist(g)
    return value_ok("wiener", 0.5 * d.sum())


def hyper_wiener(g: Graph) -> InvariantValue:
    d, _ = _finite_dist(g)
    return value_ok("hyper_wiener", 0.5 * (d + d**2).sum())


def randic(g: Graph) -> InvariantValue:
    du, dv = _edge_degrees(g)
    return value_ok("randic", np.sum(1.0 / np.sqrt(du * dv)) if du.size else 0.0)


def general_randic(g: Graph, c: float) -> InvariantValue:
    name = general_randic_name(c)
    du, dv = _edge_degrees(g)
    return value_ok(name, np.sum((du * dv) ** c) if du.size else 0.0)


def general_randic_name(c: float) -> str:
    return f"general_randic_{c:g}"


def atom_bond_connectivity(g: Graph) -> InvariantValue:
    du, dv = _edge_degrees(g)
    value = np.sum(np.sqrt((du + dv - 2.0) / (du * dv))) if du.size else 0.0
    return value_ok("atom_bond_connectivity", value)


def geometric_arithmetic(g: Graph) -> InvariantValue:
    du, dv = _edge_degrees(g)
    value = np.sum(2.0 * np.sqrt(du * dv) / (du + dv)) if du.size else 0.0
    return value_ok("geometric_arithmetic", value)


def estrada(g: Graph) -> InvariantValue:
    name = "estrada"
    if g.n_vertices == 0:
        return value_ok(name, 0.0)
    try:
        lam = eigenvalues_sym(sym_matrix(adjacency_matrix(g)))
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))
    return value_ok(name, np.sum(np.exp(lam)))


def zagreb_first(g: Graph) -> InvariantValue:
    deg = degree_vector(g).astype(np.float64)
    return value_ok("zagreb_first", np.sum(deg**2))


def zagreb_second(g: Graph) -> InvariantValue:
    du, dv = _edge_degrees(g)
    return value_ok("zagreb_second", np.sum(du * dv) if du.size else 0.0)


def forgotten(g: Graph) -> InvariantValue:
    deg = degree_vector(g).astype(np.float64)
    return value_ok("forgotten", np.sum(deg**3))


def schultz(g: Graph) -> InvariantValue:
    d, _ = _finite_dist(g)
    deg = degree_vector(g).astype(np.float64)
    return value_ok("schultz", 0.5 * float(deg @ d.sum(axis=1) + d.sum(axis=0) @ deg))


def gutman(g: Graph) -> InvariantValue:
    d, _ = _finite_dist(g)
    deg = degree_vector(g).astype(np.float64)
    return value_ok("gutman", 0.5 * float(deg @ d @ deg))


def szeged(g: Graph) -> InvariantValue:
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
    return value_ok("szeged", total)


def balaban(g: Graph) -> InvariantValue:
    """n_E / (rank + 1) times the sum over edges of the inverse square
    root of the endpoints' finite-distance sums."""
    if g.n_edges == 0:
        return value_ok("balaban", 0.0)
    d, _ = _finite_dist(g)
    row_sums = d.sum(axis=1)
    n_connect, _labels = connected_components(g)
    rank = g.n_edges - g.n_vertices + n_connect
    e = np.asarray(g.edges)
    terms = 1.0 / np.sqrt(row_sums[e[:, 0]] * row_sums[e[:, 1]])
    return value_ok("balaban", g.n_edges / (rank + 1.0) * terms.sum())
