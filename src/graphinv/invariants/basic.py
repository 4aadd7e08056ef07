"""Basic graph-theoretic invariants: counts, circuit rank, diameter and
radius, transitivity, density, normalized-Laplacian spectrum block,
spanning-tree count, and the geometric/arithmetic degree-mean ratio."""

from __future__ import annotations

import numpy as np

from ..graph import (
    Graph,
    UNREACHABLE,
    adjacency_matrix,
    bfs_all_pairs,
    connected_components,
    degree_vector,
)
from ..linalg import (
    NumericalError,
    laplacian_spectrum,
    normalized_laplacian_spectrum,
    spectrum_log_pseudo_determinant,
)
from . import InvariantValue, value_failed, value_ok

DEFAULT_SPECTRUM_K = 8


def num_vertices(g: Graph) -> InvariantValue:
    return value_ok("num_vertices", g.n_vertices)


def num_edges(g: Graph) -> InvariantValue:
    return value_ok("num_edges", g.n_edges)


def circuit_rank(g: Graph) -> InvariantValue:
    n_connect, _ = connected_components(g)
    return value_ok("circuit_rank", g.n_edges - g.n_vertices + n_connect)


def _eccentricities(g: Graph) -> np.ndarray:
    # Per-component convention: eccentricity over finite distances only,
    # so disconnected inputs stay finite instead of poisoning the vector.
    dist = bfs_all_pairs(g)
    masked = np.where(dist == UNREACHABLE, 0, dist)
    return masked.max(axis=1) if g.n_vertices else np.zeros(0)


def diameter(g: Graph) -> InvariantValue:
    ecc = _eccentricities(g)
    return value_ok("diameter", ecc.max() if ecc.size else 0)


def radius(g: Graph) -> InvariantValue:
    ecc = _eccentricities(g)
    return value_ok("radius", ecc.min() if ecc.size else 0)


def transitivity(g: Graph) -> InvariantValue:
    """3 * n_triangle / n_triplet with n_triangle = trace(A^3)/6 and
    triplets counted as paths of length two; 0 when there are no triplets."""
    deg = degree_vector(g)
    n_triplet = int((deg * (deg - 1) // 2).sum())
    if n_triplet == 0:
        return value_ok("transitivity", 0.0)
    a = adjacency_matrix(g)
    n_triangle = np.trace(a @ a @ a) / 6.0
    return value_ok("transitivity", 3.0 * n_triangle / n_triplet)


def density(g: Graph) -> InvariantValue:
    if g.n_vertices < 2:
        return value_ok("density", 0.0)
    return value_ok("density", 2.0 * g.n_edges / (g.n_vertices * (g.n_vertices - 1)))


def laplacian_spectrum_block(g: Graph, k: int = DEFAULT_SPECTRUM_K) -> InvariantValue:
    """Fixed-width spectral block: k smallest eigenvalues of the normalized
    Laplacian left-aligned, k largest right-aligned, zero-padded between."""
    name = "laplacian_spectrum_block"
    try:
        lam = normalized_laplacian_spectrum(g)
    except NumericalError as exc:
        return value_failed(name, 2 * k, str(exc))
    block = np.zeros(2 * k)
    take = min(k, lam.size)
    if take:
        block[:take] = lam[:take]
        block[2 * k - take:] = lam[lam.size - take:]
    return value_ok(name, block)


def algebraic_connectivity(g: Graph) -> InvariantValue:
    """Second-smallest eigenvalue of the normalized Laplacian (0 for n < 2)."""
    name = "algebraic_connectivity"
    if g.n_vertices < 2:
        return value_ok(name, 0.0)
    try:
        lam = normalized_laplacian_spectrum(g)
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))
    return value_ok(name, lam[1])


def _log_spanning_trees(g: Graph) -> float | None:
    """log of the matrix-tree count for connected graphs, None if disconnected."""
    n_connect, _ = connected_components(g)
    if g.n_vertices == 0 or n_connect != 1:
        return None
    return float(spectrum_log_pseudo_determinant(laplacian_spectrum(g)) - np.log(g.n_vertices))


def spanning_tree_count(g: Graph) -> InvariantValue:
    """Matrix-tree count: product of nonzero Laplacian eigenvalues / n_V;
    0 for disconnected graphs."""
    name = "spanning_tree_count"
    try:
        log_count = _log_spanning_trees(g)
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))
    return value_ok(name, 0.0 if log_count is None else np.exp(log_count))


def spanning_tree_count_log(g: Graph) -> InvariantValue:
    """log of the spanning-tree count; disconnected graphs (count 0) fail
    with sentinel -1 so the column stays numeric."""
    name = "spanning_tree_count_log"
    try:
        log_count = _log_spanning_trees(g)
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))
    if log_count is None:
        return value_failed(name, 1, "log of zero spanning trees (disconnected)", fill=-1.0)
    return value_ok(name, log_count)


def degree_mean_ratio(g: Graph) -> InvariantValue:
    """Geometric over arithmetic mean of the degree sequence (log-space);
    any isolated vertex collapses the geometric mean to 0."""
    name = "degree_mean_ratio"
    deg = degree_vector(g)
    if g.n_vertices == 0 or deg.sum() == 0:
        return value_failed(name, 1, "division by zero (arithmetic mean 0)")
    arith = deg.sum() / g.n_vertices
    if (deg == 0).any():
        return value_ok(name, 0.0)
    geo = np.exp(np.log(deg.astype(np.float64)).mean())
    return value_ok(name, geo / arith)
