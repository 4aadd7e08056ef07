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
    laplacian_spectrum,
    normalized_laplacian_spectrum,
    spectrum_log_pseudo_determinant,
)
from . import BlockFailure

DEFAULT_SPECTRUM_K = 8


def num_vertices(g: Graph) -> int:
    return g.n_vertices


def num_edges(g: Graph) -> int:
    return g.n_edges


def circuit_rank(g: Graph) -> int:
    n_connect, _ = connected_components(g)
    return g.n_edges - g.n_vertices + n_connect


def _eccentricities(g: Graph) -> np.ndarray:
    # Per-component convention: eccentricity over finite distances only,
    # so disconnected inputs stay finite instead of poisoning the vector.
    dist = bfs_all_pairs(g)
    masked = np.where(dist == UNREACHABLE, 0, dist)
    return masked.max(axis=1) if g.n_vertices else np.zeros(0)


def diameter(g: Graph) -> int:
    ecc = _eccentricities(g)
    return ecc.max() if ecc.size else 0


def radius(g: Graph) -> int:
    ecc = _eccentricities(g)
    return ecc.min() if ecc.size else 0


def transitivity(g: Graph) -> float:
    """3 * n_triangle / n_triplet with n_triangle = trace(A^3)/6 and
    triplets counted as paths of length two; 0 when there are no triplets."""
    deg = degree_vector(g)
    n_triplet = int((deg * (deg - 1) // 2).sum())
    if n_triplet == 0:
        return 0.0
    a = adjacency_matrix(g)
    n_triangle = np.trace(a @ a @ a) / 6.0
    return 3.0 * n_triangle / n_triplet


def density(g: Graph) -> float:
    if g.n_vertices < 2:
        return 0.0
    return 2.0 * g.n_edges / (g.n_vertices * (g.n_vertices - 1))


def laplacian_spectrum_block(g: Graph, k: int = DEFAULT_SPECTRUM_K) -> np.ndarray:
    """Fixed-width spectral block: k smallest eigenvalues of the normalized
    Laplacian left-aligned, k largest right-aligned, zero-padded between."""
    lam = normalized_laplacian_spectrum(g)
    block = np.zeros(2 * k)
    take = min(k, lam.size)
    if take:
        block[:take] = lam[:take]
        block[2 * k - take:] = lam[lam.size - take:]
    return block


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest eigenvalue of the normalized Laplacian (0 for n < 2)."""
    if g.n_vertices < 2:
        return 0.0
    return normalized_laplacian_spectrum(g)[1]


def _log_spanning_trees(g: Graph) -> float | None:
    """log of the matrix-tree count for connected graphs, None if disconnected."""
    n_connect, _ = connected_components(g)
    if g.n_vertices == 0 or n_connect != 1:
        return None
    return float(spectrum_log_pseudo_determinant(laplacian_spectrum(g)) - np.log(g.n_vertices))


def spanning_tree_count(g: Graph) -> float:
    """Matrix-tree count: product of nonzero Laplacian eigenvalues / n_V;
    0 for disconnected graphs."""
    log_count = _log_spanning_trees(g)
    return 0.0 if log_count is None else np.exp(log_count)


def spanning_tree_count_log(g: Graph) -> float:
    """log of the spanning-tree count; disconnected graphs (count 0) fail
    with sentinel -1 so the column stays numeric."""
    log_count = _log_spanning_trees(g)
    if log_count is None:
        raise BlockFailure("log of zero spanning trees (disconnected)", fill=-1.0)
    return log_count


def degree_mean_ratio(g: Graph) -> float:
    """Geometric over arithmetic mean of the degree sequence (log-space);
    any isolated vertex collapses the geometric mean to 0."""
    deg = degree_vector(g)
    if g.n_vertices == 0 or deg.sum() == 0:
        raise BlockFailure("division by zero (arithmetic mean 0)")
    arith = deg.sum() / g.n_vertices
    if (deg == 0).any():
        return 0.0
    geo = np.exp(np.log(deg.astype(np.float64)).mean())
    return geo / arith
