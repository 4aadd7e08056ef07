"""Geometric and topological invariants: magnitude, analytic torsion,
homomorphism counts, edge-curvature distributions, commute times, and
neighbourhood power traces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..graph import Graph, UNREACHABLE, adjacency_matrix, adjacency_sets, bfs_all_pairs, degree_vector, per_graph
from ..linalg import (
    SingularMatrixError,
    laplacian_pseudoinverse,
    log_pseudo_determinant,
    solve_linear,
    sym_matrix,
)
from . import BlockFailure
from .homcount import count_all_patterns, overflows_int64
from .simplicial import clique_complex, hodge_laplacian
from .transport import wasserstein_1

DEFAULT_MAGNITUDE_Q = math.exp(-0.42)
DEFAULT_LAZINESS = 0.5
DEFAULT_TORSION_DIM = 2
POWER_TRACE_EXPONENTS = (4, 8)

N_PATTERNS = 31


def magnitude(g: Graph, q: float = DEFAULT_MAGNITUDE_Q) -> float:
    """Sum of all entries of Z(q)^{-1} with Z_ij = q^{d(i,j)}.

    Cross-component entries take q^inf = 0. Computed via one linear solve
    Z x = 1 (the magnitude is sum(x)), not a full inversion.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"magnitude scale q must be in (0, 1), got {q}")
    n = g.n_vertices
    if n == 0:
        return 0.0
    dist = bfs_all_pairs(g)
    z = np.where(dist == UNREACHABLE, 0.0, np.power(q, dist, dtype=np.float64))
    try:
        x = solve_linear(sym_matrix(z), np.ones(n))
    except SingularMatrixError:
        raise BlockFailure("singular magnitude matrix") from None
    return float(np.sum(x))


def analytic_torsion(g: Graph, max_dim: int = DEFAULT_TORSION_DIM) -> float:
    """Alternating product of Hodge-Laplacian pseudo-determinants of the
    clique complex: prod_p pdet(L_p)^{p (-1)^{p+1}}, accumulated in
    log-space. The p = 0 exponent vanishes, so the product starts at 1."""
    skeleton = clique_complex(g, max_dim)
    log_total = 0.0
    for p in range(1, max_dim + 1):
        exponent = p * (-1.0) ** (p + 1)
        log_total += exponent * log_pseudo_determinant(hodge_laplacian(skeleton, p))
    return math.exp(log_total)


def homomorphism_counts(g: Graph, log1p: bool = False) -> np.ndarray:
    """Counts of maps from each of the 31 catalog patterns (catalog order);
    optionally log1p-compressed. Fails on 64-bit overflow."""
    counts = count_all_patterns(g)
    if overflows_int64(counts):
        raise BlockFailure("count exceeds 64-bit range")
    arr = np.array(counts, dtype=np.float64)
    return np.log1p(arr) if log1p else arr


# ---------------------------------------------------------------------------
# Edge-curvature distributions


@dataclass(frozen=True)
class EdgeDistribution:
    """Per-edge values with their first four empirical moments.

    Variance is the population variance; skewness and kurtosis are
    standardized central moments (kurtosis non-excess); zero-variance
    distributions report skewness 0 and kurtosis 0.
    """

    values: np.ndarray
    mean: float
    variance: float
    skewness: float
    kurtosis: float


def edge_distribution(values: np.ndarray) -> EdgeDistribution:
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    centered = values - mean
    variance = float(np.mean(centered**2))
    # Degenerate distributions take (0, 0): the cutoff treats a standard
    # deviation at rounding scale as zero, since standardizing by it would
    # only amplify noise in the per-edge values.
    sigma_floor = 1e-9 * max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    if variance > sigma_floor**2:
        sigma = math.sqrt(variance)
        skewness = float(np.mean(centered**3)) / sigma**3
        kurtosis = float(np.mean(centered**4)) / sigma**4
    else:
        skewness = 0.0
        kurtosis = 0.0
    values = values.copy()
    values.flags.writeable = False
    return EdgeDistribution(values, mean, variance, skewness, kurtosis)


@per_graph
def forman_ricci(g: Graph) -> EdgeDistribution:
    """Combinatorial edge curvature 4 - (deg(i) + deg(j))."""
    if g.n_edges == 0:
        raise BlockFailure("Forman curvature needs at least one edge")
    deg = degree_vector(g)
    values = np.array([4.0 - deg[u] - deg[v] for u, v in g.edges])
    return edge_distribution(values)


def _lazy_walk_measure(vertex: int, nbrs, alpha: float) -> tuple[list[int], np.ndarray]:
    support = [vertex] + sorted(nbrs[vertex])
    weights = np.empty(len(support))
    weights[0] = alpha
    if len(support) > 1:
        weights[1:] = (1.0 - alpha) / (len(support) - 1)
    else:
        weights[0] = 1.0
    return support, weights


@per_graph
def ollivier_ricci(g: Graph, alpha: float = DEFAULT_LAZINESS) -> EdgeDistribution:
    """Per-edge curvature 1 - W_1(mu_i, mu_j) of the lazy random walk with
    laziness `alpha`, with exact transport on the endpoint neighbourhoods."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"laziness must lie in [0, 1), got {alpha}")
    if g.n_edges == 0:
        raise BlockFailure("Ollivier curvature needs at least one edge")
    nbrs = adjacency_sets(g)
    dist = bfs_all_pairs(g)
    values = np.empty(g.n_edges)
    for e, (u, v) in enumerate(g.edges):
        sup_u, mu = _lazy_walk_measure(u, nbrs, alpha)
        sup_v, nu = _lazy_walk_measure(v, nbrs, alpha)
        cost = dist[np.ix_(sup_u, sup_v)].astype(np.float64)
        values[e] = 1.0 - wasserstein_1(mu, nu, cost)
    return edge_distribution(values)


# ---------------------------------------------------------------------------
# Commute times and neighbourhood power traces


@per_graph
def commute_times(g: Graph) -> tuple[float, float]:
    """(mean, max) of vol(V) (Lp_ii + Lp_jj - 2 Lp_ij) over all ordered
    pairs, diagonal included. Disconnected graphs evaluate the formula
    as-is (the pseudoinverse mixes components)."""
    n = g.n_vertices
    if n == 0:
        return 0.0, 0.0
    lp = laplacian_pseudoinverse(g).entries
    diag = np.diag(lp)
    c = (diag[:, None] + diag[None, :] - 2.0 * lp) * (2.0 * g.n_edges)
    return float(c.mean()), float(c.max())


@per_graph
def _neighbourhood_traces(g: Graph) -> MappingProxyType[tuple[int, bool], float]:
    """Sums over vertices of tr(A_N^4) and tr(A_N^8), with A_N the
    adjacency matrix induced on the open and on the closed neighbourhood
    N of the vertex, keyed by (p, closed). A_N is symmetric, so
    tr(A_N^4) = ||A_N^2||_F^2 and tr(A_N^8) = ||A_N^4||_F^2."""
    a = adjacency_matrix(g)
    totals = {(p, closed): 0.0 for closed in (False, True) for p in POWER_TRACE_EXPONENTS}
    for i in range(g.n_vertices):
        member = a[i] != 0
        for closed in (False, True):
            member[i] = closed
            idx = np.flatnonzero(member)
            sub = a[np.ix_(idx, idx)]
            sq = sub @ sub
            fourth = sq @ sq
            totals[4, closed] += float(np.vdot(sq, sq))
            totals[8, closed] += float(np.vdot(fourth, fourth))
    return MappingProxyType(totals)


def neighbourhood_power_trace(g: Graph, p: int, closed: bool = False) -> float:
    """Sum over vertices of tr((A restricted to the neighbourhood)^p),
    using the closed neighbourhood N[i] when `closed`."""
    if p not in POWER_TRACE_EXPONENTS:
        raise ValueError(f"power-trace exponent must be one of {POWER_TRACE_EXPONENTS}")
    return _neighbourhood_traces(g)[p, closed]
