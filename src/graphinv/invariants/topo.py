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
    NumericalError,
    SingularMatrixError,
    laplacian_pseudoinverse,
    log_pseudo_determinant,
    solve_linear,
    sym_matrix,
)
from . import InvariantValue, value_failed, value_ok
from .homcount import count_all_patterns, overflows_int64
from .simplicial import clique_complex, hodge_laplacian
from .transport import TransportError, wasserstein_1

DEFAULT_MAGNITUDE_Q = math.exp(-0.42)
DEFAULT_LAZINESS = 0.5
DEFAULT_TORSION_DIM = 2
POWER_TRACE_EXPONENTS = (4, 8)

N_PATTERNS = 31


def magnitude(g: Graph, q: float = DEFAULT_MAGNITUDE_Q) -> InvariantValue:
    """Sum of all entries of Z(q)^{-1} with Z_ij = q^{d(i,j)}.

    Cross-component entries take q^inf = 0. Computed via one linear solve
    Z x = 1 (the magnitude is sum(x)), not a full inversion.
    """
    name = "magnitude"
    if not 0.0 < q < 1.0:
        raise ValueError(f"magnitude scale q must be in (0, 1), got {q}")
    n = g.n_vertices
    if n == 0:
        return value_ok(name, 0.0)
    dist = bfs_all_pairs(g)
    z = np.where(dist == UNREACHABLE, 0.0, np.power(q, dist, dtype=np.float64))
    try:
        x = solve_linear(sym_matrix(z), np.ones(n))
    except SingularMatrixError:
        return value_failed(name, 1, "singular magnitude matrix")
    return value_ok(name, float(np.sum(x)))


def analytic_torsion(g: Graph, max_dim: int = DEFAULT_TORSION_DIM) -> InvariantValue:
    """Alternating product of Hodge-Laplacian pseudo-determinants of the
    clique complex: prod_p pdet(L_p)^{p (-1)^{p+1}}, accumulated in
    log-space. The p = 0 exponent vanishes, so the product starts at 1."""
    name = "analytic_torsion"
    try:
        skeleton = clique_complex(g, max_dim)
        log_total = 0.0
        for p in range(1, max_dim + 1):
            exponent = p * (-1.0) ** (p + 1)
            log_total += exponent * log_pseudo_determinant(hodge_laplacian(skeleton, p))
        return value_ok(name, math.exp(log_total))
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))


def homomorphism_counts(g: Graph, log1p: bool = False) -> InvariantValue:
    """Counts of maps from each of the 31 catalog patterns (catalog order);
    optionally log1p-compressed. Fails on 64-bit overflow."""
    name = "homomorphism_counts"
    counts = count_all_patterns(g)
    if overflows_int64(counts):
        return value_failed(name, N_PATTERNS, "count exceeds 64-bit range")
    arr = np.array(counts, dtype=np.float64)
    return value_ok(name, np.log1p(arr) if log1p else arr)


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
        raise ValueError("Forman curvature needs at least one edge")
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
        raise ValueError("Ollivier curvature needs at least one edge")
    nbrs = adjacency_sets(g)
    dist = bfs_all_pairs(g)
    values = np.empty(g.n_edges)
    for e, (u, v) in enumerate(g.edges):
        sup_u, mu = _lazy_walk_measure(u, nbrs, alpha)
        sup_v, nu = _lazy_walk_measure(v, nbrs, alpha)
        cost = dist[np.ix_(sup_u, sup_v)].astype(np.float64)
        values[e] = 1.0 - wasserstein_1(mu, nu, cost)
    return edge_distribution(values)


def _curvature_moment_values(g: Graph, which: str, alpha: float) -> EdgeDistribution:
    if which == "forman":
        return forman_ricci(g)
    return ollivier_ricci(g, alpha)


def curvature_moment(g: Graph, which: str, moment: str, alpha: float = DEFAULT_LAZINESS) -> InvariantValue:
    """One summary moment of a curvature distribution as a named invariant."""
    name = f"{which}_ricci_{moment}"
    try:
        dist = _curvature_moment_values(g, which, alpha)
    except ValueError as exc:
        return value_failed(name, 1, str(exc))
    except TransportError as exc:
        return value_failed(name, 1, str(exc))
    return value_ok(name, getattr(dist, moment))


# ---------------------------------------------------------------------------
# Commute times and neighbourhood power traces


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


def commute_time_mean(g: Graph) -> InvariantValue:
    name = "commute_time_mean"
    try:
        return value_ok(name, commute_times(g)[0])
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))


def commute_time_max(g: Graph) -> InvariantValue:
    name = "commute_time_max"
    try:
        return value_ok(name, commute_times(g)[1])
    except NumericalError as exc:
        return value_failed(name, 1, str(exc))


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


def neighbourhood_power_trace(g: Graph, p: int, closed: bool = False) -> InvariantValue:
    """Sum over vertices of tr((A restricted to the neighbourhood)^p),
    using the closed neighbourhood N[i] when `closed`."""
    name = f"neighbourhood_trace_{'closed' if closed else 'open'}_p{p}"
    if p not in POWER_TRACE_EXPONENTS:
        raise ValueError(f"power-trace exponent must be one of {POWER_TRACE_EXPONENTS}")
    return value_ok(name, _neighbourhood_traces(g)[p, closed])
