"""Geometric and topological invariants: magnitude, analytic torsion,
homomorphism counts, edge-curvature distributions, commute times, and
neighbourhood power traces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from ..graph import Graph, UNREACHABLE, adjacency_matrix, adjacency_sets, bfs_all_pairs, degree_vector, per_graph
from ..linalg import eigenvalues_sym, laplacian_pseudoinverse, spectrum_log_pseudo_determinant
from . import BlockFailure
from .homcount import count_all_patterns, overflows_int64
from .patterns import PATTERN_CATALOG
from .simplicial import clique_complex
from .transport import transport_cost

DEFAULT_MAGNITUDE_Q = math.exp(-0.42)
DEFAULT_LAZINESS = 0.5
DEFAULT_TORSION_DIM = 2
POWER_TRACE_EXPONENTS = (4, 8)

N_PATTERNS = len(PATTERN_CATALOG)


def magnitude(g: Graph, q: float = DEFAULT_MAGNITUDE_Q) -> float:
    """Sum of all entries of Z(q)^{-1} with Z_ij = q^{d(i,j)}.

    Cross-component entries take q^inf = 0. Computed via one linear solve
    Z x = 1 (the magnitude is sum(x)), not a full inversion; Z is singular
    when the solve fails or leaves a residual above 1e-8 ||1||.
    """
    dist = bfs_all_pairs(g)
    z = np.where(dist == UNREACHABLE, 0.0, np.power(q, dist, dtype=np.float64))
    ones = np.ones(g.n_vertices)
    try:
        x = np.linalg.solve(z, ones)
    except np.linalg.LinAlgError:
        x = None
    if x is None or np.linalg.norm(z @ x - ones) > 1e-8 * np.linalg.norm(ones):
        raise BlockFailure("singular magnitude matrix")
    return float(np.sum(x))


def analytic_torsion(g: Graph, max_dim: int = DEFAULT_TORSION_DIM) -> float:
    """Alternating product prod_p pdet(L_p)^{p (-1)^{p+1}} of the clique
    complex's Hodge-Laplacian pseudo-determinants, p = 1..max_dim.

    L_p = B_p^T B_p + B_{p+1} B_{p+1}^T splits into orthogonal ranges
    because B_p B_{p+1} = 0, so the product telescopes to
    prod_q pdet(B_q^T B_q)^{(-1)^{q+1}}, q = 1..max_dim, and no L_p is
    built. Each factor comes from the smaller Gram matrix of B_q (B^T B
    when B has no more columns than rows, else B B^T: both share their
    nonzero spectrum). Accumulated in log-space.
    """
    log_total = 0.0
    for q, b in enumerate(clique_complex(g, max_dim)[1:], start=1):
        gram = b.T @ b if b.shape[1] <= b.shape[0] else b @ b.T
        log_total += (-1.0) ** (q + 1) * spectrum_log_pseudo_determinant(eigenvalues_sym(gram))
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
    distributions report skewness 0 and kurtosis 0. `values` keep the edge
    order; the moments are computed from the sorted values.
    """

    values: np.ndarray
    mean: float
    variance: float
    skewness: float
    kurtosis: float


def edge_distribution(values: np.ndarray) -> EdgeDistribution:
    values = np.asarray(values, dtype=np.float64)
    # Summed in sorted order, the moments depend on the values as a multiset,
    # not on the edge order or the vertex labels.
    ordered = np.sort(values)
    mean = float(ordered.mean())
    centered = ordered - mean
    variance = float(np.mean(centered**2))
    # Degenerate distributions take (0, 0): the cutoff treats a standard
    # deviation at rounding scale as zero, since standardizing by it would
    # only amplify noise in the per-edge values.
    sigma_floor = 1e-9 * max(1.0, float(np.max(np.abs(values))))
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
    u, v = np.array(g.edges).T
    values = 4.0 - deg[u] - deg[v]
    return edge_distribution(values)


@per_graph
def ollivier_ricci(g: Graph, alpha: float = DEFAULT_LAZINESS) -> EdgeDistribution:
    """Per-edge curvature 1 - W_1(mu_u, mu_v) of the lazy random walk with
    laziness `alpha`, with exact transport on the endpoint neighbourhoods.

    `alpha` is taken as its exact binary fraction P/Q. Scaled by
    L = Q d_u d_v, mu_u is an integer measure: P d_u d_v at u and
    (Q - P) d_v at each neighbour of u; mu_v likewise around v. Only the
    signed difference mu_u - mu_v is moved, since W_1(mu, nu) =
    W_1((mu - nu)^+, (mu - nu)^-) under the graph metric, and sources with
    equal cost rows are merged, their masses summed. When u is a source
    and v a sink, min(excess_u, -excess_v) first goes along the edge at
    cost 1. That is optimal: every source x lies in B_1(u) and every sink
    y in B_1(v), so d(x, y) <= 1 + min(d(u, y), d(x, v)), and as all
    common neighbours carry the sign of d_v - d_u, d(u, y) = d(x, v) = 1
    cannot hold together; uncrossing u -> y and x -> v into u -> v and
    x -> y therefore never costs more. The rest is one balanced integer
    instance, handed unchecked to `transport.transport_cost` with the
    merged source masses, the sink masses and the merged cost rows; its
    least-cost start certifies itself as optimal for almost every edge,
    and the basis tree is built only when a pivot is due. The optimum C
    is then an exact integer and the value (L - C) / L is one correctly
    rounded division, so it depends neither on the pivot order nor on the
    vertex labels.
    """
    if g.n_edges == 0:
        raise BlockFailure("Ollivier curvature needs at least one edge")
    p, q = float(alpha).as_integer_ratio()
    nbrs = adjacency_sets(g)
    dist = bfs_all_pairs(g).tolist()
    values = np.empty(g.n_edges)
    for e, (u, v) in enumerate(g.edges):
        du, dv = len(nbrs[u]), len(nbrs[v])
        scale = q * du * dv
        excess = dict.fromkeys(nbrs[u], (q - p) * dv)
        excess[u] = p * du * dv
        step = (q - p) * du
        for y in nbrs[v]:
            excess[y] = excess.get(y, 0) - step
        excess[v] -= p * du * dv
        routed = max(0, min(excess[u], -excess[v]))  # u a source and v a sink
        excess[u] -= routed
        excess[v] += routed
        sinks = [y for y, r in excess.items() if r < 0]
        # itemgetter of one index returns the bare cost, not a 1-tuple
        to_sinks = itemgetter(*sinks) if len(sinks) > 1 else lambda row: tuple([row[y] for y in sinks])
        supply: dict[tuple[int, ...], int] = {}  # cost row to the sinks -> mass
        for x, r in excess.items():
            if r > 0:
                key = to_sinks(dist[x])
                supply[key] = supply.get(key, 0) + r
        moved = routed + transport_cost(list(supply.values()), [-excess[y] for y in sinks], list(supply))
        values[e] = (scale - moved) / scale
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
    lp = laplacian_pseudoinverse(g)
    diag = np.diag(lp)
    c = (diag[:, None] + diag[None, :] - 2.0 * lp) * (2.0 * g.n_edges)
    return float(c.mean()), float(c.max())


@per_graph
def neighbourhood_traces(g: Graph) -> MappingProxyType[tuple[int, bool], float]:
    """Sums over vertices of tr(A_N^4) and tr(A_N^8), with A_N the
    adjacency matrix induced on the open and on the closed neighbourhood
    N of the vertex, keyed by (p, closed). A_N is symmetric, so
    tr(A_N^4) = ||A_N^2||_F^2 and tr(A_N^8) = ||A_N^4||_F^2.

    Vertices whose neighbourhoods have the same size k are taken together:
    their k x k matrices A_N are stacked, at most n * n entries at a time,
    and squared by one batched product. Each sum adds the per-vertex
    values in vertex order."""
    a = adjacency_matrix(g)
    n = g.n_vertices
    totals = {}
    for closed in (False, True):
        member = a != 0
        np.fill_diagonal(member, closed)
        size = member.sum(axis=1)
        fours, eights = np.zeros(n), np.zeros(n)
        for k in set(size.tolist()) - {0}:  # not np.unique, whose first call imports numpy.ma
            group = np.flatnonzero(size == k)
            batch = n * n // (k * k)
            for start in range(0, len(group), batch):
                vs = group[start:start + batch]
                idx = np.nonzero(member[vs])[1].reshape(len(vs), k)
                sub = a[idx[:, :, None], idx[:, None, :]]
                sq = sub @ sub
                fourth = sq @ sq
                fours[vs] = np.einsum("vij,vij->v", sq, sq)
                eights[vs] = np.einsum("vij,vij->v", fourth, fourth)
        for p, values in ((4, fours), (8, eights)):
            total = 0.0
            for value in values.tolist():
                total += value
            totals[p, closed] = total
    return MappingProxyType(totals)
