"""Geometric and topological invariants: magnitude, analytic torsion,
homomorphism counts, edge-curvature distributions, commute times, and
neighbourhood power traces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
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


#: Edges enter the Ollivier-Ricci pass in consecutive batches whose summed
#: |N[u]| |N[v]|, a bound on their transport cells, stays within this many
#: (an edge beyond it is a batch alone), so a dense graph never holds the
#: cells of all its edges at once. Each edge bounds at least 4 cells, so a
#: batch has at most 2**14 edges and edge * 4 + cost fits 16 bits.
_BATCH_CELLS = 2**16

#: Sinks per int64 code word of a cost row: every cost lies in {1, 2, 3}
#: and takes two bits.
_CODE_SINKS = 31


def _runs(first: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the runs [first_k, first_k + lens_k), run after run,
    and the run each index belongs to."""
    run = np.repeat(np.arange(len(lens)), lens)
    ends = np.cumsum(lens)
    return np.arange(run.size) + (first - ends + lens)[run], run


def _compare(d: np.ndarray, p: int, q: int) -> np.ndarray:
    """Sign of P (d + 1) - Q for each degree d, in exact arithmetic."""
    if p == 0:
        return np.full(d.shape, -1)
    t, r = divmod(q, p)  # P (d + 1) > Q exactly when d + 1 > Q // P
    if t > 2**62:
        return np.full(d.shape, -1)
    above = np.where(d + 1 > t, 1, -1)
    return np.where(d + 1 == t, 0, above) if r == 0 else above


def _affine(a: int, x: np.ndarray, b: int, y: np.ndarray) -> list[int]:
    """a x + b y elementwise as Python ints."""
    return [a * s + b * t for s, t in zip(x.tolist(), y.tolist())]


@per_graph
def ollivier_ricci(g: Graph, alpha: float = DEFAULT_LAZINESS) -> EdgeDistribution:
    """Per-edge curvature 1 - W_1(mu_u, mu_v) of the lazy random walk with
    laziness `alpha`, with exact transport on the endpoint neighbourhoods.

    `alpha` is taken as its exact binary fraction P/Q. Scaled by
    L = Q d_u d_v, mu_u is an integer measure: P d_u d_v at u and
    (Q - P) d_v at each neighbour of u; mu_v likewise around v. Only the
    signed difference mu_u - mu_v is moved, since W_1(mu, nu) =
    W_1((mu - nu)^+, (mu - nu)^-) under the graph metric. At x it is
    (Q - P) k_1 + P k_2 with k_1 = d_v [x in N(u)] - d_u [x in N(v)] and
    k_2 = d_u d_v at u, -d_u d_v at v and 0 elsewhere; u is a source when
    P (d_v + 1) > Q and v a sink when P (d_u + 1) > Q. Then
    min(excess_u, -excess_v) first goes along the edge at cost 1, which
    leaves (Q - P) max(d_v - d_u, 0) at u and (Q - P) min(d_v - d_u, 0) at
    v. That is optimal: every source x lies in B_1(u) and every sink y in
    B_1(v), so d(x, y) <= 1 + min(d(u, y), d(x, v)), and as all common
    neighbours carry the sign of d_v - d_u, d(u, y) = d(x, v) = 1 cannot
    hold together; uncrossing u -> y and x -> v into u -> v and x -> y
    therefore never costs more.

    One numpy pass per batch of edges (see `_BATCH_CELLS`) builds every
    remaining instance from small integers. Costs between sources and the
    disjoint sinks lie in {1, 2, 3}, so each source's cost row packs into
    int64 code words, 31 sinks a word; sources with equal codes are
    merged, their k_1 and k_2 summed, and only a merged row's mass becomes
    a Python int. The pass also orders each instance as the solver serves
    it: rows and columns in descending order of cost sum, so that among
    equal costs the lines with the fewest cheap cells come first (rows
    tied by their first source, columns by their place in N(u), then
    N(v)), and cells in ascending cost order, ties row-major.
    `transport.transport_cost` then walks, certifies and, when due,
    pivots each instance unchecked. The optimum C is an exact integer
    and the value (L - C) / L is one correctly rounded division, so it
    depends neither on the pivot order nor on the vertex labels.
    """
    if g.n_edges == 0:
        raise BlockFailure("Ollivier curvature needs at least one edge")
    p, q = float(alpha).as_integer_ratio()
    deg = degree_vector(g)
    dist = bfs_all_pairs(g)
    # Neighbour lists vertex after vertex; rows and columns tie in their order.
    nbr = np.fromiter(chain.from_iterable(adjacency_sets(g)), dtype=np.int64, count=2 * g.n_edges)
    first = np.cumsum(deg) - deg
    eu, ev = np.array(g.edges).T
    values = []
    lo, size = 0, 0
    bounds = ((deg[eu] + 1) * (deg[ev] + 1)).tolist()
    for e, cells in enumerate(bounds):
        if size and size + cells > _BATCH_CELLS:
            values += _curvatures(eu[lo:e], ev[lo:e], deg, dist, nbr, first, p, q)
            lo, size = e, 0
        size += cells
    values += _curvatures(eu[lo:], ev[lo:], deg, dist, nbr, first, p, q)
    return edge_distribution(np.array(values))


def _curvatures(u, v, deg, dist, nbr, first, p: int, q: int) -> list[float]:
    """Curvatures of the edges (u_k, v_k), their instances built and
    ordered in one pass (see `ollivier_ricci`)."""
    du, dv = deg[u], deg[v]
    x, edge, k1, k2, sign, routed = _excess(u, v, du, dv, dist, nbr, first, p, q)
    src, snk = sign > 0, sign < 0
    te = edge[snk]
    n_snk = np.bincount(te, minlength=len(u))
    snk_first = np.cumsum(n_snk) - n_snk
    me, a1, a2, cells = _merged_rows(x[src], edge[src], k1[src], k2[src], x[snk], snk_first, n_snk, dist)
    cols, cf, order = _serving_order(me, *cells, te, snk_first, n_snk)
    qp = q - p
    supply = _affine(qp, a1, p, a2)
    demand = _affine(qp, -k1[snk][cols], p, -k2[snk][cols])
    d2 = du * dv
    scales = _affine(qp, d2, p, d2)
    routes = _affine(qp, -np.maximum(du, dv) * routed, p, d2 * routed)
    cf = cf.tolist()
    values = []
    r = c = k = 0
    for scale, moved, m, n in zip(scales, routes, np.bincount(me, minlength=len(u)).tolist(), n_snk.tolist()):
        if m:  # no sources, no sinks
            mn = m * n
            # Listed one instance at a time: cell numbers past 256 are objects.
            moved += transport_cost(supply[r:r + m], demand[c:c + n], cf[k:k + mn], order[k:k + mn].tolist())
            r, c, k = r + m, c + n, k + mn
        values.append((scale - moved) / scale)
    return values


def _excess(u, v, du, dv, dist, nbr, first, p: int, q: int):
    """Every vertex of N(u) and N(v) of each edge, once: its edge, k_1,
    k_2 and the sign of its excess after routing, and whether each edge
    routes along itself."""
    # N(u) then N(v) \ N(u) of each edge: x in N(u) has
    # k_1 = d_v - d_u [x in N(v)] and y in N(v) \ N(u) has k_1 = -d_u.
    at, run = _runs(np.array([first[u], first[v]]).T.ravel(), np.array([du, dv]).T.ravel())
    x, edge, side = nbr[at], run >> 1, run & 1
    hit = dist[np.where(side, u[edge], v[edge]), x] == 1
    keep = (side == 0) | ~hit
    x, edge, side, hit = x[keep], edge[keep], side[keep], hit[keep]
    k1 = np.where(side, -du[edge], dv[edge] - du[edge] * hit)
    # The endpoints, one of each per edge in edge order: the signs of the
    # excess at u and of minus the excess at v, and what routing leaves.
    iu, iv = np.flatnonzero(x == u[edge]), np.flatnonzero(x == v[edge])
    cu, cv = _compare(dv, p, q), _compare(du, p, q)
    routed = (cu > 0) & (cv > 0)
    k1[iu] = np.where(routed, np.maximum(dv - du, 0), -du)
    k1[iv] = np.where(routed, np.minimum(dv - du, 0), dv)
    k2 = np.zeros_like(k1)
    k2[iu] = np.where(routed, 0, du * dv)
    k2[iv] = -k2[iu]
    sign = np.sign(k1) if q > p else np.zeros_like(k1)
    sign[iu] = np.where(routed, sign[iu], cu)
    sign[iv] = np.where(routed, sign[iv], -cv)
    return x, edge, k1, k2, sign, routed


def _merged_rows(sx, se, k1, k2, tx, snk_first, n_snk, dist):
    """Sources of equal cost rows merged: each merged row's edge and
    summed k_1 and k_2, in descending order of cost sum by edge, ties by
    first source, and its cells as (cost, sink, merged row)."""
    width = n_snk[se]
    col, row = _runs(snk_first[se], width)
    cost = dist[sx[row], tx[col]]
    j = col - snk_first[se][row]
    word = j % _CODE_SINKS == 0
    code = np.add.reduceat(cost << 2 * (j % _CODE_SINKS), np.flatnonzero(word))
    codes = np.zeros((len(sx), -(-int(width.max(initial=0)) // _CODE_SINKS)), dtype=np.int64)
    codes[row[word], j[word] // _CODE_SINKS] = code
    row_first = np.cumsum(width) - width
    row_sum = np.add.reduceat(cost, row_first)
    # Equal rows of an edge sit together, the first of them ahead.
    by = np.lexsort([*codes.T[::-1], se])
    codes, sorted_edge = codes[by], se[by]
    head = np.ones(len(by), dtype=bool)
    head[1:] = (sorted_edge[1:] != sorted_edge[:-1]) | (codes[1:] != codes[:-1]).any(axis=1)
    heads = np.flatnonzero(head)
    rep = by[heads]
    merged = np.lexsort((rep, -row_sum[rep], se[rep]))
    rep = rep[merged]
    at, mrow = _runs(row_first[rep], width[rep])
    a1 = np.add.reduceat(k1[by], heads)[merged]
    a2 = np.add.reduceat(k2[by], heads)[merged]
    return se[rep], a1, a2, (cost[at], col[at], mrow)


def _serving_order(me, cost, col, mrow, te, snk_first, n_snk):
    """The sinks of each edge in descending order of cost sum over the
    merged rows, ties in sink order, and the row-major costs of the merged
    instances with their cells in ascending cost order, ties row-major,
    numbered within each instance."""
    col_sum = np.bincount(col, weights=cost, minlength=len(te))
    cols = np.lexsort((-col_sum, te))
    rank = np.empty_like(cols)
    rank[cols] = np.arange(len(cols)) - snk_first[te[cols]]
    width = n_snk[me]
    cf = np.empty_like(cost)
    cf[(np.cumsum(width) - width)[mrow] + rank[col]] = cost
    cell_edge = np.repeat(me, width)
    # Below 2**16, numpy's stable sort is a radix sort (see _BATCH_CELLS).
    order = np.argsort((cell_edge * 4 + cf).astype(np.uint16), kind="stable")
    n_cells = np.bincount(cell_edge, minlength=len(n_snk))
    order -= (np.cumsum(n_cells) - n_cells)[cell_edge[order]]
    return cols, cf, order


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
