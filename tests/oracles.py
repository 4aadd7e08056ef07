"""Independent reference implementations used as test oracles.

Nothing here shares helpers with the package: distances come from a
Floyd-Warshall pass, degrees are recounted from the edge list, and the
heavier oracles (spanning-tree deletion/contraction, exhaustive
homomorphism enumeration, exhaustive transport-plan search) use their
own data structures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

INF = math.inf


def floyd_warshall(n: int, edges) -> list[list[float]]:
    d = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = 1.0
        d[v][u] = 1.0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u][v] = 1.0
        a[v][u] = 1.0
    return a


def components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Naive molecular indices (double loops, finite distances only)


def wiener(n, edges):
    d = floyd_warshall(n, edges)
    return 0.5 * sum(d[i][j] for i in range(n) for j in range(n) if d[i][j] != INF)


def hyper_wiener(n, edges):
    d = floyd_warshall(n, edges)
    return 0.5 * sum(
        d[i][j] + d[i][j] ** 2 for i in range(n) for j in range(n) if d[i][j] != INF
    )


def randic(n, edges):
    deg = degrees(n, edges)
    return sum(1.0 / math.sqrt(deg[u] * deg[v]) for u, v in edges)


def general_randic(n, edges, c):
    deg = degrees(n, edges)
    return sum((deg[u] * deg[v]) ** c for u, v in edges)


def atom_bond_connectivity(n, edges):
    deg = degrees(n, edges)
    return sum(math.sqrt((deg[u] + deg[v] - 2) / (deg[u] * deg[v])) for u, v in edges)


def geometric_arithmetic(n, edges):
    deg = degrees(n, edges)
    return sum(2.0 * math.sqrt(deg[u] * deg[v]) / (deg[u] + deg[v]) for u, v in edges)


def estrada(n, edges):
    lam = np.linalg.eigvals(adjacency(n, edges))
    return float(np.sum(np.exp(lam.real)))


def zagreb_first(n, edges):
    return float(sum(d**2 for d in degrees(n, edges)))


def zagreb_second(n, edges):
    deg = degrees(n, edges)
    return float(sum(deg[u] * deg[v] for u, v in edges))


def forgotten(n, edges):
    return float(sum(d**3 for d in degrees(n, edges)))


def schultz(n, edges):
    d = floyd_warshall(n, edges)
    deg = degrees(n, edges)
    return 0.5 * sum(
        d[i][j] * (deg[i] + deg[j])
        for i in range(n)
        for j in range(n)
        if d[i][j] != INF
    )


def gutman(n, edges):
    d = floyd_warshall(n, edges)
    deg = degrees(n, edges)
    return 0.5 * sum(
        d[i][j] * deg[i] * deg[j]
        for i in range(n)
        for j in range(n)
        if d[i][j] != INF
    )


def szeged(n, edges):
    d = floyd_warshall(n, edges)
    total = 0
    for u, v in edges:
        n_u = sum(1 for k in range(n) if d[k][u] != INF and d[k][v] != INF and d[k][u] < d[k][v])
        n_v = sum(1 for k in range(n) if d[k][u] != INF and d[k][v] != INF and d[k][v] < d[k][u])
        total += n_u * n_v
    return float(total)


def balaban(n, edges):
    if not edges:
        return 0.0
    d = floyd_warshall(n, edges)
    sums = [sum(x for x in row if x != INF) for row in d]
    rank = len(edges) - n + len(components(n, edges))
    return len(edges) / (rank + 1) * sum(
        1.0 / math.sqrt(sums[u] * sums[v]) for u, v in edges
    )


NAIVE_INDICES = {
    "wiener": wiener,
    "randic": randic,
    "atom_bond_connectivity": atom_bond_connectivity,
    "geometric_arithmetic": geometric_arithmetic,
    "hyper_wiener": hyper_wiener,
    "estrada": estrada,
    "zagreb_first": zagreb_first,
    "zagreb_second": zagreb_second,
    "schultz": schultz,
    "gutman": gutman,
    "szeged": szeged,
    "forgotten": forgotten,
    "balaban": balaban,
}


# ---------------------------------------------------------------------------
# Spanning trees by deletion/contraction on multigraphs


def spanning_trees_deletion_contraction(n: int, edges) -> int:
    """tau(G) = tau(G - e) + tau(G / e), with disconnection pruning."""

    def connected(nv, es):
        if nv <= 1:
            return True
        adj = {v: set() for v in range(nv)}
        for a, b in es:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == nv

    def rec(nv, es):
        if not connected(nv, es):
            return 0
        if nv == 1:
            return 1
        u, v = es[0]
        rest = es[1:]
        deleted = rec(nv, rest)
        # contract: merge v into u, relabel the last vertex into v's slot
        merged = []
        for a, b in rest:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                merged.append((a2, b2))
        relabeled = []
        last = nv - 1
        for a, b in merged:
            a2 = v if a == last else a
            b2 = v if b == last else b
            relabeled.append((a2, b2))
        contracted = rec(nv - 1, relabeled if v != last else merged)
        return deleted + contracted

    return rec(n, list(edges))


# ---------------------------------------------------------------------------
# Analytic torsion from the Hodge Laplacians


def analytic_torsion_hodge(n: int, edges, max_dim: int) -> float:
    """prod_{p=1..max_dim} pdet(L_p)^{p (-1)^{p+1}} with every Hodge
    Laplacian L_p = B_p^T B_p + B_{p+1} B_{p+1}^T built (B_{max_dim+1} = 0).
    Cliques come from testing every vertex subset."""
    adj = {frozenset(e) for e in edges}
    simplices = [
        [s for s in combinations(range(n), p + 1) if all(frozenset(f) in adj for f in combinations(s, 2))]
        for p in range(max_dim + 1)
    ]
    bounds = [np.zeros((0, n))]
    for p in range(1, max_dim + 1):
        row = {s: i for i, s in enumerate(simplices[p - 1])}
        b = np.zeros((len(simplices[p - 1]), len(simplices[p])))
        for col, s in enumerate(simplices[p]):
            for i in range(p + 1):
                b[row[s[:i] + s[i + 1:]], col] = (-1) ** i
        bounds.append(b)
    log_total = 0.0
    for p in range(1, max_dim + 1):
        lap = bounds[p].T @ bounds[p]
        if p < max_dim:
            lap = lap + bounds[p + 1] @ bounds[p + 1].T
        lam = np.linalg.eigvalsh(lap)
        keep = lam[lam > 1e-9 * max(1.0, float(np.max(np.abs(lam), initial=0.0)))]
        log_total += p * (-1) ** (p + 1) * float(np.sum(np.log(keep)))
    return math.exp(log_total)


# ---------------------------------------------------------------------------
# Neighbourhood power traces by explicit matrix powers


def neighbourhood_power_trace(n: int, edges, p: int, closed: bool) -> float:
    """Sum over vertices of tr(A_N^p), A_N induced on the open (or closed)
    neighbourhood, each trace from a matrix power, added in vertex order."""
    a = adjacency(n, edges)
    total = 0.0
    for i in range(n):
        idx = [j for j in range(n) if a[i][j] or (closed and j == i)]
        if idx:
            sub = a[np.ix_(idx, idx)]
            total += float(np.trace(np.linalg.matrix_power(sub, p)))
    return total


# ---------------------------------------------------------------------------
# Exhaustive homomorphism enumeration


def count_homomorphisms_exhaustive(pattern_n, pattern_edges, host_n, host_edges) -> int:
    """Check every one of host_n^pattern_n vertex maps."""
    adj = [[False] * host_n for _ in range(host_n)]
    for u, v in host_edges:
        adj[u][v] = True
        adj[v][u] = True
    total = 0
    for phi in product(range(host_n), repeat=pattern_n):
        if all(adj[phi[u]][phi[v]] for u, v in pattern_edges):
            total += 1
    return total


def count_homomorphisms_einsum(pattern_n, pattern_edges, host_adjacency: np.ndarray) -> int:
    """Dense contraction over all vertex maps (independent of the DP path)."""
    if not pattern_edges:
        return host_adjacency.shape[0] ** pattern_n
    letters = "abcde"
    subs = ",".join(letters[u] + letters[v] for u, v in pattern_edges)
    value = np.einsum(subs + "->", *([host_adjacency] * len(pattern_edges)), optimize=False)
    return int(round(float(value)))


def min_width_order(n: int, edges) -> tuple[int, ...]:
    """The first vertex order, over all permutations in lexicographic
    order, that is connected (each vertex after the first has an earlier
    neighbour) and holds the fewest vertices at once. Placing a vertex
    holds it together with every earlier vertex that still has a later
    neighbour."""
    nbrs = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    best = None
    for order in permutations(range(n)):
        width = 0
        for t, v in enumerate(order):
            earlier = set(order[:t])
            if t and not nbrs[v] & earlier:
                break
            held = sum(1 for w in earlier if nbrs[w] - earlier)
            width = max(width, held + 1)
        else:
            if best is None or width < best[0]:
                best = (width, order)
    return best[1]


# ---------------------------------------------------------------------------
# Exhaustive 1-Wasserstein via basic feasible solutions (exact rationals)


def wasserstein_exhaustive(mu, nu, cost) -> Fraction:
    """Minimum transport cost over every spanning-tree basic solution of
    the m x n transportation polytope."""
    mu = [Fraction(x).limit_denominator(10**9) for x in mu]
    nu = [Fraction(x).limit_denominator(10**9) for x in nu]
    m, n = len(mu), len(nu)
    cells = [(i, j) for i in range(m) for j in range(n)]
    best: Fraction | None = None
    for basis in combinations(cells, m + n - 1):
        plan = _solve_tree_plan(mu, nu, basis, m, n)
        if plan is None:
            continue
        value = sum(Fraction(cost[i][j]) * w for (i, j), w in plan.items())
        if best is None or value < best:
            best = value
    assert best is not None, "no feasible basic solution found"
    return best


def _solve_tree_plan(mu, nu, basis, m, n):
    """Solve row/column balance on a candidate basis by leaf peeling;
    returns None when the basis is cyclic or yields a negative entry."""
    row_cells = {i: set() for i in range(m)}
    col_cells = {j: set() for j in range(n)}
    for i, j in basis:
        row_cells[i].add((i, j))
        col_cells[j].add((i, j))
    supply = {("r", i): Fraction(mu[i]) for i in range(m)}
    supply.update({("c", j): Fraction(nu[j]) for j in range(n)})
    remaining = set(basis)
    plan: dict[tuple[int, int], Fraction] = {}
    while remaining:
        leaf = None
        for i, j in remaining:
            if len(row_cells[i]) == 1:
                leaf, node = (i, j), ("r", i)
                break
            if len(col_cells[j]) == 1:
                leaf, node = (i, j), ("c", j)
                break
        if leaf is None:
            return None  # cycle: not a basic solution
        i, j = leaf
        w = supply[node]
        if w < 0:
            return None
        plan[leaf] = w
        supply[("r", i)] -= w
        supply[("c", j)] -= w
        remaining.discard(leaf)
        row_cells[i].discard(leaf)
        col_cells[j].discard(leaf)
    if any(v != 0 for v in supply.values()):
        return None
    if any(w < 0 for w in plan.values()):
        return None
    return plan


# ---------------------------------------------------------------------------
# Random-walk commute-time simulation


def commute_time_simulation(n, edges, i, j, walks=4000, rng=None) -> float:
    """Monte-Carlo estimate of E[time i -> j -> i] on the simple random walk."""
    import random

    rng = rng or random.Random(0)
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    for _ in range(walks):
        pos, steps = i, 0
        target = j
        while True:
            pos = rng.choice(adj[pos])
            steps += 1
            if pos == target:
                if target == i:
                    break
                target = i
        total += steps
    return total / walks


# ---------------------------------------------------------------------------
# Pair differentiation, one block at a time


def block_difference(left, right, tol: float, mode: str) -> tuple[bool, float]:
    """Verdict and largest difference of one block between the two
    InvariantValues of a pair: relative to the larger magnitude with a
    floor of 1, or absolute. Never differentiated when either side failed."""
    if not (left.ok and right.ok):
        return False, float("nan")
    a, b = left.values, right.values
    with np.errstate(invalid="ignore"):  # the same infinity on both sides gives NaN
        abs_diff = np.abs(a - b)
        if mode == "relative":
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
            delta = float(np.max(abs_diff / scale)) if abs_diff.size else 0.0
        else:
            delta = float(np.max(abs_diff)) if abs_diff.size else 0.0
    return delta > tol, delta
