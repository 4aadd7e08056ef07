"""Exact 1-Wasserstein distance between small discrete integer measures.

Solved with a transportation simplex specialized for the tiny dense
instances that arise from neighbourhood measures. Its one entry,
`transport_cost`, takes a balanced instance as Python ints, already in
serving order, and checks nothing: `topo.ollivier_ricci` builds its
instances balanced by construction, and the tests check it against a
checked reference entry, an exhaustive plan search and `linprog`. When an
edge uv has a source u and a sink v, `topo.ollivier_ricci` first sends
the edge's own mass along uv, so the instance lacks u's row or v's column.

The caller orders each instance: `topo.ollivier_ricci` puts rows and
columns in descending order of cost sum, so that among equal costs the
ones with the fewest cheap cells are served first, and lists the cells in
ascending cost order, ties in row-major order. The solver walks, certifies
and pivots. The least-cost start takes the cells in the given order; each
closes exactly one row or column, so the m + n - 1 basic cells form a
spanning tree of the row and column nodes, and one column is never
closed. Walking the closings backwards from that column gives the dual
potentials, u_i + v_j = c_ij on every basic cell: a cell that closed a
row meets a column closed later (or never), and one that closed a column
meets a row closed later. With the order above the start is almost always
optimal, and it certifies itself: when no cell has a negative reduced
cost c_ij - u_i - v_j, its cost is the optimum and no tree is built.
Otherwise the simplex pivots by Bland's rule from that basis: the first
cell in row-major order of negative reduced cost enters, and of the tree
cells that could leave, the one of least index leaves, so the simplex
cannot cycle. Only then is the basis tree built, and it is rebuilt with
its potentials after each pivot.

Masses, costs, flows and potentials are Python ints (which may pass int64),
so every reduced cost and mass update is exact and so is the optimum.
"""

from __future__ import annotations

from . import BlockFailure


class TransportError(BlockFailure):
    """Transport solver failed to terminate (should not happen on balanced
    inputs): a declared block failure."""


def _least_cost_start(a: list[int], b: list[int], cf: list[int], n: int, order: list[int]) -> tuple[dict[int, int], list[int]]:
    """Flows of the m + n - 1 basic cells by row-major index, taking cells
    in the given `order` (ascending cost, ties by index), and the dual
    potentials of that basis: rows are nodes 0..m-1, column j is node
    m + j, and the column never closed has potential 0. Uses up `a` and
    `b`. A cell reached with its row and column open moves min(a_i, b_j)
    and closes its row if that empties the row, else its column; the last
    open row closes only with the last open column."""
    m = len(a)
    row_open, col_open = [True] * m, [True] * n
    rows_left, cols_left = m, n
    flow: dict[int, int] = {}
    closings: list[tuple[int, int, int]] = []  # closed node, its open partner, cost
    for cell in order:
        i, j = divmod(cell, n)
        if row_open[i] and col_open[j]:
            ai, bj = a[i], b[j]
            if cols_left == 1 or (rows_left > 1 and ai <= bj):
                flow[cell] = ai
                b[j] = bj - ai
                closings.append((i, m + j, cf[cell]))
                row_open[i] = False
                rows_left -= 1
                if rows_left == 0:
                    break
            else:
                flow[cell] = bj
                a[i] = ai - bj
                closings.append((m + j, i, cf[cell]))
                col_open[j] = False
                cols_left -= 1
    pot = [0] * (m + n)
    for x, y, c in reversed(closings):
        pot[x] = c - pot[y]
    return flow, pot


def _tree(flow: dict[int, int], cf: list[int], m: int, n: int):
    """Parent, depth and dual potential of every node of the tree of the
    basic cells in `flow`, hung from row 0 with potential 0, so that
    cost = u_i + v_j on every tree edge. Rows are nodes 0..m-1, column j
    is node m + j."""
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for cell in flow:
        i, j = divmod(cell, n)
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0] * (m + n)
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != parent[x]:
                parent[y], depth[y] = x, depth[x] + 1
                pot[y] = (cf[y * n + x - m] if y < m else cf[x * n + y - m]) - pot[x]
                stack.append(y)
    return parent, depth, pot


def _bland(cf: list[int], pot: list[int], flow: dict[int, int], m: int, n: int) -> int:
    """First non-basic cell, in row-major order, of negative reduced cost,
    or -1."""
    cols = pot[m:]
    k = 0
    for i in range(m):
        u = pot[i]
        for v in cols:
            if cf[k] - u - v < 0 and k not in flow:
                return k
            k += 1
    return -1


def transport_cost(supply: list[int], demand: list[int], cf: list[int], order: list[int]) -> int:
    """Exact optimum of the balanced instance moving `supply` (m,) to
    `demand` (n,) at the row-major costs `cf` (m * n), all Python ints with
    non-negative masses of equal totals, whose cells `order` lists in
    ascending cost order, ties by index. Uses up `supply` and `demand`.
    Nothing is checked."""
    m, n = len(supply), len(demand)
    flow, pot = _least_cost_start(supply, demand, cf, n, order)
    # The start is optimal unless a cell prices negative under its own
    # potentials; only then does Bland's rule pivot, from the same basis.
    if _bland(cf, pot, flow, m, n) >= 0:
        for _ in range(200 * (m + n)):
            parent, depth, pot = _tree(flow, cf, m, n)
            entering = _bland(cf, pot, flow, m, n)
            if entering < 0:
                break
            i0, j0 = divmod(entering, n)

            # The tree path from column j0 up to the common ancestor and
            # down to row i0 closes the cycle; its cells alternate -theta,
            # +theta.
            up_col, up_row = [], []
            x, y = m + j0, i0
            while x != y:
                if depth[x] >= depth[y]:
                    up_col.append(x)
                    x = parent[x]
                else:
                    up_row.append(y)
                    y = parent[y]
            cells = [x * n + parent[x] - m if x < m else parent[x] * n + x - m for x in up_col + up_row[::-1]]
            k = min(range(0, len(cells), 2), key=lambda s: (flow[cells[s]], cells[s]))
            theta = flow[cells[k]]
            for s, cell in enumerate(cells):
                flow[cell] += theta if s % 2 else -theta
            del flow[cells[k]]
            flow[entering] = theta
        else:
            raise TransportError(f"transportation simplex did not terminate ({m}x{n})")

    return sum(cf[cell] * f for cell, f in flow.items())
