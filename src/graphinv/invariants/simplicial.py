"""The clique complex of a graph as its oriented boundary matrices, whose
Gram matrices give the analytic torsion.

Simplices are ordered lexicographically with orientation induced by
sorted vertex ids, so every matrix is reproducible.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, adjacency_sets


def clique_complex(g: Graph, max_dim: int) -> tuple[np.ndarray, ...]:
    """The boundary matrices (B_0, ..., B_max_dim) of the cliques of size
    1..max_dim+1: B_p is (#(p-1)-simplices, #p-simplices), and B_0 = 0 has
    no rows."""
    adj = adjacency_sets(g)
    by_dim: list[tuple[tuple[int, ...], ...]] = [
        tuple((v,) for v in range(g.n_vertices)),
    ]
    for p in range(1, max_dim + 1):
        prev = by_dim[p - 1]
        found = []
        for simplex in prev:
            # extend by vertices above the max id adjacent to all members
            common = adj[simplex[0]]
            for v in simplex[1:]:
                common = common & adj[v]
            for w in sorted(common):
                if w > simplex[-1]:
                    found.append(simplex + (w,))
        by_dim.append(tuple(sorted(found)))

    boundaries: list[np.ndarray] = [np.zeros((0, g.n_vertices))]  # B_0 = 0
    for p in range(1, max_dim + 1):
        faces = {s: i for i, s in enumerate(by_dim[p - 1])}
        b = np.zeros((len(by_dim[p - 1]), len(by_dim[p])))
        for col, simplex in enumerate(by_dim[p]):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1:]
                b[faces[face], col] = (-1.0) ** i
        boundaries.append(b)
    return tuple(boundaries)

