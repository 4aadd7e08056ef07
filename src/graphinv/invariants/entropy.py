"""Entropy-flavoured invariants: the entropy of the degree histogram and
the von Neumann entropy of the normalized-Laplacian spectrum."""

from __future__ import annotations

import numpy as np

from ..graph import Graph, degree_vector
from ..linalg import normalized_laplacian_spectrum


def degree_entropy(g: Graph) -> float:
    """Natural-log entropy of the degree histogram over degrees 1..n_V-1.

    Degree-0 vertices fall outside the summation range, so the histogram
    may be sub-normalized on graphs with isolated vertices.
    """
    deg = degree_vector(g)
    n = g.n_vertices
    total = 0.0
    counts = np.bincount(deg, minlength=n)
    for k in range(1, n):
        p = counts[k] / n
        if p > 0:
            total -= p * np.log(p)
    return total


def von_neumann_entropy(g: Graph) -> float:
    """-sum of (lam/n) log(lam/n) over the normalized-Laplacian spectrum,
    skipping the smallest eigenvalue; 0 log 0 := 0."""
    n = g.n_vertices
    if n < 2:
        return 0.0
    p = np.clip(normalized_laplacian_spectrum(g)[1:], 0.0, None) / n
    nz = p[p > 0]
    return -float(np.sum(nz * np.log(nz)))
