"""Entropy-flavoured invariants: degree entropy, von Neumann entropy, and
a compressed-edge-list complexity proxy.

The complexity proxy is bit-deterministic: edges are canonically ordered,
serialized as little-endian uint32 pairs, and compressed as a raw DEFLATE
stream at level 6. Note it is invariant to edge *input order* but not to
vertex relabeling (the byte stream encodes vertex ids as given).
"""

from __future__ import annotations

import zlib

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
    if n == 0:
        return 0.0
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


def kolmogorov_proxy(g: Graph) -> int:
    """Byte length of the DEFLATE-compressed canonical edge list."""
    pairs = np.asarray(sorted(g.edges), dtype="<u4")
    payload = pairs.tobytes() if pairs.size else b""
    comp = zlib.compressobj(level=6, wbits=-15)  # raw deflate, no container
    blob = comp.compress(payload) + comp.flush()
    return len(blob)
