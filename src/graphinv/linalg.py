"""Dense symmetric linear algebra on plain float64 arrays: eigenvalues,
pseudoinverse and log pseudo-determinant, plus the graph Laplacians and
their spectra.

Every matrix passed in is exactly symmetric (adjacency, Laplacians and
boundary Gram matrices are, bit for bit), so nothing is symmetrized on
the way in. Every matrix and spectrum handed out is read-only.
Everything here is dense; the invariant suite targets graphs of modest
order, and dense eigh keeps results bit-deterministic for identical
input bits.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, adjacency_matrix, degree_vector, freeze, per_graph
from .invariants import BlockFailure


class NumericalError(BlockFailure):
    """Eigendecomposition failure: a declared block failure."""


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric matrix ``m``, ascending."""
    try:
        return freeze(np.linalg.eigvalsh(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for order {len(m)}: {exc}") from None


def default_rank_tol(eigenvalues: np.ndarray) -> float:
    """1e-10 scaled by the spectral radius (graph Laplacian spectra are
    integer-ish, so true zeros separate cleanly at this scale)."""
    radius = float(np.max(np.abs(eigenvalues), initial=0.0))
    return 1e-10 * max(radius, 1.0)


def pseudoinverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the symmetric ``m`` via
    eigendecomposition.

    Eigenvalues with ``|lam| <= default_rank_tol(lam)`` invert to 0, the
    rest to ``1/lam``, reassembled in the same eigenbasis. The reassembly
    is symmetric only up to rounding, so the result is (P + P^T) / 2.
    """
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for order {len(m)}: {exc}") from None
    inv = np.where(np.abs(lam) > default_rank_tol(lam), 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    p = (vec * inv) @ vec.T
    return freeze((p + p.T) / 2.0)


def spectrum_log_pseudo_determinant(lam: np.ndarray) -> float:
    """log |pseudo-determinant| from the eigenvalues ``lam``: the sum of the
    logs of those with ``|lam| > default_rank_tol(lam)`` (overflow-safe).

    Only valid for positive-semidefinite spectra, where the retained
    eigenvalues are positive.
    """
    keep = lam[np.abs(lam) > default_rank_tol(lam)]
    return float(np.sum(np.log(keep)))


# ---------------------------------------------------------------------------
# Graph matrices


@per_graph
def laplacian(g: Graph) -> np.ndarray:
    """Unnormalized Laplacian D - A."""
    return freeze(np.diag(degree_vector(g).astype(np.float64)) - adjacency_matrix(g))


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetrically normalized Laplacian D^{-1/2} (D - A) D^{-1/2}.

    Isolated vertices get zero rows/columns (diagonal 0, not 1), so the
    empty graph maps to the zero matrix and the spectrum stays in [0, 2].
    """
    deg = degree_vector(g).astype(np.float64)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg == 0, 1.0, deg)), 0.0)
    return freeze(laplacian(g) * np.outer(inv_sqrt, inv_sqrt))


@per_graph
def normalized_laplacian_spectrum(g: Graph) -> np.ndarray:
    return eigenvalues_sym(normalized_laplacian(g))


@per_graph
def laplacian_spectrum(g: Graph) -> np.ndarray:
    return eigenvalues_sym(laplacian(g))


@per_graph
def laplacian_pseudoinverse(g: Graph) -> np.ndarray:
    return pseudoinverse(laplacian(g))
