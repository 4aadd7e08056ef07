"""Dense symmetric linear algebra: eigendecomposition, pseudoinverse,
log pseudo-determinant, and linear solves.

Everything here is dense; the invariant suite targets graphs of modest
order, and dense eigh keeps results bit-deterministic for identical
input bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, adjacency_matrix, degree_vector, per_graph


class NumericalError(RuntimeError):
    """Eigendecomposition or solve failure."""


class SingularMatrixError(NumericalError):
    """Matrix singular to working tolerance."""


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, symmetrized on construction."""

    entries: np.ndarray

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def sym_matrix(entries: np.ndarray) -> SymMatrix:
    m = np.asarray(entries, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = (m + m.T) / 2.0
    m.flags.writeable = False
    return SymMatrix(m)


def eigenvalues_sym(m: SymMatrix) -> np.ndarray:
    """All eigenvalues of the symmetrized matrix, ascending."""
    if m.order == 0:
        return np.zeros(0)
    try:
        return np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for order {m.order}: {exc}") from None


def _eigh(m: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for order {m.order}: {exc}") from None


def default_rank_tol(eigenvalues: np.ndarray) -> float:
    """1e-10 scaled by the spectral radius (graph Laplacian spectra are
    integer-ish, so true zeros separate cleanly at this scale)."""
    if eigenvalues.size == 0:
        return 1e-10
    radius = float(np.max(np.abs(eigenvalues)))
    return 1e-10 * max(radius, 1.0)


def pseudoinverse(m: SymMatrix, rank_tol: float | None = None) -> SymMatrix:
    """Moore-Penrose pseudoinverse via eigendecomposition.

    Eigenvalues with ``|lam| <= rank_tol`` invert to 0, the rest to
    ``1/lam``, reassembled in the same eigenbasis.
    """
    if m.order == 0:
        return m
    lam, vec = _eigh(m)
    tol = default_rank_tol(lam) if rank_tol is None else rank_tol
    inv = np.where(np.abs(lam) > tol, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    return sym_matrix((vec * inv) @ vec.T)


def spectrum_log_pseudo_determinant(lam: np.ndarray, rank_tol: float | None = None) -> float:
    """log |pseudo-determinant| from the eigenvalues ``lam``: the sum of the
    logs of those with ``|lam| > rank_tol`` (overflow-safe).

    Only valid for positive-semidefinite spectra, where the retained
    eigenvalues are positive.
    """
    tol = default_rank_tol(lam) if rank_tol is None else rank_tol
    keep = lam[np.abs(lam) > tol]
    return float(np.sum(np.log(keep))) if keep.size else 0.0


def log_pseudo_determinant(m: SymMatrix, rank_tol: float | None = None) -> float:
    """log |pseudo-determinant| of a positive-semidefinite matrix."""
    return spectrum_log_pseudo_determinant(eigenvalues_sym(m), rank_tol)


def solve_linear(m: SymMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``m x = rhs``; raises SingularMatrixError when the residual
    exceeds ``1e-8 * ||rhs||``."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (m.order,):
        raise ValueError(f"rhs length {rhs.shape} incompatible with order {m.order}")
    if m.order == 0:
        return np.zeros(0)
    try:
        x = np.linalg.solve(m.entries, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"singular matrix of order {m.order}") from None
    residual = np.linalg.norm(m.entries @ x - rhs)
    if residual > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
        raise SingularMatrixError(
            f"matrix of order {m.order} singular to tolerance (residual {residual:.3e})"
        )
    return x


# ---------------------------------------------------------------------------
# Graph matrices


@per_graph
def laplacian(g: Graph) -> SymMatrix:
    """Unnormalized Laplacian D - A."""
    a = adjacency_matrix(g)
    return sym_matrix(np.diag(degree_vector(g).astype(np.float64)) - a)


def normalized_laplacian(g: Graph) -> SymMatrix:
    """Symmetrically normalized Laplacian D^{-1/2} (D - A) D^{-1/2}.

    Isolated vertices get zero rows/columns (diagonal 0, not 1), so the
    empty graph maps to the zero matrix and the spectrum stays in [0, 2].
    """
    deg = degree_vector(g).astype(np.float64)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg == 0, 1.0, deg)), 0.0)
    lap = laplacian(g).entries
    return sym_matrix(lap * np.outer(inv_sqrt, inv_sqrt))


@per_graph
def normalized_laplacian_spectrum(g: Graph) -> np.ndarray:
    return eigenvalues_sym(normalized_laplacian(g))


@per_graph
def laplacian_spectrum(g: Graph) -> np.ndarray:
    return eigenvalues_sym(laplacian(g))


@per_graph
def laplacian_pseudoinverse(g: Graph) -> SymMatrix:
    return pseudoinverse(laplacian(g))
