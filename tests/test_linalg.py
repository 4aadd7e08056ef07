import math
import random

import numpy as np
import pytest

from graphinv.linalg import (
    eigenvalues_sym,
    laplacian,
    laplacian_pseudoinverse,
    laplacian_spectrum,
    normalized_laplacian,
    normalized_laplacian_spectrum,
    pseudoinverse,
    spectrum_log_pseudo_determinant,
)

from conftest import complete_graph, cycle_graph, empty_graph, random_graph


def random_sym(rng: random.Random, n: int) -> np.ndarray:
    m = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
    return (m + m.T) / 2


def log_pdet(m: np.ndarray) -> float:
    return spectrum_log_pseudo_determinant(eigenvalues_sym(m))


class TestEigenvalues:
    def test_k2_normalized_laplacian(self):
        lam = normalized_laplacian_spectrum(complete_graph(2))
        assert np.allclose(lam, [0.0, 2.0], atol=1e-12)

    def test_empty_graph_is_zero_matrix(self):
        # isolated-vertex convention: zero diagonal, not identity
        m = normalized_laplacian(empty_graph(3))
        assert np.all(m == 0)
        assert np.allclose(normalized_laplacian_spectrum(empty_graph(3)), 0.0)

    def test_c4_adjacency_spectrum(self):
        from graphinv.graph import adjacency_matrix

        lam = eigenvalues_sym(adjacency_matrix(cycle_graph(4)))
        assert np.allclose(lam, [-2.0, 0.0, 0.0, 2.0], atol=1e-9)

    def test_normalized_spectrum_in_0_2(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            lam = normalized_laplacian_spectrum(g)
            assert lam.min() >= -1e-9 and lam.max() <= 2 + 1e-9

    def test_connected_laplacian_has_one_zero(self, rng):
        from graphinv.graph import component_count

        seen = 0
        while seen < 25:
            g = random_graph(rng, max_n=10)
            if component_count(g) != 1:
                continue
            seen += 1
            lam = laplacian_spectrum(g)
            tol = 1e-10 * max(lam[-1], 1.0)
            assert int((lam < tol).sum()) == 1

    def test_trace_equals_eigenvalue_sum(self, rng):
        for _ in range(30):
            n = rng.randint(2, 50)
            m = random_sym(rng, n)
            lam = eigenvalues_sym(m)
            assert math.isclose(float(np.trace(m)), float(lam.sum()), rel_tol=1e-8, abs_tol=1e-8)


class TestPseudoinverse:
    def test_k2_laplacian(self):
        got = pseudoinverse(laplacian(complete_graph(2)))
        want = 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_matrix(self):
        assert np.all(pseudoinverse(np.zeros((3, 3))) == 0)

    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4))

    def test_penrose_identity(self, rng):
        for _ in range(20):
            n = rng.randint(2, 12)
            m = random_sym(rng, n)
            if rng.random() < 0.5:  # force rank deficiency
                m[:, 0] = m[:, 1]
                m = (m + m.T) / 2
            pinv = pseudoinverse(m)
            assert np.allclose(m @ pinv @ m, m, atol=1e-8 * max(1.0, np.abs(m).max()))

    def test_permutation_equivariance(self, rng):
        for _ in range(20):
            n = rng.randint(2, 10)
            m = random_sym(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            p = np.eye(n)[perm]
            lhs = p @ pseudoinverse(m) @ p.T
            rhs = pseudoinverse(p @ m @ p.T)
            assert np.allclose(lhs, rhs, atol=1e-8)


class TestPseudoDeterminant:
    def test_k2_laplacian(self):
        assert math.isclose(log_pdet(laplacian(complete_graph(2))), math.log(2.0), rel_tol=1e-12)

    def test_identity(self):
        assert log_pdet(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_c3_laplacian(self):
        assert log_pdet(laplacian(cycle_graph(3))) == pytest.approx(math.log(9.0), rel=1e-9)

    def test_zero_matrix_empty_product(self):
        assert log_pdet(np.zeros((4, 4))) == 0.0


class TestReadOnly:
    @pytest.mark.parametrize("fn", [
        laplacian, normalized_laplacian, laplacian_spectrum,
        normalized_laplacian_spectrum, laplacian_pseudoinverse,
    ])
    def test_graph_results_are_read_only(self, fn):
        # The per-graph cache hands every caller the same array.
        arr = fn(cycle_graph(5))
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0

    def test_matrix_results_are_read_only(self):
        assert not eigenvalues_sym(np.eye(3)).flags.writeable
        assert not pseudoinverse(np.eye(3)).flags.writeable
