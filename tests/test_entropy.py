import math

import pytest

from graphinv.graph import make_graph
from graphinv.invariants.entropy import degree_entropy, von_neumann_entropy

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)


def val(x):
    return float(x)


class TestDegreeEntropy:
    def test_regular_is_zero(self):
        assert val(degree_entropy(cycle_graph(8))) == 0.0
        assert val(degree_entropy(complete_graph(4))) == 0.0

    def test_star_two_bins(self):
        expected = -(4 / 5) * math.log(4 / 5) - (1 / 5) * math.log(1 / 5)
        assert val(degree_entropy(star_graph(4))) == pytest.approx(expected, rel=1e-12)

    def test_p3(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert val(degree_entropy(path_graph(3))) == pytest.approx(expected, rel=1e-12)

    def test_isolated_vertices_subnormalize(self):
        # one edge plus an isolated vertex: only the k=1 bin carries mass 2/3
        g = make_graph(3, [(0, 1)])
        expected = -(2 / 3) * math.log(2 / 3)
        assert val(degree_entropy(g)) == pytest.approx(expected, rel=1e-12)

    def test_bounds(self, rng):
        for _ in range(300):
            g = random_graph(rng)
            h = val(degree_entropy(g))
            assert -1e-12 <= h <= math.log(max(g.n_vertices, 2)) + 1e-12


class TestVonNeumannEntropy:
    def test_k2_zero(self):
        assert val(von_neumann_entropy(complete_graph(2))) == pytest.approx(0.0, abs=1e-12)

    def test_empty_zero(self):
        assert val(von_neumann_entropy(empty_graph(5))) == 0.0

    def test_c3(self):
        expected = -2 * (1.5 / 3) * math.log(1.5 / 3)
        assert val(von_neumann_entropy(cycle_graph(3))) == pytest.approx(expected, rel=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(1000):
            g = random_graph(rng, max_n=10)
            assert val(von_neumann_entropy(g)) >= -1e-12

