import math

import numpy as np
import pytest

from graphinv.graph import make_graph, relabel
from graphinv.invariants import BlockFailure
from graphinv.invariants.basic import (
    algebraic_connectivity,
    circuit_rank,
    degree_mean_ratio,
    density,
    diameter,
    laplacian_spectrum_block,
    num_edges,
    num_vertices,
    radius,
    spanning_tree_count,
    spanning_tree_count_log,
    transitivity,
)

from conftest import (
    catalog_compute,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    random_permutation,
    star_graph,
    two_triangles,
)
from oracles import spanning_trees_deletion_contraction


def val(x):
    return float(x)


class TestCounts:
    def test_c6(self):
        assert val(num_vertices(cycle_graph(6))) == 6
        assert val(num_edges(cycle_graph(6))) == 6

    def test_k4(self):
        assert val(num_vertices(complete_graph(4))) == 4
        assert val(num_edges(complete_graph(4))) == 6

    def test_empty(self):
        assert val(num_vertices(empty_graph(3))) == 3
        assert val(num_edges(empty_graph(3))) == 0


class TestCircuitRank:
    def test_tree(self):
        assert val(circuit_rank(path_graph(5))) == 0
        assert val(circuit_rank(star_graph(4))) == 0

    def test_c6(self):
        assert val(circuit_rank(cycle_graph(6))) == 1

    def test_two_triangles(self):
        assert val(circuit_rank(two_triangles())) == 2


class TestDiameterRadius:
    def test_p4(self):
        assert val(diameter(path_graph(4))) == 3
        assert val(radius(path_graph(4))) == 2

    def test_k5(self):
        assert val(diameter(complete_graph(5))) == 1
        assert val(radius(complete_graph(5))) == 1

    def test_disconnected_per_component(self):
        assert val(diameter(two_triangles())) == 1
        assert val(radius(two_triangles())) == 1


class TestTransitivity:
    def test_k3(self):
        assert val(transitivity(complete_graph(3))) == pytest.approx(1.0)

    def test_star_no_triangles(self):
        assert val(transitivity(star_graph(4))) == 0.0

    def test_p3_one_triplet(self):
        assert val(transitivity(path_graph(3))) == 0.0

    def test_in_unit_interval(self, rng):
        for _ in range(1000):
            g = random_graph(rng, max_n=10)
            t = val(transitivity(g))
            assert 0.0 <= t <= 1.0


class TestDensity:
    def test_k4(self):
        assert val(density(complete_graph(4))) == pytest.approx(1.0)

    def test_empty(self):
        assert val(density(empty_graph(4))) == 0.0

    def test_c4(self):
        assert val(density(cycle_graph(4))) == pytest.approx(2.0 / 3.0)

    def test_degenerate_single_vertex(self):
        assert val(density(empty_graph(1))) == 0.0


class TestSpectrumBlock:
    def test_k2_padding(self):
        block = laplacian_spectrum_block(complete_graph(2), k=8)
        assert np.allclose(block[:2], [0.0, 2.0], atol=1e-12)
        assert np.all(block[2:8] == 0)
        assert np.all(block[8:14] == 0)
        assert np.allclose(block[14:], [0.0, 2.0], atol=1e-12)

    def test_empty_two_vertices(self):
        assert np.all(laplacian_spectrum_block(empty_graph(2)) == 0)

    def test_algebraic_connectivity_k2(self):
        assert val(algebraic_connectivity(complete_graph(2))) == pytest.approx(2.0)

    def test_width_follows_k(self):
        assert laplacian_spectrum_block(cycle_graph(5), k=3).shape == (6,)

    def test_large_graph_keeps_extremes(self):
        # n = 20 > k = 8: smallest block strictly ascending start, largest ends at max
        g = cycle_graph(20)
        block = laplacian_spectrum_block(g, k=8)
        from graphinv.linalg import normalized_laplacian_spectrum

        lam = normalized_laplacian_spectrum(g)
        assert np.allclose(block[:8], lam[:8])
        assert np.allclose(block[8:], lam[-8:])


class TestSpanningTrees:
    def test_c6(self):
        assert val(spanning_tree_count(cycle_graph(6))) == pytest.approx(6.0, rel=1e-9)

    def test_k4_cayley(self):
        assert val(spanning_tree_count(complete_graph(4))) == pytest.approx(16.0, rel=1e-9)

    def test_disconnected_zero(self):
        assert val(spanning_tree_count(two_triangles())) == 0.0

    def test_log_variant(self):
        assert val(spanning_tree_count_log(cycle_graph(6))) == pytest.approx(math.log(6.0), rel=1e-9)

    def test_log_disconnected_sentinel(self):
        iv = catalog_compute("spanning_tree_count_log", "reduced")(two_triangles())
        assert not iv.ok
        assert float(iv.values[0]) == -1.0

    def test_against_deletion_contraction(self, rng):
        from graphinv.graph import connected_components

        checked = 0
        while checked < 40:
            g = random_graph(rng, max_n=7)
            if connected_components(g)[0] != 1:
                continue
            checked += 1
            want = spanning_trees_deletion_contraction(g.n_vertices, g.edges)
            got = val(spanning_tree_count(g))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestDegreeMeanRatio:
    def test_regular_graph_is_one(self):
        assert val(degree_mean_ratio(cycle_graph(7))) == pytest.approx(1.0)
        assert val(degree_mean_ratio(complete_graph(5))) == pytest.approx(1.0)

    def test_star_exact(self):
        # oracle: exact arithmetic, (4*1*1*1*1)^(1/5) / (8/5)
        expected = 4.0 ** (1.0 / 5.0) / (8.0 / 5.0)
        assert val(degree_mean_ratio(star_graph(4))) == pytest.approx(expected, rel=1e-12)

    def test_isolated_vertex_collapses(self):
        g = make_graph(3, [(0, 1)])
        assert val(degree_mean_ratio(g)) == 0.0

    def test_all_isolated_fails(self):
        with pytest.raises(BlockFailure, match="division by zero"):
            degree_mean_ratio(empty_graph(4))


class TestPermutationInvariance:
    INTEGER_VALUED = ["num_vertices", "num_edges", "circuit_rank", "diameter", "radius"]
    SPECTRAL = [
        "transitivity",
        "density",
        "laplacian_spectrum_block",
        "algebraic_connectivity",
        "spanning_tree_count",  # spectral route: integer value, float arithmetic
        "degree_mean_ratio",
    ]

    def test_relabeling(self, rng):
        for _ in range(40):
            g = random_graph(rng, max_n=10)
            h = relabel(g, random_permutation(g.n_vertices, rng))
            for name in self.INTEGER_VALUED:
                a, b = catalog_compute(name)(g), catalog_compute(name)(h)
                assert a.status == b.status
                if a.ok:
                    assert np.array_equal(a.values, b.values), name
            for name in self.SPECTRAL:
                a, b = catalog_compute(name)(g), catalog_compute(name)(h)
                assert a.status == b.status
                if a.ok:
                    assert np.allclose(a.values, b.values, rtol=1e-9, atol=1e-9), name
