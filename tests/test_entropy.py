import math
import zlib

import pytest

from graphinv.graph import make_graph, relabel
from graphinv.invariants.entropy import degree_entropy, kolmogorov_proxy, von_neumann_entropy

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    path_graph,
    random_graph,
    random_permutation,
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


class TestKolmogorovProxy:
    def test_deterministic(self):
        g = cycle_graph(10)
        assert val(kolmogorov_proxy(g)) == val(kolmogorov_proxy(g))

    def test_edge_input_order_invariant(self):
        a = make_graph(3, [(0, 1), (1, 2)])
        b = make_graph(3, [(2, 1), (0, 1)])
        assert val(kolmogorov_proxy(a)) == val(kolmogorov_proxy(b))

    def test_cycle_compresses_below_random(self, rng):
        cycle = cycle_graph(100)
        er = None
        # fixed-seed search for an Erdos-Renyi graph with exactly 100 edges
        while er is None or er.n_edges != 100:
            er = erdos_renyi(100, 100 / (100 * 99 / 2), rng)
        assert val(kolmogorov_proxy(cycle)) < val(kolmogorov_proxy(er))

    def test_empty_edge_set_matches_deflate_of_empty(self):
        comp = zlib.compressobj(level=6, wbits=-15)
        expected = len(comp.compress(b"") + comp.flush())
        assert val(kolmogorov_proxy(empty_graph(4))) == expected

    def test_relabeling_sensitivity_documented(self):
        # NOT relabeling-invariant by construction: the bytes encode labels.
        g = path_graph(40)
        perm = list(reversed(range(40)))
        h = relabel(g, perm)
        assert val(kolmogorov_proxy(g)) >= 1  # both defined; values may differ
        assert val(kolmogorov_proxy(h)) >= 1
