import math

import numpy as np
import pytest

import oracles
from graphinv.graph import make_graph
from graphinv.invariants.indices import (
    atom_bond_connectivity,
    balaban,
    estrada,
    forgotten,
    general_randic,
    geometric_arithmetic,
    gutman,
    hyper_wiener,
    randic,
    schultz,
    szeged,
    wiener,
    zagreb_first,
    zagreb_second,
)

from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    erdos_renyi,
    path_graph,
    random_graph,
    random_permutation,
    relabel,
    star_graph,
)

ALL_INDICES = {
    "wiener": wiener,
    "randic": randic,
    "atom_bond_connectivity": atom_bond_connectivity,
    "geometric_arithmetic": geometric_arithmetic,
    "hyper_wiener": hyper_wiener,
    "estrada": estrada,
    "zagreb_first": zagreb_first,
    "zagreb_second": zagreb_second,
    "schultz": schultz,
    "gutman": gutman,
    "szeged": szeged,
    "forgotten": forgotten,
    "balaban": balaban,
}


def val(x):
    return float(x)


class TestClosedForms:
    def test_wiener(self):
        assert val(wiener(path_graph(4))) == 10.0  # n(n^2-1)/6
        assert val(wiener(complete_graph(4))) == 6.0  # n(n-1)/2
        assert val(wiener(empty_graph(1))) == 0.0

    def test_randic(self):
        assert val(randic(complete_graph(4))) == pytest.approx(2.0)
        assert val(randic(cycle_graph(5))) == pytest.approx(2.5)
        assert val(randic(complete_graph(2))) == pytest.approx(1.0)

    def test_general_randic(self):
        assert val(general_randic(cycle_graph(4), -1.0)) == pytest.approx(1.0)
        # definitional coincidences used as cross-checks
        for g in (star_graph(4), cycle_graph(6), complete_graph(5)):
            assert val(general_randic(g, 1.0)) == pytest.approx(val(zagreb_second(g)), rel=1e-12)
            assert val(general_randic(g, -0.5)) == pytest.approx(val(randic(g)), rel=1e-12)

    def test_abc(self):
        assert val(atom_bond_connectivity(complete_graph(2))) == 0.0
        assert val(atom_bond_connectivity(cycle_graph(6))) == pytest.approx(6 * math.sqrt(2 / 4), rel=1e-12)
        assert val(atom_bond_connectivity(star_graph(4))) == pytest.approx(4 * math.sqrt(3 / 4), rel=1e-12)

    def test_geometric_arithmetic(self):
        assert val(geometric_arithmetic(cycle_graph(6))) == pytest.approx(6.0)
        assert val(geometric_arithmetic(star_graph(4))) == pytest.approx(4 * (2 * 2 / 5))
        assert val(geometric_arithmetic(complete_graph(2))) == pytest.approx(1.0)

    def test_hyper_wiener(self):
        assert val(hyper_wiener(complete_graph(2))) == pytest.approx(2.0)
        assert val(hyper_wiener(path_graph(3))) == pytest.approx(10.0)
        assert val(hyper_wiener(empty_graph(1))) == 0.0

    def test_estrada(self):
        assert val(estrada(empty_graph(5))) == pytest.approx(5.0)
        assert val(estrada(complete_graph(2))) == pytest.approx(math.e + math.exp(-1), rel=1e-12)
        assert val(estrada(cycle_graph(4))) == pytest.approx(
            math.exp(2) + 2 + math.exp(-2), rel=1e-10
        )

    def test_zagreb(self):
        assert val(zagreb_first(cycle_graph(5))) == 20.0
        assert val(zagreb_second(cycle_graph(5))) == 20.0
        assert val(zagreb_first(star_graph(4))) == 20.0
        assert val(zagreb_second(star_graph(4))) == 16.0
        assert val(zagreb_first(empty_graph(3))) == 0.0
        assert val(zagreb_second(empty_graph(3))) == 0.0

    def test_schultz_gutman_k2(self):
        assert val(schultz(complete_graph(2))) == pytest.approx(2.0)
        assert val(gutman(complete_graph(2))) == pytest.approx(1.0)

    def test_schultz_gutman_p3_oracle(self):
        # expected values frozen from the exhaustive-summation oracle
        assert oracles.schultz(3, path_graph(3).edges) == 10.0
        assert oracles.gutman(3, path_graph(3).edges) == 6.0
        assert val(schultz(path_graph(3))) == pytest.approx(10.0)
        assert val(gutman(path_graph(3))) == pytest.approx(6.0)

    def test_szeged(self):
        assert val(szeged(complete_graph(2))) == 1.0
        assert val(szeged(path_graph(3))) == 4.0
        # frozen from the exhaustive distance-comparison oracle
        assert oracles.szeged(4, cycle_graph(4).edges) == 16.0
        assert val(szeged(cycle_graph(4))) == 16.0

    def test_forgotten(self):
        assert val(forgotten(cycle_graph(6))) == 48.0
        assert val(forgotten(star_graph(4))) == 68.0
        assert val(forgotten(empty_graph(2))) == 0.0

    def test_balaban(self):
        assert val(balaban(complete_graph(2))) == pytest.approx(1.0)
        assert val(balaban(cycle_graph(3))) == pytest.approx(2.25)
        # P3 distance sums are {3, 2, 3}: prefactor 2/1, two edge terms (3*2)^(-1/2)
        assert oracles.balaban(3, path_graph(3).edges) == pytest.approx(4 / math.sqrt(6), rel=1e-12)
        assert val(balaban(path_graph(3))) == pytest.approx(4 / math.sqrt(6), rel=1e-9)
        assert val(balaban(empty_graph(3))) == 0.0


class TestAgainstNaiveReferences:
    def test_500_random_graphs(self, rng):
        for _ in range(500):
            g = random_graph(rng, max_n=12)
            n, edges = g.n_vertices, g.edges
            for name, fn in ALL_INDICES.items():
                got = val(fn(g))
                want = oracles.NAIVE_INDICES[name](n, edges)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10), name
            for c in (-1.0, 0.5):
                got = val(general_randic(g, c))
                want = oracles.general_randic(n, edges, c)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestSzeged:
    def test_equals_oracle_exactly(self, rng):
        graphs = [empty_graph(0), empty_graph(1), empty_graph(5), complete_graph(7),
                  disjoint_union(complete_graph(5), cycle_graph(6)), disjoint_union(path_graph(4), empty_graph(3))]
        graphs += [erdos_renyi(rng.randint(4, 14), rng.uniform(0.1, 0.9), rng) for _ in range(150)]
        for g in graphs:
            got = szeged(g)
            assert type(got) is float
            assert got == oracles.szeged(g.n_vertices, g.edges)
        # several chunks of n edges, disconnected graphs, edgeless ones
        assert sum(g.n_edges > 2 * g.n_vertices for g in graphs) >= 10
        assert sum(g.n_edges == 0 for g in graphs) >= 3


class TestPermutationInvariance:
    def test_relabeling(self, rng):
        for _ in range(40):
            g = random_graph(rng, max_n=10)
            h = relabel(g, random_permutation(g.n_vertices, rng))
            for name, fn in ALL_INDICES.items():
                a, b = val(fn(g)), val(fn(h))
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10), name
