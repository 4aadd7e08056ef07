import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from graphinv.graph import make_graph
from graphinv.invariants import topo, transport
from graphinv.invariants.topo import ollivier_ricci
from graphinv.invariants.transport import _bland, _least_cost_start, _tree, transport_cost

from conftest import barabasi_albert, cycle_graph, disjoint_union, erdos_renyi, random_permutation, relabel, star_graph
from oracles import adjacency, degrees, floyd_warshall, ollivier_ricci_checked, wasserstein_1, wasserstein_exhaustive


def linprog_w1(mu, nu, cost):
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    # HiGHS stops at a 1e-7 primal and dual infeasibility by default,
    # which misprices masses and cost gaps below that scale.
    res = linprog(
        cost.reshape(-1), A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.fun)


def random_instance(rng, max_side=8, degenerate=False):
    """Balanced integer masses of total sum(wa) * sum(wb); `degenerate`
    gives uniform measures."""
    m, n = rng.randint(1, max_side), rng.randint(1, max_side)
    if degenerate:
        wa, wb = [1] * m, [1] * n
    else:
        wa = [rng.randint(1, 100) for _ in range(m)]
        wb = [rng.randint(1, 100) for _ in range(n)]
    mu, nu = [w * sum(wb) for w in wa], [w * sum(wa) for w in wb]
    cost = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
    return mu, nu, cost


def as_probabilities(mu, nu, cost):
    """The integer instance as arrays of probability measures, for linprog."""
    total = sum(mu)
    return np.array(mu) / total, np.array(nu) / total, np.array(cost, dtype=float)


class TestWasserstein:
    def test_identical_measures_zero(self):
        mu = [5, 3, 2]
        cost = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert wasserstein_1(mu, mu, cost) == 0

    def test_point_masses(self):
        assert wasserstein_1([1], [1], [[3]]) == 3

    def test_single_row_and_column(self):
        mu = [4]
        nu = [1, 3]
        cost = [[2, 4]]
        assert wasserstein_1(mu, nu, cost) == 4 * (0.5 + 3.0)

    def test_against_linprog(self, rng):
        for _ in range(300):
            mu, nu, cost = random_instance(rng)
            got = wasserstein_1(mu, nu, cost)
            assert type(got) is int
            assert got / sum(mu) == pytest.approx(linprog_w1(*as_probabilities(mu, nu, cost)), abs=1e-9)

    def test_against_linprog_degenerate(self, rng):
        # uniform masses maximize pivot ties; exercises anti-cycling paths
        for _ in range(200):
            mu, nu, cost = random_instance(rng, max_side=6, degenerate=True)
            got = wasserstein_1(mu, nu, cost)
            assert got / sum(mu) == pytest.approx(linprog_w1(*as_probabilities(mu, nu, cost)), abs=1e-9)

    def test_against_exhaustive_plan_search(self, rng):
        for _ in range(25):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            mu = [Fraction(1, m)] * m
            nu = [Fraction(1, n)] * n
            cost = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
            want = wasserstein_exhaustive(mu, nu, cost)
            got = wasserstein_1([n] * m, [m] * n, cost)  # mu and nu times m n
            assert Fraction(got, m * n) == want

    def test_tiny_mass_moved_at_unit_cost(self):
        # 1 unit in 10**9 must cross at cost 1. At the default 1e-7 HiGHS
        # tolerances the linprog oracle returned -1e-9 here.
        mu = [500_000_000 - 1, 500_000_001]
        nu = [500_000_000, 500_000_000]
        cost = [[0, 1], [1, 0]]
        assert linprog_w1(*as_probabilities(mu, nu, cost)) == pytest.approx(1e-9, rel=1e-6)
        assert wasserstein_1(mu, nu, cost) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_1(np.ones(2) / 2, np.ones(2) / 2, np.ones((3, 2)))


# Masses are integer weights over their total and float costs lie on a
# 1e-3 grid, so that masses and reduced costs stay far above the 1e-10
# tolerances of HiGHS, the linprog oracle. With unrestricted floats it
# misprices or rejects instances at that scale: masses (0, 1, 8e-11,
# 8e-11) against six masses of 1/6 come back infeasible.
@st.composite
def measure(draw, size):
    """Exact zeros, uniform measures and point masses all occur."""
    weights = draw(st.one_of(
        st.just([1] * size),
        st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any),
        st.lists(st.integers(0, 1000), min_size=size, max_size=size).filter(any),
    ))
    return [Fraction(w, sum(weights)) for w in weights]


@st.composite
def instances(draw, max_side, integer_costs):
    m, n = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = st.integers(0, 3)
    if not integer_costs:
        cells = st.one_of(cells, st.floats(0.0, 3.0).map(lambda x: round(x, 3)))
    cost = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m))
    return draw(measure(m)), draw(measure(n)), cost


def as_arrays(mu, nu, cost):
    return np.array([float(x) for x in mu]), np.array([float(x) for x in nu]), np.array(cost, dtype=float)


COST_SCALE = 1000


def scaled(mu, nu, cost):
    """The instance in integers: masses times their common denominator,
    costs on the 1e-3 grid times COST_SCALE. Its optimum is the original
    one times total * COST_SCALE, where total = sum of the scaled mu."""
    d = math.lcm(*(x.denominator for x in mu + nu))
    return [int(x * d) for x in mu], [int(x * d) for x in nu], [[round(c * COST_SCALE) for c in row] for row in cost]


class TestOracleProperties:
    @settings(max_examples=300, deadline=None)
    @given(instances(max_side=8, integer_costs=False))
    def test_matches_linprog(self, instance):
        mu, nu, cost = scaled(*instance)
        got = wasserstein_1(mu, nu, cost) / (sum(mu) * COST_SCALE)
        assert got == pytest.approx(linprog_w1(*as_arrays(*instance)), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(instances(max_side=4, integer_costs=True))
    def test_matches_exhaustive_plan_search(self, instance):
        want = wasserstein_exhaustive(*instance)
        mu, nu, cost = scaled(*instance)
        assert Fraction(wasserstein_1(mu, nu, cost), sum(mu) * COST_SCALE) == want


class TestInputValidation:
    """Masses and costs are Python ints; anything else raises ValueError."""

    def test_negative_mass(self):
        with pytest.raises(ValueError, match="non-negative"):
            wasserstein_1([3, -1], [1, 1], [[1, 1], [1, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass(self, bad):
        with pytest.raises(ValueError, match="Python ints"):
            wasserstein_1([1, 1], [bad, 1], [[1, 1], [1, 1]])

    def test_unbalanced_measures(self):
        with pytest.raises(ValueError, match="unbalanced"):
            wasserstein_1([2, 2], [2, 1], [[1, 1], [1, 1]])

    @pytest.mark.parametrize("mu, nu, cost", [
        ([0.5, 0.5], [0.5, 0.5], [[0, 1], [1, 0]]),
        ([1.0, 1.0], [1, 1], [[0, 1], [1, 0]]),
        (np.array([1, 1], dtype=np.int64), [1, 1], [[0, 1], [1, 0]]),
        ([np.int64(1), 1], [1, 1], [[0, 1], [1, 0]]),
        ([Fraction(1), 1], [1, 1], [[0, 1], [1, 0]]),
        ([1, 1], [1, 1], [[0, 1.0], [1, 0]]),
        ([1, 1], [1, 1], np.array([[0, 1], [1, 0]])),
    ], ids=["float", "integral float", "int64 array", "int64 scalar", "Fraction", "float cost", "int64 cost"])
    def test_non_int_input(self, mu, nu, cost):
        with pytest.raises(ValueError, match="Python ints"):
            wasserstein_1(mu, nu, cost)


class TestOllivierRicci:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.9])
    def test_every_edge_matches_linprog(self, rng, alpha):
        # alpha = 0 leaves each centre vertex with zero mass
        for _ in range(6):
            g = erdos_renyi(9, 0.35, rng)
            if g.n_edges == 0:
                continue
            dist = np.array(floyd_warshall(g.n_vertices, g.edges))
            deg = degrees(g.n_vertices, g.edges)
            adj = adjacency(g.n_vertices, g.edges)
            got = ollivier_ricci(g, alpha)
            for e, (u, v) in enumerate(g.edges):
                sup_u = [u, *np.flatnonzero(adj[u])]
                sup_v = [v, *np.flatnonzero(adj[v])]
                mu = np.array([alpha] + [(1 - alpha) / deg[u]] * deg[u])
                nu = np.array([alpha] + [(1 - alpha) / deg[v]] * deg[v])
                want = 1.0 - linprog_w1(mu, nu, dist[np.ix_(sup_u, sup_v)])
                assert got.values[e] == pytest.approx(want, abs=1e-9)


@st.composite
def balanced_instances(draw):
    """Balanced integer masses (zeros included) and integer costs on up to
    6 x 6 cells; narrow cost ranges give many ties, wide ones past int64
    few."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    wa = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any))
    wb = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    top = draw(st.sampled_from([1, 3, 2**70]))
    cost = draw(st.lists(st.lists(st.integers(0, top), min_size=n, max_size=n), min_size=m, max_size=m))
    return [w * sum(wb) for w in wa], [w * sum(wa) for w in wb], cost


def solve(mu, nu, cost):
    """`transport_cost` of a nested cost matrix, its rows and columns in the
    given order and its cells in ascending cost order."""
    cf = [c for row in cost for c in row]
    return transport_cost(list(mu), list(nu), cf, sorted(range(len(cf)), key=cf.__getitem__))


class TestStartCertificate:
    """The least-cost start reads its dual potentials off its closing order
    and is accepted without a basis tree when no cell prices negative."""

    @settings(max_examples=300, deadline=None)
    @given(balanced_instances())
    def test_closing_order_potentials_price_basic_cells_at_cost(self, instance):
        mu, nu, cost = instance
        m, n = len(mu), len(nu)
        cf = [c for row in cost for c in row]
        flow, pot = _least_cost_start(list(mu), list(nu), cf, n, sorted(range(m * n), key=cf.__getitem__))
        assert len(flow) == m + n - 1
        for cell in flow:
            i, j = divmod(cell, n)
            assert pot[i] + pot[m + j] == cf[cell]

    @settings(max_examples=300, deadline=None)
    @given(balanced_instances())
    def test_start_accepted_exactly_when_tree_potentials_admit_no_entering_cell(self, instance):
        starts = []

        def start(a, b, cf, n, order):
            flow, pot = _least_cost_start(a, b, cf, n, order)
            starts.append((dict(flow), cf, n))
            return flow, pot

        with mock.patch.object(transport, "_least_cost_start", start), \
                mock.patch.object(transport, "_tree", wraps=_tree) as tree:
            got = solve(*instance)
        [(flow, cf, n)] = starts
        m = len(cf) // n
        accepted = not tree.called
        assert accepted == (_bland(cf, _tree(flow, cf, m, n)[2], flow, m, n) < 0)
        if accepted:
            assert got == sum(cf[cell] * f for cell, f in flow.items())


class TestSplitting:
    """`ollivier_ricci` hands the solver sinks with equal cost columns
    unmerged, so equal rows or columns must cost nothing extra."""

    @staticmethod
    def split(masses, cost_lines, data):
        """Split one line into two copies with the same costs, the copy put
        at a drawn position, and its mass shared between the two."""
        k = data.draw(st.integers(0, len(masses) - 1))
        part = data.draw(st.integers(0, masses[k]))
        at = data.draw(st.integers(0, len(masses)))
        masses = masses[:k] + [masses[k] - part] + masses[k + 1:]
        return masses[:at] + [part] + masses[at:], cost_lines[:at] + [cost_lines[k]] + cost_lines[at:]

    @settings(max_examples=300, deadline=None)
    @given(balanced_instances(), st.data())
    def test_splitting_a_row_or_a_column_leaves_the_cost(self, instance, data):
        mu, nu, cost = instance
        want = solve(mu, nu, cost)
        rows_mu, rows = self.split(mu, cost, data)
        assert solve(rows_mu, nu, rows) == want
        cols_nu, cols = self.split(nu, [list(c) for c in zip(*cost)], data)
        assert solve(mu, cols_nu, [list(r) for r in zip(*cols)]) == want


class TestUncheckedPath:
    """`ollivier_ricci` hands its instances to `transport_cost` unchecked;
    each value must equal, bit for bit, the reference construction solved
    by the checked `wasserstein_1`. The reference also merges sinks with
    equal cost columns and the package does not, so two constructions are
    compared as well."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9])
    def test_bit_identical_to_checked_reference(self, rng, alpha):
        graphs = [erdos_renyi(rng.randint(6, 24), rng.uniform(0.15, 0.6), rng) for _ in range(6)]
        hubs = [barabasi_albert(120, 3, rng) for _ in range(2)]
        for g in graphs + hubs:
            if g.n_edges == 0:
                continue
            want = np.array(ollivier_ricci_checked(g.n_vertices, g.edges, alpha))
            assert ollivier_ricci(g, alpha).values.tobytes() == want.tobytes()
        # alpha = 0.1 is P / 2**55, so the scale L = 2**55 d_u d_v, and with
        # it the masses, passes int64 on the hub edges.
        widest = 0
        for g in hubs:
            deg = degrees(g.n_vertices, g.edges)
            widest = max(widest, max(deg[u] * deg[v] for u, v in g.edges))
        assert 2**55 * widest > 2**63

    @staticmethod
    def hubs():
        """A wheel on 70 rim vertices and a star K_1,40, the hub numbered last
        (the v of its edges, so its neighbours are sinks: 67 of them on the
        wheel, past two 31-sink code words, and 39 on the star) and, on the
        wheel, first (its neighbours are sources)."""
        wheel = make_graph(71, list(cycle_graph(70).edges) + [(x, 70) for x in range(70)])
        return [wheel, relabel(wheel, [*range(1, 71), 0]), relabel(star_graph(40), [40, *range(40)])]

    @staticmethod
    def scattered(rng):
        """Several components and isolated vertices, labelled at random."""
        g = disjoint_union(disjoint_union(erdos_renyi(12, 0.4, rng), cycle_graph(5)), star_graph(3))
        g = make_graph(g.n_vertices + 4, g.edges)
        return relabel(g, random_permutation(g.n_vertices, rng))

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1 / 3, 0.5, 1e-300, 5e-324])
    def test_wide_hubs_and_scattered_graphs(self, rng, alpha):
        # 1/3, 1e-300 and 5e-324 have denominators 2**54, 2**1049 and 2**1074.
        for g in self.hubs() + [self.scattered(rng) for _ in range(3)]:
            want = np.array(ollivier_ricci_checked(g.n_vertices, g.edges, alpha))
            assert ollivier_ricci(g, alpha).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cells", [1, 7, 60])
    def test_small_batches(self, rng, monkeypatch, cells):
        # One edge a batch, a few, and batches cut inside a hub's edges.
        monkeypatch.setattr(topo, "_BATCH_CELLS", cells)
        graphs = [erdos_renyi(14, 0.4, rng), barabasi_albert(40, 3, rng), self.scattered(rng), self.hubs()[0]]
        for g in graphs:
            for alpha in (0.1, 0.5):
                want = np.array(ollivier_ricci_checked(g.n_vertices, g.edges, alpha))
                assert ollivier_ricci(g, alpha).values.tobytes() == want.tobytes()
