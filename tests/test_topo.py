import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphinv.graph import adjacency_matrix, degree_vector, relabel
from graphinv.invariants import BlockFailure, homcount, topo
from graphinv.invariants.homcount import count_all_patterns, count_patterns
from graphinv.invariants.patterns import PATTERN_CATALOG, canonical_form
from graphinv.invariants.simplicial import clique_complex
from graphinv.invariants.topo import (
    DEFAULT_MAGNITUDE_Q,
    analytic_torsion,
    commute_times,
    edge_distribution,
    forman_ricci,
    homomorphism_counts,
    magnitude,
    neighbourhood_power_trace,
    ollivier_ricci,
)

from conftest import (
    catalog_compute,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    erdos_renyi,
    path_graph,
    random_graph,
    random_permutation,
    star_graph,
)
from strategies import block_graphs
from oracles import (
    analytic_torsion_hodge,
    commute_time_simulation,
    count_homomorphisms_einsum,
    count_homomorphisms_exhaustive,
    min_width_order,
    neighbourhood_power_trace as trace_by_matrix_powers,
    wasserstein_exhaustive,
)


def val(x):
    return float(x)


class TestPatternCatalog:
    def test_exactly_31(self):
        assert len(PATTERN_CATALOG) == 31

    def test_counts_by_order(self):
        by_n = {}
        for p in PATTERN_CATALOG:
            by_n[p.n_vertices] = by_n.get(p.n_vertices, 0) + 1
        assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}

    def test_pairwise_non_isomorphic(self):
        forms = {(p.n_vertices, canonical_form(p.n_vertices, p.edges)) for p in PATTERN_CATALOG}
        assert len(forms) == 31

    def test_order_is_by_size_then_edges(self):
        keys = [(p.n_vertices, len(p.edges), p.edges) for p in PATTERN_CATALOG]
        assert keys == sorted(keys)


class TestMagnitude:
    def test_complete_graph_closed_form(self):
        q = DEFAULT_MAGNITUDE_Q
        for n in (2, 3, 5, 8):
            expected = n / (1 + (n - 1) * q)
            assert val(magnitude(complete_graph(n))) == pytest.approx(expected, rel=1e-10)

    def test_k2_direct_inversion(self):
        q = DEFAULT_MAGNITUDE_Q
        z = np.array([[1.0, q], [q, 1.0]])
        expected = float(np.linalg.inv(z).sum())
        assert val(magnitude(complete_graph(2))) == pytest.approx(expected, rel=1e-12)

    def test_single_vertex(self):
        assert val(magnitude(empty_graph(1))) == pytest.approx(1.0)

    def test_disjoint_union_additivity(self, rng):
        for _ in range(25):
            g = random_graph(rng, max_n=8)
            h = random_graph(rng, max_n=8)
            lhs = val(magnitude(disjoint_union(g, h)))
            rhs = val(magnitude(g)) + val(magnitude(h))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_matches_full_inversion(self, rng):
        from graphinv.graph import UNREACHABLE, bfs_all_pairs

        q = DEFAULT_MAGNITUDE_Q
        for _ in range(25):
            g = random_graph(rng, max_n=10)
            dist = bfs_all_pairs(g)
            z = np.where(dist == UNREACHABLE, 0.0, q ** dist.astype(np.float64))
            expected = float(np.linalg.inv(z).sum())
            assert val(magnitude(g)) == pytest.approx(expected, rel=1e-8)

    def test_q_range_validated(self):
        with pytest.raises(ValueError):
            magnitude(complete_graph(2), q=1.5)


class TestAnalyticTorsion:
    def test_no_edges_is_one(self):
        assert val(analytic_torsion(empty_graph(4))) == pytest.approx(1.0)

    def test_single_edge(self):
        # L_1 = B_1^T B_1 = [2]; torsion = 2^(+1)
        assert val(analytic_torsion(complete_graph(2))) == pytest.approx(2.0, rel=1e-10)

    def test_c3_hand_computation(self):
        # hand-built boundaries: edges (0,1),(0,2),(1,2); triangle (0,1,2)
        b1 = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
        b2 = np.array([[1.0], [-1.0], [1.0]])
        l1 = b1.T @ b1 + b2 @ b2.T
        l2 = b2.T @ b2
        pdet = lambda m: float(np.prod([x for x in np.linalg.eigvalsh(m) if x > 1e-10]))
        expected = pdet(l1) ** 1 * pdet(l2) ** -2
        assert val(analytic_torsion(cycle_graph(3))) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(3.0, rel=1e-9)

    def test_boundary_of_boundary_vanishes(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_n=9)
            skel = clique_complex(g, 3)
            for p in range(1, 3):
                lhs = skel.boundaries[p] @ skel.boundaries[p + 1]
                assert np.all(lhs == 0)

    def test_triangle_count_matches_trace(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_n=9)
            skel = clique_complex(g, 2)
            a = adjacency_matrix(g)
            assert len(skel.simplices[2]) == int(round(np.trace(a @ a @ a) / 6))

    def test_dimension_cap_three(self):
        assert np.isfinite(analytic_torsion(complete_graph(5), max_dim=3))

    @settings(max_examples=150, deadline=None)
    @given(block_graphs(max_n=10), st.integers(0, 4))
    def test_matches_hodge_laplacians(self, g, max_dim):
        want = analytic_torsion_hodge(g.n_vertices, g.edges, max_dim)
        assert analytic_torsion(g, max_dim) == pytest.approx(want, rel=1e-10, abs=0)


class TestHomomorphismCounts:
    def test_single_vertex_pattern(self, rng):
        for _ in range(10):
            g = random_graph(rng)
            assert count_all_patterns(g)[0] == g.n_vertices

    def test_edge_pattern(self, rng):
        # catalog index 1 is the single edge
        assert PATTERN_CATALOG[1].edges == ((0, 1),)
        for _ in range(10):
            g = random_graph(rng)
            assert count_all_patterns(g)[1] == 2 * g.n_edges

    def test_p3_into_c4(self):
        p3_index = next(
            i for i, p in enumerate(PATTERN_CATALOG)
            if p.n_vertices == 3 and len(p.edges) == 2
        )
        assert count_all_patterns(cycle_graph(4))[p3_index] == 16

    def test_all_patterns_against_exhaustive(self, rng):
        for _ in range(12):
            g = random_graph(rng, max_n=6, min_n=2)
            got = count_all_patterns(g)
            for i, p in enumerate(PATTERN_CATALOG):
                want = count_homomorphisms_exhaustive(
                    p.n_vertices, p.edges, g.n_vertices, g.edges
                )
                assert got[i] == want, f"pattern {p.label} on {g.n_vertices} vertices"

    def test_log1p_variant(self):
        g = cycle_graph(5)
        raw = homomorphism_counts(g)
        logd = homomorphism_counts(g, log1p=True)
        assert np.allclose(logd, np.log1p(raw))

    def test_invariant_width(self, rng):
        assert homomorphism_counts(random_graph(rng)).shape == (31,)

    def test_stored_orders_are_the_searched_ones(self):
        # The plans are built from stored vertex orders; a search over
        # every order picks the same ones.
        for p, order, plan in zip(PATTERN_CATALOG, homcount._ORDERS, homcount._PLANS):
            searched = min_width_order(p.n_vertices, p.edges)
            assert tuple(map(int, order)) == searched, p.label
            assert homcount._plan_for_order(p, searched) == plan

    def test_subset_in_given_order(self, rng):
        g = random_graph(rng, max_n=8)
        full = count_all_patterns(g)
        picked = [30, 1, 17, 1, 4]
        assert count_patterns(g, picked) == [full[i] for i in picked]
        assert count_patterns(g, []) == []

    def test_small_chunks(self, rng, monkeypatch):
        # Steps then extend rows a few candidates at a time and merge
        # partial sums across chunks.
        monkeypatch.setattr(homcount, "_CHUNK_ROWS", 5)
        for g in [erdos_renyi(12, 0.5, rng) for _ in range(3)] + [star_graph(9)]:
            a = adjacency_matrix(g)
            want = [count_homomorphisms_einsum(p.n_vertices, p.edges, a) for p in PATTERN_CATALOG]
            assert count_all_patterns(g) == want

    @pytest.mark.parametrize("n", [1000, 2**21 + 1])
    def test_merge_duplicate_rows(self, n):
        # n**3 > 2**63 - 1 for n > 2**21, so three-column keys of such a
        # host are merged by lexsort instead of base-n codes.
        step = n // 4
        keys = np.array([[1, 1, 0], [3, 0, 2], [0, 1, 0], [2, 1, 0], [1, 1, 0], [3, 0, 2], [0, 0, 3]])
        merged_keys, merged_counts = homcount._sum_duplicates(keys * step, np.arange(1, 8), n)
        # rows 2-4 of the result differ in their first column only
        want = [[0, 0, 3], [0, 1, 0], [1, 1, 0], [2, 1, 0], [3, 0, 2]]
        assert merged_keys.tolist() == (np.array(want) * step).tolist()
        assert merged_counts.tolist() == [7, 3, 1 + 5, 4, 2 + 6]

        keys = np.random.default_rng(0).integers(0, 4, size=(200, 3)) * step
        merged_keys, merged_counts = homcount._sum_duplicates(keys, np.ones(200, dtype=np.int64), n)
        distinct, multiplicity = np.unique(keys, axis=0, return_counts=True)
        assert merged_keys.tolist() == distinct.tolist()
        assert merged_counts.tolist() == multiplicity.tolist()


class TestHomomorphismOracleProperties:
    @settings(max_examples=100, deadline=None)
    @given(block_graphs(max_n=14))
    def test_matches_einsum(self, g):
        a = adjacency_matrix(g)
        want = [count_homomorphisms_einsum(p.n_vertices, p.edges, a) for p in PATTERN_CATALOG]
        assert count_all_patterns(g) == want

    @settings(max_examples=40, deadline=None)
    @given(block_graphs(max_n=5))
    def test_matches_exhaustive(self, g):
        want = [
            count_homomorphisms_exhaustive(p.n_vertices, p.edges, g.n_vertices, g.edges)
            for p in PATTERN_CATALOG
        ]
        assert count_all_patterns(g) == want


def tree_sides(p):
    """Sizes of the two colour classes of a tree pattern, smaller first."""
    colour = {0: 0}
    while len(colour) < p.n_vertices:
        for u, v in p.edges:
            if (u in colour) != (v in colour):
                w, c = (v, colour[u]) if u in colour else (u, colour[v])
                colour[w] = 1 - c
    ones = sum(colour.values())
    return tuple(sorted((p.n_vertices - ones, ones)))


class TestHomomorphismOverflow:
    """On the star K_{1,D} with D = 56000, K_{1,4} has D**4 + D > 2**63 - 1
    homomorphisms. A pattern with a cycle needs a table of about D**2 leaf
    pairs on this host, so only the eight tree patterns are counted here:
    a tree with colour classes of sizes a and b maps to the star in
    D**a + D**b ways (D + 1 for the single vertex)."""

    D = 56000
    TREES = [i for i, p in enumerate(PATTERN_CATALOG) if len(p.edges) == p.n_vertices - 1]

    @pytest.fixture(scope="class")
    def star(self):
        return star_graph(self.D)

    def test_tree_counts_exact_past_int64(self, star):
        sides = [tree_sides(PATTERN_CATALOG[i]) for i in self.TREES]
        want = [self.D + 1] + [self.D**a + self.D**b for a, b in sides[1:]]
        got = count_patterns(star, self.TREES)
        assert got == want
        assert got[sides.index((1, 1))] == 2 * self.D
        assert got[sides.index((1, 4))] == self.D**4 + self.D > 2**63 - 1

    def test_reported_as_failed(self, star, monkeypatch):
        monkeypatch.setattr(topo, "count_all_patterns", lambda g: count_patterns(g, self.TREES))
        iv = catalog_compute("homomorphism_counts")(star)
        assert iv.status == "failed: count exceeds 64-bit range"
        assert iv.values.shape == (31,) and np.all(np.isnan(iv.values))


class TestFormanRicci:
    def test_cycle_all_zero(self):
        dist = forman_ricci(cycle_graph(7))
        assert np.all(dist.values == 0)
        assert (dist.mean, dist.variance, dist.skewness, dist.kurtosis) == (0, 0, 0, 0)

    def test_k4(self):
        dist = forman_ricci(complete_graph(4))
        assert np.all(dist.values == -2.0)
        assert dist.mean == -2.0 and dist.variance == 0.0

    def test_star(self):
        dist = forman_ricci(star_graph(4))
        assert np.all(dist.values == -1.0)

    def test_no_edges_fails(self):
        with pytest.raises(BlockFailure, match="Forman curvature needs at least one edge"):
            forman_ricci(empty_graph(3))

    def test_moments_recompute(self, rng):
        for _ in range(30):
            g = random_graph(rng, min_n=3)
            if g.n_edges == 0:
                continue
            d = forman_ricci(g)
            v = d.values
            mean = v.mean()
            var = ((v - mean) ** 2).mean()
            assert abs(d.mean - mean) < 1e-10
            assert abs(d.variance - var) < 1e-10
            if var > 0:
                assert abs(d.skewness - ((v - mean) ** 3).mean() / var**1.5) < 1e-10
                assert abs(d.kurtosis - ((v - mean) ** 4).mean() / var**2) < 1e-10


class TestOllivierRicci:
    def test_k2_identical_measures(self):
        dist = ollivier_ricci(complete_graph(2), alpha=0.5)
        assert dist.values[0] == pytest.approx(1.0, abs=1e-9)

    def test_cycle_flat(self):
        for n in (6, 7, 8):
            dist = ollivier_ricci(cycle_graph(n), alpha=0.5)
            assert np.allclose(dist.values, 0.0, atol=1e-9)

    def test_upper_bound_one(self, rng):
        for _ in range(40):
            g = random_graph(rng, min_n=2, max_n=9)
            if g.n_edges == 0:
                continue
            dist = ollivier_ricci(g)
            assert np.all(dist.values <= 1 + 1e-12)

    def test_matches_exhaustive_transport(self, rng):
        from graphinv.graph import adjacency_sets, bfs_all_pairs

        checked = 0
        while checked < 12:
            g = erdos_renyi(7, 0.3, rng)
            deg = degree_vector(g)
            if g.n_edges == 0 or deg.max() > 3:
                continue
            checked += 1
            nbrs = adjacency_sets(g)
            dmat = bfs_all_pairs(g)
            got = ollivier_ricci(g, alpha=0.5)
            for e, (u, v) in enumerate(g.edges):
                sup_u = [u] + sorted(nbrs[u])
                sup_v = [v] + sorted(nbrs[v])
                mu = [Fraction(1, 2)] + [Fraction(1, 2 * deg[u])] * deg[u]
                nu = [Fraction(1, 2)] + [Fraction(1, 2 * deg[v])] * deg[v]
                cost = [[int(dmat[a, b]) for b in sup_v] for a in sup_u]
                w1 = wasserstein_exhaustive(mu, nu, cost)
                assert got.values[e] == pytest.approx(1.0 - float(w1), abs=1e-9)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            ollivier_ricci(complete_graph(2), alpha=1.0)

    def test_non_lazy_walk(self):
        # alpha = 0 leaves no mass on the vertex itself
        assert np.allclose(ollivier_ricci(cycle_graph(6), alpha=0.0).values, 0.0, atol=1e-9)
        assert np.allclose(ollivier_ricci(star_graph(4), alpha=0.0).values, 0.0, atol=1e-9)


class TestCommuteTime:
    def test_k2(self):
        mean, cmax = commute_times(complete_graph(2))
        assert mean == pytest.approx(1.0, rel=1e-9)
        assert cmax == pytest.approx(2.0, rel=1e-9)

    def test_tree_edges_equal_two_m(self):
        g = path_graph(4)
        from graphinv.linalg import laplacian_pseudoinverse

        lp = laplacian_pseudoinverse(g)
        vol = 2.0 * g.n_edges
        for u, v in g.edges:
            commute = vol * (lp[u, u] + lp[v, v] - 2 * lp[u, v])
            assert commute == pytest.approx(2.0 * g.n_edges, rel=1e-9)

    def test_random_walk_simulation_oracle(self):
        # P4 edge (0, 1): theory 6; seeded Monte-Carlo within 5 %
        g = path_graph(4)
        estimate = commute_time_simulation(4, g.edges, 0, 1, walks=4000)
        assert estimate == pytest.approx(6.0, rel=0.05)

    def test_single_vertex(self):
        assert commute_times(empty_graph(1)) == (0.0, 0.0)

    def test_invariants_ok(self):
        assert catalog_compute("commute_time_mean")(cycle_graph(5)).ok
        assert catalog_compute("commute_time_max")(cycle_graph(5)).ok


class TestNeighbourhoodPowerTrace:
    def test_triangle_free_open_is_zero(self):
        for g in (cycle_graph(6), star_graph(5), path_graph(4)):
            assert val(neighbourhood_power_trace(g, 4)) == 0.0
            assert val(neighbourhood_power_trace(g, 8)) == 0.0

    def test_k3_open_p4(self):
        assert val(neighbourhood_power_trace(complete_graph(3), 4)) == pytest.approx(6.0)

    def test_c4_closed_p4_brute_force(self):
        # each closed neighbourhood induces P3; brute-force matrix powers
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        tr = float(np.trace(np.linalg.matrix_power(a, 4)))
        expected = 4 * tr
        assert val(neighbourhood_power_trace(cycle_graph(4), 4, closed=True)) == pytest.approx(expected)

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            neighbourhood_power_trace(complete_graph(3), 5)

    @settings(max_examples=150, deadline=None)
    @given(block_graphs(max_n=12))
    def test_equals_matrix_powers(self, g):
        for closed in (False, True):
            for p in topo.POWER_TRACE_EXPONENTS:
                want = trace_by_matrix_powers(g.n_vertices, g.edges, p, closed)
                assert val(neighbourhood_power_trace(g, p, closed)) == want

    @pytest.mark.parametrize("p", [4, 8])
    def test_k100_closed_forms(self, p):
        # Every neighbourhood is a complete graph K_m, whose p-th power
        # trace is (m - 1)^p + (m - 1) for even p; tr(A^8) exceeds 2^53.
        g = complete_graph(100)
        for closed, m in ((False, 99), (True, 100)):
            exact = 100 * ((m - 1) ** p + (m - 1))
            assert val(neighbourhood_power_trace(g, p, closed)) == pytest.approx(exact, rel=1e-14, abs=0)


class TestPermutationInvariance:
    def test_all_topo_invariants(self, rng):
        for _ in range(15):
            g = random_graph(rng, min_n=3, max_n=9)
            h = relabel(g, random_permutation(g.n_vertices, rng))
            checks = [
                "magnitude",
                "analytic_torsion",
                "homomorphism_counts",
                "commute_time_mean",
                "commute_time_max",
                "neighbourhood_trace_open_p4",
                "neighbourhood_trace_closed_p8",
                "forman_ricci_variance",
                "ollivier_ricci_mean",
            ]
            for name in checks:
                a, b = catalog_compute(name)(g), catalog_compute(name)(h)
                assert a.status == b.status
                if a.ok:
                    assert np.allclose(a.values, b.values, rtol=1e-9, atol=1e-9)
