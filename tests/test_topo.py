import functools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphinv.graph import adjacency_matrix, adjacency_sets, degree_vector
from graphinv.invariants import BlockFailure, homcount, topo
from graphinv.invariants.homcount import count_all_patterns, count_patterns
from graphinv.invariants.patterns import PATTERN_CATALOG
from graphinv.invariants.simplicial import clique_complex
from graphinv.invariants.topo import (
    DEFAULT_MAGNITUDE_Q,
    analytic_torsion,
    commute_times,
    edge_distribution,
    forman_ricci,
    homomorphism_counts,
    magnitude,
    neighbourhood_traces,
    ollivier_ricci,
)

from conftest import (
    barabasi_albert,
    catalog_compute,
    cfi_pair,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    erdos_renyi,
    path_graph,
    pattern_label,
    random_graph,
    random_permutation,
    relabel,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
)
from strategies import block_graphs
from oracles import (
    adjacency,
    analytic_torsion_hodge,
    canonical_form,
    commute_time_simulation,
    connected_patterns,
    count_homomorphisms_einsum,
    count_homomorphisms_exhaustive,
    floyd_warshall,
    min_width_order,
    neighbourhood_power_trace as trace_by_matrix_powers,
    treewidth,
    wasserstein_1,
    wasserstein_exhaustive,
)
from test_transport import linprog_w1


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

    def test_stored_catalog_matches_enumeration(self):
        assert [(p.n_vertices, p.edges) for p in PATTERN_CATALOG] == connected_patterns(5)


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

    @pytest.mark.parametrize("nudge, status", [
        (None, "failed: singular magnitude matrix"),
        (1e-6, "failed: singular magnitude matrix"),
        (1e-12, "ok"),
    ])
    def test_singular_status(self, monkeypatch, nudge, status):
        # Z is singular when the solve raises (nudge None) or leaves a
        # residual ||Z x - 1|| above 1e-8 ||1||; nudging x_0 by e leaves
        # a residual of e ||Z e_0||.
        real_solve = np.linalg.solve

        def fake_solve(z, rhs):
            if nudge is None:
                raise np.linalg.LinAlgError("Singular matrix")
            x = real_solve(z, rhs)
            x[0] += nudge
            return x

        monkeypatch.setattr(np.linalg, "solve", fake_solve)
        iv = catalog_compute("magnitude")(cycle_graph(5))
        assert iv.status == status
        assert np.isnan(iv.values).all() == (status != "ok")


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
                lhs = skel[p] @ skel[p + 1]
                assert np.all(lhs == 0)

    def test_triangle_count_matches_trace(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_n=9)
            a = adjacency_matrix(g)
            assert clique_complex(g, 2)[2].shape[1] == int(round(np.trace(a @ a @ a) / 6))

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
                assert got[i] == want, f"pattern {pattern_label(p)} on {g.n_vertices} vertices"

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
            assert tuple(map(int, order)) == searched, pattern_label(p)
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

    @settings(max_examples=60, deadline=None)
    @given(block_graphs(max_n=12))
    def test_object_counts_match_einsum(self, g):
        # With a tiny int64 bound every host with edges counts in Python
        # integers (dtype=object): a sparse host finishes each plan with an
        # object dot product and merges rows by lexsort instead of base-n
        # codes; a dense host keeps its width-1 and width-2 tables in float64.
        a = adjacency_matrix(g)
        want = [count_homomorphisms_einsum(p.n_vertices, p.edges, a) for p in PATTERN_CATALOG]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homcount, "_INT64_MAX", 1)
            if g.n_edges:
                assert homcount._Host.of(g).dtype is object
            assert count_all_patterns(g) == want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(block_graphs(max_n=10), min_size=1, max_size=5))
    def test_chunk_matches_einsum(self, graphs):
        # One walk over the disjoint union gives each graph its own counts,
        # in int64 and, with a tiny int64 bound, in Python integers.
        want = [
            [count_homomorphisms_einsum(p.n_vertices, p.edges, adjacency_matrix(g)) for p in PATTERN_CATALOG]
            for g in graphs
        ]
        assert homcount._count(graphs, range(len(PATTERN_CATALOG))) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homcount, "_INT64_MAX", 1)
            if any(g.n_edges for g in graphs):
                assert homcount._Host.of(*graphs).dtype is object
            assert homcount._count(graphs, range(len(PATTERN_CATALOG))) == want

    @settings(max_examples=40, deadline=None)
    @given(block_graphs(max_n=5))
    def test_matches_exhaustive(self, g):
        want = [
            count_homomorphisms_exhaustive(p.n_vertices, p.edges, g.n_vertices, g.edges)
            for p in PATTERN_CATALOG
        ]
        assert count_all_patterns(g) == want


class TestDenseTables:
    """The dense steps (width-1 and width-2 tables as per-graph blocks) and
    the sparse steps give the same counts on the same chunks.
    `_DENSE_FILL` = 0 makes every host of graphs with n <= 256 dense,
    `_DENSE_ORDER` = -1 makes every host sparse, and with a tiny int64
    bound too the sparse steps count in Python integers and merge rows
    by lexsort."""

    @staticmethod
    def assert_same(graphs, monkeypatch):
        every = range(len(PATTERN_CATALOG))
        monkeypatch.setattr(homcount, "_DENSE_FILL", 0.0)
        assert homcount._Host.of(*graphs).dense
        dense = homcount._count(graphs, every)
        monkeypatch.setattr(homcount, "_DENSE_ORDER", -1)
        assert homcount._count(graphs, every) == dense
        monkeypatch.setattr(homcount, "_INT64_MAX", 1)
        assert homcount._count(graphs, every) == dense
        monkeypatch.undo()
        return dense

    @settings(max_examples=60, deadline=None)
    @given(st.lists(block_graphs(max_n=12), min_size=1, max_size=6))
    def test_block_graph_chunks(self, graphs):
        with pytest.MonkeyPatch.context() as mp:
            self.assert_same(graphs, mp)

    def test_mixed_vertex_counts(self, monkeypatch):
        # One run of 500 graphs and one of a single graph; summed n**2
        # stays within one chunk.
        rng = random.Random(3)
        graphs = [erdos_renyi(181, 4 / 180, rng)] + [erdos_renyi(8, 0.5, rng) for _ in range(500)]
        assert len(list(homcount.chunks(graphs))) == 1
        self.assert_same(graphs, monkeypatch)

    def test_one_graph(self, monkeypatch):
        # Rows extended and images counted a few at a time, too.
        rng = random.Random(4)
        for g in [erdos_renyi(12, 0.5, rng), barabasi_albert(14, 3, rng), complete_graph(6)]:
            want = [count_homomorphisms_einsum(p.n_vertices, p.edges, adjacency_matrix(g)) for p in PATTERN_CATALOG]
            assert self.assert_same([g], monkeypatch) == [want]
            monkeypatch.setattr(homcount, "_CHUNK_ROWS", 5)
            assert self.assert_same([g], monkeypatch) == [want]

    def test_isolated_vertices(self, monkeypatch):
        graphs = [
            disjoint_union(cycle_graph(5), empty_graph(3)), empty_graph(4), empty_graph(0),
            disjoint_union(empty_graph(2), complete_graph(4)), star_graph(6),
        ]
        counts = self.assert_same(graphs, monkeypatch)
        assert counts[1] == [4] + [0] * (len(PATTERN_CATALOG) - 1)
        assert counts[2] == [0] * len(PATTERN_CATALOG)

    def test_host_form(self, monkeypatch):
        # Dense when every graph has at most 256 vertices and the summed
        # squared degrees reach 0.12 of the summed n**2.
        rng = random.Random(5)
        assert homcount._Host.of(complete_graph(8), cycle_graph(20)).dense
        assert homcount._Host.of(*[erdos_renyi(30, 0.2, rng) for _ in range(8)]).dense
        assert not homcount._Host.of(cycle_graph(40)).dense  # 160 < 0.12 * 1600
        assert homcount._Host.of(cycle_graph(33)).dense  # 132 >= 0.12 * 1089
        assert not homcount._Host.of(erdos_renyi(250, 4 / 249, rng)).dense
        assert not homcount._Host.of(empty_graph(3)).dense
        monkeypatch.setattr(homcount, "_DENSE_FILL", 0.0)
        assert homcount._Host.of(cycle_graph(256), empty_graph(3)).dense
        assert not homcount._Host.of(cycle_graph(257)).dense
        assert not homcount._Host.of(cycle_graph(5), cycle_graph(257)).dense


class TestTreewidthSplit:
    """Two graphs have equal homomorphism counts from every pattern of
    treewidth at most k iff k-dimensional Weisfeiler-Leman does not tell
    them apart (Dvořák 2010; Dell, Grohe and Rattan 2018). The 4x4 rook
    graph and the Shrikhande graph are strongly regular with the same
    parameters, so 2-dimensional WL does not, and only patterns of
    treewidth 3 or more can separate them."""

    TREEWIDTH = [treewidth(p.n_vertices, p.edges) for p in PATTERN_CATALOG]

    def test_catalog_treewidths(self):
        assert sum(w <= 2 for w in self.TREEWIDTH) == 24
        assert self.TREEWIDTH.count(3) == 6
        assert self.TREEWIDTH.count(4) == 1
        assert self.TREEWIDTH[-1] == 4 and len(PATTERN_CATALOG[-1].edges) == 10  # K5

    @pytest.mark.parametrize("k, differ", [
        (4, {"F4e6[01,02,03,12,13,23]": (192, 0), "F5e7[01,02,03,04,12,13,23]": (1152, 0),
             "F5e8[01,02,03,04,12,13,14,23]": (384, 0), "F5e9[01,02,03,04,12,13,14,23,24]": (192, 0)}),
        (5, {"F5e10[01,02,03,04,12,13,14,23,24,34]": (7680, 0)}),
    ])
    def test_cfi_pairs_differ_only_from_patterns_as_wide_as_the_base(self, k, differ):
        # CFI graphs over K_k, of treewidth k - 1, are (k - 2)-WL-equivalent,
        # so they tie on every pattern of treewidth k - 2 or less, and
        # hom(K_k, .) tells them apart (Roberson 2022).
        g, h = cfi_pair(k, combinations(range(k), 2))
        assert (g.n_vertices, g.n_edges) == (h.n_vertices, h.n_edges) == {4: (16, 48), 5: (40, 320)}[k]
        a, b = count_all_patterns(g), count_all_patterns(h)
        low = [i for i, w in enumerate(self.TREEWIDTH) if w <= k - 2]
        assert [a[i] for i in low] == [b[i] for i in low]
        assert {pattern_label(p): (x, y) for p, x, y in zip(PATTERN_CATALOG, a, b) if x != y} == differ

    def test_rook_and_shrikhande_agree_below_treewidth_3(self):
        rook, shrikhande = count_all_patterns(rook_graph_4x4()), count_all_patterns(shrikhande_graph())
        low = [i for i, w in enumerate(self.TREEWIDTH) if w <= 2]
        assert len(low) == 24
        assert [rook[i] for i in low] == [shrikhande[i] for i in low]
        k4 = next(i for i, p in enumerate(PATTERN_CATALOG) if p.n_vertices == 4 and len(p.edges) == 6)
        assert self.TREEWIDTH[k4] == 3
        assert shrikhande[k4] == 0 < rook[k4] == 192


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

    def test_trees_read_no_dense_matrix(self, star, monkeypatch):
        # Tree plans only ever extend along one anchor, so the dense
        # adjacency matrix (25 GB for this star) and A @ A are never built.
        def refuse(g):
            raise AssertionError("dense adjacency read by a tree pattern")

        monkeypatch.setattr(homcount, "adjacency_matrix", refuse)
        sides = [tree_sides(PATTERN_CATALOG[i]) for i in self.TREES]
        want = [self.D + 1] + [self.D**a + self.D**b for a, b in sides[1:]]
        assert count_patterns(star, self.TREES) == want

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

    def test_equals_per_edge_formula(self, rng):
        for _ in range(20):
            g = random_graph(rng, min_n=3)
            if g.n_edges:
                deg = degree_vector(g)
                want = np.array([4.0 - deg[u] - deg[v] for u, v in g.edges])
                assert forman_ricci(g).values.tobytes() == want.tobytes()

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

    def test_non_lazy_walk(self):
        # alpha = 0 leaves no mass on the vertex itself
        assert np.allclose(ollivier_ricci(cycle_graph(6), alpha=0.0).values, 0.0, atol=1e-9)
        assert np.allclose(ollivier_ricci(star_graph(4), alpha=0.0).values, 0.0, atol=1e-9)


def lazy_walk_w1(g, alpha, exact):
    """Per edge, W_1 of the two lazy walks on their full supports (no
    cancellation, no merging), over Floyd-Warshall distances: exhaustive
    basis search on Fraction masses when `exact`, else linprog."""
    dist = floyd_warshall(g.n_vertices, g.edges)
    adj = adjacency(g.n_vertices, g.edges)
    a = Fraction(alpha)
    out = []
    for u, v in g.edges:
        sup_u = [u, *np.flatnonzero(adj[u]).tolist()]
        sup_v = [v, *np.flatnonzero(adj[v]).tolist()]
        mu = (a,) + ((1 - a) / (len(sup_u) - 1),) * (len(sup_u) - 1)
        nu = (a,) + ((1 - a) / (len(sup_v) - 1),) * (len(sup_v) - 1)
        cost = tuple(tuple(int(dist[x][y]) for y in sup_v) for x in sup_u)
        if exact:
            out.append(_exhaustive_w1(mu, nu, cost))
        else:
            out.append(linprog_w1(np.array(mu, dtype=float), np.array(nu, dtype=float), np.array(cost, dtype=float)))
    return out


@functools.lru_cache(maxsize=None)
def _exhaustive_w1(mu, nu, cost):
    return wasserstein_exhaustive(mu, nu, cost)


@st.composite
def integer_instances(draw):
    """Balanced integer masses (zeros included, some past int64) and
    integer costs on up to 4 x 4 cells."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    wa = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any))
    wb = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
    big = draw(st.sampled_from([1, 2**40, 3**45]))
    mu = [w * sum(wb) * big for w in wa]
    nu = [w * sum(wa) * big for w in wb]
    cost = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    return mu, nu, cost


class TestOllivierRicciExact:
    """The curvature is the correctly rounded quotient of an exact integer
    transport optimum."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    @settings(max_examples=40, deadline=None)
    @given(g=block_graphs(max_n=8).filter(lambda g: g.n_edges and max(degree_vector(g)) <= 3))
    def test_equals_rounded_exhaustive_optimum(self, alpha, g):
        want = [float(1 - w1) for w1 in lazy_walk_w1(g, alpha, exact=True)]
        assert ollivier_ricci(g, alpha).values.tolist() == want

    def test_masses_past_int64_match_linprog(self, rng):
        # alpha = 0.1 is P / 2**55, so the total L = 2**55 d_u d_v passes
        # 2**63 on every edge with d_u d_v > 256, as the dense graphs have.
        widest = 0
        for n, p in [(9, 0.4)] * 6 + [(20, 0.9)] * 2:
            g = erdos_renyi(n, p, rng)
            if g.n_edges == 0:
                continue
            deg = degree_vector(g)
            widest = max(widest, max(int(deg[u] * deg[v]) for u, v in g.edges))
            want = [1.0 - w1 for w1 in lazy_walk_w1(g, 0.1, exact=False)]
            np.testing.assert_allclose(ollivier_ricci(g, 0.1).values, want, rtol=0, atol=1e-12)
        assert 2**55 * widest > 2**63

    @settings(max_examples=150, deadline=None)
    @given(integer_instances())
    def test_integer_transport_is_exact(self, instance):
        got = wasserstein_1(*instance)
        assert type(got) is int
        assert got == wasserstein_exhaustive(*instance)

    def test_wide_instances_match_linprog(self, rng):
        # Up to 14 x 14 = 196 cells, past the 8 x 8 of the other transport
        # tests; hub edges of BA graphs give instances of this width.
        for _ in range(40):
            m, n = rng.randint(9, 14), rng.randint(9, 14)
            wa = [rng.randint(1, 1000) for _ in range(m)]
            wb = [rng.randint(1, 1000) for _ in range(n)]
            mu, nu = [w * sum(wb) for w in wa], [w * sum(wa) for w in wb]
            cost = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
            want = linprog_w1(np.array(mu, float), np.array(nu, float), np.array(cost, float))
            got = wasserstein_1(mu, nu, cost)
            assert type(got) is int
            assert abs(got - want) <= 1e-9 * sum(mu)
            total = sum(mu)
            want_per_unit = linprog_w1(np.array(mu) / total, np.array(nu) / total, np.array(cost, float))
            assert abs(got / total - want_per_unit) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(instance=integer_instances(), data=st.data())
    def test_integer_optimum_ignores_row_and_column_order(self, instance, data):
        # The solver reorders rows and columns by cost sum before its start;
        # no order it is handed may change the optimum.
        mu, nu, cost = instance
        rows = data.draw(st.permutations(range(len(mu))))
        cols = data.draw(st.permutations(range(len(nu))))
        got = wasserstein_1([mu[i] for i in rows], [nu[j] for j in cols], [[cost[i][j] for j in cols] for i in rows])
        assert type(got) is int
        assert got == wasserstein_1(mu, nu, cost)

    def test_edge_mass_routed_first_matches_linprog(self, rng):
        # Scaled by L = Q d_u d_v, u carries excess d_u (P d_v - (Q - P)), so it
        # is a source exactly when alpha (d_v + 1) > 1, v is a sink exactly when
        # alpha (d_u + 1) > 1, and a common neighbour carries (Q - P)(d_v - d_u).
        # Only when u is a source and v a sink does the edge carry its mass first.
        seen = Counter()
        graphs = [barabasi_albert(30, 3, rng) for _ in range(2)] + [erdos_renyi(12, 0.5, rng) for _ in range(3)]
        for alpha in (0.1, 0.5, 0.9):
            a = Fraction(alpha)
            for g in graphs:
                deg, nbrs = degree_vector(g), adjacency_sets(g)
                for u, v in g.edges:
                    du, dv = int(deg[u]), int(deg[v])
                    source_u, sink_v = a * (dv + 1) > 1, a * (du + 1) > 1
                    seen["routed" if source_u and sink_v else "u sink" if a * (dv + 1) < 1 else "other"] += 1
                    if nbrs[u] & nbrs[v] and du != dv:
                        seen["common sources" if dv > du else "common sinks"] += 1
                want = [1.0 - w1 for w1 in lazy_walk_w1(g, alpha, exact=False)]
                np.testing.assert_allclose(ollivier_ricci(g, alpha).values, want, rtol=0, atol=1e-12)
        assert min(seen[case] for case in ("routed", "u sink", "common sources", "common sinks")) > 0, seen

    @pytest.mark.parametrize("mu", [np.full((2, 1), 0.5), np.array(1.0), [[0.5], [0.5]], 1.0, [0.5, "0.5"]])
    def test_malformed_masses_raise_value_error(self, mu):
        with pytest.raises(ValueError):
            wasserstein_1(mu, [0.5, 0.5], [[0, 1], [1, 0]])

    def test_values_do_not_depend_on_labels(self, rng):
        for _ in range(195):
            g = erdos_renyi(rng.randint(8, 16), rng.uniform(0.2, 0.6), rng)
            if g.n_edges == 0:
                continue
            h = relabel(g, random_permutation(g.n_vertices, rng))
            assert np.sort(ollivier_ricci(g).values).tobytes() == np.sort(ollivier_ricci(h).values).tobytes()

    def test_linear_in_alpha_above_one_over_max_degree(self, rng):
        # Bourne, Cushing, Liu, Münch and Peyerimhoff 2018: kappa_alpha is
        # linear in alpha on [1/(max(d_u, d_v) + 1), 1] and 0 at alpha = 1,
        # so kappa_alpha / (1 - alpha) is one number there; alpha = 1/2 is
        # always in range. Each side is two roundings of that number, so
        # they differ by at most 4 units of 2**-53 relative. Below the
        # threshold some points must leave the line, or the check is vacuous.
        graphs = [erdos_renyi(rng.randint(6, 14), rng.uniform(0.2, 0.6), rng) for _ in range(30)]
        graphs += [barabasi_albert(rng.randint(20, 40), rng.randint(1, 3), rng) for _ in range(4)]
        checked = off_line = 0
        for g in graphs:
            if g.n_edges == 0:
                continue
            deg = degree_vector(g)
            threshold = np.array([1 / (max(deg[u], deg[v]) + 1) for u, v in g.edges])
            line = ollivier_ricci(g, 0.5).values / 0.5
            for alpha in (0.0, 0.125, 0.25, 0.625, 0.75, 0.875):
                gap = np.abs(ollivier_ricci(g, alpha).values / (1 - alpha) - line)
                above = alpha >= threshold
                assert np.all(gap[above] <= 4 * 2.0**-53 * np.abs(line[above])), alpha
                checked += above.sum()
                off_line += np.sum(gap[~above] > 1e-12 * np.abs(line[~above]))
        assert checked > 1000 and off_line > 100, (checked, off_line)


class TestCurvatureMoments:
    def test_moments_do_not_depend_on_labels(self, rng):
        # The moments sum the sorted per-edge values, so a relabelling, which
        # reorders the edges, leaves every moment bit for bit.
        names = [f"{c}_ricci_{m}" for c in ("forman", "ollivier") for m in ("mean", "variance", "skewness", "kurtosis")]
        computes = {name: catalog_compute(name) for name in names}
        for i in range(40):
            if i % 2:
                g = erdos_renyi(rng.randint(8, 20), rng.uniform(0.2, 0.6), rng)
            else:
                g = barabasi_albert(rng.randint(8, 30), 2, rng)
            if g.n_edges == 0:
                continue
            h = relabel(g, random_permutation(g.n_vertices, rng))
            for name, compute in computes.items():
                a, b = compute(g), compute(h)
                assert a.ok and b.ok
                assert np.asarray(a.values).tobytes() == np.asarray(b.values).tobytes(), name


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


def neighbourhood_traces_by_vertex(g):
    """The per-vertex loop that the batched neighbourhood traces replaced:
    for each vertex, the induced matrix A_N, squared twice, its Frobenius
    norms added to running totals keyed by (p, closed)."""
    a = adjacency_matrix(g)
    totals = {(p, closed): 0.0 for closed in (False, True) for p in topo.POWER_TRACE_EXPONENTS}
    for i in range(g.n_vertices):
        member = a[i] != 0
        for closed in (False, True):
            member[i] = closed
            idx = np.flatnonzero(member)
            sub = a[np.ix_(idx, idx)]
            sq = sub @ sub
            fourth = sq @ sq
            totals[4, closed] += float(np.vdot(sq, sq))
            totals[8, closed] += float(np.vdot(fourth, fourth))
    return totals


class TestNeighbourhoodPowerTrace:
    def test_triangle_free_open_is_zero(self):
        for g in (cycle_graph(6), star_graph(5), path_graph(4)):
            assert val(neighbourhood_traces(g)[4, False]) == 0.0
            assert val(neighbourhood_traces(g)[8, False]) == 0.0

    def test_k3_open_p4(self):
        assert val(neighbourhood_traces(complete_graph(3))[4, False]) == pytest.approx(6.0)

    def test_c4_closed_p4_brute_force(self):
        # each closed neighbourhood induces P3; brute-force matrix powers
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        tr = float(np.trace(np.linalg.matrix_power(a, 4)))
        expected = 4 * tr
        assert val(neighbourhood_traces(cycle_graph(4))[4, True]) == pytest.approx(expected)

    @settings(max_examples=150, deadline=None)
    @given(block_graphs(max_n=12))
    def test_equals_matrix_powers(self, g):
        for closed in (False, True):
            for p in topo.POWER_TRACE_EXPONENTS:
                want = trace_by_matrix_powers(g.n_vertices, g.edges, p, closed)
                assert val(neighbourhood_traces(g)[p, closed]) == want

    def test_equals_vertex_loop(self, rng):
        # Below 2**53 every per-vertex value and sum is an exact integer,
        # so the batched sums equal the loop's bit for bit.
        graphs = [erdos_renyi(n, p, rng) for n in (1, 5, 20, 40) for p in (0.1, 0.3, 0.7)]
        graphs += [barabasi_albert(60, 3, rng), disjoint_union(star_graph(6), empty_graph(3))]
        for g in graphs:
            want = neighbourhood_traces_by_vertex(g)
            for (p, closed), total in want.items():
                assert val(neighbourhood_traces(g)[p, closed]) == total

    def test_k120_near_vertex_loop(self):
        # On K120 each tr(A_N^8) passes 2**53, so both ways round, in
        # different orders; they agree to 1e-12.
        g = complete_graph(120)
        for (p, closed), total in neighbourhood_traces_by_vertex(g).items():
            assert val(neighbourhood_traces(g)[p, closed]) == pytest.approx(total, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [4, 8])
    def test_k100_closed_forms(self, p):
        # Every neighbourhood is a complete graph K_m, whose p-th power
        # trace is (m - 1)^p + (m - 1) for even p; tr(A^8) exceeds 2^53.
        g = complete_graph(100)
        for closed, m in ((False, 99), (True, 100)):
            exact = 100 * ((m - 1) ** p + (m - 1))
            assert val(neighbourhood_traces(g)[p, closed]) == pytest.approx(exact, rel=1e-14, abs=0)


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
