import io
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.expressivity import (
    DifferentiationReport,
    GraphPair,
    export_heatmap,
    export_report_json,
    graph6_to_graph,
    greedy_subset,
    load_brec_npy,
    parse_pairs_jsonl,
    score_pairs,
)
from graphinv.graph import GraphDataError, make_graph
from graphinv.invariants import BlockFailure
from graphinv.registry import RegimeConfig, block, build_catalog, fingerprint

from conftest import (
    cfi_pair,
    cycle_graph,
    complete_graph,
    graph_to_obj,
    random_graph,
    random_permutation,
    relabel,
    rook_graph_4x4,
    shrikhande_graph,
    two_triangles,
)
from oracles import block_difference


def make_report(matrix, names=None, categories=None):
    matrix = np.asarray(matrix, dtype=bool)
    n_pairs, n_inv = matrix.shape
    return DifferentiationReport(
        invariant_names=tuple(names or [f"inv{j}" for j in range(n_inv)]),
        pair_ids=tuple(f"p{i}" for i in range(n_pairs)),
        categories=tuple(categories or ["X"] * n_pairs),
        max_rel_diff=matrix.astype(float),
        tolerance=1e-6,
        mode="relative",
    )


class TestDifferentiates:
    """Per-invariant verdicts of one pair, as score_pairs tabulates them."""

    def test_identical_vectors_all_false(self):
        g = cycle_graph(5)
        report = score_pairs([GraphPair(g, g, "X", "p0")], build_catalog(RegimeConfig(subset="S")))
        assert not report.differentiated.any()
        assert (report.max_rel_diff == 0.0).all()

    def test_below_tolerance_false(self):
        # one block whose value moves by 1e-9 between the sides, on a magnitude of ~1
        value = {"a": 1.0, "b": 1.0 + 1e-9}
        cat = (block("nudged", lambda g: value[g.id]),)
        pair = GraphPair(make_graph(2, [], id="a"), make_graph(2, [], id="b"), "X", "p0")
        report = score_pairs([pair], cat, tol=1e-6)
        assert not report.differentiated.any()
        assert 0.0 < report.max_rel_diff[0, 0] < 1e-6

    def test_failed_blocks_never_differentiate(self):
        pair = GraphPair(make_graph(3, []), make_graph(4, []), "X", "p0")  # curvatures fail
        report = score_pairs([pair], build_catalog(RegimeConfig()))
        verdicts = dict(zip(report.invariant_names, report.differentiated[0]))
        assert verdicts["num_vertices"]
        assert not verdicts["forman_ricci_mean"]


VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 2.5, 1e-7, -3e5, 1e300, math.inf, -math.inf, math.nan]
)


@st.composite
def scored_pairs(draw):
    """Pairs of graphs and a catalog of blocks of random widths whose
    outcome per graph is drawn: values (with 0, infinities and NaN among
    them) or a declared failure with a drawn fill."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_pairs = draw(st.integers(1, 3))
    outcomes = {
        f"p{i}.{side}": [
            draw(st.one_of(
                st.lists(VALUES, min_size=w, max_size=w),
                VALUES.map(lambda fill: BlockFailure("drawn", fill)),
            ))
            for w in widths
        ]
        for i in range(n_pairs)
        for side in "lr"
    }

    def outcome(j):
        def fn(g):
            drawn = outcomes[g.id][j]
            if isinstance(drawn, BlockFailure):
                raise drawn
            return drawn
        return fn

    catalog = tuple(block(f"b{j}", outcome(j), w) for j, w in enumerate(widths))
    pairs = [
        GraphPair(make_graph(0, [], id=f"p{i}.l"), make_graph(0, [], id=f"p{i}.r"), "X", f"p{i}")
        for i in range(n_pairs)
    ]
    return pairs, catalog


class TestScorePairsOracle:
    """The table-wide scoring agrees exactly with the block-by-block oracle."""

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    @settings(max_examples=150, deadline=None)
    @given(drawn=scored_pairs(), tol=st.sampled_from([1e-6, 0.5, 1.0, 3.0]))
    def test_matches_block_difference(self, mode, drawn, tol):
        pairs, catalog = drawn
        report = score_pairs(pairs, catalog, tol=tol, mode=mode)
        for i, pair in enumerate(pairs):
            sides = zip(fingerprint(pair.left, catalog), fingerprint(pair.right, catalog))
            for j, (left, right) in enumerate(sides):
                verdict, delta = block_difference(left, right, tol, mode)
                got = report.max_rel_diff[i, j]
                assert got == delta or (math.isnan(got) and math.isnan(delta))
                assert report.differentiated[i, j] == verdict


class TestScorePairs:
    def test_c6_vs_two_triangles(self):
        cat = build_catalog(RegimeConfig())
        pairs = [GraphPair(cycle_graph(6), two_triangles(), "Basic", "p0")]
        report = score_pairs(pairs, cat)
        assert report.pair_differentiated()[0]
        by_name = dict(zip(report.invariant_names, report.differentiated[0]))
        assert by_name["circuit_rank"] and by_name["spanning_tree_count"] and by_name["diameter"]

    def test_identical_graphs_not_differentiated(self):
        cat = build_catalog(RegimeConfig())
        g = cycle_graph(6)
        report = score_pairs([GraphPair(g, g, "Basic", "p0")], cat)
        assert not report.pair_differentiated()[0]

    def test_relabeled_graphs_not_differentiated(self, rng):
        # permutation invariance composed through fingerprints
        for regime in ("full", "reduced"):
            cat = build_catalog(RegimeConfig(regime=regime))
            for _ in range(5):
                g = random_graph(rng, min_n=4, max_n=9)
                h = relabel(g, random_permutation(g.n_vertices, rng))
                report = score_pairs([GraphPair(g, h, "Iso", "p")], cat)
                assert not report.pair_differentiated()[0], regime

    def test_symmetry(self, rng):
        cat = build_catalog(RegimeConfig(subset="S"))
        g, h = random_graph(rng, min_n=4), random_graph(rng, min_n=4)
        a = score_pairs([GraphPair(g, h, "X", "p")], cat)
        b = score_pairs([GraphPair(h, g, "X", "p")], cat)
        assert np.array_equal(a.differentiated, b.differentiated)

    def test_category_stats(self):
        cat = build_catalog(RegimeConfig(subset="S"))
        g = cycle_graph(6)
        pairs = [
            GraphPair(g, two_triangles(), "Basic", "p0"),
            GraphPair(g, g, "Basic", "p1"),
            GraphPair(g, complete_graph(6), "Regular", "p2"),
        ]
        report = score_pairs(pairs, cat)
        stats = report.category_stats()
        assert stats["Basic"]["size"] == 2 and stats["Basic"]["count"] == 1
        assert stats["Basic"]["accuracy"] == 0.5
        assert report.total_stats()["count"] == 2


class TestForbiddenSplits:
    """Rook/Shrikhande, CFI(K4) and CFI(K5) are 2-WL-equivalent pairs. That
    fixes the degrees, both spectra and the coherent algebra of the
    distance matrix, so every block read off those must tie. Only analytic
    torsion, homomorphism counts from patterns of treewidth 3 or more
    (Dvořák 2010; Dell, Grohe and Rattan 2018), Ollivier-Ricci curvature
    and neighbourhood traces may split them. The splits are pinned as
    measured."""

    MAY_SPLIT = ("analytic_torsion", "homomorphism_counts", "ollivier_ricci_", "neighbourhood_trace_")
    SPLITS = {
        "full": [{"analytic_torsion", "homomorphism_counts", "ollivier_ricci_mean"}] * 2 + [{"homomorphism_counts"}],
        "reduced": [{"ollivier_ricci_mean"}, {"ollivier_ricci_mean"}, set()],
    }

    @pytest.mark.parametrize("regime", ["full", "reduced"])
    def test_only_blocks_beyond_2wl_split(self, regime):
        pairs = [GraphPair(rook_graph_4x4(), shrikhande_graph(), "SR", "rook-shrikhande")]
        for k in (4, 5):
            pairs.append(GraphPair(*cfi_pair(k, combinations(range(k), 2)), "CFI", f"cfi-k{k}"))
        report = score_pairs(pairs, build_catalog(RegimeConfig(regime=regime)), tol=1e-6)
        assert not np.isnan(report.max_rel_diff).any()
        splits = [{report.invariant_names[j] for j in np.flatnonzero(row)} for row in report.differentiated]
        for pair, split in zip(pairs, splits):
            assert all(name.startswith(self.MAY_SPLIT) for name in split), (pair.pair_id, split)
        assert splits == self.SPLITS[regime]


class TestGreedySubset:
    def test_single_cover(self):
        report = make_report([[1, 0], [1, 0], [1, 1]])
        assert greedy_subset(report) == [("inv0", 3)]

    def test_tie_break_catalog_order(self):
        report = make_report([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]])
        picked = greedy_subset(report)
        assert picked == [("inv0", 2), ("inv2", 2)]

    def test_coverage_equals_full_catalog(self, rng):
        for _ in range(50):
            n_pairs = rng.randint(1, 30)
            n_inv = rng.randint(1, 12)
            matrix = np.array(
                [[rng.random() < 0.3 for _ in range(n_inv)] for _ in range(n_pairs)]
            )
            report = make_report(matrix)
            picked = [name for name, _ in greedy_subset(report)]
            idx = [int(name[3:]) for name in picked]
            covered = matrix[:, idx].any(axis=1) if idx else np.zeros(n_pairs, dtype=bool)
            assert np.array_equal(covered, matrix.any(axis=1))

    def test_marginal_gains_decrease_to_stop(self):
        report = make_report([[1, 1], [1, 0], [0, 1]])
        picked = greedy_subset(report)
        assert picked[0] == ("inv0", 2) and picked[1] == ("inv1", 1)


class TestExports:
    def test_heatmap_grid(self, tmp_path):
        report = make_report([[1, 0, 1], [0, 0, 1]])
        path = tmp_path / "h.csv"
        export_heatmap(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "invariant,p0,p1"
        assert len(lines) == 4  # header + 3 invariant rows

    def test_heatmap_greedy_rows_first(self, tmp_path):
        report = make_report([[0, 1], [0, 1]])
        export_heatmap(report, tmp_path / "h.csv")
        rows = [l.split(",")[0] for l in (tmp_path / "h.csv").read_text().splitlines()[1:]]
        assert rows == ["inv1", "inv0"]

    def test_heatmap_failed_block_is_nan(self, tmp_path):
        cat = build_catalog(RegimeConfig(subset="S"))
        pairs = [GraphPair(make_graph(3, []), make_graph(4, []), "X", "p0")]
        report = score_pairs(pairs, cat)
        export_heatmap(report, tmp_path / "h.csv")
        rows = {l.split(",")[0]: l.split(",")[1] for l in (tmp_path / "h.csv").read_text().splitlines()[1:]}
        assert rows["forman_ricci_mean"] == "nan"

    def test_report_json(self, tmp_path):
        report = make_report([[1, 0], [0, 0]], categories=["A", "B"])
        path = tmp_path / "r.json"
        export_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["categories"]["A"] == {"size": 1, "count": 1, "accuracy": 1.0}
        assert payload["total"]["count"] == 1
        assert payload["greedy_subset"] == [{"name": "inv0", "marginal_gain": 1}]


def graph6_encode(n: int, edges) -> bytes:
    """graph6 of an n-vertex graph, n < 258048: the size as one byte, or
    as '~' and three 6-bit bytes from 63 on, then the upper triangle
    column by column, six bits a byte, padded with zeros."""
    size = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [sum(bit << (5 - s) for s, bit in enumerate(bits[k:k + 6])) for k in range(0, len(bits), 6)]
    return bytes(v + 63 for v in size + body)


@st.composite
def graph6_graphs(draw):
    """(n, edges): both size headers occur, empty and complete graphs too."""
    n = draw(st.one_of(st.integers(0, 62), st.integers(63, 80)))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if not pairs:
        return n, []
    return n, draw(st.one_of(st.just(pairs), st.lists(st.sampled_from(pairs), max_size=100)))


class TestPairInputs:
    @settings(max_examples=200, deadline=None)
    @given(graph=graph6_graphs(), prefix=st.sampled_from([b"", b">>graph6<<"]), as_text=st.booleans())
    def test_graph6_decodes_encoder_output(self, graph, prefix, as_text):
        n, edges = graph
        data = prefix + graph6_encode(n, edges)
        g = graph6_to_graph(data.decode("ascii") if as_text else data)
        assert g.n_vertices == n
        assert g.edges == tuple(sorted(set(edges)))

    def test_jsonl_roundtrip(self):
        g, h = cycle_graph(6), two_triangles()
        line = json.dumps(
            {"pair_id": "x", "category": "Basic", "left": graph_to_obj(g), "right": graph_to_obj(h)}
        )
        pairs = parse_pairs_jsonl(io.StringIO(line, newline=None))
        assert len(pairs) == 1
        assert pairs[0].left.edges == g.edges
        assert pairs[0].category == "Basic"

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "pairs line 1: not a JSON object"),
        ("null", "pairs line 1: not a JSON object"),
        ('{"left": [1], "right": {"num_nodes": 1}}', "'pair0.left': not a JSON object"),
        ('{"left": {"num_nodes": 1}, "right": null}', "'pair0.right': not a JSON object"),
        ('{"left": {"num_nodes": 1}}', "pairs line 1: malformed record"),
    ])
    def test_malformed_pair_rejected(self, line, message):
        with pytest.raises(GraphDataError, match=message):
            parse_pairs_jsonl(io.StringIO(line, newline=None))

    def test_graph6_k4(self):
        g = graph6_to_graph(b"C~")
        assert g.n_vertices == 4 and g.n_edges == 6

    def test_graph6_c5(self):
        g = graph6_to_graph("Dhc")
        assert g.n_vertices == 5
        assert sorted(g.edges) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("data", ["", "~", "~?"])
    def test_graph6_truncated_size_header(self, data):
        with pytest.raises(GraphDataError, match="too short"):
            graph6_to_graph(data)

    def test_brec_npy_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.npy"
        np.save(path, np.array([b"C~", b"Dhc", b"C~", b"C~"], dtype=object), allow_pickle=True)
        pairs = load_brec_npy(path)
        assert len(pairs) == 2
        assert pairs[0].category == "Basic"
        assert pairs[0].left.n_vertices == 4 and pairs[0].right.n_vertices == 5

    def test_brec_categories_by_pair_index(self, tmp_path):
        path = tmp_path / "pairs.npy"
        np.save(path, np.array(["?"] * 2 * 402))  # 402 pairs of the graph without vertices
        categories = [pair.category for pair in load_brec_npy(path)]
        assert categories[359:] == ["CFI"] + ["Regular"] * 40 + ["Uncategorized"] * 2
