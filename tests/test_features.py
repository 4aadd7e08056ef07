import numpy as np
import pytest

from graphinv.features import (
    FeatureConfig,
    build_x_init,
    feature_agg,
    feature_columns,
    feature_sum,
    write_features_csv,
)
from graphinv.graph import GraphDataset, make_graph, relabel
from graphinv.registry import RegimeConfig, build_catalog

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    random_graph,
    random_permutation,
    star_graph,
)


class TestXInit:
    def test_k2_with_edge_features(self):
        g = make_graph(2, [(0, 1)], node_features=[[1.0], [1.0]], edge_features=[[1.0]])
        x = build_x_init(g)
        assert x.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_no_edge_features_is_x(self):
        g = make_graph(3, [(0, 1)], node_features=[[2.0], [3.0], [4.0]])
        assert np.array_equal(build_x_init(g), g.node_features)

    def test_unit_edge_features_append_degree(self):
        g = star_graph(4)
        g = make_graph(
            g.n_vertices, g.edges,
            node_features=np.ones((5, 1)),
            edge_features=np.ones((4, 1)),
        )
        x = build_x_init(g)
        assert x[:, 1].tolist() == [4.0, 1.0, 1.0, 1.0, 1.0]

    def test_featureless_gets_unit_column(self):
        x = build_x_init(cycle_graph(4))
        assert x.shape == (4, 1) and np.all(x == 1)


class TestSumAgg:
    def test_sum_unit_features(self):
        assert feature_sum(empty_graph(7)).tolist() == [7.0]

    def test_sum_explicit(self):
        g = make_graph(2, [], node_features=[[1.0, 2.0], [3.0, 4.0]])
        assert feature_sum(g).tolist() == [4.0, 6.0]

    def test_sum_zero_vertices(self):
        g = make_graph(0, [], node_features=np.zeros((0, 3)))
        assert feature_sum(g).tolist() == [0.0, 0.0, 0.0]

    def test_agg_block_zero_is_sum(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            assert np.array_equal(feature_agg(g, 2)[:1], feature_sum(g))

    def test_agg_c4_hand_powers(self):
        assert feature_agg(cycle_graph(4), 2).tolist() == [4.0, 8.0, 16.0]

    def test_agg_no_edges(self):
        agg = feature_agg(empty_graph(3), 3)
        assert agg.tolist() == [3.0, 0.0, 0.0, 0.0]

    def test_prefix_consistency(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            long = feature_agg(g, 4)
            for h in (1, 2, 3):
                short = feature_agg(g, h)
                assert np.array_equal(long[: short.size], short)

    def test_identities_unit_features(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            assert feature_sum(g).tolist() == [float(g.n_vertices)]
            assert feature_agg(g, 1)[1] == 2.0 * g.n_edges

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            h = relabel(g, random_permutation(g.n_vertices, rng))
            assert np.array_equal(feature_agg(g, 3), feature_agg(h, 3))


def assemble_row(tmp_path, g, config, catalog=None):
    """The feature cells and the invariant status cells of ``g``'s row."""
    path = tmp_path / "row.csv"
    write_features_csv(GraphDataset((g,)), config, catalog, path)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    cells = dict(zip(header, row))
    vec = np.array([float(cells[c]) for c in header if c.startswith(config.mode + ".")])
    fp = None if catalog is None else [cells[c] for c in header if c.endswith(".status")]
    return vec, fp


class TestAssembleRow:
    """One row as write_features_csv assembles it."""

    def test_sum_none_k2(self, tmp_path):
        vec, fp = assemble_row(tmp_path, complete_graph(2), FeatureConfig(mode="sum"))
        assert vec.tolist() == [2.0] and fp is None

    def test_sum_with_full_s(self, tmp_path):
        cat = build_catalog(RegimeConfig(subset="S"))
        vec, fp = assemble_row(tmp_path, complete_graph(2), FeatureConfig(), cat)
        assert vec.tolist() == [2.0]
        assert fp is not None and len(fp) == 5

    def test_agg_hop1_k2(self, tmp_path):
        vec, _ = assemble_row(tmp_path, complete_graph(2), FeatureConfig(mode="agg", hops=1))
        assert vec.tolist() == [2.0, 2.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(mode="mean")
        with pytest.raises(ValueError):
            FeatureConfig(mode="agg", hops=0)


class TestCsv:
    def test_column_names(self):
        assert feature_columns(FeatureConfig(mode="sum"), 2) == ["sum.0.0", "sum.0.1"]
        assert feature_columns(FeatureConfig(mode="agg", hops=1), 1) == ["agg.0.0", "agg.1.0"]

    def test_label_passthrough(self, tmp_path):
        graphs = (
            make_graph(2, [(0, 1)], id="a", label=1),
            make_graph(3, [(0, 1)], id="b", label=0),
        )
        ds = GraphDataset(graphs, name="t")
        path = tmp_path / "rows.csv"
        write_features_csv(ds, FeatureConfig(mode="sum"), None, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "graph_id,sum.0.0,label"
        assert lines[1].split(",") == ["a", "2.0", "1"]

    def test_combined_header(self, tmp_path):
        cat = build_catalog(RegimeConfig(subset="S"))
        ds = GraphDataset((complete_graph(2),), name="t")
        path = tmp_path / "rows.csv"
        write_features_csv(ds, FeatureConfig(mode="sum"), cat, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["graph_id", "sum.0.0"]
        assert "analytic_torsion.0" in header and "analytic_torsion.status" in header
