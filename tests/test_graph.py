import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from graphinv.graph import (
    Graph,
    GraphDataError,
    UNREACHABLE,
    bfs_all_pairs,
    connected_components,
    degree_vector,
    make_graph,
    parse_jsonl_dataset,
    relabel,
)

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    random_permutation,
    star_graph,
    two_triangles,
)
from strategies import block_graphs
from oracles import components, floyd_warshall


class TestParseJsonl:
    def test_triangle_with_features(self):
        line = json.dumps(
            {"id": "t", "num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]],
             "node_features": [[1.0], [1.0], [1.0]]}
        )
        ds = parse_jsonl_dataset(line)
        assert len(ds) == 1
        g = ds.graphs[0]
        assert g.node_features.shape == (3, 1)

    def test_empty_stream(self):
        assert len(parse_jsonl_dataset("")) == 0

    def test_feature_row_mismatch(self):
        line = json.dumps(
            {"id": "bad", "num_nodes": 3, "edges": [[0, 1]], "node_features": [[1.0], [1.0]]}
        )
        with pytest.raises(GraphDataError, match="'bad'.*2.*3"):
            parse_jsonl_dataset(line)

    def test_duplicate_ids_rejected(self):
        line = json.dumps({"id": "x", "num_nodes": 1, "edges": []})
        with pytest.raises(GraphDataError, match="duplicate graph id"):
            parse_jsonl_dataset(line + "\n" + line)

    @pytest.mark.parametrize("line", ["[1, 2]", "null", "3", '"g"'])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(GraphDataError, match="line 2: not a JSON object"):
            parse_jsonl_dataset('{"num_nodes": 1}\n' + line)

    def test_edge_features_follow_canonical_order(self):
        # input edges reversed and out of order; rows must be re-paired
        obj = {"id": "e", "num_nodes": 3, "edges": [[2, 1], [1, 0]],
               "edge_features": [[20.0], [10.0]]}
        g = parse_jsonl_dataset(json.dumps(obj)).graphs[0]
        assert g.edges == ((0, 1), (1, 2))
        assert g.edge_features[:, 0].tolist() == [10.0, 20.0]


class TestDistances:
    def test_path(self):
        d = bfs_all_pairs(path_graph(4))
        assert d[0, 3] == 3

    def test_disconnected(self):
        d = bfs_all_pairs(two_triangles())
        assert d[0, 3] == UNREACHABLE

    def test_complete(self):
        d = bfs_all_pairs(complete_graph(4))
        off = d[~np.eye(4, dtype=bool)]
        assert (off == 1).all()

    def test_against_floyd_warshall(self, rng):
        for _ in range(50):
            g = random_graph(rng, max_n=10)
            got = bfs_all_pairs(g)
            want = floyd_warshall(g.n_vertices, g.edges)
            for i in range(g.n_vertices):
                for j in range(g.n_vertices):
                    expected = UNREACHABLE if want[i][j] == math.inf else int(want[i][j])
                    assert got[i, j] == expected

    def test_relabel_preserves_distance_multiset(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_n=9)
            h = relabel(g, random_permutation(g.n_vertices, rng))
            a = sorted(bfs_all_pairs(g).reshape(-1).tolist())
            b = sorted(bfs_all_pairs(h).reshape(-1).tolist())
            assert a == b


class TestTraversalProperties:
    @settings(max_examples=200, deadline=None)
    @given(block_graphs(max_n=14))
    def test_distances_match_floyd_warshall(self, g):
        want = [
            [UNREACHABLE if d == math.inf else int(d) for d in row]
            for row in floyd_warshall(g.n_vertices, g.edges)
        ]
        got = bfs_all_pairs(g)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.shape == (g.n_vertices, g.n_vertices)
        assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(block_graphs(max_n=14))
    def test_components_match_union_find(self, g):
        groups = sorted(components(g.n_vertices, g.edges), key=min)
        label = {v: k for k, group in enumerate(groups) for v in group}
        want = tuple(label[v] for v in range(g.n_vertices))
        assert connected_components(g) == (len(groups), want)

    def test_empty_graph(self):
        g = make_graph(0, [])
        assert connected_components(g) == (0, ())
        assert bfs_all_pairs(g).shape == (0, 0)


class TestComponentsAndDegrees:
    def test_components(self):
        assert connected_components(cycle_graph(6))[0] == 1
        assert connected_components(two_triangles())[0] == 2
        assert connected_components(empty_graph(5))[0] == 5

    def test_component_labels_constant(self):
        count, labels = connected_components(two_triangles())
        assert count == 2
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1

    def test_degrees(self):
        assert degree_vector(cycle_graph(5)).tolist() == [2] * 5
        assert degree_vector(star_graph(4)).tolist() == [4, 1, 1, 1, 1]
        assert degree_vector(empty_graph(1)).tolist() == [0]

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(100):
            g = random_graph(rng)
            assert int(degree_vector(g).sum()) == 2 * g.n_edges


class TestValidation:
    def test_out_of_range_edge(self):
        with pytest.raises(GraphDataError):
            make_graph(2, [(0, 2)])

    def test_duplicate_edges_with_features_rejected(self):
        with pytest.raises(GraphDataError, match="duplicate edges"):
            make_graph(2, [(0, 1), (1, 0)], edge_features=[[1.0], [2.0]])

    def test_graph_is_frozen(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n_vertices = 3

    def test_relabel_keeps_edge_feature_pairing(self):
        g = make_graph(
            3, [(0, 1), (1, 2)],
            edge_features=[[10.0], [20.0]],  # rows follow canonical order
        )
        h = relabel(g, [2, 0, 1])  # 0->2, 1->0, 2->1
        feats = {e: float(h.edge_features[i, 0]) for i, e in enumerate(h.edges)}
        assert feats == {(0, 2): 10.0, (0, 1): 20.0}
