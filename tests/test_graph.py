import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.graph import (
    Graph,
    GraphDataError,
    UNREACHABLE,
    bfs_all_pairs,
    component_count,
    degree_vector,
    graph_from_obj,
    make_graph,
    parse_jsonl_dataset,
    read_jsonl,
)

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_to_obj,
    path_graph,
    random_graph,
    random_permutation,
    relabel,
    star_graph,
    two_triangles,
)
from strategies import block_graphs
from oracles import components, floyd_warshall


#: Floats on a 1/64 grid survive any decimal round trip exactly.
GRID_FLOATS = st.integers(-512, 512).map(lambda k: k / 64)

#: Ids with the characters that break CSV fields and JSON lines.
IDS = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from([",", '"', "\n", "\r", "\\", " ", "a", "\u00e9"]), max_size=8).map("".join),
)


def feature_matrices(rows: int):
    """None, or a rows x d array, d in 1..3."""
    return st.one_of(st.none(), st.integers(1, 3).flatmap(lambda d: st.lists(
        GRID_FLOATS, min_size=rows * d, max_size=rows * d).map(lambda x: np.array(x).reshape(rows, d))))


@st.composite
def featured_graphs(draw):
    g = draw(block_graphs(max_n=8))
    return make_graph(
        g.n_vertices,
        g.edges,
        node_features=draw(feature_matrices(g.n_vertices)),
        edge_features=draw(feature_matrices(g.n_edges)),
        id=draw(IDS),
        label=draw(st.one_of(st.none(), st.integers(-5, 5), GRID_FLOATS, IDS, st.lists(st.integers(0, 4), max_size=3))),
    )


def same_features(got, want) -> bool:
    """Equal matrices. JSON writes a matrix without rows as [], which holds
    no width, so such a matrix comes back 0 x 0."""
    if want is None or got is None:
        return got is want
    return np.array_equal(got, want if len(want) else want.reshape(0, 0))


class TestParseJsonl:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(featured_graphs(), max_size=4))
    def test_graph_to_obj_round_trip(self, graphs):
        text = "\n".join(json.dumps(graph_to_obj(g)) for g in graphs)
        back = [graph_from_obj(obj, "default", words) for _, obj, words in read_jsonl(io.StringIO(text, newline=None))]
        assert len(back) == len(graphs)
        for h, g in zip(back, graphs):
            assert (h.n_vertices, h.edges, h.id, h.label) == (g.n_vertices, g.edges, g.id, g.label)
            assert type(h.label) is type(g.label)
            assert same_features(h.node_features, g.node_features)
            assert same_features(h.edge_features, g.edge_features)

    def test_empty_feature_lists_are_matrices_without_rows(self):
        line = json.dumps({"num_nodes": 0, "edges": [], "node_features": [], "edge_features": []})
        g = parse_jsonl_dataset(io.StringIO(line, newline=None)).graphs[0]
        assert g.node_features.shape == g.edge_features.shape == (0, 0)

    def test_triangle_with_features(self):
        line = json.dumps(
            {"id": "t", "num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]],
             "node_features": [[1.0], [1.0], [1.0]]}
        )
        ds = parse_jsonl_dataset(io.StringIO(line, newline=None))
        assert len(ds) == 1
        g = ds.graphs[0]
        assert g.node_features.shape == (3, 1)

    def test_empty_stream(self):
        assert len(parse_jsonl_dataset(io.StringIO("", newline=None))) == 0

    def test_feature_row_mismatch(self):
        line = json.dumps(
            {"id": "bad", "num_nodes": 3, "edges": [[0, 1]], "node_features": [[1.0], [1.0]]}
        )
        with pytest.raises(GraphDataError, match="'bad'.*2.*3"):
            parse_jsonl_dataset(io.StringIO(line, newline=None))

    def test_duplicate_ids_rejected(self):
        line = json.dumps({"id": "x", "num_nodes": 1, "edges": []})
        with pytest.raises(GraphDataError, match="duplicate graph id"):
            parse_jsonl_dataset(io.StringIO(line + "\n" + line, newline=None))

    @pytest.mark.parametrize("line", ["[1, 2]", "null", "3", '"g"'])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(GraphDataError, match="line 2: not a JSON object"):
            parse_jsonl_dataset(io.StringIO('{"num_nodes": 1}\n' + line, newline=None))

    @pytest.mark.parametrize("record, message", [
        ({"num_nodes": 2.9, "edges": [[0, 1]]}, "num_nodes must be a JSON integer, got 2.9"),
        ({"num_nodes": "3", "edges": []}, "num_nodes must be a JSON integer, got '3'"),
        ({"num_nodes": True, "edges": []}, "num_nodes must be a JSON integer, got True"),
        ({"edges": []}, "num_nodes must be a JSON integer, got None"),
        ({"num_nodes": 2, "edges": [[0, True]]}, "edges must be a list of pairs of JSON integers"),
        ({"num_nodes": 2, "edges": [[0, 1.7]]}, "edges must be a list of pairs of JSON integers"),
        ({"num_nodes": 2, "edges": [[0, 1.0]]}, "edges must be a list of pairs of JSON integers"),
        ({"num_nodes": 2, "edges": [["0", 1]]}, "edges must be a list of pairs of JSON integers"),
        ({"num_nodes": 3, "edges": [[0, 1, 2]]}, "edges must be a list of pairs of JSON integers"),
        ({"num_nodes": 2, "edges": "01"}, "edges must be a list of pairs of JSON integers"),
    ])
    def test_non_integer_counts_and_endpoints_rejected(self, record, message):
        # Nothing is truncated or coerced: 2.9 vertices or the endpoint
        # true would otherwise load silently as K2.
        line = json.dumps({"id": "bad", **record})
        with pytest.raises(GraphDataError, match=f"^graph 'bad': {message}$"):
            parse_jsonl_dataset(io.StringIO(line, newline=None))

    def test_lines_end_where_a_text_file_ends_them(self, tmp_path):
        # Only "\n", "\r\n" and "\r" end a line of a file read in text
        # mode. Other Unicode breaks stay inside the id, and stray ones
        # after a record are blank space on its line, not new lines.
        records = [
            {"id": "a\u2028b\u2029c\u0085d\ve\ff\x1cg", "num_nodes": 1},
            {"id": "h", "num_nodes": 2},
            {"id": "i", "num_nodes": 3},
        ]
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        text = lines[0] + " \u2028\u2029\u0085\v\f\x1c\x1d\x1e\r\n" + lines[1] + "\r" + lines[2] + "\n"
        path = tmp_path / "graphs.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            from_file = list(read_jsonl(fh))
        assert from_file == [(1, records[0], False), (2, records[1], False), (3, records[2], False)]

    def test_edge_features_follow_canonical_order(self):
        # input edges reversed and out of order; rows must be re-paired
        obj = {"id": "e", "num_nodes": 3, "edges": [[2, 1], [1, 0]],
               "edge_features": [[20.0], [10.0]]}
        g = parse_jsonl_dataset(io.StringIO(json.dumps(obj), newline=None)).graphs[0]
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
        assert component_count(g) == len(components(g.n_vertices, g.edges))

    def test_empty_graph(self):
        g = make_graph(0, [])
        assert component_count(g) == 0
        assert bfs_all_pairs(g).shape == (0, 0)


class TestComponentsAndDegrees:
    def test_components(self):
        assert component_count(cycle_graph(6)) == 1
        assert component_count(two_triangles()) == 2
        assert component_count(empty_graph(5)) == 5

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relabel_round_trip(self, data):
        # Distinct feature rows, so a row paired with the wrong edge shows.
        g = data.draw(block_graphs(max_n=10))
        n, m = g.n_vertices, g.n_edges
        if data.draw(st.booleans()):
            g = make_graph(
                n, g.edges,
                node_features=np.arange(n, dtype=float).reshape(n, 1),
                edge_features=np.arange(2 * m, dtype=float).reshape(m, 2),
            )
        perm = data.draw(st.permutations(range(n)))
        back = relabel(relabel(g, perm), np.argsort(perm).tolist())
        assert back.edges == g.edges
        for field in ("edge_features", "node_features"):
            got, want = getattr(back, field), getattr(g, field)
            assert (got is None and want is None) or np.array_equal(got, want)
