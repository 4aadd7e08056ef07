import gc
import json
import math
import random
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphinv import graph, linalg
from graphinv.graph import GraphDataset, make_graph
from graphinv.invariants import BlockFailure, homcount, topo
from graphinv.invariants.homcount import count_patterns
from graphinv.invariants.patterns import PATTERN_CATALOG
from graphinv.invariants.transport import TransportError
from graphinv.linalg import NumericalError
from graphinv.registry import (
    ConfigError,
    RegimeConfig,
    block,
    build_catalog,
    fingerprint,
    fingerprint_dataset,
    write_fingerprint_csv,
)

from conftest import (
    barabasi_albert,
    catalog_compute,
    circulant_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    path_graph,
    random_graph,
    random_permutation,
    relabel,
    two_triangles,
)
from strategies import block_graphs

GOLDEN = Path(__file__).parent / "golden"


class TestRegimeConfig:
    def test_defaults(self):
        c = RegimeConfig()
        assert c.regime == "full" and c.subset == "I"
        assert c.q == pytest.approx(math.exp(-0.42))
        assert c.alpha == 0.5
        assert c.torsion_dim == 2
        assert c.spectrum_k == 8
        assert c.randic_exponents == (-1.0, 0.5)

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            RegimeConfig(regime="medium")

    def test_q_range_validated(self):
        with pytest.raises(ConfigError, match="q must be in"):
            RegimeConfig(q=1.5)

    def test_alpha_validated(self):
        with pytest.raises(ConfigError, match="alpha must be in"):
            RegimeConfig(alpha=1.0)

    @pytest.mark.parametrize("exponents", [(float("nan"),), (1.0, float("inf")), (float("-inf"),)])
    def test_non_finite_randic_exponent(self, exponents):
        with pytest.raises(ConfigError, match="randic_exponents must be finite"):
            RegimeConfig(randic_exponents=exponents)

    @pytest.mark.parametrize("exponents", [(0.5, 0.5), (1.0, 0.5, 0.5000001)])
    def test_randic_exponents_naming_one_column_twice(self, exponents):
        # The columns are named by f"{c:g}", six significant digits.
        with pytest.raises(ConfigError) as exc:
            RegimeConfig(randic_exponents=exponents)
        assert str(exc.value) == "randic_exponents must give distinct columns, got general_randic_0.5 twice"


class TestCatalog:
    @pytest.mark.parametrize("regime,subset", [("full", "I"), ("full", "S"), ("reduced", "I"), ("reduced", "S")])
    def test_golden_schema(self, regime, subset):
        cat = build_catalog(RegimeConfig(regime=regime, subset=subset))
        got = "\n".join(f"{d.name} {d.width}" for d in cat) + "\n"
        want = (GOLDEN / f"schema_{regime}_{subset}.txt").read_text()
        assert got == want

    def test_full_s_has_5(self):
        assert len(build_catalog(RegimeConfig(subset="S"))) == 5

    def test_reduced_s_has_6(self):
        assert len(build_catalog(RegimeConfig(regime="reduced", subset="S"))) == 6

    def test_reduced_exclusions(self):
        names = {d.name for d in build_catalog(RegimeConfig(regime="reduced"))}
        assert {"analytic_torsion", "homomorphism_counts", "estrada"}.isdisjoint(names)
        assert "spanning_tree_count_log" in names and "spanning_tree_count" not in names

    def test_subset_s_members_also_in_i(self):
        for regime in ("full", "reduced"):
            i_names = {d.name for d in build_catalog(RegimeConfig(regime=regime, subset="I"))}
            s_names = {d.name for d in build_catalog(RegimeConfig(regime=regime, subset="S"))}
            assert s_names <= i_names

    def test_spectrum_k_changes_schema(self):
        cat = build_catalog(RegimeConfig(spectrum_k=3))
        widths = {d.name: d.width for d in cat}
        assert widths["laplacian_spectrum_block"] == 6

    def test_randic_exponents_change_schema(self):
        cat = build_catalog(RegimeConfig(randic_exponents=(2.0,)))
        names = [d.name for d in cat]
        assert "general_randic_2" in names and "general_randic_-1" not in names


class TestFingerprint:
    def test_k2_full_s_all_ok(self):
        cat = build_catalog(RegimeConfig(subset="S"))
        vec = fingerprint(complete_graph(2), cat)
        assert all(b.ok for b in vec)
        assert sum(b.values.size for b in vec) == 5

    def test_edgeless_curvature_blocks_fail(self):
        cat = build_catalog(RegimeConfig())
        vec = fingerprint(empty_graph(4), cat)
        by_name = {d.name: b for d, b in zip(cat, vec)}
        for name in ("forman_ricci_mean", "ollivier_ricci_kurtosis"):
            assert not by_name[name].ok
            assert np.isnan(by_name[name].values).all()
        assert by_name["num_vertices"].ok  # other blocks unaffected

    def test_deterministic(self):
        cat = build_catalog(RegimeConfig())
        g = cycle_graph(6)
        a = fingerprint_dataset([g], cat).values
        b = fingerprint_dataset([g], cat).values
        assert np.array_equal(a, b, equal_nan=True)

    def test_block_widths_match_schema(self, rng):
        cat = build_catalog(RegimeConfig())
        vec = fingerprint(random_graph(rng), cat)
        assert len(vec) == len(cat)
        for value, d in zip(vec, cat):
            assert value.values.shape == (d.width,), d.name


def raising(exc):
    def fn(g):
        raise exc
    return fn


class TestBlock:
    """The one place where a block function's value or exception becomes
    an InvariantValue."""

    def test_value_is_read_only_float64(self):
        iv = block("b", lambda g: np.array([1, 2], dtype=np.int64), 2).compute(empty_graph(1))
        assert iv.ok and iv.values.dtype == np.float64 and iv.values.tolist() == [1.0, 2.0]
        assert not iv.values.flags.writeable

    def test_scalar_is_width_one(self):
        iv = block("b", lambda g: 3).compute(empty_graph(1))
        assert iv.status == "ok" and iv.values.tolist() == [3.0]

    @pytest.mark.parametrize("exc, status, fill", [
        (BlockFailure("declared reason"), "failed: declared reason", None),
        (BlockFailure("with sentinel", fill=-1.0), "failed: with sentinel", -1.0),
        (NumericalError("eigh failed"), "failed: eigh failed", None),
        (TransportError("no termination"), "failed: no termination", None),
        (ValueError("anything else"), "failed: ValueError: anything else", None),
        (ZeroDivisionError("x"), "failed: ZeroDivisionError: x", None),
    ])
    def test_exception_becomes_status(self, exc, status, fill):
        iv = block("b", raising(exc), 3).compute(empty_graph(1))
        assert iv.status == status and iv.values.shape == (3,) and not iv.values.flags.writeable
        if fill is None:
            assert np.isnan(iv.values).all()
        else:
            assert (iv.values == fill).all()

    def test_width_mismatch(self):
        iv = block("b", lambda g: [1.0, 2.0], 3).compute(empty_graph(1))
        assert iv.status == "failed: width mismatch (2 != 3)"
        assert np.isnan(iv.values).all() and iv.values.shape == (3,)

    @pytest.mark.parametrize("decomposition, name", [
        ("eigvalsh", "algebraic_connectivity"),  # the spectrum
        ("eigh", "commute_time_mean"),  # the pseudoinverse
    ])
    def test_failed_eigendecomposition_is_declared(self, monkeypatch, decomposition, name):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, decomposition, fail)
        iv = catalog_compute(name)(cycle_graph(5))  # a new graph: no cached spectrum
        assert iv.status == "failed: eigendecomposition failed for order 5: Eigenvalues did not converge"
        assert np.isnan(iv.values).all()


class TestFingerprintDataset:
    def _dataset(self, rng, n=6):
        return GraphDataset(tuple(random_graph(rng, max_n=8, id=f"g{i}") for i in range(n)), name="t")

    def test_empty_dataset_header_only(self, tmp_path):
        config = RegimeConfig()
        cat = build_catalog(config)
        path = tmp_path / "empty.csv"
        write_fingerprint_csv(fingerprint_dataset([], cat), path, config)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("graph_id,num_vertices.0,")

    def test_row_order_follows_dataset(self, rng):
        ds = self._dataset(rng)
        cat = build_catalog(RegimeConfig(subset="S"))
        rows = fingerprint_dataset(ds, cat)
        assert list(rows.graph_ids) == [g.id for g in ds]

    def test_pathological_graph_isolated(self, tmp_path):
        # 0-edge graph fails curvature blocks; neighbours stay clean
        config = RegimeConfig()
        cat = build_catalog(config)
        ds = GraphDataset((cycle_graph(4), empty_graph(3), complete_graph(3)), name="mix")
        rows = fingerprint_dataset(ds, cat)
        ok_counts = rows.ok().sum(axis=1).tolist()
        assert ok_counts[0] == len(cat) and ok_counts[2] == len(cat)
        assert ok_counts[1] < len(cat)

    def test_graphs_released_after_the_batch(self):
        # Work derived from a graph is cached for one graph at a time, so
        # once the batch is dropped only the last graph may stay reachable.
        ds = GraphDataset((cycle_graph(5), complete_graph(4), path_graph(4)), name="t")
        refs = [weakref.ref(g) for g in ds]
        rows = fingerprint_dataset(ds, build_catalog(RegimeConfig()))
        assert rows.ok().all()
        del ds, rows
        gc.collect()
        assert refs[0]() is None and refs[1]() is None

    def test_sidecar_contents(self, rng, tmp_path):
        ds = self._dataset(rng, n=3)
        config = RegimeConfig(subset="S")
        cat = build_catalog(config)
        path = tmp_path / "fp.csv"
        write_fingerprint_csv(fingerprint_dataset(ds, cat), path, config)
        sidecar = json.loads((tmp_path / "fp.csv.meta.json").read_text())
        assert sidecar["schema_version"] == "2"
        assert sidecar["config"]["subset"] == "S"
        assert sidecar["n_rows"] == 3

    def test_nan_serialized_as_nan_literal(self, tmp_path):
        config = RegimeConfig()
        cat = build_catalog(config)
        path = tmp_path / "fp.csv"
        write_fingerprint_csv(fingerprint_dataset(GraphDataset((empty_graph(3),)), cat), path, config)
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["forman_ricci_mean.0"] == "nan"
        assert cells["forman_ricci_mean.status"].startswith("failed")


FULL = build_catalog(RegimeConfig())
REDUCED = build_catalog(RegimeConfig(regime="reduced"))


def blocks(table, row):
    """(name, values, status) of every block of one table row."""
    starts = np.cumsum([0, *(d.width for d in table.catalog)])
    return [
        (d.name, table.values[row, a:b], status)
        for d, a, b, status in zip(table.catalog, starts, starts[1:], table.statuses[row])
    ]


def assert_rows_equal(table, rows):
    """Row i of `table` equals the fingerprint `rows[i]`, bit for bit."""
    assert len(table.graph_ids) == len(rows)
    for i, row in enumerate(rows):
        assert table.statuses[i] == tuple(b.status for b in row)
        want = np.concatenate([b.values for b in row])
        assert np.array_equal(table.values[i], want, equal_nan=True), table.graph_ids[i]


class TestHomomorphismBatch:
    """``fingerprint_dataset`` counts homomorphisms a chunk of graphs at a
    time; every row must equal the graph fingerprinted alone."""

    def dataset(self):
        rng = random.Random(3)
        g = erdos_renyi(7, 0.5, rng, id="g")
        c5 = cycle_graph(5)
        return [
            complete_graph(1), empty_graph(4), two_triangles(), g, c5,
            relabel(g, random_permutation(7, rng)), cycle_graph(260), c5, path_graph(6), c5,
        ]

    @pytest.mark.parametrize("cap", [120, homcount._CHUNK_SQUARES])
    def test_rows_equal_graphs_alone(self, monkeypatch, cap):
        # With a cap of 120 the chunks are [K1, E4, 2C3, g], [C5, g'],
        # [C260] and [C5, P6, C5]: C5 recurs within a chunk and across two.
        graphs = self.dataset()
        alone = [fingerprint(g, FULL) for g in graphs]
        monkeypatch.setattr(homcount, "_CHUNK_SQUARES", cap)
        assert_rows_equal(fingerprint_dataset(graphs, FULL), alone)
        assert homcount._CHUNK.get() is None

    @pytest.mark.parametrize("shape", [
        [],
        [["K1", "C5", "K1"]],
        [["E128", "E128", "E128", "E128"], ["K1"]],  # 4 * 128**2 == 2**16
        [["E257"], ["K1", "C5"]],
        [["K1"], ["E257"], ["C5", "C5"]],
    ])
    def test_chunks(self, shape):
        # The same object stands for a name wherever it recurs.
        named = {
            "K1": complete_graph(1), "C5": cycle_graph(5), "E128": empty_graph(128), "E257": empty_graph(257),
        }
        want = [tuple(named[x] for x in chunk) for chunk in shape]
        got = list(homcount.chunks(g for chunk in want for g in chunk))
        assert [list(map(id, c)) for c in got] == [list(map(id, c)) for c in want]

    def test_one_dp_per_chunk(self, monkeypatch):
        calls = []
        real = homcount._count

        def count(graphs, indices):
            calls.append(len(graphs))
            return real(graphs, indices)

        monkeypatch.setattr(homcount, "_count", count)
        fingerprint_dataset([cycle_graph(5), path_graph(4), cycle_graph(260), complete_graph(4)], FULL)
        assert calls == [2, 1, 1]

    def poisoned_statuses(self, monkeypatch):
        """The homomorphism-count statuses of five graphs, the third of
        which makes `_Host.of` raise; each row equals its graph alone."""
        poison = two_triangles()
        graphs = [cycle_graph(5), complete_graph(4), poison, path_graph(5), cycle_graph(6)]
        real = homcount._Host.of

        def of(cls, *chunk):
            if any(g is poison for g in chunk):
                raise RuntimeError("poison")
            return real(*chunk)

        monkeypatch.setattr(homcount._Host, "of", classmethod(of))
        alone = [fingerprint(g, FULL) for g in graphs]
        table = fingerprint_dataset(graphs, FULL)
        assert_rows_equal(table, alone)
        hom = [d.name for d in FULL].index("homomorphism_counts")
        return [row[hom] for row in table.statuses]

    def test_failure_lands_on_its_graph(self, monkeypatch):
        # The union of a chunk holds every graph of it, so the poison graph
        # makes the whole chunk raise; only its own block fails.
        assert self.poisoned_statuses(monkeypatch) == ["ok", "ok", "failed: RuntimeError: poison", "ok", "ok"]

    def test_lone_chunk_failure_lands_on_its_graph(self, monkeypatch):
        # With a cap of 1 every graph is a chunk alone: the poison graph's
        # chunk raises, and so does its recount alone.
        monkeypatch.setattr(homcount, "_CHUNK_SQUARES", 1)
        assert self.poisoned_statuses(monkeypatch) == ["ok", "ok", "failed: RuntimeError: poison", "ok", "ok"]

    def test_chunk_of_empty_graphs_counts_zero(self):
        # The union has no vertex: every table of the walk is empty.
        table = fingerprint_dataset([make_graph(0, [], id="a"), make_graph(0, [], id="b")], FULL)
        for row in (0, 1):
            ((values, status),) = [(v, s) for name, v, s in blocks(table, row) if name == "homomorphism_counts"]
            assert status == "ok" and values.tolist() == [0.0] * topo.N_PATTERNS

    @pytest.mark.parametrize("catalog", [FULL, REDUCED], ids=["full", "reduced"])
    def test_each_shared_primitive_built_once(self, catalog):
        # The one-slot per_graph cache must not drop a graph's primitive
        # before its last block reads it. The union sets its adjacency
        # blocks from its own CSR, so only each graph's own blocks build
        # its matrix.
        primitives = {
            f"{module.__name__}.{name}": getattr(module, name)
            for module in (graph, linalg, topo)
            for name in re.findall(r"^@per_graph\ndef (\w+)", Path(module.__file__).read_text(), re.M)
        }
        assert len(primitives) == 13
        rng = random.Random(5)
        graphs = [erdos_renyi(30, 0.2, rng, id=f"g{i}") for i in range(6)]
        graphs += [barabasi_albert(40, 3, rng, id=f"b{i}") for i in range(4)]
        for f in primitives.values():
            f.cache_clear()
        fingerprint_dataset(graphs, catalog)
        assert {name: f.cache_info().misses for name, f in primitives.items()} == dict.fromkeys(primitives, 10)

    def test_batch_closes_on_error(self, monkeypatch):
        import graphinv.registry as registry

        def fail_on_second(g, catalog):
            if g.id == "C4":
                raise KeyboardInterrupt
            return fingerprint(g, catalog)

        monkeypatch.setattr(registry, "fingerprint", fail_on_second)
        with pytest.raises(KeyboardInterrupt):
            fingerprint_dataset([cycle_graph(3), cycle_graph(4), cycle_graph(5)], FULL)
        assert homcount._CHUNK.get() is None


class TestPermutationInvarianceProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_relabelling_changes_no_block(self, data):
        # The graph and its relabelling share one batch, and so one chunk.
        # The absolute 1e-9 admits zero eigenvalues that come out as 1e-17.
        # Only the reduced catalog has spanning_tree_count_log.
        g = data.draw(block_graphs(max_n=10))
        h = relabel(g, data.draw(st.permutations(range(g.n_vertices))))
        for catalog in (FULL, REDUCED):
            table = fingerprint_dataset([g, h], catalog)
            for (name, a, status_a), (_, b, status_b) in zip(blocks(table, 0), blocks(table, 1)):
                assert status_a == status_b, name
                if name == "homomorphism_counts":
                    assert a.tolist() == b.tolist()
                else:
                    assert np.allclose(a, b, rtol=1e-9, atol=1e-9, equal_nan=True), name


class TestRegularPairs:
    """Two d-regular graphs on n vertices tie wherever theory says: every
    tree pattern F has n * d**|E(F)| homomorphisms into each, and every
    block read off the vertex and edge counts or the degrees of the edge
    ends is equal bit for bit."""

    TREES = [i for i, p in enumerate(PATTERN_CATALOG) if len(p.edges) == p.n_vertices - 1]
    TIED = tuple(d for d in FULL if d.name in {
        "num_vertices", "num_edges", "density", "degree_entropy", "degree_mean_ratio",
        "forman_ricci_mean", "forman_ricci_variance", "forman_ricci_skewness", "forman_ricci_kurtosis",
        "randic", "general_randic_-1", "general_randic_0.5", "atom_bond_connectivity",
        "geometric_arithmetic", "zagreb_first", "zagreb_second", "forgotten",
    })

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_circulants_tie(self, data):
        # Steps s <= (n - 1) / 2 never reach n / 2, so each adds 2 to every degree.
        n = data.draw(st.integers(3, 24))
        k = data.draw(st.integers(1, (n - 1) // 2))
        same_size = st.sets(st.integers(1, (n - 1) // 2), min_size=k, max_size=k)
        g, h = circulant_graph(n, data.draw(same_size)), circulant_graph(n, data.draw(same_size))
        assert len(self.TREES) == 8 and len(self.TIED) == 17
        for graph in (g, h):
            want = [n * (2 * k) ** len(PATTERN_CATALOG[i].edges) for i in self.TREES]
            assert count_patterns(graph, self.TREES) == want
        for d, a, b in zip(self.TIED, fingerprint(g, self.TIED), fingerprint(h, self.TIED)):
            assert a.status == b.status == "ok", d.name
            assert a.values.tobytes() == b.values.tobytes(), d.name
