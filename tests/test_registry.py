import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from graphinv.graph import GraphDataset, make_graph
from graphinv.registry import (
    ConfigError,
    RegimeConfig,
    build_catalog,
    fingerprint,
    fingerprint_dataset,
    write_fingerprint_csv,
)

from conftest import complete_graph, cycle_graph, empty_graph, path_graph, random_graph

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

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown override"):
            RegimeConfig().with_overrides(qq=0.5)

    def test_override_roundtrip(self):
        c = RegimeConfig().with_overrides(q=0.3, spectrum_k=4)
        assert c.q == 0.3 and c.spectrum_k == 4


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
        assert all(b.ok for b in vec.blocks)
        assert vec.width == 5

    def test_edgeless_curvature_blocks_fail(self):
        cat = build_catalog(RegimeConfig())
        vec = fingerprint(empty_graph(4), cat)
        by_name = {b.name: b for b in vec.blocks}
        for name in ("forman_ricci_mean", "ollivier_ricci_kurtosis"):
            assert not by_name[name].ok
            assert np.isnan(by_name[name].values).all()
        assert by_name["num_vertices"].ok  # other blocks unaffected

    def test_deterministic(self):
        cat = build_catalog(RegimeConfig())
        g = cycle_graph(6)
        a = fingerprint(g, cat).concatenated()
        b = fingerprint(g, cat).concatenated()
        assert np.array_equal(a, b, equal_nan=True)

    def test_block_widths_match_schema(self, rng):
        cat = build_catalog(RegimeConfig())
        vec = fingerprint(random_graph(rng), cat)
        for block, (name, width) in zip(vec.blocks, [(d.name, d.width) for d in cat]):
            assert block.name == name and block.width == width


class TestFingerprintDataset:
    def _dataset(self, rng, n=6):
        return GraphDataset(tuple(random_graph(rng, max_n=8, id=f"g{i}") for i in range(n)), name="t")

    def test_empty_dataset_header_only(self, tmp_path):
        config = RegimeConfig()
        cat = build_catalog(config)
        path = tmp_path / "empty.csv"
        write_fingerprint_csv([], cat, path, config)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("graph_id,num_vertices.0,")

    def test_row_order_follows_dataset(self, rng):
        ds = self._dataset(rng)
        cat = build_catalog(RegimeConfig(subset="S"))
        rows = fingerprint_dataset(ds, cat)
        assert [r.graph_id for r in rows] == [g.id for g in ds]

    def test_pathological_graph_isolated(self, tmp_path):
        # 0-edge graph fails curvature blocks; neighbours stay clean
        config = RegimeConfig()
        cat = build_catalog(config)
        ds = GraphDataset((cycle_graph(4), empty_graph(3), complete_graph(3)), name="mix")
        rows = fingerprint_dataset(ds, cat)
        ok_counts = [sum(b.ok for b in r.blocks) for r in rows]
        assert ok_counts[0] == len(cat) and ok_counts[2] == len(cat)
        assert ok_counts[1] < len(cat)

    def test_graphs_released_after_the_batch(self):
        # Work derived from a graph is cached for one graph at a time, so
        # once the batch is dropped only the last graph may stay reachable.
        ds = GraphDataset((cycle_graph(5), complete_graph(4), path_graph(4)), name="t")
        refs = [weakref.ref(g) for g in ds]
        rows = fingerprint_dataset(ds, build_catalog(RegimeConfig()))
        assert all(b.ok for r in rows for b in r.blocks)
        del ds, rows
        gc.collect()
        assert refs[0]() is None and refs[1]() is None

    def test_sidecar_contents(self, rng, tmp_path):
        ds = self._dataset(rng, n=3)
        config = RegimeConfig(subset="S")
        cat = build_catalog(config)
        path = tmp_path / "fp.csv"
        write_fingerprint_csv(fingerprint_dataset(ds, cat), cat, path, config)
        sidecar = json.loads((tmp_path / "fp.csv.meta.json").read_text())
        assert sidecar["schema_version"] == "1"
        assert sidecar["config"]["subset"] == "S"
        assert sidecar["n_rows"] == 3

    def test_nan_serialized_as_nan_literal(self, tmp_path):
        config = RegimeConfig()
        cat = build_catalog(config)
        path = tmp_path / "fp.csv"
        write_fingerprint_csv(fingerprint_dataset(GraphDataset((empty_graph(3),)), cat), cat, path, config)
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["forman_ricci_mean.0"] == "nan"
        assert cells["forman_ricci_mean.status"].startswith("failed")
