import json

import numpy as np
import pytest

from graphinv.graph import GraphDataset, make_graph
from graphinv.meta import (
    MetaTable,
    assemble_meta_table,
    export_meta_csv,
    nearest_centroid_accuracy,
)
from graphinv.registry import FingerprintTable, RegimeConfig, block, build_catalog

from conftest import erdos_renyi, random_graph


def fingerprints(matrix):
    """A fingerprint table of one ``ok`` block ``x``, one row per row of ``matrix``."""
    values = np.asarray(matrix, dtype=np.float64)
    n_rows, width = values.shape
    catalog = (block("x", lambda g: None, width),)
    return FingerprintTable(catalog, tuple(f"g{i}" for i in range(n_rows)), values, (("ok",),) * n_rows)


def small_dataset(rng, n_graphs, name, max_n=8):
    return GraphDataset(
        tuple(random_graph(rng, max_n=max_n, id=f"{name}{i}") for i in range(n_graphs)),
        name=name,
    )


@pytest.fixture
def catalog():
    return build_catalog(RegimeConfig(regime="reduced", subset="S"))


class TestAssembly:
    def test_row_counts(self, rng, catalog):
        a = small_dataset(rng, 10, "a")
        b = small_dataset(rng, 10, "b")
        t = assemble_meta_table([a, b], catalog, sample_size=4, seed=1)
        assert len(t.fingerprints.graph_ids) == 8
        assert t.labels.count(0) == 4 and t.labels.count(1) == 4

    def test_oversample_uses_all_with_warning(self, rng, catalog):
        a = small_dataset(rng, 3, "a")
        b = small_dataset(rng, 10, "b")
        t = assemble_meta_table([a, b], catalog, sample_size=5, seed=1)
        assert t.labels.count(0) == 3
        assert any("'a'" in w for w in t.warnings)

    def test_determinism(self, rng, catalog):
        a = small_dataset(rng, 12, "a")
        b = small_dataset(rng, 12, "b")
        t1 = assemble_meta_table([a, b], catalog, sample_size=6, seed=7)
        t2 = assemble_meta_table([a, b], catalog, sample_size=6, seed=7)
        assert np.array_equal(t1.fingerprints.values, t2.fingerprints.values, equal_nan=True)
        assert t1.splits == t2.splits

    def test_split_disjoint_exhaustive_stratified(self, rng, catalog):
        a = small_dataset(rng, 20, "a")
        b = small_dataset(rng, 20, "b")
        t = assemble_meta_table([a, b], catalog, sample_size=10, test_fraction=0.3, seed=3)
        labels = np.asarray(t.labels)
        splits = np.asarray(t.splits)
        for k in (0, 1):
            n_test = int((splits[labels == k] == "test").sum())
            assert n_test == 3  # round(0.3 * 10)
        assert set(splits) == {"train", "test"}

    def test_empty_dataset_rejected(self, catalog):
        with pytest.raises(ValueError, match="'bad'"):
            assemble_meta_table(
                [GraphDataset((), name="bad")], catalog, sample_size=2
            )

    def test_duplicate_dataset_name_rejected(self, rng, catalog):
        # The sidecar maps labels to names, so two datasets of one name
        # would make the label column ambiguous; a copy under another name
        # (as in TestChanceLevel) is fine.
        a = small_dataset(rng, 4, "er")
        with pytest.raises(ValueError, match="two datasets are named 'er'"):
            assemble_meta_table([a, small_dataset(rng, 4, "er")], catalog, sample_size=2)
        t = assemble_meta_table([a, GraphDataset(a.graphs, name="copy")], catalog, sample_size=2)
        assert t.label_names == ("er", "copy")


class TestExport:
    def test_csv_and_sidecar(self, rng, catalog, tmp_path):
        config = RegimeConfig(regime="reduced", subset="S")
        a = small_dataset(rng, 6, "NCI1")
        b = small_dataset(rng, 6, "ZINC")
        t = assemble_meta_table([a, b], catalog, sample_size=4, seed=2)
        path = tmp_path / "meta.csv"
        export_meta_csv(t, path, config)
        lines = path.read_text().splitlines()
        assert len(lines) == 9  # header + 8 rows
        header = lines[0].split(",")
        assert header[-2:] == ["label", "split"]
        sidecar = json.loads((tmp_path / "meta.csv.meta.json").read_text())
        assert sidecar["labels"] == {"0": "NCI1", "1": "ZINC"}

    def test_byte_identical_given_seed(self, rng, catalog, tmp_path):
        config = RegimeConfig(regime="reduced", subset="S")
        a = small_dataset(rng, 8, "a")
        b = small_dataset(rng, 8, "b")
        outs = []
        for name in ("x.csv", "y.csv"):
            t = assemble_meta_table([a, b], catalog, sample_size=5, seed=11)
            export_meta_csv(t, tmp_path / name, config)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


class TestNearestCentroid:
    def _table(self, matrix, labels, splits):
        return MetaTable(
            fingerprints=fingerprints(matrix),
            labels=tuple(labels),
            splits=tuple(splits),
            label_names=("a", "b"),
            seed=0,
        )

    def test_separable_gives_perfect_accuracy(self):
        matrix = [[0.0], [0.1], [5.0], [5.1], [0.05], [5.05]]
        t = self._table(matrix, [0, 0, 1, 1, 0, 1], ["train"] * 4 + ["test"] * 2)
        res = nearest_centroid_accuracy(t)
        assert res.overall_accuracy == 1.0

    def test_confusion_row_sums_are_test_counts(self, rng, catalog):
        a = small_dataset(rng, 10, "a")
        b = small_dataset(rng, 10, "b")
        t = assemble_meta_table([a, b], catalog, sample_size=8, test_fraction=0.25, seed=5)
        res = nearest_centroid_accuracy(t)
        labels = np.asarray(t.labels)
        splits = np.asarray(t.splits)
        for k in (0, 1):
            assert res.confusion[k].sum() == int(((labels == k) & (splits == "test")).sum())

    def test_diagonal_over_total_is_accuracy(self):
        matrix = [[0.0], [1.0], [0.2], [0.9], [0.4], [0.6]]
        t = self._table(matrix, [0, 1, 0, 1, 0, 1], ["train", "train", "train", "train", "test", "test"])
        res = nearest_centroid_accuracy(t)
        assert res.overall_accuracy == np.trace(res.confusion) / res.confusion.sum()

    def test_zero_variance_column_excluded(self):
        # Left in, the constant column would divide by a zero std and make
        # every distance NaN.
        labels, splits = (0, 1, 0, 1, 0, 1), ("train",) * 4 + ("test",) * 2
        with_constant = self._table([[1.0, float(i % 2)] for i in range(6)], labels, splits)
        without = self._table([[float(i % 2)] for i in range(6)], labels, splits)
        res, ref = nearest_centroid_accuracy(with_constant), nearest_centroid_accuracy(without)
        assert res.overall_accuracy == ref.overall_accuracy == 1.0
        assert np.array_equal(res.confusion, ref.confusion)

    def test_nan_imputed_to_train_mean(self):
        matrix = [[0.0], [10.0], [np.nan], [10.0], [0.1], [np.nan]]
        t = self._table(matrix, [0, 1, 0, 1, 0, 1], ["train"] * 4 + ["test"] * 2)
        res = nearest_centroid_accuracy(t)
        # NaN test row imputes to the train mean (5.0): equidistant between
        # centroids, argmin keeps it deterministic
        assert res.confusion.sum() == 2

    def test_needs_two_labels(self):
        t = self._table([[0.0], [1.0]], [0, 0], ["train", "test"])
        t = MetaTable(t.fingerprints, t.labels, t.splits, ("only",), 0)
        with pytest.raises(ValueError):
            nearest_centroid_accuracy(t)


class TestChanceLevel:
    def test_copies_of_same_dataset_near_half(self, rng, catalog):
        # k = 2 copies of the same dataset: accuracy ~ 1/2 over 5 seeds
        # (enough test rows per seed to keep the chance estimate stable)
        base = GraphDataset(
            tuple(erdos_renyi(10, 0.3, rng, id=f"g{i}") for i in range(60)), name="base"
        )
        copy = GraphDataset(base.graphs, name="copy")
        accs = []
        for seed in range(5):
            t = assemble_meta_table(
                [base, copy], catalog, sample_size=40, test_fraction=0.25, seed=seed
            )
            accs.append(nearest_centroid_accuracy(t).overall_accuracy)
        assert abs(np.mean(accs) - 0.5) <= 0.15
