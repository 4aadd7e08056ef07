"""Every CSV the engine writes reads back with the ``csv`` module, one cell
per column, whatever the graph ids, labels and pair ids contain."""

import csv
import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphinv.expressivity import DifferentiationReport, export_heatmap
from graphinv.features import FeatureConfig, write_features_csv
from graphinv.graph import GraphDataset, make_graph
from graphinv.registry import RegimeConfig, build_catalog, fingerprint_dataset, write_csv, write_fingerprint_csv

from conftest import cycle_graph

TEXT = st.text(
    st.one_of(st.sampled_from(',"\n\r'), st.characters(exclude_categories=("Cs",))),
    max_size=8,
)
IDS = st.lists(TEXT, min_size=1, max_size=5, unique=True)

CONFIG = RegimeConfig(subset="S")
CATALOG = build_catalog(CONFIG)
C5 = cycle_graph(5)

# Each example overwrites the same file, so sharing tmp_path is safe.
examples = settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])


def read_back(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    return header, rows


@examples
@given(ids=IDS)
def test_fingerprint_csv_round_trip(tmp_path, ids):
    path = tmp_path / "fp.csv"
    table = fingerprint_dataset([dataclasses.replace(C5, id=i) for i in ids], CATALOG)
    write_fingerprint_csv(table, path, CONFIG)
    _, rows = read_back(path)
    assert [row[0] for row in rows] == ids


@examples
@given(graphs=st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=5, unique_by=lambda t: t[0]))
def test_features_csv_round_trip(tmp_path, graphs):
    path = tmp_path / "rows.csv"
    ds = GraphDataset(tuple(make_graph(2, [(0, 1)], id=i, label=label) for i, label in graphs))
    write_features_csv(ds, FeatureConfig(mode="agg", hops=1), None, path)
    header, rows = read_back(path)
    assert header[-1] == "label"
    assert [(row[0], row[-1]) for row in rows] == graphs


@examples
@given(pair_ids=IDS)
def test_heatmap_round_trip(tmp_path, pair_ids):
    path = tmp_path / "heat.csv"
    n = len(pair_ids)
    report = DifferentiationReport(
        invariant_names=("a", "b"),
        pair_ids=tuple(pair_ids),
        categories=("X",) * n,
        max_rel_diff=np.ones((n, 2)),
        tolerance=1e-6,
        mode="relative",
    )
    export_heatmap(report, path)
    header, rows = read_back(path)
    assert header == ["invariant", *pair_ids]
    assert [row[0] for row in rows] == ["a", "b"]


def test_carriage_return_row_is_fully_quoted(tmp_path):
    path = tmp_path / "cr.csv"
    write_csv(path, ["id", "x"], [["a\rb", "z"], ["a,b", "1.0"], ["c", "2.0"]])
    assert path.read_bytes() == b'id,x\n"a\rb","z"\n"a,b",1.0\nc,2.0\n'
    assert read_back(path)[1] == [["a\rb", "z"], ["a,b", "1.0"], ["c", "2.0"]]
