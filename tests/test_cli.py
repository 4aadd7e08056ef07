import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from graphinv.cli import main
from graphinv.graph import graph_to_obj, make_graph

from conftest import cycle_graph, erdos_renyi, two_triangles

GOLDEN = Path(__file__).parent / "golden"


def write_dataset(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(json.dumps(graph_to_obj(g)) + "\n")


@pytest.fixture
def dataset_path(tmp_path, rng):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [erdos_renyi(7, 0.4, rng, id=f"g{i}") for i in range(5)])
    return path


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fingerprint"])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fingerprint", "--bogus"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag,value", [("--q", "abc"), ("--randic-exponents", "1,x")])
    def test_malformed_override_value_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["list-invariants", flag, value])
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["fingerprint", "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_directory_dataset_is_data_error(self, tmp_path, capsys):
        code = main(["fingerprint", "--dataset", str(tmp_path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_truncated_graph6_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.npy"
        np.save(path, np.array(["", "C~"]))
        assert main(["expressivity", "--pairs", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "graph6" in err[0]

    def test_pickled_code_in_npy_is_refused(self, tmp_path, capsys):
        marker = tmp_path / "side-effect"

        class Payload:
            def __reduce__(self):
                return os.mkdir, (str(marker),)

        path = tmp_path / "crafted.npy"
        np.save(path, np.array([Payload(), "C~"], dtype=object), allow_pickle=True)
        assert main(["expressivity", "--pairs", str(path)]) == 2
        assert not marker.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_non_string_npy_entry_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "none.npy"
        np.save(path, np.array([None, "C~"], dtype=object), allow_pickle=True)
        assert main(["expressivity", "--pairs", str(path)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_malformed_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "num_nodes": 2, "edges": [[0, 0]]}\n')
        code = main(["fingerprint", "--dataset", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_non_integer_record_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "num_nodes": 2.9, "edges": [[0, true]]}\n')
        code = main(["fingerprint", "--dataset", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["graphinv: graph 'x': num_nodes must be a JSON integer, got 2.9"]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
    def test_non_finite_or_non_positive_tol_is_data_error(self, tmp_path, capsys, tol):
        pair = {"pair_id": "p0", "category": "X",
                "left": graph_to_obj(cycle_graph(3)), "right": graph_to_obj(cycle_graph(4))}
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(pair) + "\n")
        assert main(["expressivity", "--pairs", str(path), f"--tol={tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [f"graphinv: tolerance must be positive and finite, got {float(tol)}"]

    @pytest.mark.parametrize("command, flag", [("fingerprint", "--dataset"), ("expressivity", "--pairs")])
    @pytest.mark.parametrize("line", ["[1, 2]", "null"])
    def test_non_object_line_is_data_error(self, tmp_path, capsys, command, flag, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        argv = [command, flag, str(bad)] + (["--out", str(tmp_path / "o.csv")] if command == "fingerprint" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not a JSON object" in err[0]

    def test_strict_escalates_failures(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "edgeless", "num_nodes": 3, "edges": []}\n')
        out = str(tmp_path / "o.csv")
        assert main(["fingerprint", "--dataset", str(path), "--out", out]) == 0
        assert main(["--strict", "fingerprint", "--dataset", str(path), "--out", out]) == 3

    def test_success(self, dataset_path, tmp_path):
        assert main(["fingerprint", "--dataset", str(dataset_path), "--out", str(tmp_path / "o.csv")]) == 0


class TestEdgeCaseGolden:
    """The fingerprint CLI on n = 0, K1, three isolated vertices, 2K2, K2,
    P3 and C5: every value and status cell and both sidecars, byte for
    byte. The edgeless and disconnected graphs pin the failure statuses."""

    @pytest.mark.parametrize("regime", ["full", "reduced"])
    def test_bytes(self, tmp_path, capsys, regime):
        out = tmp_path / f"edge_cases_{regime}.csv"
        dataset = GOLDEN / "edge_cases.jsonl"
        assert main(["fingerprint", "--regime", regime, "--dataset", str(dataset), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
        sidecar = f"{out.name}.meta.json"
        assert (tmp_path / sidecar).read_bytes() == (GOLDEN / sidecar).read_bytes()


class TestListInvariants:
    def test_reduced_s_has_six_lines(self, capsys):
        assert main(["list-invariants", "--regime", "reduced", "--subset", "S"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "algebraic_connectivity 1"

    def test_full_s_has_five_lines(self, capsys):
        assert main(["list-invariants", "--subset", "S"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5


class TestThreadsDeterminism:
    def test_thread_count_never_changes_bytes(self, dataset_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--threads", "1", "fingerprint", "--dataset", str(dataset_path), "--out", str(a)]) == 0
        assert main(["--threads", "8", "fingerprint", "--dataset", str(dataset_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExpressivityCommand:
    def test_pair_scoring_outputs(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps(
                {
                    "pair_id": "p0",
                    "category": "Basic",
                    "left": graph_to_obj(cycle_graph(6)),
                    "right": graph_to_obj(two_triangles()),
                }
            )
            + "\n"
        )
        report = tmp_path / "report.json"
        heatmap = tmp_path / "heat.csv"
        code = main([
            "expressivity", "--pairs", str(pairs),
            "--report", str(report), "--heatmap", str(heatmap),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Basic: 1/1" in out and "Total: 1/1" in out
        payload = json.loads(report.read_text())
        assert payload["total"]["count"] == 1
        assert len(payload["greedy_subset"]) == 1
        assert heatmap.read_text().startswith("invariant,p0")

    def test_override_flags_reach_config(self, tmp_path, capsys):
        assert main(["list-invariants", "--spectrum-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "laplacian_spectrum_block 4" in out

    def test_bad_override_is_data_error(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("")
        assert main(["expressivity", "--pairs", str(pairs), "--q", "2.0"]) == 2


class TestFeaturesCommand:
    def test_rows_csv(self, dataset_path, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "features", "--dataset", str(dataset_path),
            "--mode", "agg", "--hops", "2", "--combine", "S", "--out", str(out),
        ])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[1:4] == ["agg.0.0", "agg.1.0", "agg.2.0"]
        assert "magnitude.0" in header


class TestMetaCommand:
    def test_meta_deterministic_and_smoke(self, tmp_path, rng, capsys):
        d1, d2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(d1, [erdos_renyi(8, 0.2, rng, id=f"a{i}") for i in range(8)])
        write_dataset(d2, [erdos_renyi(8, 0.8, rng, id=f"b{i}") for i in range(8)])
        outs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            code = main([
                "--seed", "9",
                "meta", "--datasets", str(d1), str(d2),
                "--regime", "reduced",
                "--sample", "6", "--test-frac", "0.25",
                "--out", str(out), "--smoke-accuracy",
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert "nearest-centroid accuracy" in capsys.readouterr().out

    def _edgeless_meta(self, tmp_path, sizes):
        paths = []
        for name, n in zip("ab", sizes):
            paths.append(tmp_path / f"{name}.jsonl")
            write_dataset(paths[-1], [make_graph(n, [], id=f"{name}{i}") for i in range(6)])
        return main([
            "meta", "--datasets", *map(str, paths), "--regime", "reduced",
            "--sample", "6", "--out", str(tmp_path / "m.csv"), "--smoke-accuracy",
        ])

    def test_all_nan_train_columns_leave_stderr_empty(self, tmp_path, capsys):
        # Edgeless graphs fail both curvature blocks, so those columns are
        # NaN on every train row; the classifier drops them without a warning
        # and separates the two datasets by their vertex counts.
        code = self._edgeless_meta(tmp_path, (3, 4))
        out, err = capsys.readouterr()
        assert code == 0
        assert "nearest-centroid accuracy: 1.000" in out
        assert err == ""

    def test_no_usable_column_is_data_error(self, tmp_path, capsys):
        # Every column is NaN or constant on the train rows: nothing to compare.
        assert self._edgeless_meta(tmp_path, (3, 3)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "no usable column" in err[0]

    def test_label_filter_unknown_is_data_error(self, tmp_path, rng):
        d1 = tmp_path / "a.jsonl"
        write_dataset(d1, [erdos_renyi(6, 0.5, rng, id="x0")])
        code = main(["meta", "--datasets", str(d1), "--labels", "zzz", "--out", str(tmp_path / "m.csv")])
        assert code == 2


class TestOneFingerprintTable:
    """Every command's invariant cells come from the same table, so on one
    dataset they equal the fingerprint CSV's cells one for one."""

    def read(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return [dict(zip(header, row)) for row in rows]

    def test_features_and_meta_cells_match_fingerprint(self, tmp_path, rng):
        graphs = [erdos_renyi(7, 0.4, rng, id=f"g{i}") for i in range(4)]
        graphs += [make_graph(3, [], id="edgeless"), cycle_graph(5)]  # failed and nan cells
        data = tmp_path / "d.jsonl"
        write_dataset(data, graphs)
        assert main(["fingerprint", "--dataset", str(data), "--out", str(tmp_path / "fp.csv")]) == 0
        assert main([
            "features", "--dataset", str(data), "--combine", "I", "--out", str(tmp_path / "rows.csv"),
        ]) == 0
        assert main([
            "meta", "--datasets", str(data), "--sample", str(len(graphs) + 1),
            "--out", str(tmp_path / "meta.csv"),
        ]) == 0
        fp = self.read(tmp_path / "fp.csv")
        features = self.read(tmp_path / "rows.csv")
        meta = self.read(tmp_path / "meta.csv")
        assert [r["graph_id"] for r in fp] == [r["graph_id"] for r in features] == [g.id for g in graphs]
        assert len(meta) == len(fp)
        assert any(cell == "nan" for cell in fp[4].values())
        for fp_row, feature_row, meta_row in zip(fp, features, meta):
            for column, cell in fp_row.items():
                assert feature_row[column] == cell, column
                if column != "graph_id" and not column.endswith(".status"):
                    assert meta_row[column] == cell, column
