import json
import os

import numpy as np
import pytest

from graphinv.cli import main
from graphinv.graph import graph_to_obj

from conftest import cycle_graph, erdos_renyi, two_triangles


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

    def test_label_filter_unknown_is_data_error(self, tmp_path, rng):
        d1 = tmp_path / "a.jsonl"
        write_dataset(d1, [erdos_renyi(6, 0.5, rng, id="x0")])
        code = main(["meta", "--datasets", str(d1), "--labels", "zzz", "--out", str(tmp_path / "m.csv")])
        assert code == 2
