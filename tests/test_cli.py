import csv
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphinv.cli import build_parser, main
from graphinv.graph import make_graph

from conftest import barabasi_albert, cycle_graph, erdos_renyi, graph_to_obj, random_permutation, relabel, two_triangles

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def write_dataset(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(json.dumps(graph_to_obj(g)) + "\n")


def run_python(*args, **env):
    """Run a fresh interpreter on the package source, ``env`` added to its
    environment; it must exit 0."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


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

    @pytest.mark.parametrize("value", ["nan,inf", "1,-inf", "-inf,1", "0.5,nan"])
    def test_non_finite_randic_exponent_is_data_error(self, dataset_path, tmp_path, capsys, value):
        out = tmp_path / "o.csv"
        code = main([
            "fingerprint", "--regime", "reduced", "--randic-exponents", value,
            "--dataset", str(dataset_path), "--out", str(out),
        ])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists() and not (tmp_path / "o.csv.meta.json").exists()

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

    @pytest.mark.parametrize("argv, message", [
        (["--torsion-dim", "-1"], "torsion_dim must be >= 0, got -1"),
        (["--spectrum-k", "0"], "spectrum_k must be >= 1, got 0"),
        (["--randic-exponents", "1,0.5,0.5000001"],
         "randic_exponents must give distinct columns, got general_randic_0.5 twice"),
    ])
    def test_override_out_of_range_is_data_error(self, capsys, argv, message):
        assert main(["list-invariants", *argv]) == 2
        assert capsys.readouterr() == ("", f"graphinv: {message}\n")

    @pytest.mark.parametrize("entries, message", [
        (["A!", "A_"], "invalid graph6 byte"),
        (["A_", "A\x7f"], "invalid graph6 byte"),
        (["C", "A_"], "graph6 bit stream too short for n=4"),
        (["A_", "A_", "A_"], "holds an odd number of graphs"),
    ])
    def test_bad_graph6_file_is_data_error(self, tmp_path, capsys, entries, message):
        path = tmp_path / "pairs.npy"
        np.save(path, np.array(entries))
        assert main(["expressivity", "--pairs", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]

    def test_truncated_object_array_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "pairs.npy"
        np.save(path, np.array(["A_", "A_"], dtype=object), allow_pickle=True)
        path.write_bytes(path.read_bytes()[:-8])
        assert main(["expressivity", "--pairs", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"graphinv: unreadable object array in {path}: ")

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
        for flag in ([f"--tol={tol}"], ["--tol", tol]):  # "-1e-6" and "-inf" read as values, not options
            assert main(["expressivity", "--pairs", str(path), *flag]) == 2
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

    @pytest.mark.parametrize("command, prefix", [("features", "line"), ("expressivity", "pairs line")])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_is_data_error(self, tmp_path, capsys, command, prefix, token):
        # Python's json reads these tokens as floats; JSON has none of them.
        graph = '{"num_nodes": 2, "edges": [[0, 1]]}'
        bad_graph = f'{{"num_nodes": 2, "edges": [[0, 1]], "node_features": [[{token}], [1.0]]}}'
        bad = tmp_path / "bad.jsonl"
        out = tmp_path / "o.csv"
        if command == "features":
            bad.write_text(f"{graph}\n{bad_graph}\n")
            argv = ["features", "--dataset", str(bad), "--out", str(out)]
        else:
            pair = '{{"pair_id": "p{}", "left": {}, "right": {}}}\n'
            bad.write_text(pair.format(0, graph, graph) + pair.format(1, bad_graph, graph))
            argv = ["expressivity", "--pairs", str(bad), "--heatmap", str(out)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.strip().splitlines() == [f"graphinv: {prefix} 2: invalid JSON ({token} is not JSON)"]
        assert not out.exists()

    @pytest.mark.parametrize("command, depth", [("fingerprint", 100_000), ("expressivity", 5_000)])
    def test_deeply_nested_line_is_data_error(self, tmp_path, capsys, command, depth):
        # json.loads raises RecursionError, not JSONDecodeError, on such a line.
        nested = "[" * depth + "]" * depth
        graph = '{"num_nodes": 2, "edges": [[0, 1]]}'
        bad = tmp_path / "bad.jsonl"
        if command == "fingerprint":
            bad.write_text(f'{{"num_nodes": 2, "edges": [[0, 1]], "x": {nested}}}\n')
            outs = [tmp_path / "o.csv", tmp_path / "o.csv.meta.json"]
            argv = ["fingerprint", "--dataset", str(bad), "--out", str(outs[0])]
            prefix = "line"
        else:
            bad.write_text(f'{{"pair_id": "p", "left": {graph}, "right": {graph}, "x": {nested}}}\n')
            outs = [tmp_path / "report.json", tmp_path / "heatmap.csv"]
            argv = ["expressivity", "--pairs", str(bad), "--report", str(outs[0]), "--heatmap", str(outs[1])]
            prefix = "pairs line"
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [f"graphinv: {prefix} 1: invalid JSON (nested too deeply)"]
        assert not any(path.exists() for path in outs)

    @pytest.mark.parametrize("command", ["features", "expressivity"])
    @pytest.mark.parametrize("matrix, cells", [
        ("node_features", {"x": 1}),
        ("node_features", [[1.0], [10**400]]),
        ("edge_features", "abc"),
        ("node_features", [1.0, 2.0]),
        ("edge_features", 1.5),
        ("node_features", [[True], [None]]),
        ("node_features", [["2.5"], ["1"]]),
        ("edge_features", [[True]]),
        ("edge_features", [[None]]),
        ("edge_features", [["2.5"]]),
    ], ids=["dict", "401-digit-int", "string", "vector", "scalar",
            "true-null", "string-cells", "edge-true", "edge-null", "edge-string-cell"])
    def test_feature_matrix_of_non_numbers_is_data_error(self, tmp_path, capsys, command, matrix, cells):
        graph = {"id": "gx", "num_nodes": 2, "edges": [[0, 1]], matrix: cells}
        bad = tmp_path / "bad.jsonl"
        out = tmp_path / "o.csv"
        if command == "features":
            bad.write_text(json.dumps(graph) + "\n")
            argv = ["features", "--dataset", str(bad), "--out", str(out)]
        else:
            bad.write_text(json.dumps({"pair_id": "p", "left": graph, "right": {"num_nodes": 2, "edges": [[0, 1]]}}) + "\n")
            argv = ["expressivity", "--pairs", str(bad), "--report", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"graphinv: graph 'gx': {matrix} is not a matrix of numbers"]
        assert not out.exists()

    def test_feature_cells_past_int64_still_load(self, tmp_path):
        # JSON integers too large for int64 are still numbers.
        data = tmp_path / "big.jsonl"
        data.write_text(json.dumps({"id": "gx", "num_nodes": 2, "edges": [[0, 1]],
                                    "node_features": [[2**70], [0]]}) + "\n")
        out = tmp_path / "o.csv"
        assert main(["features", "--dataset", str(data), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["graph_id,sum.0.0", "gx,1.1805916207174113e+21"]

    def test_strict_escalates_failures(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "edgeless", "num_nodes": 3, "edges": []}\n')
        out = str(tmp_path / "o.csv")
        assert main(["fingerprint", "--dataset", str(path), "--out", out]) == 0
        assert main(["fingerprint", "--strict", "--dataset", str(path), "--out", out]) == 3

    def test_success(self, dataset_path, tmp_path):
        assert main(["fingerprint", "--dataset", str(dataset_path), "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["meta", "--datasets", "a.jsonl", "--labels", "x", "--out", "m.csv"],
        ["features", "--dataset", "d.jsonl", "--subset", "S", "--out", "r.csv"],
        ["expressivity", "--strict", "--pairs", "p.jsonl"],
        ["--strict", "fingerprint", "--dataset", "d.jsonl", "--out", "o.csv"],
    ])
    def test_option_off_its_command_is_usage_error(self, argv):
        # --combine picks the features subset; --strict belongs to the two
        # commands that escalate; meta takes every dataset it is given.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def run_features(tmp_path, capsys, text):
    """Run `features` on a dataset file holding `text`: (exit code, stderr
    lines, the CSV rows or None when none was written)."""
    data, out = tmp_path / "d.jsonl", tmp_path / "rows.csv"
    data.write_text(text, encoding="utf-8")
    code = main(["features", "--dataset", str(data), "--out", str(out)])
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines())) if out.exists() else None
    return code, capsys.readouterr().err.splitlines(), rows


class TestDatasetLines:
    """What `features` makes of single dataset lines: each refusal exits 2
    with one stderr line and writes nothing."""

    @pytest.mark.parametrize("record, message", [
        ({"num_nodes": -1, "edges": []}, "negative vertex count -1"),
        ({"num_nodes": 2, "edges": [[0, 1]], "edge_features": [[1.0], [2.0]]}, "edge_features rows 2 != 1 edges"),
        ({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1e999], [1]]},
         "node_features holds a number past the float range"),
        ({"num_nodes": 2, "edges": [[0, 1]], "edge_features": [[-1e999]]},
         "edge_features holds a number past the float range"),
        ({"num_nodes": 1, "label": 1e999}, "label holds a number past the float range"),
        ({"num_nodes": 1, "label": [1, [-1e999]]}, "label holds a number past the float range"),
        ({"num_nodes": 1, "label": {"x": 1e999}}, "label holds a number past the float range"),
        ({"num_nodes": 1, "label": [{"x": [1, {"y": -1e999}]}]}, "label holds a number past the float range"),
        ({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.5, True], [1, 2]]},
         "node_features is not a matrix of numbers"),
        ({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1, 2], [False, 0]]},
         "node_features is not a matrix of numbers"),
        ({"num_nodes": 2, "edges": [[0, 1]], "edge_features": [[1.5, True]]},
         "edge_features is not a matrix of numbers"),
        ({"num_nodes": 2, "edges": [[0, 1]], "edge_features": [[2, False]], "label": 1},
         "edge_features is not a matrix of numbers"),
    ], ids=["negative-count", "edge-rows", "node-overflow", "edge-overflow", "label-overflow", "list-label-overflow",
            "object-label-overflow", "nested-object-label-overflow", "node-true-float", "node-false-int",
            "edge-true-float", "edge-false-int"])
    def test_refused_record(self, tmp_path, capsys, record, message):
        # 1e999 is valid JSON syntax that overflows to an infinity; json.dumps
        # writes it as Infinity, which the reader refuses, so it is spelt out.
        # numpy would read a bool among number cells as 1 or 0.
        text = json.dumps({"id": "gx", **record}).replace("Infinity", "1e999") + "\n"
        assert run_features(tmp_path, capsys, text) == (2, [f"graphinv: graph 'gx': {message}"], None)

    def test_bool_among_numbers_refused_in_pairs(self, tmp_path, capsys):
        left = {"id": "gx", "num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.5], [True]]}
        pairs, report = tmp_path / "p.jsonl", tmp_path / "r.json"
        pairs.write_text(json.dumps({"pair_id": "p", "left": left, "right": {"num_nodes": 1}}) + "\n")
        assert main(["expressivity", "--pairs", str(pairs), "--report", str(report)]) == 2
        assert capsys.readouterr().err.splitlines() == ["graphinv: graph 'gx': node_features is not a matrix of numbers"]
        assert not report.exists()

    def test_true_and_false_outside_feature_cells_load(self, tmp_path, capsys):
        # A line holding the words elsewhere has its cells checked, and loads
        # as the same line without them does.
        record = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.5, 1], [0, 2]],
                  "edge_features": [[0.5]]}
        plain = run_features(tmp_path, capsys, json.dumps({"id": "gx", **record}) + "\n")
        worded = run_features(tmp_path, capsys, json.dumps({"id": "true-false", **record, "label": True}) + "\n")
        assert plain[:2] == worded[:2] == (0, [])
        assert worded[2][0][:-1] == plain[2][0] and worded[2][1][1:-1] == plain[2][1][1:]
        assert worded[2][1][0] == "true-false" and worded[2][1][-1] == "True"

    def test_aggregate_past_the_float_range_refused(self, tmp_path, capsys):
        # Each cell is finite; their sums are not. numpy prints no warning.
        data, out = tmp_path / "d.jsonl", tmp_path / "rows.csv"
        data.write_text(
            json.dumps({"id": "ok", "num_nodes": 1, "node_features": [[1.0]]}) + "\n"
            + json.dumps({"id": "gx", "num_nodes": 3, "edges": [[0, 1]], "node_features": [[1e308]] * 3}) + "\n"
        )
        for mode in (["--mode", "agg", "--hops", "2"], ["--mode", "sum"], ["--combine", "I"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning would raise here
                assert main(["features", "--dataset", str(data), "--out", str(out), *mode]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "graphinv: graph 'gx': aggregated features pass the float range"
            ]
            assert not out.exists()

    def test_blank_lines_are_counted(self, tmp_path, capsys):
        # Default ids and line numbers count the blank lines too.
        code, err, rows = run_features(tmp_path, capsys, '\n{"num_nodes": 1}\n  \n{"num_nodes": 2}\n')
        assert code == 0 and err == []
        assert [row[0] for row in rows[1:]] == ["g1", "g3"]
        code, err, rows = run_features(tmp_path, capsys, '\n{"num_nodes": 1}\n\n\ufeff{"num_nodes": 2}\n')
        assert (code, err) == (2, ["graphinv: line 4: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"])

    def test_label_cells(self, tmp_path, capsys):
        labels = [[1, 2], 0.1, 1e16, "x", None]
        text = "".join(json.dumps({"num_nodes": 1, "label": label}) + "\n" for label in labels)
        code, _, rows = run_features(tmp_path, capsys, text)
        assert code == 0
        assert [row[-1] for row in rows] == ["label", "1;2", "0.1", "1e+16", "x", ""]


class TestDeepLabels:
    """List and object labels nested as deep as `json` parses them load,
    and `features` writes their cells, without running out of Python's
    recursion. Each command runs in a fresh interpreter, whose stack is as
    shallow as at a user's prompt; there `json` itself refuses a line from
    about 990 levels on."""

    DEPTHS = (331, 495, 980)
    LABELS = {f"l{depth}": ("[" * depth + "1" + "]" * depth, "1") for depth in DEPTHS}
    LABELS["o980"] = ('{"a": ' * 980 + "1" + "}" * 980, "{'a': " * 980 + "1" + "}" * 980)

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("".join(
            f'{{"id": "{gid}", "num_nodes": 3, "edges": [[0, 1], [1, 2]], "label": {label}}}\n'
            for gid, (label, _) in self.LABELS.items()
        ))
        return path

    def test_features(self, deep, tmp_path):
        out = tmp_path / "f.csv"
        run_python("-m", "graphinv.cli", "features", "--dataset", str(deep), "--out", str(out))
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [(row[0], row[-1]) for row in rows[1:]] == [(gid, cell) for gid, (_, cell) in self.LABELS.items()]

    def test_fingerprint(self, deep, tmp_path):
        out = tmp_path / "fp.csv"
        run_python("-m", "graphinv.cli", "fingerprint", "--dataset", str(deep), "--out", str(out))
        assert [row[0] for row in csv.reader(out.read_text().splitlines())][1:] == list(self.LABELS)

    def test_meta(self, deep, tmp_path):
        other = tmp_path / "other.jsonl"
        other.write_text(deep.read_text())
        out = tmp_path / "m.csv"
        run_python("-m", "graphinv.cli", "meta", "--datasets", str(deep), str(other), "--regime", "reduced",
                   "--sample", str(len(self.LABELS)), "--out", str(out))
        assert len(out.read_text().splitlines()) == 1 + 2 * len(self.LABELS)


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

    def test_blas_thread_count_never_changes_bytes(self, tmp_path):
        # The package pins BLAS to one thread before numpy loads, so a
        # fresh process writes the same bytes whatever the environment
        # asks for; these graphs' matrix products round differently
        # under two OpenBLAS threads.
        rng = random.Random(3)
        graphs = [barabasi_albert(120, 3, rng), barabasi_albert(140, 3, rng),
                  erdos_renyi(110, 0.05, rng), erdos_renyi(130, 0.04, rng)]
        write_dataset(tmp_path / "d.jsonl", graphs)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            run_python("-m", "graphinv.cli", "fingerprint", "--regime", "reduced",
                       "--dataset", str(tmp_path / "d.jsonl"), "--out", str(out),
                       **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("regime", ["full", "reduced"])
    def test_relabelled_copies_not_differentiated(self, tmp_path, capsys, rng, regime):
        pairs = tmp_path / "pairs.jsonl"
        with open(pairs, "w") as fh:
            for i in range(6):
                g = erdos_renyi(rng.randint(5, 10), 0.4, rng)
                h = relabel(g, random_permutation(g.n_vertices, rng))
                record = {"pair_id": f"p{i}", "category": "Iso", "left": graph_to_obj(g), "right": graph_to_obj(h)}
                fh.write(json.dumps(record) + "\n")
        assert main(["expressivity", "--regime", regime, "--pairs", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert "Iso: 0/6" in out and "Total: 0/6" in out

    def test_override_flags_reach_config(self, tmp_path, capsys):
        assert main(["list-invariants", "--spectrum-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "laplacian_spectrum_block 4" in out

    def test_bad_override_is_data_error(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("")
        assert main(["expressivity", "--pairs", str(pairs), "--q", "2.0"]) == 2

    def test_no_pairs_is_data_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("")
        assert main(["expressivity", "--pairs", str(pairs)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "graphinv: no pairs to score\n"


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

    def test_mixed_widths_refused_before_fingerprinting(self, tmp_path, capsys, monkeypatch):
        import graphinv.features as features

        def refuse(*args):
            raise AssertionError("fingerprinted a dataset that is refused")

        monkeypatch.setattr(features, "fingerprint_dataset", refuse)
        path = tmp_path / "d.jsonl"
        write_dataset(path, [
            make_graph(2, [(0, 1)], node_features=[[1.0], [2.0]], id="a"),
            make_graph(2, [(0, 1)], node_features=[[1.0, 0.0], [2.0, 0.0]], id="b"),
        ])
        outcomes = []
        for combine in ("none", "I"):
            code = main(["features", "--dataset", str(path), "--combine", combine,
                         "--out", str(tmp_path / "rows.csv")])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == (2, "graphinv: inconsistent feature widths across dataset: [1, 2]\n")

    def test_unknown_mode_is_usage_error(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["features", "--dataset", str(dataset_path), "--mode", "mean", "--out", str(out)])
        assert exc.value.code == 1
        assert "argument --mode: invalid choice: 'mean'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_flag_without_combine_is_data_error(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["features", "--dataset", str(dataset_path), "--combine", "none", "--q", "2",
                     "--out", str(out)])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


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

    def _edgeless_meta(self, tmp_path, sizes, *flags):
        paths = []
        for name, n in zip("ab", sizes):
            paths.append(tmp_path / f"{name}.jsonl")
            write_dataset(paths[-1], [make_graph(n, [], id=f"{name}{i}") for i in range(6)])
        return main([
            "meta", "--datasets", *map(str, paths), "--regime", "reduced",
            "--sample", "6", "--out", str(tmp_path / "m.csv"), "--smoke-accuracy", *flags,
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

    def test_strict_escalates_failures(self, tmp_path):
        # Edgeless graphs fail the curvature blocks.
        assert self._edgeless_meta(tmp_path, (3, 4), "--strict") == 3
        assert (tmp_path / "m.csv").exists()

    def test_no_usable_column_is_data_error(self, tmp_path, capsys):
        # Every column is NaN or constant on the train rows: nothing to compare.
        assert self._edgeless_meta(tmp_path, (3, 3)) == 2
        out, err = capsys.readouterr()
        err = err.strip().splitlines()
        assert len(err) == 1 and "no usable column" in err[0]
        assert out == ""
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "m.csv.meta.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--sample", "0", "sample_size must be >= 1, got 0"),
        ("--test-frac", "1", "test_fraction must be in (0, 1), got 1.0"),
    ])
    def test_sampling_flag_out_of_range_is_data_error(self, tmp_path, capsys, flag, value, message):
        assert self._edgeless_meta(tmp_path, (3, 4), flag, value) == 2
        assert capsys.readouterr() == ("", f"graphinv: {message}\n")
        assert not (tmp_path / "m.csv").exists()

    def test_duplicate_dataset_names_are_data_error(self, tmp_path, rng, capsys):
        # x/er.jsonl and y/er.jsonl both load as dataset "er"; the sidecar
        # could not tell their labels apart.
        paths = []
        for folder in ("x", "y"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "er.jsonl")
            write_dataset(paths[-1], [erdos_renyi(6, 0.4, rng, id=f"{folder}{i}") for i in range(4)])
        out = tmp_path / "m.csv"
        code = main(["meta", "--datasets", *map(str, paths), "--regime", "reduced", "--sample", "4", "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 2
        assert err.strip().splitlines() == ["graphinv: two datasets are named 'er'"]
        assert stdout == ""
        assert not out.exists()


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


class TestHelpGolden:
    """The help of the program and of each command, and the usage error
    with no command, byte for byte at 80 columns."""

    @pytest.mark.parametrize("command", ["graphinv", "list-invariants", "fingerprint", "expressivity",
                                         "features", "meta"])
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command == "graphinv" else [command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == ((GOLDEN / "help" / f"{command}.txt").read_text(encoding="utf-8"), "")

    def test_no_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", (GOLDEN / "help" / "no_command.txt").read_text(encoding="utf-8"))


class TestImportCost:
    def test_cli_import_leaves_heavy_modules_unloaded(self):
        # Every command starts by importing the CLI, so these would add to
        # each run's start-up time and memory; only tests and the benchmark's
        # oracle checks need them.
        heavy = ["scipy", "hypothesis", "fractions", "decimal"]
        code = f"import sys, graphinv.cli; print([m for m in {heavy!r} if m in sys.modules])"
        assert run_python("-c", code).stdout.strip() == "[]"

    def test_cli_import_times_patterns_module(self):
        # The benchmark's setup.patterns_import_s reads this module's line
        # of -X importtime (perfbench/run.py); the pattern catalog must stay
        # a module of its own that the CLI imports.
        proc = run_python("-X", "importtime", "-c", "import graphinv.cli")
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                   if line.startswith("import time:")]
        assert "graphinv.invariants.patterns" in modules


class TestCommandLineContract:
    """The command lines that the README shows and that the benchmark
    workloads run all parse, so removing or renaming an option they pass
    fails here rather than in a user's shell or a benchmark run."""

    def parses(self, argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"{shlex.join(argv)} exits {exc.code}")

    def test_readme_cli_block(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
        lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        assert len(lines) >= 5 and all(line[0] == "graphinv" for line in lines)
        for line in lines:
            self.parses(line[1:])

    def test_benchmark_workload_argv(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up there
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            self.parses(workloads.generate(name, 1, tmp_path / name).argv)
