"""Self-test of the output checks: every checker must pass the program's
real output and count each injected corruption as a failed operation.

    python3 perfbench/selftest.py [--seed N]

For each workload it runs the CLI once, then corrupts a copy of the output
four ways (two swapped rows, one perturbed count, a failed block, a
ragged row) and asserts that the corrupted rows are counted as failed.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def load(path: Path) -> list[list[str]]:
    # The program writes unquoted CSV, so a plain split keeps every cell's text.
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def save(path: Path, table: list[list[str]]) -> None:
    path.write_text("".join(",".join(row) + "\n" for row in table), encoding="utf-8")


def swap_rows(i, j):
    def apply(table):
        table[1 + i], table[1 + j] = table[1 + j], table[1 + i]
    return apply


def swap_cells(i, j, columns: slice):
    """Swap the cells in `columns` of data rows i and j."""
    def apply(table):
        a, b = table[1 + i], table[1 + j]
        a[columns], b[columns] = b[columns], a[columns]
    return apply


def swap_columns(i, j):
    """Swap the data cells of columns i and j (not the header)."""
    def apply(table):
        for row in table[1:]:
            row[i], row[j] = row[j], row[i]
    return apply


def set_cell(row: int, column: str, change):
    def apply(table):
        c = table[0].index(column)
        table[1 + row][c] = change(table[1 + row][c])
    return apply


def set_heatmap_cell(invariant: str, pair: int, change):
    def apply(table):
        row = next(r for r in table[1:] if r[0] == invariant)
        row[1 + pair] = change(row[1 + pair])
    return apply


def ragged(row: int):
    def apply(table):
        table[1 + row].append("0.0")
    return apply


def bump(x: str) -> str:
    return repr(float(x) + 1.0)


def corruptions(wl, baseline: dict[int, str]) -> tuple[str, list[tuple[str, object, set[int]]]]:
    """(output file, [(name, corruption, rows that must newly fail)])."""
    if wl.name == "fingerprint-full":
        return "fingerprint.csv", [
            ("swapped rows", swap_rows(0, 1), {0, 1}),
            ("perturbed homomorphism count", set_cell(2, "homomorphism_counts.2", bump), {2}),
            ("failed: status", set_cell(3, "magnitude.status", lambda _: "failed: injected"), {3}),
            ("ragged row", ragged(4), {4}),
        ]
    if wl.name == "meta-reduced-large":
        er, ba = 0, W.META_SAMPLE
        # No homomorphism counts in the reduced regime: perturb the Wiener index,
        # and a failed block shows as a nan value in the table.
        return "meta.csv", [
            ("swapped rows", swap_cells(er, ba, slice(0, -2)), {er, ba}),
            ("perturbed count", set_cell(er + 1, "wiener.0", bump), {er + 1}),
            ("failed block", set_cell(er + 2, "magnitude.0", lambda _: "nan"), {er + 2}),
            ("ragged row", ragged(er + 3), {er + 3}),
        ]
    if wl.name == "expressivity-wl-hard":
        rook = [j for j, p in enumerate(wl.data["pairs"]) if p["category"] == W.CATEGORY_ROOK]
        control = [j for j, p in enumerate(wl.data["pairs"]) if p["category"] == W.CATEGORY_CONTROL]
        return "heatmap.csv", [
            ("swapped pairs", swap_columns(1 + rook[0], 1 + control[0]), {rook[0], control[0]}),
            ("perturbed homomorphism count",
             set_heatmap_cell("homomorphism_counts", rook[1], lambda x: repr(float(x) * 1.5)), {rook[1]}),
            ("failed block", set_heatmap_cell("magnitude", rook[2], lambda _: "nan"), {rook[2]}),
            ("ragged row", ragged(0), set(range(wl.rows))),
        ]
    clean = [r for r in range(wl.rows) if r not in baseline]
    return "features.csv", [
        ("swapped rows", swap_rows(clean[0], clean[1]), {clean[0], clean[1]}),
        ("perturbed feature", set_cell(clean[2], "agg.1.0", bump), {clean[2]}),
        ("failed value", set_cell(clean[3], "agg.0.0", lambda _: "nan"), {clean[3]}),
        ("ragged row", ragged(clean[4]), {clean[4]}),
    ]


def selftest(name: str, seed: int, work: Path) -> list[str]:
    problems = []
    wl = W.generate(name, seed, work / "inputs")
    out = work / "out"
    out.mkdir()
    sample = run.run_child("plain", wl.regime, [a.replace("{out}", str(out)) for a in wl.argv])
    if sample["rc"] != 0:
        return [f"{name}: command exited {sample['rc']}: {sample.get('stderr', '')}"]
    baseline = checks.check(wl, out, sample["stdout"])
    expected = wl.data.get("comma_ids", 0)
    if len(baseline) != expected:
        problems.append(f"{name}: clean output has {len(baseline)} failed rows, expected {expected}")
    target, cases = corruptions(wl, baseline)
    for label, corrupt, rows in cases:
        bad = work / label.replace(" ", "_").replace(":", "")
        shutil.copytree(out, bad)
        table = load(bad / target)
        corrupt(table)
        save(bad / target, table)
        failed = checks.check(wl, bad, sample["stdout"])
        missed = sorted(r for r in rows if r not in failed or r in baseline)
        status = "caught" if not missed else f"MISSED rows {missed}"
        print(f"  {name:22s} {label:30s} {len(failed) - len(baseline):3d} more failed  {status}")
        if missed:
            problems.append(f"{name}: {label} not counted as failed on rows {missed}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    problems = []
    for name in W.WORKLOADS:
        work = HERE / ".work" / f"selftest-{name}-{os.getpid()}"
        try:
            problems += selftest(name, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "all corruptions counted as failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
