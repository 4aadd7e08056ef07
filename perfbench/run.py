"""graphinv benchmark: end-to-end and per-layer metrics of the batch commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs the CLI again and
again, each time in a fresh interpreter, for S seconds. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates plain
and traced invocations and reports the per-layer metrics. Every output is
checked after the timed loop. The last line of standard output is one JSON
object; the full record, with raw samples and machine details, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Set-up samples per run: each invocation gives one, and fresh
#: interpreters that only import the CLI and build the catalog make up the rest.
SETUP_SAMPLES = 7
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 120
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10

#: One BLAS thread, so that ``--threads`` is the only parallelism.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(mode: str, regime: str | None, argv: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, regime or "none", "--", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} invocation exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode or -1, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    if result.get("rc", 0) != 0:
        result["stderr"] = proc.stderr[-2000:]
    return result


def serial(argv: list[str]) -> list[str]:
    """The same command with ``--threads 1``."""
    return ["1" if i and argv[i - 1] == "--threads" else a for i, a in enumerate(argv)]


def output_digest(out: Path, stdout: str) -> str:
    digest = hashlib.sha256(stdout.replace(str(out), "{out}").encode())
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(wl, seconds: float, traced: bool) -> list[dict]:
    """Invocations for `seconds`; a traced run alternates plain and traced
    invocations of the serial command. Outputs identical to the first
    invocation's are dropped, the rest kept for the checks."""
    argv = serial(wl.argv) if traced else wl.argv
    samples: list[dict] = []
    first_digest = None
    start = time.perf_counter()
    last = 0.0
    # Start another invocation while at least half of one still fits, so a
    # run measures about `seconds` whatever an invocation costs.
    while len(samples) < (2 if traced else 1) or time.perf_counter() + last / 2 < start + seconds:
        began = time.perf_counter()
        mode = "trace" if traced and len(samples) % 2 else "plain"
        out = wl.work_dir / "out" / str(len(samples))
        out.mkdir(parents=True)
        sample = run_child(mode, wl.regime, [a.replace("{out}", str(out)) for a in argv])
        sample["mode"] = mode
        if sample["rc"] == 0:
            digest = output_digest(out, sample["stdout"])
            sample["same_as_first"] = digest == first_digest
            first_digest = first_digest or digest
            if sample["same_as_first"]:
                shutil.rmtree(out)
        sample["out"] = str(out)
        samples.append(sample)
        last = time.perf_counter() - began
    return samples


def check_samples(wl, samples: list[dict]) -> tuple[int, Counter]:
    """Failed operations over all invocations, and their reasons."""
    import checks
    failed, reasons = 0, Counter()
    first = None
    for sample in samples:
        if sample["rc"] != 0:
            failed += wl.rows
            reasons[f"command exited {sample['rc']}"] += wl.rows
            continue
        if sample["same_as_first"]:
            verdict = first
        else:
            verdict = checks.check(wl, Path(sample["out"]), sample["stdout"])
            first = first if first is not None else verdict
        failed += len(verdict)
        reasons.update(verdict.values())
    return failed, reasons


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, int] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, or
    None below TAIL_MIN_SAMPLES samples."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return sorted(values)[n - TAIL_BEYOND - 1], pct


def importtime_patterns_s() -> float:
    """Cumulative import time of graphinv.invariants.patterns, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import graphinv.cli"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2] == "graphinv.invariants.patterns":
            return int(parts[1]) / 1e6
    raise BenchError("graphinv.invariants.patterns missing from -X importtime output")


def end_to_end(wl, samples: list[dict], setup_probes: list[float],
               benchmark: dict) -> tuple[dict, dict]:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    ok = [s for s in samples if s["rc"] == 0]
    values = {
        "graphs_per_s": median([wl.graphs / s["wall_s"] for s in ok]),
        "setup_s": median(setup_probes + [s["setup_s"] for s in ok]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in ok]),
    }
    return ({name: {"value": values[name], "unit": units[name]} for name in units},
            {"invocations": len(samples), "setup_samples": len(setup_probes) + len(ok)})


def per_layer(samples: list[dict], benchmark: dict) -> tuple[dict, dict]:
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    traced = [s for s in samples if s["rc"] == 0 and s["mode"] == "trace"]
    plain = [s for s in samples if s["rc"] == 0 and s["mode"] == "plain"]
    values = {name: median([s["layers"]["metrics"][name] for s in traced])
              for name in traced[0]["layers"]["metrics"]} if traced else {}
    graph_ms = [x for s in traced for x in s["layers"]["graph_ms"]]
    values["registry.graph_ms_median"] = median(graph_ms)
    tail_ms = tail(graph_ms)
    values["registry.graph_ms_tail"] = tail_ms[0] if tail_ms else 0.0
    values["trace.overhead_s"] = (median([s["wall_s"] for s in traced])
                                  - median([s["wall_s"] for s in plain]))
    values["setup.patterns_import_s"] = median(
        [importtime_patterns_s() for _ in range(IMPORTTIME_PROBES)])
    notes = {"graph_ms_samples": len(graph_ms),
             "graph_ms_tail": (f"p{tail_ms[1]} of {len(graph_ms)} samples" if tail_ms else
                               f"omitted: {len(graph_ms)} samples < {TAIL_MIN_SAMPLES}"),
             "invocations": len(samples), "traced_invocations": len(traced)}
    return {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in units}, notes


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpu = re.search(r"model name\s*:\s*(.*)", Path("/proc/cpuinfo").read_text()).group(1)
    except (OSError, AttributeError):
        cpu = platform.processor()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_ENV}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() or None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "graphinv" / "cli.py").is_file() or not (ROOT / "tests" / "conftest.py").is_file():
        print("perfbench: src/graphinv or tests/conftest.py missing; run it from the root of a "
              "graphinv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, args.seed, work)
        run_child("setup", wl.regime, [])  # warm the bytecode cache; not a sample
        samples = measure(wl, args.seconds, bool(args.trace))
        probes = [] if args.trace else [run_child("setup", wl.regime, [])
                                        for _ in range(SETUP_SAMPLES - len(samples))]
        probes = [p["setup_s"] for p in probes if "setup_s" in p]
        failed, reasons = check_samples(wl, samples)
        if args.trace:
            metrics, notes = per_layer(samples, benchmark)
        else:
            metrics, notes = end_to_end(wl, samples, probes, benchmark)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = wl.rows * len(samples)
    correct = all(s["rc"] == 0 for s in samples)
    for s in samples:
        if s["rc"] != 0:
            print(f"invocation failed (exit {s['rc']}): {s.get('stderr', '')}", file=sys.stderr)
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "machine": machine(), "input_sha256": wl.input_sha256,
        "argv": wl.argv, "graphs_per_invocation": wl.graphs, "rows_per_invocation": wl.rows,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failure_reasons": dict(reasons.most_common(10)), "metrics": metrics, "notes": notes,
        "setup_probes": probes,
        "samples": [{k: v for k, v in s.items() if k not in ("stdout", "out")} for s in samples],
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {wl.seed}  inputs sha256 {wl.input_sha256[:16]}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for key, note in notes.items():
        print(f"  {key}: {note}")
    print(f"  attempted {attempted}  failed {failed}")
    for reason, count in reasons.most_common(3):
        print(f"    {count} x {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
