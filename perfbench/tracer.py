"""Per-layer timers for one traced CLI invocation, installed from outside
the program.

The tracer replaces public functions with timed wrappers on the modules
that call them, and hands the batch entry points (``fingerprint_dataset``,
``score_pairs``, ``assemble_meta_table``, ``write_features_csv``) a
catalog rebuilt with ``dataclasses.replace`` so that every descriptor's
``compute`` is timed. Before a graph's first block it computes the shared
primitives through their public functions, so their cost is charged to
their own layer rather than to whichever block reaches the ``lru_cache``
first.

Spans nest: each layer is charged its self time, its span minus the spans
it encloses. The span stack is not thread-safe, so the traced command runs
with ``--threads 1``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict

import graphinv.cli as cli
import graphinv.expressivity as expressivity
import graphinv.features as features
import graphinv.graph as graph
import graphinv.linalg as linalg
import graphinv.registry as registry
from graphinv.invariants import topo

INDEX_BLOCKS = frozenset({
    "wiener", "randic", "atom_bond_connectivity", "geometric_arithmetic", "hyper_wiener",
    "estrada", "zagreb_first", "zagreb_second", "schultz", "gutman", "szeged", "forgotten",
    "balaban",
})

#: Span name -> reported layer metric. The spans of the per-graph
#: ``fingerprint`` call are not listed: that call only encloses other
#: layers, and its small remainder goes to ``cli.unaccounted_s``.
LAYER_METRICS = {
    "graph.load": "graph.load_s",
    "graph.bfs_all_pairs": "graph.bfs_all_pairs_s",
    "linalg.spectra": "linalg.spectra_s",
    "linalg.pseudoinverse": "linalg.pseudoinverse_s",
    "transport.ollivier_ricci": "transport.ollivier_ricci_s",
    "homcount.count_all_patterns": "homcount.count_all_patterns_s",
    "invariants.analytic_torsion": "invariants.analytic_torsion_s",
    "invariants.magnitude": "invariants.magnitude_s",
    "invariants.neighbourhood_trace": "invariants.neighbourhood_trace_s",
    "invariants.indices": "invariants.indices_s",
    "invariants.other_blocks": "invariants.other_blocks_s",
    "registry.write_csv": "registry.write_csv_s",
    "expressivity.score_pairs": "expressivity.score_pairs_s",
    "expressivity.export": "expressivity.export_s",
    "features.feature_agg": "features.feature_agg_s",
    "features.write_features_csv": "features.write_features_csv_s",
    "meta.assemble": "meta.assemble_s",
    "meta.export": "meta.export_s",
    "meta.nearest_centroid": "meta.nearest_centroid_s",
}


def block_layer(name: str) -> str:
    if name in ("analytic_torsion", "magnitude"):
        return f"invariants.{name}"
    if name.startswith("neighbourhood_trace_"):
        return "invariants.neighbourhood_trace"
    if name in INDEX_BLOCKS or name.startswith("general_randic_"):
        return "invariants.indices"
    return "invariants.other_blocks"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.graph_ms: list[float] = []
        self.load_bytes = 0
        self.transport_edges = 0
        self.homcount_graphs = 0
        self.failed_blocks = 0
        self._open: list[float] = []  # time covered by children of each open span
        self._primed: set[int] = set()

    def _run(self, name, fn, *args, **kwargs):
        """Call fn inside span `name`; returns (result, inclusive seconds)."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._open.pop()
            if self._open:
                self._open[-1] += elapsed
        return result, elapsed

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._run(name, fn, *args, **kwargs)[0]
        return wrapper

    def _catalog(self, catalog):
        if catalog is None:
            return None
        return tuple(dataclasses.replace(d, compute=self._block(d)) for d in catalog)

    def _block(self, desc):
        layer, compute = block_layer(desc.name), desc.compute

        def timed_compute(g):
            if id(g) not in self._primed:
                self._primed.add(id(g))
                self._prime(g)
            try:
                value = self._run(layer, compute, g)[0]
            except Exception:
                self.failed_blocks += 1  # the registry turns this into a failed block
                raise
            if not value.ok:
                self.failed_blocks += 1
            return value
        return timed_compute

    def _prime(self, g):
        self._run("graph.bfs_all_pairs", graph.bfs_all_pairs, g)
        try:
            self._run("linalg.spectra", linalg.laplacian_spectrum, g)
            self._run("linalg.spectra", linalg.normalized_laplacian_spectrum, g)
            self._run("linalg.pseudoinverse", linalg.laplacian_pseudoinverse, g)
        except linalg.NumericalError:
            pass  # not cached: the block that needs it fails on its own, as untraced

    def _entry(self, name, fn):
        def wrapper(first, catalog, *args, **kwargs):
            return self._run(name, fn, first, self._catalog(catalog), *args, **kwargs)[0]
        return wrapper

    def _entry_features(self, fn):
        def wrapper(dataset, config, catalog, path):
            return self._run("features.write_features_csv", fn, dataset, config,
                             self._catalog(catalog), path)[0]
        return wrapper

    def _load(self, fn):
        def wrapper(path, *args, **kwargs):
            self.load_bytes += os.path.getsize(path)
            return self._run("graph.load", fn, path, *args, **kwargs)[0]
        return wrapper

    def _fingerprint(self, fn):
        def wrapper(g, catalog):
            vec, elapsed = self._run("registry.fingerprint", fn, g, catalog)
            self.graph_ms.append(1000.0 * elapsed)
            return vec
        return wrapper

    def _ollivier(self, fn):
        def wrapper(g, *args, **kwargs):
            misses = fn.cache_info().misses
            try:
                return self._run("transport.ollivier_ricci", fn, g, *args, **kwargs)[0]
            finally:
                if fn.cache_info().misses > misses:
                    self.transport_edges += g.n_edges
        return wrapper

    def _homcount(self, fn):
        def wrapper(g):
            self.homcount_graphs += 1
            return self._run("homcount.count_all_patterns", fn, g)[0]
        return wrapper

    def install(self) -> None:
        cli.load_jsonl = self._load(cli.load_jsonl)
        cli.load_pairs = self._load(cli.load_pairs)
        cli.fingerprint_dataset = self._entry("registry.fingerprint_dataset", cli.fingerprint_dataset)
        cli.score_pairs = self._entry("expressivity.score_pairs", cli.score_pairs)
        cli.assemble_meta_table = self._entry("meta.assemble", cli.assemble_meta_table)
        cli.write_features_csv = self._entry_features(cli.write_features_csv)
        cli.write_fingerprint_csv = self._span("registry.write_csv", cli.write_fingerprint_csv)
        cli.export_report_json = self._span("expressivity.export", cli.export_report_json)
        cli.export_heatmap = self._span("expressivity.export", cli.export_heatmap)
        cli.export_meta_csv = self._span("meta.export", cli.export_meta_csv)
        cli.nearest_centroid_accuracy = self._span("meta.nearest_centroid", cli.nearest_centroid_accuracy)
        registry.fingerprint = expressivity.fingerprint = self._fingerprint(registry.fingerprint)
        features.feature_agg = self._span("features.feature_agg", features.feature_agg)
        topo.ollivier_ricci = self._ollivier(topo.ollivier_ricci)
        topo.count_all_patterns = self._homcount(topo.count_all_patterns)

    def summary(self, wall_s: float) -> dict:
        """Layer metrics of this invocation, plus the raw per-graph latencies."""
        layers = {metric: self.self_s.get(span, 0.0) for span, metric in LAYER_METRICS.items()}
        load_s = layers["graph.load_s"]
        transport_s = layers["transport.ollivier_ricci_s"]
        homcount_s = layers["homcount.count_all_patterns_s"]
        layers.update({
            "graph.load_mb_per_s": self.load_bytes / 1e6 / load_s if load_s else 0.0,
            "transport.edges": self.transport_edges,
            "transport.edges_per_s": self.transport_edges / transport_s if transport_s else 0.0,
            "homcount.graphs_per_s": self.homcount_graphs / homcount_s if homcount_s else 0.0,
            "invariants.failed_blocks": self.failed_blocks,
            "cli.unaccounted_s": wall_s - sum(layers[m] for m in LAYER_METRICS.values()),
        })
        return {"metrics": layers, "graph_ms": self.graph_ms}
