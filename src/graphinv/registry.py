"""Invariant catalog, regime/subset configuration, fingerprint assembly,
and the CSV and sidecar writers every command's output goes through.

The catalog order is normative (basic, entropy, geometric/topological,
indices) and stable across releases; any change bumps SCHEMA_VERSION,
which is recorded in the output sidecar.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .graph import Graph, GraphDataset
from .invariants import InvariantValue, value_failed
from .invariants import basic, entropy, indices, topo

SCHEMA_VERSION = "1"

REGIMES = ("full", "reduced")
SUBSETS = ("I", "S")

#: Expressive subsets per regime, in their normative order.
EXPRESSIVE_SUBSETS = {
    "full": (
        "analytic_torsion",
        "commute_time_mean",
        "magnitude",
        "radius",
        "forman_ricci_mean",
    ),
    "reduced": (
        "algebraic_connectivity",
        "ollivier_ricci_mean",
        "magnitude",
        "neighbourhood_trace_closed_p8",
        "radius",
        "forman_ricci_mean",
    ),
}


class ConfigError(ValueError):
    """Invalid regime/subset configuration or override."""


@dataclass(frozen=True)
class RegimeConfig:
    """Which invariants to compute and with which parameters."""

    regime: str = "full"
    subset: str = "I"
    q: float = topo.DEFAULT_MAGNITUDE_Q
    alpha: float = topo.DEFAULT_LAZINESS
    torsion_dim: int = topo.DEFAULT_TORSION_DIM
    spectrum_k: int = basic.DEFAULT_SPECTRUM_K
    randic_exponents: tuple[float, ...] = indices.DEFAULT_RANDIC_EXPONENTS
    hom_log1p: bool = False

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.subset not in SUBSETS:
            raise ConfigError(f"unknown subset {self.subset!r}; expected one of {SUBSETS}")
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must be in (0, 1), got {self.q}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.torsion_dim < 0:
            raise ConfigError(f"torsion_dim must be >= 0, got {self.torsion_dim}")
        if self.spectrum_k < 1:
            raise ConfigError(f"spectrum_k must be >= 1, got {self.spectrum_k}")

    def with_overrides(self, **overrides) -> "RegimeConfig":
        known = set(self.__dataclass_fields__)
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown override keys: {sorted(unknown)}")
        return replace(self, **overrides)


@dataclass(frozen=True)
class InvariantDescriptor:
    """One catalog entry: a named fixed-width invariant."""

    name: str
    width: int
    compute: Callable[[Graph], InvariantValue]


def _master_catalog(config: RegimeConfig) -> list[InvariantDescriptor]:
    """The catalog of ``config.regime`` in its normative order. Only the
    full regime has analytic torsion, the homomorphism counts and the
    Estrada index; the reduced one has the log spanning-tree count."""
    full = config.regime == "full"
    k = config.spectrum_k

    entries: list[InvariantDescriptor] = [
        InvariantDescriptor("num_vertices", 1, basic.num_vertices),
        InvariantDescriptor("num_edges", 1, basic.num_edges),
        InvariantDescriptor("circuit_rank", 1, basic.circuit_rank),
        InvariantDescriptor("diameter", 1, basic.diameter),
        InvariantDescriptor("radius", 1, basic.radius),
        InvariantDescriptor("transitivity", 1, basic.transitivity),
        InvariantDescriptor("density", 1, basic.density),
        InvariantDescriptor(
            "laplacian_spectrum_block", 2 * k,
            lambda g, k=k: basic.laplacian_spectrum_block(g, k),
        ),
        InvariantDescriptor("algebraic_connectivity", 1, basic.algebraic_connectivity),
        # Reduced regime swaps in the log to avoid overflow on large graphs.
        InvariantDescriptor("spanning_tree_count", 1, basic.spanning_tree_count) if full
        else InvariantDescriptor("spanning_tree_count_log", 1, basic.spanning_tree_count_log),
        InvariantDescriptor("degree_mean_ratio", 1, basic.degree_mean_ratio),
        InvariantDescriptor("degree_entropy", 1, entropy.degree_entropy),
        InvariantDescriptor("von_neumann_entropy", 1, entropy.von_neumann_entropy),
        InvariantDescriptor("kolmogorov_proxy", 1, entropy.kolmogorov_proxy),
        InvariantDescriptor("magnitude", 1, lambda g, q=config.q: topo.magnitude(g, q)),
    ]
    if full:
        entries += [
            InvariantDescriptor(
                "analytic_torsion", 1,
                lambda g, d=config.torsion_dim: topo.analytic_torsion(g, d),
            ),
            InvariantDescriptor(
                "homomorphism_counts", topo.N_PATTERNS,
                lambda g, log1p=config.hom_log1p: topo.homomorphism_counts(g, log1p),
            ),
        ]
    entries += [
        InvariantDescriptor(
            f"{which}_ricci_{moment}", 1,
            lambda g, w=which, m=moment, a=config.alpha: topo.curvature_moment(g, w, m, a),
        )
        for which in ("forman", "ollivier")
        for moment in ("mean", "variance", "skewness", "kurtosis")
    ]
    entries += [
        InvariantDescriptor("commute_time_mean", 1, topo.commute_time_mean),
        InvariantDescriptor("commute_time_max", 1, topo.commute_time_max),
    ]
    entries += [
        InvariantDescriptor(
            f"neighbourhood_trace_{'closed' if c else 'open'}_p{p}", 1,
            lambda g, p=p, c=c: topo.neighbourhood_power_trace(g, p, c),
        )
        for c in (False, True)
        for p in topo.POWER_TRACE_EXPONENTS
    ]
    entries += [
        InvariantDescriptor("wiener", 1, indices.wiener),
        InvariantDescriptor("randic", 1, indices.randic),
    ]
    entries += [
        InvariantDescriptor(indices.general_randic_name(c), 1, lambda g, c=c: indices.general_randic(g, c))
        for c in config.randic_exponents
    ]
    entries += [
        InvariantDescriptor("atom_bond_connectivity", 1, indices.atom_bond_connectivity),
        InvariantDescriptor("geometric_arithmetic", 1, indices.geometric_arithmetic),
        InvariantDescriptor("hyper_wiener", 1, indices.hyper_wiener),
    ]
    if full:
        entries.append(InvariantDescriptor("estrada", 1, indices.estrada))
    entries += [
        InvariantDescriptor("zagreb_first", 1, indices.zagreb_first),
        InvariantDescriptor("zagreb_second", 1, indices.zagreb_second),
        InvariantDescriptor("schultz", 1, indices.schultz),
        InvariantDescriptor("gutman", 1, indices.gutman),
        InvariantDescriptor("szeged", 1, indices.szeged),
        InvariantDescriptor("forgotten", 1, indices.forgotten),
        InvariantDescriptor("balaban", 1, indices.balaban),
    ]

    names = [d.name for d in entries]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate invariant names in catalog")
    return entries


def build_catalog(config: RegimeConfig) -> tuple[InvariantDescriptor, ...]:
    """Deterministic ordered catalog honouring regime exclusions and
    subset filtering (subset S follows its own normative order)."""
    master = _master_catalog(config)
    if config.subset == "I":
        return tuple(master)
    by_name = {d.name: d for d in master}
    picked = []
    for name in EXPRESSIVE_SUBSETS[config.regime]:
        if name not in by_name:
            raise ConfigError(f"expressive subset member {name!r} missing from regime catalog")
        picked.append(by_name[name])
    return tuple(picked)


# ---------------------------------------------------------------------------
# Fingerprinting


@dataclass(frozen=True)
class FingerprintVector:
    """Ordered named blocks of invariant values for one graph."""

    graph_id: str
    blocks: tuple[InvariantValue, ...]

    @property
    def width(self) -> int:
        return sum(b.width for b in self.blocks)

    def concatenated(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate([b.values for b in self.blocks])


def fingerprint(g: Graph, catalog: tuple[InvariantDescriptor, ...]) -> FingerprintVector:
    """Compute every catalog block for one graph; per-block failures are
    recorded without aborting the vector."""
    blocks = []
    for desc in catalog:
        try:
            block = desc.compute(g)
        except Exception as exc:  # isolation contract: a block failure never kills the row
            block = value_failed(desc.name, desc.width, f"{type(exc).__name__}: {exc}")
        if block.width != desc.width:
            block = value_failed(desc.name, desc.width, f"width mismatch ({block.width} != {desc.width})")
        blocks.append(block)
    return FingerprintVector(g.id, tuple(blocks))


def fingerprint_dataset(
    ds: GraphDataset, catalog: tuple[InvariantDescriptor, ...]
) -> list[FingerprintVector]:
    """Fingerprint every graph, serially and in dataset order."""
    return [fingerprint(g, catalog) for g in ds]


# ---------------------------------------------------------------------------
# Serialization


def write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """The one CSV writer: cells are quoted per RFC 4180 only when they
    hold a comma, a quote or a newline; lines end in a bare newline. A row
    with a carriage return in any cell has every cell quoted, because the
    writer leaves a bare "\r" unquoted under a "\n" line terminator and a
    reader would split the row there."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in chain([header], rows):
            (quoted if "\r" in "".join(row) else plain).writerow(row)


def write_sidecar(path: str | Path, config: RegimeConfig, **fields) -> None:
    """``<path>.meta.json``: schema version and config plus ``fields``."""
    payload = {"schema_version": SCHEMA_VERSION, "config": asdict(config), **fields}
    Path(f"{path}.meta.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _format_value(x: float) -> str:
    return repr(float(x))


def fingerprint_header(catalog: tuple[InvariantDescriptor, ...]) -> list[str]:
    cols = ["graph_id"]
    for d in catalog:
        cols.extend(f"{d.name}.{i}" for i in range(d.width))
    cols.extend(f"{d.name}.status" for d in catalog)
    return cols


def fingerprint_row(vec: FingerprintVector) -> list[str]:
    row = [vec.graph_id]
    for block in vec.blocks:
        row.extend(_format_value(x) for x in block.values)
    row.extend(block.status for block in vec.blocks)
    return row


def write_fingerprint_csv(
    rows: list[FingerprintVector],
    catalog: tuple[InvariantDescriptor, ...],
    path: str | Path,
    config: RegimeConfig,
) -> None:
    """CSV (graph_id, value columns, status columns) plus a JSON sidecar
    recording config, schema version, and failure counts."""
    header = fingerprint_header(catalog)
    write_csv(path, header, (fingerprint_row(v) for v in rows))

    failure_counts: dict[str, int] = {}
    for vec in rows:
        for block in vec.blocks:
            if not block.ok:
                failure_counts[block.name] = failure_counts.get(block.name, 0) + 1
    write_sidecar(path, config, n_rows=len(rows), columns=header, failure_counts=failure_counts)
