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

#: Reduced-regime exclusions: too expensive or unstable at scale.
REDUCED_EXCLUDED = ("analytic_torsion", "homomorphism_counts", "estrada")

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
    """One catalog entry: a named fixed-width invariant and its scope."""

    name: str
    width: int
    regimes: frozenset[str]
    compute: Callable[[Graph], InvariantValue]


def _master_catalog(config: RegimeConfig) -> list[InvariantDescriptor]:
    both = frozenset(REGIMES)
    full_only = frozenset({"full"})
    k = config.spectrum_k

    entries: list[InvariantDescriptor] = [
        InvariantDescriptor("num_vertices", 1, both, basic.num_vertices),
        InvariantDescriptor("num_edges", 1, both, basic.num_edges),
        InvariantDescriptor("circuit_rank", 1, both, basic.circuit_rank),
        InvariantDescriptor("diameter", 1, both, basic.diameter),
        InvariantDescriptor("radius", 1, both, basic.radius),
        InvariantDescriptor("transitivity", 1, both, basic.transitivity),
        InvariantDescriptor("density", 1, both, basic.density),
        InvariantDescriptor(
            "laplacian_spectrum_block", 2 * k, both,
            lambda g, k=k: basic.laplacian_spectrum_block(g, k),
        ),
        InvariantDescriptor("algebraic_connectivity", 1, both, basic.algebraic_connectivity),
    ]
    if config.regime == "reduced":
        # Reduced regime swaps in the log to avoid overflow on large graphs.
        entries.append(
            InvariantDescriptor(
                "spanning_tree_count_log", 1, frozenset({"reduced"}),
                basic.spanning_tree_count_log,
            )
        )
    else:
        entries.append(
            InvariantDescriptor("spanning_tree_count", 1, full_only, basic.spanning_tree_count)
        )
    entries += [
        InvariantDescriptor("degree_mean_ratio", 1, both, basic.degree_mean_ratio),
        InvariantDescriptor("degree_entropy", 1, both, entropy.degree_entropy),
        InvariantDescriptor("von_neumann_entropy", 1, both, entropy.von_neumann_entropy),
        InvariantDescriptor("kolmogorov_proxy", 1, both, entropy.kolmogorov_proxy),
        InvariantDescriptor("magnitude", 1, both, lambda g, q=config.q: topo.magnitude(g, q)),
        InvariantDescriptor(
            "analytic_torsion", 1, full_only,
            lambda g, d=config.torsion_dim: topo.analytic_torsion(g, d),
        ),
        InvariantDescriptor(
            "homomorphism_counts", topo.N_PATTERNS, full_only,
            lambda g, log1p=config.hom_log1p: topo.homomorphism_counts(g, log1p),
        ),
    ]
    for moment in ("mean", "variance", "skewness", "kurtosis"):
        entries.append(
            InvariantDescriptor(
                f"forman_ricci_{moment}", 1, both,
                lambda g, m=moment: topo.curvature_moment(g, "forman", m),
            )
        )
    for moment in ("mean", "variance", "skewness", "kurtosis"):
        entries.append(
            InvariantDescriptor(
                f"ollivier_ricci_{moment}", 1, both,
                lambda g, m=moment, a=config.alpha: topo.curvature_moment(g, "ollivier", m, a),
            )
        )
    entries += [
        InvariantDescriptor("commute_time_mean", 1, both, topo.commute_time_mean),
        InvariantDescriptor("commute_time_max", 1, both, topo.commute_time_max),
    ]
    for closed in (False, True):
        for p in topo.POWER_TRACE_EXPONENTS:
            nm = f"neighbourhood_trace_{'closed' if closed else 'open'}_p{p}"
            entries.append(
                InvariantDescriptor(
                    nm, 1, both,
                    lambda g, p=p, c=closed: topo.neighbourhood_power_trace(g, p, c),
                )
            )
    entries += [
        InvariantDescriptor("wiener", 1, both, indices.wiener),
        InvariantDescriptor("randic", 1, both, indices.randic),
    ]
    for c in config.randic_exponents:
        entries.append(
            InvariantDescriptor(
                indices.general_randic_name(c), 1, both,
                lambda g, c=c: indices.general_randic(g, c),
            )
        )
    entries += [
        InvariantDescriptor("atom_bond_connectivity", 1, both, indices.atom_bond_connectivity),
        InvariantDescriptor("geometric_arithmetic", 1, both, indices.geometric_arithmetic),
        InvariantDescriptor("hyper_wiener", 1, both, indices.hyper_wiener),
        InvariantDescriptor("estrada", 1, full_only, indices.estrada),
        InvariantDescriptor("zagreb_first", 1, both, indices.zagreb_first),
        InvariantDescriptor("zagreb_second", 1, both, indices.zagreb_second),
        InvariantDescriptor("schultz", 1, both, indices.schultz),
        InvariantDescriptor("gutman", 1, both, indices.gutman),
        InvariantDescriptor("szeged", 1, both, indices.szeged),
        InvariantDescriptor("forgotten", 1, both, indices.forgotten),
        InvariantDescriptor("balaban", 1, both, indices.balaban),
    ]

    names = [d.name for d in entries]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate invariant names in catalog")
    return entries


def build_catalog(config: RegimeConfig) -> tuple[InvariantDescriptor, ...]:
    """Deterministic ordered catalog honouring regime exclusions and
    subset filtering (subset S follows its own normative order)."""
    master = [d for d in _master_catalog(config) if config.regime in d.regimes]
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
