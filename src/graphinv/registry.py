"""Invariant catalog, regime/subset configuration, the fingerprint table
every command computes its invariants into, and the CSV and sidecar
writers every command's output goes through.

The catalog alone names and sizes the blocks, and its ``block`` helper
alone turns what a block function returns or raises into an
InvariantValue. A block's status is ``ok``, ``failed: <reason>`` for a
declared failure (a BlockFailure, NumericalError or TransportError), or
``failed: <Type>: <message>`` for any other exception.

The catalog order is normative (basic, entropy, geometric/topological,
indices) and stable across releases; any change bumps SCHEMA_VERSION,
which is recorded in the output sidecar.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .graph import Graph, freeze
from .invariants import OK, BlockFailure, InvariantValue
from .invariants import basic, entropy, indices, topo
from .invariants.transport import TransportError
from .linalg import NumericalError

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


def block(name: str, fn: Callable[[Graph], object], width: int = 1) -> InvariantDescriptor:
    """The catalog entry of block function ``fn``. Its ``compute`` is the
    one place where a block's outcome becomes an InvariantValue: a value of
    ``width`` numbers is ``ok``; a BlockFailure, NumericalError or
    TransportError is ``failed: <message>``; any other exception is
    ``failed: <Type>: <message>``."""

    def compute(g: Graph) -> InvariantValue:
        try:
            values, status = np.asarray(fn(g), dtype=np.float64).reshape(-1), OK
            if values.size != width:
                raise BlockFailure(f"width mismatch ({values.size} != {width})")
        except BlockFailure as exc:
            values, status = np.full(width, exc.fill), f"failed: {exc}"
        except (NumericalError, TransportError) as exc:
            values, status = np.full(width, np.nan), f"failed: {exc}"
        except Exception as exc:  # isolation: a failing block never aborts the row
            values, status = np.full(width, np.nan), f"failed: {type(exc).__name__}: {exc}"
        values.flags.writeable = False
        return InvariantValue(values, status)

    return InvariantDescriptor(name, width, compute)


def _master_catalog(config: RegimeConfig) -> list[InvariantDescriptor]:
    """The catalog of ``config.regime`` in its normative order. Only the
    full regime has analytic torsion, the homomorphism counts and the
    Estrada index; the reduced one has the log spanning-tree count.
    Blocks reach ``topo`` through the module at call time, so a function
    replaced there is the one that runs."""
    full = config.regime == "full"
    k = config.spectrum_k

    entries = [
        block("num_vertices", basic.num_vertices),
        block("num_edges", basic.num_edges),
        block("circuit_rank", basic.circuit_rank),
        block("diameter", basic.diameter),
        block("radius", basic.radius),
        block("transitivity", basic.transitivity),
        block("density", basic.density),
        block("laplacian_spectrum_block", lambda g: basic.laplacian_spectrum_block(g, k), 2 * k),
        block("algebraic_connectivity", basic.algebraic_connectivity),
        # Reduced regime swaps in the log to avoid overflow on large graphs.
        block("spanning_tree_count", basic.spanning_tree_count) if full
        else block("spanning_tree_count_log", basic.spanning_tree_count_log),
        block("degree_mean_ratio", basic.degree_mean_ratio),
        block("degree_entropy", entropy.degree_entropy),
        block("von_neumann_entropy", entropy.von_neumann_entropy),
        block("kolmogorov_proxy", entropy.kolmogorov_proxy),
        block("magnitude", lambda g: topo.magnitude(g, config.q)),
    ]
    if full:
        entries += [
            block("analytic_torsion", lambda g: topo.analytic_torsion(g, config.torsion_dim)),
            block(
                "homomorphism_counts",
                lambda g: topo.homomorphism_counts(g, config.hom_log1p),
                topo.N_PATTERNS,
            ),
        ]
    curvatures = {
        "forman": lambda g: topo.forman_ricci(g),
        "ollivier": lambda g: topo.ollivier_ricci(g, config.alpha),
    }
    entries += [
        block(f"{which}_ricci_{moment}", lambda g, c=curvature, m=moment: getattr(c(g), m))
        for which, curvature in curvatures.items()
        for moment in ("mean", "variance", "skewness", "kurtosis")
    ]
    entries += [
        block("commute_time_mean", lambda g: topo.commute_times(g)[0]),
        block("commute_time_max", lambda g: topo.commute_times(g)[1]),
    ]
    entries += [
        block(
            f"neighbourhood_trace_{'closed' if c else 'open'}_p{p}",
            lambda g, p=p, c=c: topo.neighbourhood_power_trace(g, p, c),
        )
        for c in (False, True)
        for p in topo.POWER_TRACE_EXPONENTS
    ]
    entries += [
        block("wiener", indices.wiener),
        block("randic", indices.randic),
    ]
    entries += [
        block(f"general_randic_{c:g}", lambda g, c=c: indices.general_randic(g, c))
        for c in config.randic_exponents
    ]
    entries += [
        block("atom_bond_connectivity", indices.atom_bond_connectivity),
        block("geometric_arithmetic", indices.geometric_arithmetic),
        block("hyper_wiener", indices.hyper_wiener),
    ]
    if full:
        entries.append(block("estrada", indices.estrada))
    entries += [
        block("zagreb_first", indices.zagreb_first),
        block("zagreb_second", indices.zagreb_second),
        block("schultz", indices.schultz),
        block("gutman", indices.gutman),
        block("szeged", indices.szeged),
        block("forgotten", indices.forgotten),
        block("balaban", indices.balaban),
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


def fingerprint(g: Graph, catalog: tuple[InvariantDescriptor, ...]) -> tuple[InvariantValue, ...]:
    """Compute every catalog block for one graph, in catalog order."""
    return tuple(d.compute(g) for d in catalog)


@dataclass(frozen=True)
class FingerprintTable:
    """The fingerprints of a batch of graphs, one row per graph: every
    command reads its invariant values from here. It alone names the
    value and status columns, formats value cells (``repr`` of the
    float, so ``nan`` and ``inf`` read back) and counts failed blocks."""

    catalog: tuple[InvariantDescriptor, ...]
    graph_ids: tuple[str, ...]
    values: np.ndarray  # (rows, catalog width) float64, read-only; blocks side by side
    statuses: tuple[tuple[str, ...], ...]  # per row, one status per block

    def value_columns(self) -> list[str]:
        return [f"{d.name}.{i}" for d in self.catalog for i in range(d.width)]

    def status_columns(self) -> list[str]:
        return [f"{d.name}.status" for d in self.catalog]

    def value_cells(self, row: int) -> list[str]:
        return [repr(x) for x in self.values[row].tolist()]

    def ok(self) -> np.ndarray:
        """(rows, blocks) bool: which blocks came out ``ok``."""
        shape = (len(self.graph_ids), len(self.catalog))
        return np.array(self.statuses, dtype=object).reshape(shape) == OK

    def failure_counts(self) -> Counter:
        """Failed blocks per block name, over every row."""
        return Counter(
            d.name for row in self.statuses for d, status in zip(self.catalog, row) if status != OK
        )


def fingerprint_dataset(
    graphs: Iterable[Graph], catalog: tuple[InvariantDescriptor, ...]
) -> FingerprintTable:
    """The one batch loop: fingerprint every graph, serially and in order,
    through the module-level ``fingerprint``."""
    graphs = tuple(graphs)
    rows = [fingerprint(g, catalog) for g in graphs]
    values = np.concatenate([b.values for row in rows for b in row] or [np.zeros(0)])
    return FingerprintTable(
        catalog,
        tuple(g.id for g in graphs),
        freeze(values.reshape(len(rows), sum(d.width for d in catalog))),
        tuple(tuple(b.status for b in row) for row in rows),
    )


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


def write_fingerprint_csv(table: FingerprintTable, path: str | Path, config: RegimeConfig) -> None:
    """CSV (graph_id, value columns, status columns) plus a JSON sidecar
    recording config, schema version, and failure counts."""
    header = ["graph_id", *table.value_columns(), *table.status_columns()]
    write_csv(
        path,
        header,
        ([gid, *table.value_cells(i), *table.statuses[i]] for i, gid in enumerate(table.graph_ids)),
    )
    write_sidecar(
        path, config,
        n_rows=len(table.graph_ids), columns=header, failure_counts=table.failure_counts(),
    )
