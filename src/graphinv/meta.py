"""Meta-classification table assembly: sample graphs per dataset, label
each row with its source-dataset index, fingerprint, split, and export.

A nearest-centroid smoke classifier is included as a deterministic,
dependency-free separability check; it is a sanity proxy, not a stand-in
for an externally trained tabular model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import GraphDataset
from .registry import (
    FingerprintTable,
    InvariantDescriptor,
    RegimeConfig,
    fingerprint_dataset,
    float_cells,
    write_csv,
    write_sidecar,
)

DEFAULT_SAMPLE_SIZE = 800
DEFAULT_TEST_FRACTION = 0.2


@dataclass(frozen=True)
class MetaTable:
    """Labeled fingerprint rows with train/test split markers."""

    fingerprints: FingerprintTable
    labels: tuple[int, ...]
    splits: tuple[str, ...]  # "train" | "test"
    label_names: tuple[str, ...]
    seed: int
    warnings: tuple[str, ...] = ()


def assemble_meta_table(
    datasets: list[GraphDataset],
    catalog: tuple[InvariantDescriptor, ...],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
) -> MetaTable:
    """Sample uniformly without replacement and split (stratified) per
    dataset, then fingerprint every sampled graph in one batch, in dataset
    order. Deterministic for a given seed."""
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    seen: set[str] = set()
    for ds in datasets:
        if len(ds) == 0:
            raise ValueError(f"dataset {ds.name!r} is empty")
        # The sidecar maps each label to its dataset's name.
        if ds.name in seen:
            raise ValueError(f"two datasets are named {ds.name!r}")
        seen.add(ds.name)

    rng = np.random.default_rng(seed)
    graphs = []
    labels: list[int] = []
    splits: list[str] = []
    warnings: list[str] = []

    for label, ds in enumerate(datasets):
        n = len(ds)
        if n < sample_size:
            warnings.append(
                f"dataset {ds.name!r} has {n} graphs < sample_size {sample_size}; using all"
            )
            chosen = np.arange(n)
        else:
            chosen = np.sort(rng.choice(n, size=sample_size, replace=False))
        n_rows = len(chosen)
        n_test = min(max(int(round(test_fraction * n_rows)), 1), n_rows - 1)
        test_idx = set(rng.permutation(n_rows)[:n_test].tolist())
        graphs += [ds.graphs[i] for i in chosen]
        labels += [label] * n_rows
        splits += ["test" if i in test_idx else "train" for i in range(n_rows)]

    return MetaTable(
        fingerprints=fingerprint_dataset(graphs, catalog),
        labels=tuple(labels),
        splits=tuple(splits),
        label_names=tuple(ds.name for ds in datasets),
        seed=seed,
        warnings=tuple(warnings),
    )


def export_meta_csv(table: MetaTable, path: str | Path, config: RegimeConfig) -> None:
    """CSV of fingerprint columns plus integer `label` and `split` columns;
    a JSON sidecar maps label indices to dataset names."""
    fp = table.fingerprints
    write_csv(
        path,
        fp.value_columns() + ["label", "split"],
        (
            float_cells(row) + [str(label), split]
            for row, label, split in zip(fp.values, table.labels, table.splits)
        ),
    )
    write_sidecar(
        path, config,
        labels={str(i): name for i, name in enumerate(table.label_names)},
        seed=table.seed,
        n_rows=len(table.labels),
        warnings=list(table.warnings),
    )


@dataclass(frozen=True)
class CentroidResult:
    overall_accuracy: float
    per_label_accuracy: dict[int, float]
    confusion: np.ndarray  # (n_labels, n_labels), rows = true label


def nearest_centroid_accuracy(table: MetaTable) -> CentroidResult:
    """Train-normalized nearest-centroid classification of the test rows.

    Columns are z-scored on train statistics with NaN imputed to the train
    mean; zero-variance (or all-NaN) columns are excluded from distances,
    and a table with no other column raises ValueError.
    """
    labels = np.asarray(table.labels)
    n_labels = len(table.label_names)
    if n_labels < 2:
        raise ValueError("nearest-centroid needs at least 2 labels")
    x = table.fingerprints.values
    is_train = np.array([s == "train" for s in table.splits])

    train = x[is_train]
    with warnings.catch_warnings():  # all-NaN or infinite columns warn; `usable` drops them
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(train, axis=0)
        std = np.nanstd(train, axis=0)
    usable = np.isfinite(mean) & np.isfinite(std) & (std > 0)
    if not usable.any():
        raise ValueError("nearest-centroid has no usable column: each is constant or NaN on train rows")

    xz = np.where(np.isnan(x), mean, x)
    xz = (xz[:, usable] - mean[usable]) / std[usable]

    centroids = np.stack([xz[is_train & (labels == k)].mean(axis=0) for k in range(n_labels)])
    test_idx = np.flatnonzero(~is_train)
    confusion = np.zeros((n_labels, n_labels), dtype=np.int64)
    for i in test_idx:
        d = np.linalg.norm(centroids - xz[i], axis=1)
        confusion[labels[i], int(np.argmin(d))] += 1

    total = confusion.sum()
    overall = float(np.trace(confusion) / total) if total else 0.0
    per_label = {}
    for k in range(n_labels):
        row = confusion[k].sum()
        per_label[k] = float(confusion[k, k] / row) if row else 0.0
    return CentroidResult(overall, per_label, confusion)
