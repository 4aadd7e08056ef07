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
    FingerprintVector,
    InvariantDescriptor,
    RegimeConfig,
    fingerprint_dataset,
    fingerprint_header,
    fingerprint_row,
    write_csv,
    write_sidecar,
)

DEFAULT_SAMPLE_SIZE = 800
DEFAULT_TEST_FRACTION = 0.2


@dataclass(frozen=True)
class MetaTable:
    """Labeled fingerprint rows with train/test split markers."""

    rows: tuple[FingerprintVector, ...]
    labels: tuple[int, ...]
    splits: tuple[str, ...]  # "train" | "test"
    label_names: tuple[str, ...]
    seed: int
    warnings: tuple[str, ...] = ()

    def matrix(self) -> np.ndarray:
        return np.stack([r.concatenated() for r in self.rows])


def assemble_meta_table(
    datasets: list[GraphDataset],
    catalog: tuple[InvariantDescriptor, ...],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
) -> MetaTable:
    """Sample uniformly without replacement per dataset, fingerprint, and
    split per label (stratified). Deterministic for a given seed."""
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    for ds in datasets:
        if len(ds) == 0:
            raise ValueError(f"dataset {ds.name!r} is empty")

    rng = np.random.default_rng(seed)
    rows: list[FingerprintVector] = []
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
        graphs = [ds.graphs[i] for i in chosen]
        sub = GraphDataset(tuple(graphs), name=ds.name)
        vecs = fingerprint_dataset(sub, catalog)

        n_rows = len(vecs)
        n_test = min(max(int(round(test_fraction * n_rows)), 1), n_rows - 1) if n_rows > 1 else 0
        test_idx = set(rng.permutation(n_rows)[:n_test].tolist())
        for i, vec in enumerate(vecs):
            rows.append(vec)
            labels.append(label)
            splits.append("test" if i in test_idx else "train")

    return MetaTable(
        rows=tuple(rows),
        labels=tuple(labels),
        splits=tuple(splits),
        label_names=tuple(ds.name for ds in datasets),
        seed=seed,
        warnings=tuple(warnings),
    )


def export_meta_csv(table: MetaTable, path: str | Path, catalog, config: RegimeConfig) -> None:
    """CSV of fingerprint columns plus integer `label` and `split` columns;
    a JSON sidecar maps label indices to dataset names."""
    values = slice(1, 1 + sum(d.width for d in catalog))
    write_csv(
        path,
        fingerprint_header(catalog)[values] + ["label", "split"],
        (
            fingerprint_row(vec)[values] + [str(label), split]
            for vec, label, split in zip(table.rows, table.labels, table.splits)
        ),
    )
    write_sidecar(
        path, config,
        labels={str(i): name for i, name in enumerate(table.label_names)},
        seed=table.seed,
        n_rows=len(table.rows),
        warnings=list(table.warnings),
    )


@dataclass(frozen=True)
class CentroidResult:
    overall_accuracy: float
    per_label_accuracy: dict[int, float]
    confusion: np.ndarray  # (n_labels, n_labels), rows = true label
    excluded_columns: tuple[int, ...]


def nearest_centroid_accuracy(table: MetaTable) -> CentroidResult:
    """Train-normalized nearest-centroid classification of the test rows.

    Columns are z-scored on train statistics with NaN imputed to the train
    mean; zero-variance (or all-NaN) columns are excluded from distances.
    """
    labels = np.asarray(table.labels)
    n_labels = len(table.label_names)
    if n_labels < 2:
        raise ValueError("nearest-centroid needs at least 2 labels")
    x = table.matrix()
    is_train = np.array([s == "train" for s in table.splits])
    if not all(is_train[labels == k].any() for k in range(n_labels)):
        raise ValueError("every label needs at least one train row")

    train = x[is_train]
    with warnings.catch_warnings():  # all-NaN or infinite columns warn; `usable` drops them
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(train, axis=0)
        std = np.nanstd(train, axis=0)
    usable = np.isfinite(mean) & np.isfinite(std) & (std > 0)
    excluded = tuple(int(i) for i in np.flatnonzero(~usable))

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
    return CentroidResult(overall, per_label, confusion, excluded)
