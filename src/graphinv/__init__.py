"""graphinv: permutation-invariant structural fingerprints for graphs,
pairwise expressivity differentiation, and feature-table export."""

__version__ = "0.1.0"

import os
# One BLAS thread, set before numpy loads: a threaded BLAS sums in an order that depends on its thread count.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .graph import (  # noqa: F401
    Graph,
    GraphDataset,
    GraphDataError,
    UNREACHABLE,
    bfs_all_pairs,
    component_count,
    degree_vector,
    load_jsonl,
    make_graph,
    parse_jsonl_dataset,
)
from .registry import RegimeConfig, build_catalog, fingerprint, fingerprint_dataset  # noqa: F401
