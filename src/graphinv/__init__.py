"""graphinv: permutation-invariant structural fingerprints for graphs,
pairwise expressivity differentiation, and feature-table export."""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    Graph,
    GraphDataset,
    GraphDataError,
    UNREACHABLE,
    bfs_all_pairs,
    connected_components,
    degree_vector,
    load_jsonl,
    make_graph,
    parse_jsonl_dataset,
)
from .registry import RegimeConfig, build_catalog, fingerprint, fingerprint_dataset  # noqa: F401
