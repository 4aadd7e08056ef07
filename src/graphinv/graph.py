"""Graph data model, the JSON-lines parser, and traversal primitives.

Graphs are finite, undirected, without self-loops. Vertices are dense
0-based integers; edges are stored canonically as a sorted tuple of
``(u, v)`` pairs with ``u < v``. Instances are immutable after
construction and safe to share across threads.

There is one traversal: ``bfs_all_pairs`` searches from every vertex at
once, and ``connected_components`` is read off its distance matrix.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

#: Sentinel for pairs in different connected components. Kept distinct
#: from any finite distance; never a large finite stand-in.
UNREACHABLE = -1


class GraphDataError(ValueError):
    """Malformed or inconsistent graph input."""


def freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` made C-contiguous and read-only (in place when it already is)."""
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with optional node/edge feature matrices.

    ``edges`` holds unordered pairs as sorted tuples, globally sorted;
    ``edge_features`` rows follow that canonical edge order.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    node_features: np.ndarray | None = None
    edge_features: np.ndarray | None = None
    id: str = ""
    label: object = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def make_graph(
    n_vertices: int,
    edges: Iterable[tuple[int, int]],
    node_features=None,
    edge_features=None,
    id: str = "",
    label: object = None,
) -> Graph:
    """Validate, canonicalize, and construct a :class:`Graph`.

    Rejects self-loops, out-of-range endpoints, and feature matrices
    whose row counts disagree with the vertex/edge counts. Duplicate
    edges are rejected when edge features are present (the row pairing
    would be ambiguous) and silently deduplicated otherwise.
    """
    if n_vertices < 0:
        raise GraphDataError(f"negative vertex count {n_vertices}")

    raw = [(int(u), int(v)) for u, v in edges]
    for u, v in raw:
        if u == v:
            raise GraphDataError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise GraphDataError(
                f"edge ({u},{v}) out of range for n_vertices={n_vertices}"
            )
    canon = [(u, v) if u < v else (v, u) for u, v in raw]

    if edge_features is not None:
        ef = np.asarray(edge_features, dtype=np.float64)
        if ef.ndim != 2 or ef.shape[0] != len(raw):
            raise GraphDataError(
                f"edge_features rows {np.asarray(ef).shape[0] if np.ndim(ef) else 0} "
                f"!= {len(raw)} edges"
            )
        if len(set(canon)) != len(canon):
            raise GraphDataError("duplicate edges with edge features present")
        order = sorted(range(len(canon)), key=lambda k: canon[k])
        edge_tuple = tuple(canon[k] for k in order)
        ef = freeze(ef[order])
    else:
        edge_tuple = tuple(sorted(set(canon)))
        ef = None

    nf = None
    if node_features is not None:
        nf = np.asarray(node_features, dtype=np.float64)
        if nf.ndim != 2 or nf.shape[0] != n_vertices:
            raise GraphDataError(
                f"node_features rows {nf.shape[0] if nf.ndim else 0} "
                f"!= {n_vertices} vertices"
            )
        nf = freeze(nf)

    return Graph(n_vertices, edge_tuple, nf, ef, id=id, label=label)


@dataclass(frozen=True)
class GraphDataset:
    """Ordered collection of graphs with unique ids."""

    graphs: tuple[Graph, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)


def _dataset(graphs: Iterable[Graph], name: str) -> GraphDataset:
    graphs = tuple(graphs)
    seen: set[str] = set()
    for g in graphs:
        if g.id in seen:
            raise GraphDataError(f"duplicate graph id {g.id!r} in dataset {name!r}")
        seen.add(g.id)
    return GraphDataset(graphs, name=name)


# ---------------------------------------------------------------------------
# JSON-lines parser and its inverse


def read_jsonl(stream: IO | str | bytes, prefix: str = "line") -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, obj)`` for every non-blank line of a JSON-lines
    text, file or byte string, numbered from 1. A line that is not valid
    JSON, or not a JSON object, raises :class:`GraphDataError` whose
    message starts with ``f"{prefix} {lineno}"``."""
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = stream.splitlines()
    for lineno, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphDataError(f"{prefix} {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise GraphDataError(f"{prefix} {lineno}: not a JSON object")
        yield lineno, obj


def graph_from_obj(obj: dict, default_id: str) -> Graph:
    if not isinstance(obj, dict):
        raise GraphDataError(f"graph {default_id!r}: not a JSON object")
    gid = str(obj.get("id", default_id))
    n, edges = obj.get("num_nodes"), obj.get("edges", [])
    # JSON integers only: a float, a bool or a numeric string is refused,
    # never truncated or coerced.
    if type(n) is not int:
        raise GraphDataError(f"graph {gid!r}: num_nodes must be a JSON integer, got {n!r}")
    if type(edges) is not list or any(
        type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int
        for e in edges
    ):
        raise GraphDataError(f"graph {gid!r}: edges must be a list of pairs of JSON integers")
    try:
        return make_graph(
            n,
            edges,
            node_features=obj.get("node_features"),
            edge_features=obj.get("edge_features"),
            id=gid,
            label=obj.get("label"),
        )
    except GraphDataError as exc:
        raise GraphDataError(f"graph {gid!r}: {exc}") from None


def parse_jsonl_dataset(stream: IO | str | bytes, name: str = "") -> GraphDataset:
    """Parse a JSON-lines dataset, one graph object per line, preserving order."""
    graphs = [graph_from_obj(obj, default_id=f"g{lineno - 1}") for lineno, obj in read_jsonl(stream)]
    return _dataset(graphs, name=name)


def load_jsonl(path: str | Path, name: str = "") -> GraphDataset:
    """Load a ``.jsonl`` dataset file."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jsonl_dataset(fh, name=name or path.stem)


def graph_to_obj(g: Graph) -> dict:
    """Inverse of the JSONL graph schema (used by converters and tests)."""
    obj: dict = {"id": g.id, "num_nodes": g.n_vertices, "edges": [list(e) for e in g.edges]}
    if g.node_features is not None:
        obj["node_features"] = g.node_features.tolist()
    if g.edge_features is not None:
        obj["edge_features"] = g.edge_features.tolist()
    if g.label is not None:
        obj["label"] = g.label
    return obj


# ---------------------------------------------------------------------------
# Adjacency and traversal (held for one graph at a time; results are read-only)

#: The cache of every function of one graph, keyed by its identity. Each
#: command finishes a graph before it starts the next, so one slot gets
#: every hit that more slots would, and holds one graph's matrices only.
per_graph = functools.lru_cache(maxsize=1)


@per_graph
def adjacency_sets(g: Graph) -> tuple[frozenset[int], ...]:
    """Neighbour sets per vertex."""
    nbrs: list[set[int]] = [set() for _ in range(g.n_vertices)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(frozenset(s) for s in nbrs)


@per_graph
def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix (float64)."""
    a = np.zeros((g.n_vertices, g.n_vertices))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return freeze(a)


@per_graph
def degree_vector(g: Graph) -> np.ndarray:
    """Vertex degrees (int64); sums to 2 * n_edges."""
    deg = np.zeros(g.n_vertices, dtype=np.int64)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return freeze(deg)


def incidence_matrix(g: Graph) -> np.ndarray:
    """Unoriented vertex-edge incidence matrix (n_V x n_E, 0/1)."""
    b = np.zeros((g.n_vertices, g.n_edges))
    for e, (u, v) in enumerate(g.edges):
        b[u, e] = 1.0
        b[v, e] = 1.0
    return b


@per_graph
def bfs_all_pairs(g: Graph) -> np.ndarray:
    """Exact unweighted all-pairs shortest paths, an (n, n) int64 matrix
    with UNREACHABLE between components.

    One breadth-first search runs from every vertex at once: row i of the
    frontier holds the vertices at the current distance from i, and one
    product with the adjacency matrix per level reaches the next ones.
    """
    n = g.n_vertices
    a = adjacency_matrix(g)
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n)
    level = 0
    while frontier.any():
        level += 1
        reached = (frontier @ a > 0) & (dist == UNREACHABLE)
        dist[reached] = level
        frontier = reached.astype(np.float64)
    return freeze(dist)


@per_graph
def connected_components(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Component count and a per-vertex component label.

    Labels number the components in the order a scan over the vertices
    first meets them. Each row's smallest reachable vertex names its
    component; the roots are the vertices that name their own.
    """
    n = g.n_vertices
    vertices = np.arange(n)
    reach = bfs_all_pairs(g) != UNREACHABLE
    # initial=n keeps the empty graph valid (no row to reduce).
    first = np.where(reach, vertices, n).min(axis=1, initial=n)
    roots = np.flatnonzero(first == vertices)
    return int(roots.size), tuple(np.searchsorted(roots, first).tolist())


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Apply a vertex permutation: vertex i becomes perm[i]. ``make_graph``
    re-sorts the permuted edges and their feature rows together."""
    if sorted(perm) != list(range(g.n_vertices)):
        raise GraphDataError("perm is not a permutation of the vertex set")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    nf = g.node_features
    if nf is not None:
        out = np.empty_like(nf)
        out[list(perm)] = nf
        nf = out
    return make_graph(
        g.n_vertices, edges, node_features=nf, edge_features=g.edge_features, id=g.id, label=g.label
    )
