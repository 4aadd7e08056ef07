"""Graph data model, the JSON-lines parser, and traversal primitives.

Graphs are finite, undirected, without self-loops. Vertices are dense
0-based integers; edges are stored canonically as a sorted tuple of
``(u, v)`` pairs with ``u < v``. Instances are immutable after
construction and safe to share across threads.

There is one traversal: ``bfs_all_pairs`` searches from every vertex at
once, and ``component_count`` is read off its distance matrix.
"""

from __future__ import annotations

import functools
import json
import math
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


def _feature_matrix(rows, name: str) -> np.ndarray:
    """Rows as a 2-d float64 array; [] (which JSON gives for any matrix
    without rows) is a 0 x 0 matrix. Anything else that is not a matrix of
    numbers, such as true, null or string cells, is a GraphDataError that
    names the matrix. numpy promotes a bool among numbers to 0 or 1."""
    try:
        x = np.asarray(rows)
        # JSON integers past int64 arrive as Python ints in an object array.
        numbers = x.dtype.kind in "fiu" or all(type(c) in (int, float) for c in x.flat)
        x = x.astype(np.float64, copy=False) if numbers else None
    except (ValueError, OverflowError):
        x = None
    if x is None or x.ndim != 2 and x.shape != (0,):
        raise GraphDataError(f"{name} is not a matrix of numbers")
    if not np.isfinite(x).all():  # JSON has no NaN or infinity, so a literal like 1e999 overflowed
        raise GraphDataError(f"{name} holds a number past the float range")
    return x.reshape(0, 0) if x.shape == (0,) else x


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
        ef = _feature_matrix(edge_features, "edge_features")
        if ef.shape[0] != len(raw):
            raise GraphDataError(f"edge_features rows {ef.shape[0]} != {len(raw)} edges")
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
        nf = _feature_matrix(node_features, "node_features")
        if nf.shape[0] != n_vertices:
            raise GraphDataError(f"node_features rows {nf.shape[0]} != {n_vertices} vertices")
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


# ---------------------------------------------------------------------------
# JSON-lines parser


def _refuse_constant(name: str):
    raise json.JSONDecodeError(f"{name} is not JSON", name, 0)


#: Python's json reads NaN, Infinity and -Infinity; JSON has no such tokens.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def read_jsonl(stream: IO[str], prefix: str = "line") -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, obj)`` for every non-blank line of a JSON-lines
    text stream, numbered from 1. A line that is not valid JSON (holding
    NaN or an infinity, or nested too deeply to parse), or not a JSON object,
    raises :class:`GraphDataError` whose message starts with ``f"{prefix} {lineno}"``."""
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("\ufeff"):  # json.loads refuses a BOM before it decodes
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            obj = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise GraphDataError(f"{prefix} {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise GraphDataError(f"{prefix} {lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise GraphDataError(f"{prefix} {lineno}: not a JSON object")
        yield lineno, obj


def _finite(label) -> bool:
    """False when a number anywhere in a JSON label, inside its lists and
    object values, overflowed the float range. Walked with a stack, so any
    nesting `json` parses is checked without running out of recursion."""
    stack = [label]
    while stack:
        x = stack.pop()
        if type(x) is list:
            stack += x
        elif type(x) is dict:
            stack += x.values()
        elif type(x) is float and not math.isfinite(x):
            return False
    return True


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
    if not _finite(obj.get("label")):
        raise GraphDataError(f"graph {gid!r}: label holds a number past the float range")
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


def parse_jsonl_dataset(stream: IO[str], name: str = "") -> GraphDataset:
    """Parse a JSON-lines dataset text stream, one graph object per line,
    preserving order. Graph ids must be unique."""
    graphs = [graph_from_obj(obj, default_id=f"g{lineno - 1}") for lineno, obj in read_jsonl(stream)]
    seen: set[str] = set()
    for g in graphs:
        if g.id in seen:
            raise GraphDataError(f"duplicate graph id {g.id!r} in dataset {name!r}")
        seen.add(g.id)
    return GraphDataset(tuple(graphs), name=name)


def load_jsonl(path: str | Path) -> GraphDataset:
    """Load a ``.jsonl`` dataset file, named after its stem."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jsonl_dataset(fh, name=path.stem)


# ---------------------------------------------------------------------------
# Adjacency and traversal (held for one graph at a time; results are read-only)

#: The cache of every function of one graph, keyed by its identity. One
#: slot holds one graph's matrices only; the commands fingerprint one graph
#: after another.
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
def component_count(g: Graph) -> int:
    """Number of connected components: one per vertex that is the
    smallest vertex it reaches."""
    vertices = np.arange(g.n_vertices)
    reach = bfs_all_pairs(g) != UNREACHABLE
    # initial keeps the empty graph valid (no row to reduce).
    first = np.where(reach, vertices, g.n_vertices).min(axis=1, initial=g.n_vertices)
    return int(np.count_nonzero(first == vertices))
