"""Shared graph factories and random-graph generators for the test suite."""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphinv.graph import Graph, GraphDataError, make_graph


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)], id=f"P{n}")


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)], id=f"C{n}")


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], id=f"K{n}")


def star_graph(n_leaves: int) -> Graph:
    return make_graph(n_leaves + 1, [(0, i + 1) for i in range(n_leaves)], id=f"S{n_leaves}")


def empty_graph(n: int) -> Graph:
    return make_graph(n, [], id=f"E{n}")


def circulant_graph(n: int, steps) -> Graph:
    """The circulant C_n(steps): i ~ i + s (mod n) for every s in `steps`."""
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return make_graph(n, edges, id=f"C{n}{sorted(steps)}")


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shift = g.n_vertices
    edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
    return make_graph(g.n_vertices + h.n_vertices, edges, id=f"{g.id}+{h.id}")


def two_triangles() -> Graph:
    return disjoint_union(cycle_graph(3), cycle_graph(3))


def erdos_renyi(n: int, p: float, rng: random.Random, id: str = "") -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges, id=id or f"er{n}")


def barabasi_albert(n: int, m: int, rng: random.Random, id: str = "") -> Graph:
    """Preferential attachment: start from a complete graph on m + 1
    vertices, then attach each new vertex to m distinct targets drawn
    proportionally to degree."""
    assert n > m >= 1
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    stubs = [v for e in edges for v in e]
    for w in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(stubs))
        for t in sorted(targets):
            edges.append((t, w))
            stubs.extend((t, w))
    return make_graph(n, edges, id=id or f"ba{n}")


def random_graph(rng: random.Random, max_n: int = 12, min_n: int = 2, id: str = "") -> Graph:
    n = rng.randint(min_n, max_n)
    p = rng.uniform(0.1, 0.9)
    return erdos_renyi(n, p, rng, id=id)


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


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


def graph_to_obj(g: Graph) -> dict:
    """Inverse of the JSONL graph schema that ``graph.graph_from_obj`` reads."""
    obj: dict = {"id": g.id, "num_nodes": g.n_vertices, "edges": [list(e) for e in g.edges]}
    if g.node_features is not None:
        obj["node_features"] = g.node_features.tolist()
    if g.edge_features is not None:
        obj["edge_features"] = g.edge_features.tolist()
    if g.label is not None:
        obj["label"] = g.label
    return obj


def rook_graph_4x4() -> Graph:
    """4x4 rook's graph: vertices (i, j); same row or same column adjacent."""
    edges = []
    for i in range(4):
        for j in range(4):
            a = 4 * i + j
            for jj in range(j + 1, 4):
                edges.append((a, 4 * i + jj))
            for ii in range(i + 1, 4):
                edges.append((a, 4 * ii + j))
    return make_graph(16, edges, id="rook4x4")


def shrikhande_graph() -> Graph:
    """Shrikhande graph on Z4 x Z4: (a,b) ~ (c,d) iff (a-c, b-d) is one of
    +-(1,0), +-(0,1), +-(1,1)."""
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    u, v = 4 * a + b, 4 * c + d
                    if u < v and ((a - c) % 4, (b - d) % 4) in diffs:
                        edges.append((u, v))
    return make_graph(16, edges, id="shrikhande")


def cfi_pair(n: int, edges) -> tuple[Graph, Graph]:
    """The vertex-only CFI graphs (Cai, Fürer and Immerman 1992) over the
    base graph on n vertices with `edges`, untwisted and twisted. Their
    vertices are (v, S) with S an even subset of the edges at v, and
    (v, S) ~ (w, T) when vw is an edge and [vw in S] = [vw in T]; the
    twisted copy flips that condition on the first edge."""
    edges = [tuple(sorted(e)) for e in edges]
    vertices = []
    for v in range(n):
        at = [e for e in edges if v in e]
        vertices += [(v, set(s)) for k in range(0, len(at) + 1, 2) for s in combinations(at, k)]

    def cfi(twisted: bool) -> Graph:
        joined = []
        for (a, (v, s)), (b, (w, t)) in combinations(enumerate(vertices), 2):
            e = (min(v, w), max(v, w))
            if e in edges and ((e in s) == (e in t)) != (twisted and e == edges[0]):
                joined.append((a, b))
        return make_graph(len(vertices), joined, id=f"cfi{n}{'-twisted' if twisted else ''}")

    return cfi(False), cfi(True)


def pattern_label(p) -> str:
    """A catalog pattern's name in assertion messages, such as "F3e2[01,02]"."""
    body = ",".join(f"{u}{v}" for u, v in p.edges) or "-"
    return f"F{p.n_vertices}e{len(p.edges)}[{body}]"


def catalog_compute(name: str, regime: str = "full"):
    """The ``compute`` of catalog block ``name`` under the default config
    of ``regime``: it returns the block's InvariantValue, status included."""
    from graphinv.registry import RegimeConfig, build_catalog

    return next(d.compute for d in build_catalog(RegimeConfig(regime=regime)) if d.name == name)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
