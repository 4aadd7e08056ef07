"""Shared graph factories and random-graph generators for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphinv.graph import Graph, make_graph


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


def catalog_compute(name: str, regime: str = "full"):
    """The ``compute`` of catalog block ``name`` under the default config
    of ``regime``: it returns the block's InvariantValue, status included."""
    from graphinv.registry import RegimeConfig, build_catalog

    return next(d.compute for d in build_catalog(RegimeConfig(regime=regime)) if d.name == name)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
