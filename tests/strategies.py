"""Shared ``hypothesis`` strategies. Kept out of ``conftest.py``, which the
benchmark imports for its graph generators and should stay light."""

from __future__ import annotations

from hypothesis import strategies as st

from graphinv.graph import Graph, make_graph


@st.composite
def block_graphs(draw, max_n: int) -> Graph:
    """Simple graphs on 0..max_n vertices whose edges join vertices of the
    same drawn block only, so edgeless graphs, isolated vertices and
    several components all occur."""
    n = draw(st.integers(0, max_n))
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] == block[v]]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, c in zip(pairs, chosen) if c])
