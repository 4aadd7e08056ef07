"""Catalog of connected pattern graphs with up to five vertices.

Patterns are enumerated up to isomorphism at import time (1 + 1 + 2 + 6
+ 21 = 31 of them): edge masks on n vertices are grouped into orbits
under vertex permutations, and only the smallest mask of each orbit is
tested for connectivity and put in canonical form. They are ordered by
vertex count, then edge count, then canonical form. The order is
normative: homomorphism-count fingerprint columns follow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations


@dataclass(frozen=True)
class Pattern:
    """A small connected graph given by vertex count and canonical edges."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    @property
    def label(self) -> str:
        body = ",".join(f"{u}{v}" for u, v in self.edges) or "-"
        return f"F{self.n_vertices}e{len(self.edges)}[{body}]"


def _is_connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def canonical_form(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Lexicographically minimal edge tuple over all vertex permutations."""
    edge_list = [tuple(sorted(e)) for e in edges]
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edge_list))
        if best is None or relabeled < best:
            best = relabeled
    return best if best is not None else ()


def _orbit_representatives(n: int, slots: list[tuple[int, int]]) -> list[int]:
    """The smallest edge bitmask over `slots` of each isomorphism class of
    graphs on n vertices. Masks are visited in increasing order, and the
    first one not yet seen marks its whole orbit under vertex
    permutations as seen."""
    index = {slot: i for i, slot in enumerate(slots)}
    images = [
        [1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in slots]
        for perm in permutations(range(n))
    ]
    seen: set[int] = set()
    representatives = []
    for mask in range(1 << len(slots)):
        if mask not in seen:
            representatives.append(mask)
            on = [i for i in range(len(slots)) if mask >> i & 1]
            seen.update(sum(image[i] for i in on) for image in images)
    return representatives


def _enumerate_patterns() -> tuple[Pattern, ...]:
    found: list[Pattern] = []
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for mask in _orbit_representatives(n, slots):
            edges = frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1)
            if _is_connected(n, edges):
                found.append(Pattern(n, canonical_form(n, edges)))
    found.sort(key=lambda p: (p.n_vertices, len(p.edges), p.edges))
    return tuple(found)


PATTERN_CATALOG: tuple[Pattern, ...] = _enumerate_patterns()

assert len(PATTERN_CATALOG) == 31, f"expected 31 patterns, got {len(PATTERN_CATALOG)}"
