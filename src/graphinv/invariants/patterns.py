"""Catalog of connected pattern graphs with up to five vertices.

The 31 patterns (1 + 1 + 2 + 6 + 21), one per isomorphism class, each in
canonical form: its lexicographically smallest edge tuple over all vertex
permutations. They are ordered by vertex count, then edge count, then
canonical form. The order is normative: homomorphism-count fingerprint
columns follow it. Stored, not enumerated at import; the tests redo the
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Pattern:
    """A small connected graph given by vertex count and canonical edges."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]


#: (vertex count, edges as space-separated digit pairs), in catalog order.
_CATALOG = (
    (1, ""),
    (2, "01"),
    (3, "01 02"),
    (3, "01 02 12"),
    (4, "01 02 03"),
    (4, "01 02 13"),
    (4, "01 02 03 12"),
    (4, "01 02 13 23"),
    (4, "01 02 03 12 13"),
    (4, "01 02 03 12 13 23"),
    (5, "01 02 03 04"),
    (5, "01 02 03 14"),
    (5, "01 02 13 24"),
    (5, "01 02 03 04 12"),
    (5, "01 02 03 12 14"),
    (5, "01 02 03 12 34"),
    (5, "01 02 03 14 24"),
    (5, "01 02 13 24 34"),
    (5, "01 02 03 04 12 13"),
    (5, "01 02 03 04 12 34"),
    (5, "01 02 03 12 13 24"),
    (5, "01 02 03 12 14 34"),
    (5, "01 02 03 14 24 34"),
    (5, "01 02 03 04 12 13 14"),
    (5, "01 02 03 04 12 13 23"),
    (5, "01 02 03 04 12 13 24"),
    (5, "01 02 03 12 13 24 34"),
    (5, "01 02 03 04 12 13 14 23"),
    (5, "01 02 03 04 12 13 24 34"),
    (5, "01 02 03 04 12 13 14 23 24"),
    (5, "01 02 03 04 12 13 14 23 24 34"),
)

PATTERN_CATALOG: tuple[Pattern, ...] = tuple(
    Pattern(n, tuple((int(e[0]), int(e[1])) for e in edges.split())) for n, edges in _CATALOG
)
