"""Permutation-invariant structural descriptors, grouped by family.

Every block in ``basic``, ``entropy``, ``indices`` and ``topo`` is a plain
function of a graph: it returns its number or array, or it raises. A
declared failure raises :class:`BlockFailure`. The catalog in
``graphinv.registry`` alone names and sizes the blocks and turns what a
block returns or raises into an :class:`InvariantValue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OK = "ok"


class BlockFailure(Exception):
    """A declared failure of a block: its status becomes
    ``failed: <reason>`` and every value ``fill``."""

    def __init__(self, reason: str, fill: float = math.nan):
        super().__init__(reason)
        self.fill = fill


@dataclass(frozen=True)
class InvariantValue:
    """One fixed-width block of a fingerprint: read-only float64 values
    and a status, ``"ok"`` or ``"failed: ..."``. Failed blocks carry
    their fill (NaN unless declared, never a silent 0)."""

    values: np.ndarray
    status: str = OK

    @property
    def ok(self) -> bool:
        return self.status == OK
