"""Homomorphism counting of small patterns into host graphs.

Counts adjacency-preserving (not necessarily injective) vertex maps from
each catalog pattern into a host graph by dynamic programming over a
path decomposition of the pattern. Vertices are placed one at a time in
a connected order chosen to minimize the active-boundary width; the
table after each placement counts the partial maps per distinct image
of the boundary vertices, and a vertex whose pattern neighbours are all
placed is summed out at once. The table after a sequence of placements
depends only on that sequence, so the 31 plans are walked as a trie: a
shared prefix (63 distinct ones for 138 steps) is computed once and
reused by every pattern below it.

The DP runs over a chunk of graphs at once, so that its numpy calls,
about 60 placements per walk, are paid once per chunk rather than once
per graph. The host is the disjoint union of the chunk: one CSR over
global vertex ids, each graph's vertices consecutive. A connected
pattern maps into one graph, so every row of a table lies in one graph
and each plan's last placement sums its rows per graph. ``chunks`` cuts
a dataset into chunks: consecutive graphs, in order, while their summed
n**2 stays within ``_CHUNK_SQUARES`` = 2**16; a graph with n > 256 is a
chunk alone. ``registry.fingerprint_dataset`` fingerprints each chunk
inside ``counting(chunk)``: there the first ``count_all_patterns`` of a
graph of the chunk counts the whole chunk, the others read those counts,
and leaving the block drops them. Outside such a block a graph is
counted alone. If the union raises, each graph of the chunk is counted
alone, so an error lands on the graph that causes it.

Tables come in two forms. A sparse table is an integer key array (rows
x boundary width) and a count array. One placement extends every row
along the CSR neighbour list of the image of its first already-placed
neighbour, keeps the candidates that are adjacent to the images of the
others (a read of the dense adjacency matrix) and projects onto the next
boundary; duplicate rows are merged by sorting their base-n key codes,
or the key columns when n**width exceeds int64, and adding with
``np.add.reduceat``. A vertex that is summed out as soon as it is placed
only multiplies each row's count by its number of images: the degree of
its one anchor's image, the entry of A @ A (common neighbours) for two
anchors, and for three or more the extensions counted row by row. Rows
are extended at most ``_CHUNK_ROWS`` candidates at a time.

On a dense host every table of width 1 or 2 is a vector of n counts or
an n x n matrix per graph, stacked per run of graphs with equal n
(``_count`` sorts the host's graphs by n), so a chunk's tables take its
summed n**2 entries and no graph is padded to the largest. Each step
that reads one is matrix algebra on the stacks, with T the table and A
the adjacency: one anchor with the other column summed out is T @ A or
T.T @ A, two anchors are (T @ A) * A, keeping only the new vertex is a
column sum, and summing the new vertex out multiplies T by the degrees
or by A @ A. A step to width 3 or more takes the nonzero entries as key
rows, in (graph, key) order, and a step back to width 2 or less adds its
rows into the blocks with ``np.bincount``, which also merges them. A
step with three or more anchors counts each row's images as the set bits
of the AND of the anchors' adjacency rows, packed 8 to a byte. A host is
dense when each of its graphs has n <= ``_DENSE_ORDER`` = 256, as every
chunk of several graphs does, and its summed squared degrees reach
``_DENSE_FILL`` = 0.12 of its summed n**2. The first sum counts the
walks of length 2, about the rows of a sparse width-2 table, and the
second the entries of a dense one: a dense step costs about the same on
a full table as on an empty one, so below that share the sparse steps
are faster (on Erdos-Renyi graphs of 32 to 250 vertices, alone and
several to a chunk).

Memory is O(m + table) for tree patterns on a sparse host, whose steps
all have one anchor. The first step with two or more anchors reads each
graph's n x n adjacency matrix and the first two-anchor sum-out computes
its A @ A, both stored flat per host: at most 2**16 entries each for a
chunk of several graphs, n**2 for a large graph alone, which pays one
n**3 product and O(n**2) memory on top. A dense host holds those, the
dense tables along one path of the trie (at most 2**16 entries each) and
the packed adjacency rows (per vertex, one byte per 8 vertices of its
largest graph), and extends or counts at most ``_CHUNK_ROWS`` sparse
rows at a time. The full regime builds n x n matrices of each graph
anyway (distances, Laplacians).

Counts are exact. Every partial table counts maps of a connected
pattern with at most five vertices into one graph, so no entry or sum
exceeds n * maxdeg**4 of that graph; when that bound fits in int64 for
every graph of the chunk the counts are int64, otherwise they are
Python integers (``dtype=object``) on the same code path. A graph with
n <= 256 has a bound below 2**40, so only a graph counted alone can
need Python integers, and the float64 entries of dense tables, and every
partial sum of the products that make them, are exact integers.
Counts above the int64 range are reported by ``overflows_int64``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..graph import Graph, adjacency_matrix
from .patterns import PATTERN_CATALOG, Pattern

_INT64_MAX = 2**63 - 1
_CHUNK_ROWS = 1 << 13  # candidate rows built at once within one step
_CHUNK_SQUARES = 1 << 16  # summed n**2 of the graphs counted together
_MAX_ORDER = max(p.n_vertices for p in PATTERN_CATALOG)
_DENSE_ORDER = 256  # the largest graph counted dense: every count stays below 2**40
_DENSE_FILL = 0.12  # the least share of dense table entries a host fills to be counted dense
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits per byte


@dataclass(frozen=True)
class _Step:
    """Place one pattern vertex: constrain by `anchors` (positions of its
    already-placed neighbours in the current key), then keep `keep`
    positions of the extended key as the next boundary."""

    anchors: tuple[int, ...]
    keep: tuple[int, ...]


def _plan_for_order(pattern: Pattern, order: tuple[int, ...]) -> tuple[_Step, ...]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(pattern.n_vertices)}
    for u, v in pattern.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    steps: list[_Step] = []
    boundary: list[int] = []
    placed: set[int] = set()
    for v in order:
        anchors = tuple(boundary.index(w) for w in sorted(nbrs[v] & placed))
        placed.add(v)
        extended = boundary + [v]
        next_boundary = [w for w in extended if nbrs[w] - placed]
        keep = tuple(extended.index(w) for w in next_boundary)
        steps.append(_Step(anchors, keep))
        boundary = next_boundary
    return tuple(steps)


#: The vertex order of each catalog pattern's plan, in catalog order: of
#: all connected orders, the first in lexicographic order with the least
#: width. Stored, not searched at import; the tests redo the search.
_ORDERS = (
    "0", "01", "012", "012", "0123", "0213", "0123", "0123", "0123", "0123",
    "01234", "02314", "13024", "01234", "01234", "01234", "01324", "01234",
    "01234", "01234", "01324", "01234", "01423", "01234", "01234", "01324",
    "01234", "01234", "01234", "01234", "01234",
)

_PLANS = tuple(_plan_for_order(p, tuple(map(int, order))) for p, order in zip(PATTERN_CATALOG, _ORDERS))
_ALL = range(len(_PLANS))


class _Blocks(tuple):
    """A dense table of width 0, 1 or 2 on a dense host: per run of graphs
    with equal n, an array of shape (graphs,) + (n,) * width whose entry at
    a key (in local ids) is that key's count, an exact integer in float64."""


@dataclass(frozen=True)
class _Host:
    """The disjoint union of a chunk of graphs as CSR neighbour lists over
    global vertex ids; the vertices of each graph are consecutive, in
    the order given. Steps with two or more anchors also read each graph's
    dense adjacency matrix (set from the CSR, or a lone graph's cached
    ``graph.adjacency_matrix``) and, on a two-anchor sum-out, its
    common-neighbour counts A @ A, built on first use and stored flat,
    one block per graph. Every vertex of a table row lies in one graph,
    so a read at (u, v) is the entry ``base[u] + local[v]`` of that
    graph's block. ``split`` views flat per-graph, per-vertex or per-block
    arrays as one stack per run of consecutive graphs with equal n, and
    a dense host (every graph within `_DENSE_ORDER` vertices, tables
    filled to `_DENSE_FILL`) holds its tables of width 1 and 2 that way."""

    graphs: tuple[Graph, ...]
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    graph: np.ndarray  # per vertex, the position of its graph in `graphs`
    sizes: np.ndarray  # per graph, its number of vertices
    dtype: object  # of the counts: np.int64, or object when that could overflow
    dense: bool  # tables of width 1 and 2 are `_Blocks`

    @classmethod
    def of(cls, *graphs: Graph) -> _Host:
        sizes = np.array([g.n_vertices for g in graphs], dtype=np.int64)
        n = int(sizes.sum())
        starts = (np.cumsum(sizes) - sizes).tolist()
        e = np.concatenate(
            [np.array(g.edges, dtype=np.int64).reshape(-1, 2) + s for g, s in zip(graphs, starts)]
        )
        codes = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
        indptr = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) * n)
        graph = np.repeat(np.arange(len(graphs)), sizes)
        max_deg = np.zeros(len(graphs), dtype=np.int64)
        np.maximum.at(max_deg, graph, np.diff(indptr))
        fits = all(k * d ** (_MAX_ORDER - 1) <= _INT64_MAX for k, d in zip(sizes.tolist(), max_deg.tolist()))
        filled = int((np.diff(indptr) ** 2).sum()) >= _DENSE_FILL * int((sizes**2).sum())
        dense = int(sizes.max()) <= _DENSE_ORDER and filled
        return cls(graphs, n, indptr, codes % n, graph, sizes, np.int64 if fits else object, dense)

    @cached_property
    def local(self) -> np.ndarray:
        """Per vertex, its id in its own graph."""
        return np.arange(self.n) - (np.cumsum(self.sizes) - self.sizes)[self.graph]

    @cached_property
    def base(self) -> np.ndarray:
        """Per vertex u, where row u of its graph's block starts in the flat
        blocks."""
        squares = self.sizes**2
        return (np.cumsum(squares) - squares)[self.graph] + self.local * self.sizes[self.graph]

    @cached_property
    def _runs(self) -> list[tuple[int, int]]:
        """Per run of consecutive graphs with equal n: (graphs, n)."""
        cuts = [0, *(np.flatnonzero(np.diff(self.sizes)) + 1).tolist(), len(self.sizes)]
        return [(stop - start, int(self.sizes[start])) for start, stop in zip(cuts, cuts[1:])]

    def split(self, flat: np.ndarray, width: int) -> _Blocks:
        """`flat`, one value per graph (width 0), per vertex (1) or per
        block entry (2), as per-run views of shape (graphs,) + (n,) * width."""
        parts, start = [], 0
        for k, n in self._runs:
            parts.append(flat[start:start + k * n**width].reshape((k,) + (n,) * width))
            start += k * n**width
        return _Blocks(parts)

    @cached_property
    def _adjacency(self) -> np.ndarray:
        if len(self.graphs) == 1:  # a lone graph's cached matrix, not copied
            return adjacency_matrix(self.graphs[0]).ravel()
        flat = np.zeros(int((self.sizes**2).sum()))
        u = np.repeat(np.arange(self.n), np.diff(self.indptr))  # the row of each CSR entry
        flat[self.base[u] + self.local[self.indices]] = 1.0
        return flat

    @cached_property
    def _common(self) -> np.ndarray:
        """(A @ A)[u, v] per graph: the number of common neighbours of u and
        v, exact in float64."""
        common = np.empty_like(self._adjacency)
        for a, c in zip(self.split(self._adjacency, 2), self.split(common, 2)):
            np.matmul(a, a, out=c)
        return common

    @cached_property
    def _bits(self) -> np.ndarray:
        """Per vertex, its row of its graph's adjacency matrix as a bit set
        over local ids, 8 to a byte: shape (n, bytes), uint8."""
        rows = np.zeros((self.n, int(self.sizes.max())), dtype=bool)
        rows[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.local[self.indices]] = True
        return np.packbits(rows, axis=1)

    @cached_property
    def adjacency_runs(self) -> _Blocks:
        return self.split(self._adjacency, 2)

    @cached_property
    def degree_runs(self) -> _Blocks:
        return self.split(np.diff(self.indptr).astype(float), 1)

    @cached_property
    def common_runs(self) -> _Blocks:
        return self.split(self._common, 2)

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._adjacency[self.base[u] + self.local[v]] > 0

    def common(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._common[self.base[u] + self.local[v]].astype(np.int64)

    def shared(self, ends: np.ndarray) -> np.ndarray:
        """Per row of `ends`, the number of common neighbours of its
        vertices, by the set bits of the AND of their rows, at most
        `_CHUNK_ROWS` rows at a time."""
        out = np.empty(len(ends), dtype=np.int64)
        for start in range(0, len(ends), _CHUNK_ROWS):
            part = ends[start:start + _CHUNK_ROWS]
            acc = self._bits[part[:, 0]]
            for column in part.T[1:]:
                acc &= self._bits[column]
            out[start:start + _CHUNK_ROWS] = _POPCOUNT[acc].sum(axis=1)
        return out


def _sum_duplicates(keys: np.ndarray, counts: np.ndarray, n: int):
    """Merge rows with equal keys, adding their counts."""
    if not len(keys):
        return keys, counts
    if n ** keys.shape[1] <= _INT64_MAX:
        code = np.zeros(len(keys), dtype=np.int64)
        for column in keys.T:
            code = code * n + column
        order = np.argsort(code)
        changed = np.diff(code[order]) != 0
    else:
        order = np.lexsort(keys.T[::-1])
        changed = (np.diff(keys[order], axis=0) != 0).any(axis=1)
    starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
    return keys[order[starts]], np.add.reduceat(counts[order], starts)


def _neighbour_lists(keys: np.ndarray, step: _Step, host: _Host):
    """Per row: where its candidate list starts in the returned pool, and
    its length. Candidates are the neighbours of the first anchor's
    image, or every vertex for the first placement."""
    if step.anchors:
        src = keys[:, step.anchors[0]]
        first = host.indptr[src]
        return first, host.indptr[src + 1] - first, host.indices
    first = np.zeros(len(keys), dtype=np.int64)
    return first, np.full(len(keys), host.n, dtype=np.int64), np.arange(host.n, dtype=np.int64)


def _extensions(keys: np.ndarray, step: _Step, host: _Host):
    """Yield, chunk by chunk, `(rows, x)`: row indices into `keys` and an
    image x of the vertex `step` places, adjacent to the images of all
    its anchors. Each chunk extends at most `_CHUNK_ROWS` candidates,
    except that one row with more neighbours than that is a chunk alone."""
    first, degree, pool = _neighbour_lists(keys, step, host)
    ends = np.cumsum(degree)
    start = 0
    while start < len(keys):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _CHUNK_ROWS, side="right")))
        d = degree[start:stop]
        rows = np.repeat(np.arange(start, stop), d)
        offset = np.repeat(first[start:stop] - (ends[start:stop] - d - base), d)
        x = pool[offset + np.arange(len(rows))]
        for a in step.anchors[1:]:
            hit = host.adjacent(keys[rows, a], x)
            rows, x = rows[hit], x[hit]
        yield rows, x
        start = stop


def _images(keys: np.ndarray, step: _Step, host: _Host) -> np.ndarray:
    """Per row, the number of images of the vertex `step` places."""
    if len(step.anchors) == 2:
        a, b = step.anchors
        return host.common(keys[:, a], keys[:, b])
    if len(step.anchors) > 2:
        if host.dense:
            return host.shared(keys[:, step.anchors])
        return sum(np.bincount(rows, minlength=len(keys)) for rows, _ in _extensions(keys, step, host))
    return _neighbour_lists(keys, step, host)[1]


def _dense_step(t: np.ndarray, step: _Step, a: np.ndarray, degree: np.ndarray, common: Callable[[], np.ndarray]):
    """One run's block of the table after `step`, from its block `t` of
    width 0, 1 or 2 before it; `a` is the run's adjacency stack and
    `degree` its degree rows. The new vertex x has images adjacent to
    the anchors' images; every column that `step` drops is summed out."""
    width = t.ndim - 1
    k, n = degree.shape
    if width not in step.keep:  # x is summed out: weight each entry by its number of images
        if not step.anchors:
            images = n
        elif len(step.anchors) == 2:
            images = common()
        else:
            images = degree.reshape((k,) + tuple(n if i in step.anchors else 1 for i in range(width)))
        return (t * images).sum(axis=tuple(1 + i for i in range(width) if i not in step.keep))
    if not width:
        return t[:, None] * np.ones(n)
    # m[p, x]: the table with old column p and x, the other old column q
    # summed out (T @ A when q is an anchor); p is the kept old column, or
    # column 0 when only x is kept, and is summed out last.
    p = step.keep[0] if len(step.keep) == 2 else 0
    if width == 1:
        m = t[:, :, None]
    else:
        tp = t.swapaxes(1, 2) if p else t
        m = tp @ a if 1 - p in step.anchors else tp.sum(axis=2)[:, :, None]
    if p in step.anchors:
        m = m * a
    return m if len(step.keep) == 2 else m.sum(axis=1)


def _dense_place(table: _Blocks, step: _Step, host: _Host) -> _Blocks:
    """The dense table after `step`, which keeps at most two columns."""
    return _Blocks(
        _dense_step(t, step, a, degree, lambda r=r: host.common_runs[r])
        for r, (t, a, degree) in enumerate(zip(table, host.adjacency_runs, host.degree_runs))
    )


def _rows(table: _Blocks, host: _Host) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of a dense width-2 table as key rows of global
    vertex ids and int64 counts, in (graph, key) order."""
    keys, counts, start = [], [], 0
    for t in table:
        g, u, v = np.nonzero(t)
        first = start + g * t.shape[1]
        keys.append(np.column_stack([first + u, first + v]))
        counts.append(t[g, u, v].astype(np.int64))
        start += t.shape[0] * t.shape[1]
    return np.concatenate(keys), np.concatenate(counts)


def _blocks(keys: np.ndarray, counts: np.ndarray, host: _Host) -> _Blocks:
    """The dense table of key rows of width 0 (one row per graph, its
    total), 1 or 2, adding the counts of equal keys."""
    width = keys.shape[1]
    if not width:
        return host.split(counts, 0)
    if width == 1:
        at, size = keys[:, 0], host.n
    else:
        at, size = host.base[keys[:, 0]] + host.local[keys[:, 1]], len(host._adjacency)
    return host.split(np.bincount(at, weights=counts, minlength=size), width)


def _place(table, step: _Step, host: _Host):
    """The table after `step`, from the table before it."""
    if isinstance(table, _Blocks):
        if len(step.keep) <= 2:
            return _dense_place(table, step, host)
        table = _rows(table, host)
    keys, counts = table
    if not len(counts):
        return table  # no partial map survives: every count below is 0
    width = keys.shape[1]
    dense = host.dense and len(step.keep) <= 2  # the rows are added into blocks, not merged
    merges = not dense and sum(k < width for k in step.keep) < width  # an old column is summed out
    if width not in step.keep:
        # The new vertex is summed out at once: multiply each row's count
        # by its number of images instead of building the extended rows.
        if not step.keep:  # the plan is finished: one row per graph holds its total
            keys, counts = keys[:0, :0], _totals(keys, counts, step, host)
        else:
            images = _images(keys, step, host)
            live = images > 0
            keys, counts = keys[live][:, step.keep], counts[live] * images[live]
            if merges:
                keys, counts = _sum_duplicates(keys, counts, host.n)
        return _blocks(keys, counts, host) if dense else (keys, counts)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    merged = pending = 0  # rows in `parts` from the last merge, and since
    for rows, x in _extensions(keys, step, host):
        part = np.column_stack([keys[rows], x])[:, step.keep], counts[rows]
        if merges:
            part = _sum_duplicates(*part, host.n)
            pending += len(part[1])
        parts.append(part)
        if merges and pending > max(merged, _CHUNK_ROWS):
            parts = [_sum_duplicates(*map(np.concatenate, zip(*parts)), host.n)]
            merged, pending = len(parts[0][1]), 0
    keys, counts = map(np.concatenate, zip(*parts))
    if merges and len(parts) > 1:
        keys, counts = _sum_duplicates(keys, counts, host.n)
    return _blocks(keys, counts, host) if dense else (keys, counts)


def _totals(keys: np.ndarray, counts: np.ndarray, step: _Step, host: _Host) -> np.ndarray:
    """Per graph, the count of the plan that `step` finishes: each row's
    count times its number of images, summed over the rows of that graph."""
    if not step.anchors:  # the single vertex, placed from the empty root row
        return counts[0] * host.sizes.astype(counts.dtype)
    totals = np.zeros(len(host.graphs), dtype=counts.dtype)
    np.add.at(totals, host.graph[keys[:, 0]], counts * _images(keys, step, host))
    return totals


def _walk(table, depth: int, members: list[tuple[int, tuple[_Step, ...]]], host: _Host, out: list) -> None:
    """Finish every plan in `members`, all of whose first `depth` steps
    produced `table`, writing its per-graph counts to `out` at its
    position."""
    if not isinstance(table, _Blocks) and not len(table[1]):
        return  # no partial map survives: every count below is 0
    children: dict[_Step, list[tuple[int, tuple[_Step, ...]]]] = {}
    for pos, plan in members:
        if depth == len(plan):
            out[pos] = np.concatenate(table) if isinstance(table, _Blocks) else table[1]
        else:
            children.setdefault(plan[depth], []).append((pos, plan))
    for step, group in children.items():
        _walk(_place(table, step, host), depth + 1, group, host, out)


def _count(graphs: Sequence[Graph], indices: Iterable[int]) -> list[list[int]]:
    """Exact homomorphism counts of the catalog patterns at `indices` into
    each of `graphs`, by one walk over their disjoint union, the graphs
    sorted by vertex count."""
    members = [(pos, _PLANS[i]) for pos, i in enumerate(indices)]
    order = sorted(range(len(graphs)), key=lambda i: graphs[i].n_vertices)
    host = _Host.of(*(graphs[i] for i in order))
    out = [np.zeros(len(graphs), dtype=host.dtype)] * len(members)
    root = np.zeros((1, 0), dtype=np.int64), np.ones(1, dtype=host.dtype)
    _walk(host.split(np.ones(len(graphs)), 0) if host.dense else root, 0, members, host, out)
    counts: list[list[int]] = [[] for _ in graphs]
    for i, column in zip(order, zip(*out)):
        counts[i] = list(map(int, column))
    return counts


def chunks(graphs: Iterable[Graph]) -> Iterator[tuple[Graph, ...]]:
    """`graphs` in order, cut into the chunks whose homomorphisms are
    counted together: consecutive graphs while their summed n**2 stays
    within `_CHUNK_SQUARES`; a graph above that is a chunk alone."""
    chunk: list[Graph] = []
    total = 0
    for g in graphs:
        total += g.n_vertices**2
        if chunk and total > _CHUNK_SQUARES:
            yield tuple(chunk)
            chunk, total = [], g.n_vertices**2
        chunk.append(g)
    if chunk:
        yield tuple(chunk)


_CHUNK: ContextVar[Callable[[], dict[int, list[int]]] | None] = ContextVar("homcount_chunk", default=None)


@contextmanager
def counting(chunk: tuple[Graph, ...]) -> Iterator[None]:
    """Within this block, the first `count_all_patterns` of a graph of
    `chunk` counts the whole chunk by one DP, and the other graphs of the
    chunk read those counts; leaving the block drops them."""

    @cache
    def counts() -> dict[int, list[int]]:
        try:
            return {id(g): c for g, c in zip(chunk, _count(chunk, _ALL))}
        except Exception:  # isolation: the chunk's graphs are counted one by one
            return {}

    token = _CHUNK.set(counts)
    try:
        yield
    finally:
        _CHUNK.reset(token)


def count_patterns(g: Graph, indices: Iterable[int]) -> list[int]:
    """Exact homomorphism counts into `g` of the catalog patterns at
    `indices`, in that order, sharing tables across common plan
    prefixes."""
    return _count((g,), indices)[0]


def count_all_patterns(g: Graph) -> list[int]:
    """Homomorphism counts for every catalog pattern, in catalog order.
    Inside `counting`, read from the counts of the chunk."""
    chunk_counts = _CHUNK.get()
    counts = None if chunk_counts is None else chunk_counts().get(id(g))
    return count_patterns(g, _ALL) if counts is None else counts


def overflows_int64(counts: list[int]) -> bool:
    return any(c > _INT64_MAX for c in counts)
