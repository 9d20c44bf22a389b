"""Directed graphs with positive integer edge lengths, plus the distance,
diameter and reachability primitives everything else is built on.

Distances are kept as float64 matrices with ``numpy.inf`` as the
unreachable sentinel; all finite entries are exact integers (edge lengths
are bounded by N which is polynomial in n, far below 2**53). Hopsets and
shortcuts share one canonical edge-row format (sorted, unique, read-only
int64 columns that compare by value), whose one home is _EdgeRows. The
records of a run (verification, clustered-DAG, phase and reduction reports)
share one JSON form, whose one home is Record.to_json.

A DiGraph never changes, so what is derived from it (its CSR matrices, its
condensation closure, the LDD's adjacency at each d) is built on first use
and kept on the graph, read-only, for as long as the graph lives. Laying
vertex groups out on new ids has one home, group_blocks: induced_subgraph,
the LDD's SCC refinement and the pipeline's strong components use it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

INF = np.inf

_INT = np.int64

# bool cells per block of reachable_pairs's unpacked closure rows (1 MB)
_BLOCK_CELLS = 1 << 20


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=_INT)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _columns_of(rows: Iterable[tuple[int, ...]], width: int) -> tuple[np.ndarray, ...]:
    """The int64 columns of a list of row tuples of the given width."""
    rows = list(rows)
    if not rows:
        return tuple(np.empty(0, dtype=_INT) for _ in range(width))
    return tuple(np.array(col, dtype=_INT) for col in zip(*rows))


@dataclass(frozen=True)
class DiGraph:
    """Immutable digraph on vertices [0, n) with integer lengths in [1, N].

    Parallel edges and self-loops are allowed; self-loops are stored but
    never traversed by any distance computation.
    """

    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray
    max_length_bound: int

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        if self.max_length_bound < 1:
            raise ValueError("max_length_bound must be at least 1")
        t, h, w = self.tails, self.heads, self.lengths
        if not (len(t) == len(h) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(t) and (t.min() < 0 or t.max() >= n or h.min() < 0 or h.max() >= n):
            raise ValueError("vertex id out of range")
        if len(w) and (w.min() < 1 or w.max() > self.max_length_bound):
            raise ValueError("edge length outside [1, N]")
        for name in ("tails", "heads", "lengths"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int, int]],
        max_length_bound: Optional[int] = None,
    ) -> "DiGraph":
        t, h, w = _columns_of(edges, 3)
        return cls.from_arrays(vertex_count, t, h, w, max_length_bound)

    @classmethod
    def from_arrays(
        cls,
        vertex_count: int,
        tails,
        heads,
        lengths,
        max_length_bound: Optional[int] = None,
    ) -> "DiGraph":
        t = _as_int_array(tails, "tails").copy()
        h = _as_int_array(heads, "heads").copy()
        w = _as_int_array(lengths, "lengths").copy()
        if max_length_bound is None:
            max_length_bound = int(w.max()) if len(w) else 1
        return cls(vertex_count, t, h, w, max_length_bound)

    @property
    def edge_count(self) -> int:
        return len(self.tails)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for t, h, w in zip(self.tails, self.heads, self.lengths):
            yield (int(t), int(h), int(w))

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        """Min-length simple adjacency matrix; self-loops dropped."""
        return _min_csr(self.vertex_count, self.tails, self.heads, self.lengths)

    @cached_property
    def _csr_rev(self) -> sp.csr_matrix:
        """The same for the reversed graph: row v lists v's in-edges."""
        return _min_csr(self.vertex_count, self.heads, self.tails, self.lengths)

    def reversed(self) -> "DiGraph":
        """The graph with every edge turned around. Its CSR matrices are this
        graph's, in swapped roles, so neither is built twice."""
        n, bound = self.vertex_count, self.max_length_bound
        rev = DiGraph(n, self.heads, self.tails, self.lengths, bound)
        rev.__dict__.update(_csr=self._csr_rev, _csr_rev=self._csr)
        return rev

    def _derived(self, key, build):
        """build(self) on the first call with this key, then kept on the graph."""
        kept = self.__dict__.setdefault("_kept", {})
        if key not in kept:
            kept[key] = build(self)
        return kept[key]

    def edge_subset(self, keep: np.ndarray) -> "DiGraph":
        """Same vertices and length bound, only the edges where keep is True."""
        return DiGraph(
            self.vertex_count,
            self.tails[keep],
            self.heads[keep],
            self.lengths[keep],
            self.max_length_bound,
        )

    def with_extra(self, extra: Optional["WeightedEdgeSet"]) -> "DiGraph":
        """New graph with the overlay edges appended (original untouched)."""
        if extra is None or len(extra) == 0:
            return self
        t = np.concatenate([self.tails, extra.tails])
        h = np.concatenate([self.heads, extra.heads])
        w = np.concatenate([self.lengths, extra.lengths])
        bound = max(self.max_length_bound, int(extra.lengths.max()))
        return DiGraph(self.vertex_count, t, h, w, bound)


def _min_csr(n: int, tails: np.ndarray, heads: np.ndarray, lengths: np.ndarray) -> sp.csr_matrix:
    keep = tails != heads
    # one row per (tail, head) pair, the lightest, already in CSR order
    t, h, w = _sorted_unique(tails[keep], heads[keep], lengths[keep], key_columns=2)
    indptr = np.searchsorted(t, np.arange(n + 1, dtype=_INT))
    mat = sp.csr_matrix((w.astype(np.float64), h, indptr), shape=(n, n))
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def _sorted_unique(*columns: np.ndarray, key_columns: Optional[int] = None) -> tuple[np.ndarray, ...]:
    """The rows of the given int64 columns in lexicographic order, keeping
    the first row of each run that agrees on the first key_columns columns
    (all of them by default). Returns new arrays.

    The rows are packed into one int64 key, offset by each column's minimum,
    so one in-place sort and shifts replace a lexsort and its gathers;
    np.lexsort takes over when the packed key would not fit in 63 bits.
    """
    if len(columns[0]) == 0:
        return tuple(c.copy() for c in columns)
    k = len(columns) if key_columns is None else key_columns
    lows = [int(c.min()) for c in columns]
    bits = [(int(c.max()) - lo).bit_length() for c, lo in zip(columns, lows)]
    if sum(bits) > 63:
        order = np.lexsort(columns[::-1])
        cols = [c[order] for c in columns]
        first = np.ones(len(order), dtype=bool)
        first[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in cols[:k]])
        return tuple(c[first] for c in cols)
    key = np.zeros(len(columns[0]), dtype=_INT)
    for c, lo, b in zip(columns, lows, bits):
        key <<= b
        key |= c - lo
    key.sort()
    tail_bits = sum(bits[k:])
    head = key >> tail_bits if tail_bits else key
    first = np.ones(len(key), dtype=bool)
    np.not_equal(head[1:], head[:-1], out=first[1:])
    key = key[first]
    out = []
    for lo, b in zip(lows[::-1], bits[::-1]):
        out.append((key & ((1 << b) - 1)) + lo)
        key >>= b
    return tuple(out[::-1])


class _EdgeRows:
    """The canonical edge-row format behind WeightedEdgeSet and EdgeSet: one
    read-only int64 column per dataclass field (tails, heads, ...), the rows
    in lexicographic order and unique, so equal sets compare equal and file
    dumps are byte-stable. Two sets are equal when they have the same type
    and equal columns.
    """

    def __post_init__(self):
        for column in self._columns():
            column.setflags(write=False)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def empty(cls):
        return cls(*(np.empty(0, dtype=_INT) for _ in fields(cls)))

    @classmethod
    def from_arrays(cls, *columns):
        """The set of the given rows, one array-like column per field."""
        named = zip(columns, fields(cls), strict=True)
        return cls(*_sorted_unique(*(_as_int_array(c, f.name) for c, f in named)))

    def __len__(self) -> int:
        return len(self.tails)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in zip(*self._columns()):
            yield tuple(map(int, row))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))


class Record:
    """Base of the dataclass records that report.json is made of. to_json
    writes the fields in order: a nested Record as an object, a list or
    tuple as a list, a Fraction as its str, every other value as it is. A
    field declared with metadata={"json": False} is left out.
    """

    def to_json(self) -> dict:
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in fields(self)
            if f.metadata.get("json", True)
        }


def _json_value(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


@dataclass(frozen=True, eq=False)
class WeightedEdgeSet(_EdgeRows):
    """A hopset: weighted extra edges over some graph's vertex set, as
    canonical (tail, head, length) rows."""

    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "WeightedEdgeSet":
        return cls.from_arrays(*_columns_of(triples, 3))

    @staticmethod
    def union(*sets: "WeightedEdgeSet") -> "WeightedEdgeSet":
        parts = [s for s in sets if len(s)]
        if not parts:
            return WeightedEdgeSet.empty()
        return WeightedEdgeSet.from_arrays(
            np.concatenate([s.tails for s in parts]),
            np.concatenate([s.heads for s in parts]),
            np.concatenate([s.lengths for s in parts]),
        )

    def min_per_pair(self) -> "WeightedEdgeSet":
        """Keep only the lightest edge for each (tail, head) pair."""
        if len(self) == 0:
            return self
        return WeightedEdgeSet(*_sorted_unique(*self._columns(), key_columns=2))

    def scaled(self, factor: int) -> "WeightedEdgeSet":
        if factor == 1 or len(self) == 0:
            return self
        return WeightedEdgeSet(self.tails, self.heads, (self.lengths * factor).copy())


@dataclass(frozen=True, eq=False)
class EdgeSet(_EdgeRows):
    """A shortcut: unweighted extra edges, as canonical (tail, head) rows."""

    tails: np.ndarray
    heads: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        return cls.from_arrays(*_columns_of(pairs, 2))

    def with_unit_lengths(self) -> WeightedEdgeSet:
        return WeightedEdgeSet(
            self.tails.copy(), self.heads.copy(), np.ones(len(self), dtype=_INT)
        )


# ---------------------------------------------------------------------------
# distance primitives


def dist_all_pairs(g: DiGraph, extra: Optional[WeightedEdgeSet] = None) -> np.ndarray:
    """Exact all-pairs distances of G (optionally G union extra), inf when
    unreachable."""
    return dist_from_sources(g, None, extra=extra)


def dist_from_sources(
    g: DiGraph,
    sources: Optional[Sequence[int]],
    extra: Optional[WeightedEdgeSet] = None,
) -> np.ndarray:
    gu = g.with_extra(extra)
    if gu.vertex_count == 0:
        k = 0 if sources is None else len(sources)
        return np.zeros((k, 0))
    indices = None if sources is None else np.asarray(sources, dtype=_INT)
    return dijkstra(gu._csr, directed=True, indices=indices)


def hop_limited_dist(
    g: DiGraph,
    extra: Optional[WeightedEdgeSet],
    h: int,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """h-restricted distances of G union extra, by h rounds of synchronous
    relaxation over all edges (self-loops skipped).

    The union graph's reverse CSR lists each head's in-edges, the lightest
    per (tail, head) pair, so each round takes the minimum over every head's
    in-edges with one reduceat. Monotone nonincreasing in h, and equal to
    dist_all_pairs once h >= n - 1 on the union graph.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    gu = g.with_extra(extra)
    n = gu.vertex_count
    sources = np.arange(n, dtype=_INT) if sources is None else np.asarray(sources, dtype=_INT)
    dist = np.full((len(sources), n), INF)
    dist[np.arange(len(sources)), sources] = 0.0
    rev = gu._csr_rev
    if rev.nnz == 0:
        return dist
    tails, weights = rev.indices, rev.data[:, None]
    targets = np.flatnonzero(np.diff(rev.indptr))
    starts = rev.indptr[targets]
    dist_t = np.ascontiguousarray(dist.T)  # (vertex, source): rows gather fast
    for _ in range(h):
        best = np.minimum.reduceat(dist_t[tails] + weights, starts, axis=0)
        old = dist_t[targets]
        if not (best < old).any():
            break
        dist_t[targets] = np.minimum(old, best)
    return dist_t.T.copy()


def scc_topological(g: DiGraph) -> list[tuple[int, ...]]:
    """Strongly connected components as sorted vertex tuples, in a
    topological order of the condensation."""
    n = g.vertex_count
    if n == 0:
        return []
    z, labels = connected_components(g._csr, connection="strong", directed=True)
    # the vertices by component, each component's ascending
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=z)).tolist()
    starts = [0] + ends[:-1]
    order = _topo_order_of_components(*_condensation_succs(labels, z, g.tails, g.heads))
    return [tuple(members[starts[c] : ends[c]]) for c in order]


def _condensation_succs(
    labels: np.ndarray, z: int, tails: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated successor lists of the condensation in CSR form: the
    successors of component c are succ[ptr[c]:ptr[c + 1]], ascending."""
    lt, lh = labels[tails], labels[heads]
    cross = lt != lh
    # one sorted 1-D key per pair; sorting it orders pairs by (tail, head)
    key = np.sort(lt[cross].astype(_INT) * z + lh[cross])
    if len(key):
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    ptr = np.searchsorted(key, np.arange(z + 1, dtype=_INT) * z)
    return ptr, key % z


def _topo_order_of_components(ptr: np.ndarray, succ: np.ndarray) -> list[int]:
    z = len(ptr) - 1
    indeg = np.bincount(succ, minlength=z)
    # smallest-label-first Kahn keeps the order deterministic
    ready = np.flatnonzero(indeg == 0).tolist()
    heapq.heapify(ready)
    order = []
    while ready:
        c = heapq.heappop(ready)
        order.append(c)
        s = succ[ptr[c] : ptr[c + 1]]
        if len(s):
            indeg[s] -= 1  # no repeats: successor lists are deduplicated
            for t in s[indeg[s] == 0].tolist():
                heapq.heappush(ready, t)
    if len(order) != z:
        raise AssertionError("condensation was not acyclic")
    return order


def condensation_closure(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Strong-component labels of g and the vertex sets its components
    reach: u reaches v exactly when bit v of rows[labels[u]] is set. Built
    by _closure on first use and kept on g, both arrays read-only.

    rows is z x ceil(n/8) uint8 for z components, packed as
    np.packbits(..., bitorder="little") packs: vertex v is bit v & 7 of
    byte v >> 3. scipy's labels come from a Tarjan-style search, which
    finishes every component after its successors, so each condensation
    edge points to a smaller label and ascending label order is a reverse
    topological order (Purdom's closure order). That is checked on every
    call; when it fails, the rows are ORed in the reverse of
    _topo_order_of_components instead, with the same result. Each row is a
    Python int while it is ORed, and only components with successors are
    visited.
    """
    return g._derived("closure", _closure)


def _closure(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    n = g.vertex_count
    z, labels = connected_components(g._csr, connection="strong", directed=True)
    ptr, succ = _condensation_succs(labels, z, g.tails, g.heads)
    if (succ < np.repeat(np.arange(z), np.diff(ptr))).all():
        order = range(z)
    else:
        order = reversed(_topo_order_of_components(ptr, succ))
    rows = [0] * z
    for v, c in enumerate(labels.tolist()):
        rows[c] |= 1 << v
    p, s = ptr.tolist(), succ.tolist()
    for c in order:
        if p[c] < p[c + 1]:
            r = rows[c]
            for t in s[p[c] : p[c + 1]]:
                r |= rows[t]
            rows[c] = r
    width = (n + 7) // 8
    packed = b"".join([r.to_bytes(width, "little") for r in rows])
    labels.setflags(write=False)
    return labels, np.frombuffer(packed, dtype=np.uint8).reshape(z, width)


def pairs_reachable(g: DiGraph, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """For each i, does tails[i] reach heads[i] in g?"""
    if len(tails) == 0:
        return np.ones(0, dtype=bool)
    labels, rows = condensation_closure(g)
    heads = np.asarray(heads, dtype=_INT)
    return (rows[labels[tails], heads >> 3] >> (heads & 7) & 1).astype(bool)


def strong_diameter(g: DiGraph, s: Iterable[int]) -> float:
    """Max pairwise distance within s, measured in the induced subgraph."""
    verts = sorted(set(int(v) for v in s))
    if not verts:
        raise ValueError("vertex set must be nonempty")
    sub, _ = induced_subgraph(g, verts)
    dist = dist_all_pairs(sub)
    m = dist.max()
    return float(m) if not np.isfinite(m) else int(m)


def induced_subgraph(g: DiGraph, vertices: Sequence[int]) -> tuple[DiGraph, np.ndarray]:
    """Induced subgraph on the given vertices (repeats taken once), relabeled
    to [0, k) in ascending order: original_ids[i] is the parent id of
    subgraph vertex i."""
    sub, ids, _ = group_blocks(g, [sorted(set(int(v) for v in vertices))])
    return sub, ids


def group_blocks(
    g: DiGraph, groups: Sequence[Sequence[int]]
) -> tuple[DiGraph, np.ndarray, np.ndarray]:
    """The subgraphs g induces on disjoint vertex groups, as one graph laid
    out group after group, each group's vertices in the order given: ids[i]
    is the vertex of g behind vertex i, and edges[j] the edge of g behind
    edge j. The edges are grouped by group, each group's in g's order.
    Raises ValueError for a vertex outside [0, n) or listed twice."""
    n = g.vertex_count
    sizes = [len(group) for group in groups]
    ids = np.fromiter(chain.from_iterable(groups), dtype=_INT, count=sum(sizes))
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise ValueError("vertex id out of range")
    block = np.full(n, -1, dtype=_INT)
    block[ids] = np.repeat(np.arange(len(groups), dtype=_INT), sizes)
    if np.count_nonzero(block >= 0) != len(ids):
        raise ValueError("vertex listed twice")
    pos = np.empty(n, dtype=_INT)
    pos[ids] = np.arange(len(ids), dtype=_INT)
    bt = block[g.tails]
    edges = np.flatnonzero((bt >= 0) & (bt == block[g.heads]))
    edges = edges[np.argsort(bt[edges], kind="stable")]
    graph = DiGraph(
        len(ids), pos[g.tails[edges]], pos[g.heads[edges]], g.lengths[edges], g.max_length_bound
    )
    return graph, ids, edges


def reachable_pairs(g: DiGraph) -> EdgeSet:
    """All ordered pairs (u, v), u != v, with u reaching v: the transitive
    closure minus the diagonal, in canonical (tail, head) order.

    Unpacks the closure rows of blocks of vertices, at most _BLOCK_CELLS
    bool cells (and at least one vertex) per block, so the n x n mask is
    never held at once.
    """
    labels, rows = condensation_closure(g)
    n = g.vertex_count
    block = max(1, _BLOCK_CELLS // max(n, 1))
    t_parts, h_parts = [], []
    for start in range(0, n, block):
        reach = np.unpackbits(
            rows[labels[start : start + block]], axis=1, count=n, bitorder="little"
        ).view(bool)
        k = len(reach)
        reach[np.arange(k), np.arange(start, start + k)] = False
        t, h = np.nonzero(reach)
        t_parts.append(t + start)
        h_parts.append(h)
    if not t_parts:
        return EdgeSet.empty()
    return EdgeSet(
        np.concatenate(t_parts).astype(_INT, copy=False),
        np.concatenate(h_parts).astype(_INT, copy=False),
    )
