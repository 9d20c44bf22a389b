"""Directed graphs with positive integer edge lengths, plus the distance,
diameter and reachability primitives everything else is built on.

Distances are kept as float64 matrices with ``numpy.inf`` as the
unreachable sentinel; all finite entries are exact integers (edge lengths
are bounded by N which is polynomial in n, far below 2**53).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

INF = np.inf

_INT = np.int64


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=_INT)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


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
        triples = list(edges)
        if triples:
            t, h, w = (np.array(col, dtype=_INT) for col in zip(*triples))
        else:
            t = h = w = np.empty(0, dtype=_INT)
        if max_length_bound is None:
            max_length_bound = int(w.max()) if len(w) else 1
        return cls(vertex_count, t, h, w, max_length_bound)

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
        return _min_csr(self.vertex_count, self.heads, self.tails, self.lengths)

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
    if not keep.any():
        return sp.csr_matrix((n, n))
    # one row per (tail, head) pair, the lightest, already in CSR order
    t, h, w = _sorted_unique(tails[keep], heads[keep], lengths[keep], key_columns=2)
    indptr = np.searchsorted(t, np.arange(n + 1, dtype=_INT))
    return sp.csr_matrix((w.astype(np.float64), h, indptr), shape=(n, n))


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


@dataclass(frozen=True)
class WeightedEdgeSet:
    """A hopset: weighted extra edges over some graph's vertex set.

    Stored canonically as lexicographically sorted unique (tail, head,
    length) triples, so equal sets compare equal and file dumps are
    byte-stable.
    """

    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        for name in ("tails", "heads", "lengths"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def empty(cls) -> "WeightedEdgeSet":
        z = np.empty(0, dtype=_INT)
        return cls(z, z.copy(), z.copy())

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "WeightedEdgeSet":
        rows = list(triples)
        if not rows:
            return cls.empty()
        t, h, w = (np.array(col, dtype=_INT) for col in zip(*rows))
        return cls.from_arrays(t, h, w)

    @classmethod
    def from_arrays(cls, tails, heads, lengths) -> "WeightedEdgeSet":
        t = _as_int_array(tails, "tails")
        h = _as_int_array(heads, "heads")
        w = _as_int_array(lengths, "lengths")
        return cls(*_sorted_unique(t, h, w))

    def __len__(self) -> int:
        return len(self.tails)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for t, h, w in zip(self.tails, self.heads, self.lengths):
            yield (int(t), int(h), int(w))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedEdgeSet):
            return NotImplemented
        return (
            np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
            and np.array_equal(self.lengths, other.lengths)
        )

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
        return WeightedEdgeSet(
            *_sorted_unique(self.tails, self.heads, self.lengths, key_columns=2)
        )

    def scaled(self, factor: int) -> "WeightedEdgeSet":
        if factor == 1 or len(self) == 0:
            return self
        return WeightedEdgeSet(self.tails, self.heads, (self.lengths * factor).copy())


@dataclass(frozen=True)
class EdgeSet:
    """A shortcut: unweighted extra edges, canonically sorted and unique."""

    tails: np.ndarray
    heads: np.ndarray

    def __post_init__(self):
        self.tails.setflags(write=False)
        self.heads.setflags(write=False)

    @classmethod
    def empty(cls) -> "EdgeSet":
        z = np.empty(0, dtype=_INT)
        return cls(z, z.copy())

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        rows = list(pairs)
        if not rows:
            return cls.empty()
        t, h = (np.array(col, dtype=_INT) for col in zip(*rows))
        return cls.from_arrays(t, h)

    @classmethod
    def from_arrays(cls, tails, heads) -> "EdgeSet":
        t = _as_int_array(tails, "tails")
        h = _as_int_array(heads, "heads")
        return cls(*_sorted_unique(t, h))

    def __len__(self) -> int:
        return len(self.tails)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for t, h in zip(self.tails, self.heads):
            yield (int(t), int(h))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return np.array_equal(self.tails, other.tails) and np.array_equal(
            self.heads, other.heads
        )

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
    limit: float = INF,
) -> np.ndarray:
    gu = g.with_extra(extra)
    if gu.vertex_count == 0:
        k = 0 if sources is None else len(sources)
        return np.zeros((k, 0))
    indices = None if sources is None else np.asarray(sources, dtype=_INT)
    return dijkstra(gu._csr, directed=True, indices=indices, limit=limit)


def hop_limited_dist(
    g: DiGraph,
    extra: Optional[WeightedEdgeSet],
    h: int,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """h-restricted distances of G union extra, by h rounds of synchronous
    relaxation over all edges (self-loops skipped).

    Edges are sorted by head once, so each round takes the minimum over
    every head's in-edges with one reduceat. Monotone nonincreasing in h,
    and equal to dist_all_pairs once h >= n - 1 on the union graph.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    gu = g.with_extra(extra)
    n = gu.vertex_count
    if sources is None:
        sources = np.arange(n, dtype=_INT)
    else:
        sources = np.asarray(sources, dtype=_INT)
    dist = np.full((len(sources), n), INF)
    dist[np.arange(len(sources)), sources] = 0.0
    keep = gu.tails != gu.heads
    if not keep.any():
        return dist
    order = np.argsort(gu.heads[keep], kind="stable")
    tails = gu.tails[keep][order]
    heads = gu.heads[keep][order]
    weights = gu.lengths[keep][order].astype(np.float64)[:, None]
    starts = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
    targets = heads[starts]
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
    comps = [np.flatnonzero(labels == c) for c in range(z)]
    order = _topo_order_of_components(*_condensation_succs(labels, z, g.tails, g.heads))
    return [tuple(int(v) for v in comps[c]) for c in order]


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
    """Strong-component labels of g and the reachability closure of its
    condensation: u reaches v exactly when reach[labels[u], labels[v]].

    reach is z x z for z components, so it stays small when the vertex
    closure itself is dense.
    """
    if g.vertex_count == 0:
        return np.empty(0, dtype=_INT), np.zeros((0, 0), dtype=bool)
    z, labels = connected_components(g._csr, connection="strong", directed=True)
    ptr, succ = _condensation_succs(labels, z, g.tails, g.heads)
    reach = np.eye(z, dtype=bool)
    for c in reversed(_topo_order_of_components(ptr, succ)):
        if ptr[c + 1] > ptr[c]:
            reach[c] |= reach[succ[ptr[c] : ptr[c + 1]]].any(axis=0)
    return labels, reach


def pairs_reachable(g: DiGraph, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """For each i, does tails[i] reach heads[i] in g?"""
    if len(tails) == 0:
        return np.ones(0, dtype=bool)
    labels, reach = condensation_closure(g)
    return reach[labels[tails], labels[heads]]


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
    """Induced subgraph on the given vertices, relabeled to [0, k).

    Returns (subgraph, original_ids) where original_ids[i] is the parent id
    of subgraph vertex i.
    """
    ids = np.asarray(sorted(set(int(v) for v in vertices)), dtype=_INT)
    pos = np.full(g.vertex_count, -1, dtype=_INT)
    pos[ids] = np.arange(len(ids))
    keep = (pos[g.tails] >= 0) & (pos[g.heads] >= 0)
    sub = DiGraph(
        len(ids),
        pos[g.tails[keep]].copy(),
        pos[g.heads[keep]].copy(),
        g.lengths[keep].copy(),
        g.max_length_bound,
    )
    return sub, ids


def reachable_pairs(g: DiGraph) -> EdgeSet:
    """All ordered pairs (u, v), u != v, with u reaching v: the transitive
    closure minus the diagonal, in canonical (tail, head) order.

    Expands the condensation closure in row blocks of at most
    max(z * z, n) cells, so the n x n mask is never held at once when the
    z x z closure is smaller.
    """
    labels, reach = condensation_closure(g)
    n, z = g.vertex_count, len(reach)
    rows = max(1, z * z // max(n, 1))
    t_parts, h_parts = [], []
    for start in range(0, n, rows):
        block = reach[labels[start : start + rows]][:, labels]
        k = len(block)
        block[np.arange(k), np.arange(start, start + k)] = False
        t, h = np.nonzero(block)
        t_parts.append(t + start)
        h_parts.append(h)
    if not t_parts:
        return EdgeSet.empty()
    return EdgeSet(
        np.concatenate(t_parts).astype(_INT, copy=False),
        np.concatenate(h_parts).astype(_INT, copy=False),
    )
