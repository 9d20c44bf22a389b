"""Randomized directed low-diameter decomposition.

Splits a digraph into topologically ordered strongly connected pieces of
weak diameter at most d by removing a small random set of edges. Balls are
grown with depth-bounded searches (integer-weighted edges behave like
chains of unit edges, so a bounded BFS and a bounded Dijkstra agree);
edges longer than the radius are simply never traversed.

Every recursive piece is a vertex subset of the one input graph: the
forward and reverse adjacency are built once per decomposition, and each
recursion node restricts its searches to its own vertex set instead of
building a subgraph.

The recursion derives child randomness by splitting the parent seed with
the child's branch label, so the two recursive branches are independent of
evaluation order. A node holds only its seed's spawn key, and builds the
SeedSequence when it reaches its draws: many nodes never draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .graphs import DiGraph, induced_subgraph, scc_topological

_INT = np.int64

# adjacency[u] lists (length, successors) pairs, lengths ascending
_Adjacency = list[list[tuple[int, frozenset[int]]]]


@dataclass(frozen=True)
class LddParams:
    """d: diameter target; c: sampling constant; seed: base RNG seed."""

    d: int
    c: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.c < 1:
            raise ValueError("c must be at least 1")


@dataclass(frozen=True)
class LddResult:
    """Removed edge indices (into the input graph's edge arrays) plus the
    ordered component list."""

    removed_edges: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    def removed_mask(self, g: DiGraph) -> np.ndarray:
        mask = np.zeros(g.edge_count, dtype=bool)
        if self.removed_edges:
            mask[np.asarray(self.removed_edges, dtype=_INT)] = True
        return mask

    def remaining_graph(self, g: DiGraph) -> DiGraph:
        return g.edge_subset(~self.removed_mask(g))


def _adjacency(mat: sp.csr_matrix, max_length: int) -> _Adjacency:
    """Successor sets of a min-length CSR matrix, grouped by edge length;
    edges longer than max_length (the largest search radius) are left out."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n, dtype=_INT), np.diff(mat.indptr))
    lengths = mat.data.astype(_INT)
    short = lengths <= max_length
    rows, lengths, heads = rows[short], lengths[short], mat.indices[short]
    order = np.lexsort((heads, lengths, rows))
    rows, lengths, heads = rows[order], lengths[order], heads[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (lengths[1:] != lengths[:-1])
    starts = np.flatnonzero(new).tolist()
    heads_l, rows_l, lengths_l = heads.tolist(), rows.tolist(), lengths.tolist()
    adj: _Adjacency = [[] for _ in range(n)]
    for s, e in zip(starts, starts[1:] + [len(rows)]):
        adj[rows_l[s]].append((lengths_l[s], frozenset(heads_l[s:e])))
    return adj


def _bounded_ball(adj: _Adjacency, src: int, radius: int, piece: set[int]) -> set[int]:
    """Vertices of piece within distance radius of src, travelling only
    inside piece. Dial's buckets: lengths are positive integers, so bucket t
    is final once every lower bucket has been expanded."""
    seen: set[int] = set()
    buckets: list[Optional[set[int]]] = [None] * (radius + 1)
    buckets[0] = {src}
    last = t = 0
    while t <= last:
        bucket = buckets[t]
        if bucket is not None:
            layer = (bucket & piece) - seen
            seen |= layer
            for u in layer:
                for w, succ in adj[u]:
                    tw = t + w
                    if tw > radius:
                        break
                    if buckets[tw] is None:
                        buckets[tw] = set(succ)
                        if tw > last:
                            last = tw
                    else:
                        buckets[tw] |= succ
        t += 1
    return seen


def ball(g: DiGraph, v: int, radius: int, direction: str, within=None) -> set[int]:
    """Vertices within (in/out) distance radius of v. With ``within`` (a
    vertex collection containing v), distances are those of the subgraph
    induced on it."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    piece = set(range(g.vertex_count)) if within is None else {int(u) for u in within}
    if v not in piece:
        raise ValueError("v must be a vertex of within")
    adj = _adjacency(g._csr if direction == "out" else g._csr_rev, radius)
    return _bounded_ball(adj, int(v), radius, piece)


def find_balanced_set(
    g: DiGraph,
    v_prime,
    params: LddParams,
    direction: str,
    rng: np.random.Generator,
) -> set[int]:
    """Grow balls of truncated-geometric radii around v_prime (visited in a
    seeded random order) until the union exceeds a tenth of the vertices,
    or v_prime is exhausted."""
    verts = np.asarray(sorted(set(int(v) for v in v_prime)), dtype=_INT)
    adj = _adjacency(g._csr if direction == "out" else g._csr_rev, params.d // 4)
    ids = np.arange(g.vertex_count, dtype=_INT)
    mask = _find_balanced_local(adj, ids, set(ids.tolist()), verts, params.d, params.c, rng)
    return {int(v) for v in np.flatnonzero(mask)}


def _geom_p(c: int, d: int, n: int) -> float:
    return min(c * math.log2(max(n, 2)) / d, 1.0)


def _local(ids: np.ndarray, verts) -> np.ndarray:
    """Positions in the sorted id array ids of the given member vertices."""
    return ids.searchsorted(np.fromiter(verts, dtype=_INT, count=len(verts)))


def _find_balanced_local(
    adj: _Adjacency,
    ids: np.ndarray,
    piece: set[int],
    verts: np.ndarray,
    d: int,
    c: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """FindBalancedSet on the piece with sorted vertex ids ``ids`` (and
    member set ``piece``); verts are centers as positions in ids. Returns a
    bool membership mask over those positions."""
    nv = len(ids)
    covered = np.zeros(nv, dtype=bool)
    if len(verts) == 0:
        return covered
    # uniformly random processing order; a fixed order degenerates on path
    # graphs (every ball union becomes a prefix and nothing is ever cut)
    verts = rng.permutation(verts)
    cap = d // 4
    if cap >= 1:
        radii = np.minimum(rng.geometric(_geom_p(c, d, nv), size=len(verts)), cap)
    else:
        radii = np.zeros(len(verts), dtype=_INT)
    union: set[int] = set()
    for v, r in zip(ids[verts].tolist(), radii.tolist()):
        union |= _bounded_ball(adj, v, r, piece)
        if 10 * len(union) > nv:
            break
    covered[_local(ids, union)] = True
    return covered


def low_diameter_decomposition(
    g: DiGraph,
    params: LddParams,
    seed_seq: Optional[np.random.SeedSequence] = None,
) -> LddResult:
    """Decompose g into topologically ordered SCC-shaped components of weak
    diameter at most params.d; returns the removed edges alongside.

    Deterministic given (params.seed, params.c, params.d).
    """
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(params.seed)
    if g.vertex_count == 0:
        return LddResult((), ())
    ids = np.arange(g.vertex_count, dtype=_INT)
    edge_idx = np.arange(g.edge_count, dtype=_INT)
    # no search reaches further than d/2
    adj = (_adjacency(g._csr, params.d // 2), _adjacency(g._csr_rev, params.d // 2))
    # the root's children get the keys seed_seq.spawn(2) would hand out
    # (seed_seq itself is left unchanged)
    seed = _Seed(
        seed_seq.entropy,
        tuple(seed_seq.spawn_key),
        seed_seq.pool_size,
        seed_seq.n_children_spawned,
    )
    removed, coarse = _decompose(g, adj, ids, edge_idx, params.d, params.c, seed)
    removed_arr = (
        np.unique(np.concatenate(removed)) if removed else np.empty(0, dtype=_INT)
    )
    components = _refine_to_sccs(g, removed_arr, coarse)
    return LddResult(
        tuple(removed_arr.tolist()),
        tuple(components),
    )


class _Seed(NamedTuple):
    """What a SeedSequence is made from: child i gets spawn key
    spawn_key + (first_child + i,), exactly as SeedSequence.spawn numbers
    them."""

    entropy: object
    spawn_key: tuple[int, ...]
    pool_size: int
    first_child: int = 0

    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            self.entropy, spawn_key=self.spawn_key, pool_size=self.pool_size
        )

    def child(self, i: int) -> "_Seed":
        return _Seed(self.entropy, self.spawn_key + (self.first_child + i,), self.pool_size)


def _decompose(
    g: DiGraph,
    adj: tuple[_Adjacency, _Adjacency],
    ids: np.ndarray,
    edge_idx: np.ndarray,
    d: int,
    c: int,
    seed: _Seed,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Recursive worker on the piece with sorted vertex ids ``ids``, whose
    internal edges are ``edge_idx``; adj is the (forward, reverse)
    adjacency of all of g. Returns (removed edge-index chunks, ordered
    coarse vertex groups as global-id arrays)."""
    nv = len(ids)
    if nv == 0:
        return [], []
    if nv == 1 or len(edge_idx) == 0:
        # no internal edges left: nothing to remove, refinement will split
        # the group into singletons
        return [], [ids]
    piece = set(ids.tolist())

    # Trivial accept: if every vertex is within d/2 of the lowest-id one in
    # both directions, the whole set already has weak diameter at most d
    # (route any pair through that vertex), so recursing further would only
    # remove edges for nothing.
    if _within_both_ways(adj, int(ids[0]), d // 2, piece, piece):
        return [], [ids]

    rng = np.random.default_rng(seed.sequence())
    fwd, rev = adj
    lt = ids.searchsorted(g.tails[edge_idx])
    lh = ids.searchsorted(g.heads[edge_idx])

    # Phase 1: light/heavy marking from sampled ball membership counts.
    # s lies in Ball_in(v, r) iff v lies in Ball_out(s, r), and vice versa
    r4 = d // 4
    n_samples = max(1, math.ceil(c * math.log2(max(nv, 2))))
    counts = np.bincount(rng.integers(0, nv, size=n_samples), minlength=nv)
    uniq = np.flatnonzero(counts)
    in_hits: list[int] = []
    out_hits: list[int] = []
    for s, k in zip(ids[uniq].tolist(), counts[uniq].tolist()):
        in_hits += list(_bounded_ball(fwd, s, r4, piece)) * k
        out_hits += list(_bounded_ball(rev, s, r4, piece)) * k
    in_count = np.bincount(_local(ids, in_hits), minlength=nv)
    out_count = np.bincount(_local(ids, out_hits), minlength=nv)
    in_light = 5 * in_count <= 3 * n_samples
    out_light = ~in_light & (5 * out_count <= 3 * n_samples)

    # Phase 2: balanced sets with light boundaries. A_in grows in-balls
    # (reverse graph) around in-light centers, A_out grows out-balls.
    a_in = _find_balanced_local(rev, ids, piece, np.flatnonzero(in_light), d, c, rng)
    a_out = _find_balanced_local(fwd, ids, piece, np.flatnonzero(out_light), d, c, rng)
    rem_in = edge_idx[a_in[lh] & ~a_in[lt]]   # edges entering A_in
    rem_out = edge_idx[a_out[lt] & ~a_out[lh]]  # edges leaving A_out

    # Case 1: one side is balanced; split and recurse.
    for star, a_mask, rem in (("in", a_in, rem_in), ("out", a_out, rem_out)):
        size = int(a_mask.sum())
        if 10 * size > nv and 10 * size <= 9 * nv:
            inner = edge_idx[a_mask[lt] & a_mask[lh]]
            outer = edge_idx[~a_mask[lt] & ~a_mask[lh]]
            r1, v1 = _decompose(g, adj, ids[a_mask], inner, d, c, seed.child(0))
            r2, v2 = _decompose(g, adj, ids[~a_mask], outer, d, c, seed.child(1))
            groups = v1 + v2 if star == "in" else v2 + v1
            return [rem] + r1 + r2, groups

    # Clean up: the untouched middle must sit within d/2 of one vertex.
    mid_ids = ids[~(a_in | a_out)]
    ok = 2 * (nv - len(mid_ids)) < nv
    if ok and len(mid_ids):
        u = int(mid_ids[0])  # lowest-id choice keeps this deterministic
        ok = _within_both_ways(adj, u, d // 2, piece, set(mid_ids.tolist()))
    if not ok:
        # give up on this subproblem: drop every edge, singleton components
        return [edge_idx], [ids[i : i + 1] for i in range(nv)]

    # Case 2: both sides small; middle becomes its own ordered block.
    a_rest = a_out & ~a_in
    in_edges = edge_idx[a_in[lt] & a_in[lh]]
    rest_edges = edge_idx[a_rest[lt] & a_rest[lh]]
    r1, v1 = _decompose(g, adj, ids[a_in], in_edges, d, c, seed.child(0))
    r2, v2 = _decompose(g, adj, ids[a_rest], rest_edges, d, c, seed.child(1))
    groups = v1 + ([mid_ids] if len(mid_ids) else []) + v2
    return [rem_in, rem_out] + r1 + r2, groups


def _within_both_ways(
    adj: tuple[_Adjacency, _Adjacency],
    u: int,
    radius: int,
    piece: set[int],
    targets: set[int],
) -> bool:
    """Is every vertex of targets within distance radius of u and u within
    radius of it, measured inside piece?"""
    fwd, rev = adj
    return targets <= _bounded_ball(fwd, u, radius, piece) and targets <= _bounded_ball(
        rev, u, radius, piece
    )


def _refine_to_sccs(
    g: DiGraph, removed: np.ndarray, coarse: list[np.ndarray]
) -> list[tuple[int, ...]]:
    """Split each coarse group into the strongly connected components of
    G - E^rem it contains, keeping a valid topological order overall."""
    keep = np.ones(g.edge_count, dtype=bool)
    keep[removed] = False
    remaining = g.edge_subset(keep)
    out: list[tuple[int, ...]] = []
    for group in coarse:
        if len(group) <= 1:
            out.append(tuple(int(v) for v in group))
            continue
        sub, orig = induced_subgraph(remaining, group)
        for comp in scc_topological(sub):
            out.append(tuple(int(orig[v]) for v in comp))
    return out


def estimate_removal_probability(
    g: DiGraph, params: LddParams, trials: int
) -> np.ndarray:
    """Per-edge empirical frequency of removal over independent seeded runs."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    freq = np.zeros(g.edge_count)
    for t in range(trials):
        res = low_diameter_decomposition(
            g, params, seed_seq=np.random.SeedSequence(params.seed, spawn_key=(t,))
        )
        if res.removed_edges:
            freq[np.asarray(res.removed_edges, dtype=_INT)] += 1.0
    return freq / trials
