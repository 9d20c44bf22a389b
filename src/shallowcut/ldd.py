"""Randomized directed low-diameter decomposition.

Splits a digraph into topologically ordered strongly connected pieces of
weak diameter at most d by removing a small random set of edges. Its
inputs are d and the caller's SeedSequence, nothing else: the sampling
constant is the analysis's c = 2 (c log n samples per node, ball radii
geometric with parameter c log n / d), and it picks no seed of its own.
Balls are grown with depth-bounded searches (integer-weighted edges behave
like chains of unit edges, so a bounded BFS and a bounded Dijkstra agree);
edges longer than the radius are simply never traversed.

Every recursive piece is a vertex subset of the one input graph, held as a
Python-int bitmask over global vertex ids: pieces, balls, balanced-set
unions and the light/heavy marks are masks, so membership, union and
intersection are word operations and ``int.bit_count`` is a set's size.
The adjacency lists each vertex's (length, successor mask) pairs, lengths
ascending, with every edge longer than d/2 in one last entry that no search
takes. The first decomposition of a graph at a given d builds it, and it
stays on the graph for as long as the graph lives, for every later one at
that d (a phase's repetitions, removal trials). A node carries no edge
list: its edges are those of g with both ends in its piece, so the
adjacency and a mask of the self-loops tell whether it has any, and the
removed edges are read off once at the end, from the order of the coarse
groups and the few nodes that cut more (see _Decomposition.removed_edges).
Inside the recursion numpy makes only the pinned random draws.
A mask is as wide as the highest vertex id it holds, so each operation costs
up to n/64 machine words and a successor mask up to n bits: the layout pays
off up to a few thousand vertices, not on graphs of tens of thousands. The
(forward, reverse) adjacency of a 32,768-vertex unit path or cycle holds
about 150 MB, kept while the graph lives (a 16,384-vertex random graph with
3n edges: 53 MB). The pipeline (shallow_reduce.run_phase) decomposes one
strong component at a time, relabelled to ids 0..k-1, so there n is the
component's size: the acyclic parts of a graph reach no decomposition and
pay for no mask or adjacency.

The coarse groups the recursion emits are refined into strongly connected
components with one topological pass over the subgraphs the remaining
graph induces on them, laid out group after group as one graph.

The recursion derives child randomness by splitting the parent seed with
the child's branch label, so the two recursive branches are independent of
evaluation order. A node holds only the uint32 words its SeedSequence mixes
(the run entropy padded to the pool size, then the spawn-key words), and
builds the SeedSequence from them when it reaches its draws: many nodes
never draw, and the words give the same stream as the spawn key would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graphs import DiGraph, group_blocks, scc_topological

_INT = np.int64

# adjacency[u] lists (length, successor mask) pairs, lengths ascending
_Adjacency = list[list[tuple[int, int]]]

# masks with more members than this are listed through numpy
_DENSE = 32

# the analysis's sampling constant c
_C = 2


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


def _mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << int(v)
    return mask


def _bits(mask: int, n: int) -> np.ndarray:
    """Bool vector of length n: entry v is bit v of mask."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    if mask.bit_count() > _DENSE:
        return np.flatnonzero(_bits(mask, mask.bit_length())).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _adjacency(mat: sp.csr_matrix, max_length: int) -> _Adjacency:
    """Successor masks of a min-length CSR matrix, grouped by edge length,
    lengths ascending. The edges longer than max_length (the largest search
    radius) share one last entry of length max_length + 1, which no search
    traverses, so that every edge but a self-loop shows in the masks."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n, dtype=_INT), np.diff(mat.indptr))
    lengths = mat.data.astype(_INT)
    lengths[lengths > max_length] = max_length + 1
    heads = mat.indices
    order = np.lexsort((lengths, rows))
    rows, lengths, heads = rows[order], lengths[order], heads[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (lengths[1:] != lengths[:-1])
    starts = np.flatnonzero(new).tolist()
    # one (tail, head) pair per CSR entry, so summing distinct bits is an OR
    bit = (1).__lshift__
    heads_l, rows_l, lengths_l = heads.tolist(), rows.tolist(), lengths.tolist()
    adj: _Adjacency = [[] for _ in range(n)]
    for s, e in zip(starts, starts[1:] + [len(rows)]):
        adj[rows_l[s]].append((lengths_l[s], sum(map(bit, heads_l[s:e]))))
    return adj


def _graph_adjacency(g: DiGraph, d: int) -> tuple[_Adjacency, _Adjacency]:
    """The (forward, reverse) adjacency of g, built once per d and kept on
    g; no search reaches further than d/2."""
    r = d // 2
    return g._derived(("ldd", d), lambda g: (_adjacency(g._csr, r), _adjacency(g._csr_rev, r)))


def _ball(adj: _Adjacency, src: int, radius: int, piece: int) -> int:
    """Mask of the vertices of piece within distance radius of src,
    travelling only inside piece. Dial's buckets, kept by distance in a
    dict so that memory follows the distances queued, not the radius:
    lengths are positive integers, so the smallest queued distance is final
    once every smaller one has been expanded."""
    rest = piece ^ (1 << src)  # piece minus the vertices already settled
    pending = 0  # every vertex ever queued
    buckets: dict[int, int] = {}
    for w, succ in adj[src]:
        if w > radius:
            break
        if succ & rest:
            buckets[w] = succ
            pending |= succ
    # most balls end here, with no other vertex of the piece in reach; a
    # bucket's unsettled vertices are settled when it is reached, so the
    # search is over once nothing queued is unsettled
    while pending & rest:
        t = min(buckets)
        layer = buckets.pop(t) & rest
        if layer:
            rest ^= layer
            for u in _members(layer) if layer & (layer - 1) else (layer.bit_length() - 1,):
                for w, succ in adj[u]:
                    tw = t + w
                    if tw > radius:
                        break
                    buckets[tw] = buckets.get(tw, 0) | succ
                    pending |= succ
    return piece ^ rest


def ball(g: DiGraph, v: int, radius: int, direction: str, within=None) -> set[int]:
    """Vertices within (in/out) distance radius of v. With ``within`` (a
    vertex collection containing v), distances are those of the subgraph
    induced on it."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    n = g.vertex_count
    piece = (1 << n) - 1 if within is None else _mask(within) & ((1 << n) - 1)
    v = int(v)
    if v < 0 or not piece >> v & 1:
        raise ValueError("v must be a vertex of within")
    adj = _adjacency(g._csr if direction == "out" else g._csr_rev, radius)
    return set(_members(_ball(adj, v, radius, piece)))


def find_balanced_set(
    g: DiGraph, v_prime, d: int, direction: str, rng: np.random.Generator
) -> set[int]:
    """Grow balls of truncated-geometric radii around v_prime (visited in a
    seeded random order) until the union exceeds a tenth of the vertices,
    or v_prime is exhausted."""
    n = g.vertex_count
    adj = _adjacency(g._csr if direction == "out" else g._csr_rev, d // 4)
    return set(_members(_balanced(adj, (1 << n) - 1, n, _mask(v_prime), d, rng)))


def _balanced(
    adj: _Adjacency, piece: int, nv: int, centers: int, d: int, rng: np.random.Generator
) -> int:
    """FindBalancedSet on the piece (nv vertices) around the centers mask;
    returns the union of the balls grown."""
    if not centers:
        return 0
    # uniformly random processing order; a fixed order degenerates on path
    # graphs (every ball union becomes a prefix and nothing is ever cut)
    verts = _members(centers)
    rng.shuffle(verts)  # the draws rng.permutation makes
    cap = d // 4
    if cap >= 1:
        p = min(_C * math.log2(max(nv, 2)) / d, 1.0)
        radii = np.minimum(rng.geometric(p, size=len(verts)), cap).tolist()
    else:
        radii = [0] * len(verts)
    union = 0
    for v, r in zip(verts, radii):
        union |= _ball(adj, v, r, piece)
        if 10 * union.bit_count() > nv:
            break
    return union


def low_diameter_decomposition(
    g: DiGraph, d: int, seed_seq: np.random.SeedSequence
) -> LddResult:
    """Decompose g into topologically ordered SCC-shaped components of weak
    diameter at most d; returns the removed edges alongside.

    Deterministic given (g, d, seed_seq).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    n = g.vertex_count
    if n == 0:
        return LddResult((), ())
    run = _Decomposition(g, _graph_adjacency(g, d), d)
    run.node((1 << n) - 1, _Seed.of(seed_seq))
    groups = [_members(group) for group in run.groups]
    removed = run.removed_edges(groups)
    return LddResult(tuple(removed.tolist()), tuple(_refine_to_sccs(g, removed, groups)))


def _words(x: int) -> list[int]:
    """The uint32 words SeedSequence makes of a nonnegative int, least
    significant first (0 is one zero word)."""
    out = [x & 0xFFFFFFFF]
    x >>= 32
    while x:
        out.append(x & 0xFFFFFFFF)
        x >>= 32
    return out


def _entropy_words(entropy) -> list[int]:
    """The words of an int, or of each int of a (nested) sequence in turn."""
    if isinstance(entropy, (int, np.integer)):
        return _words(int(entropy))
    return [w for x in entropy for w in _entropy_words(x)]


class _Seed(NamedTuple):
    """The words a SeedSequence mixes: the run entropy padded to pool_size,
    then the spawn-key words. Child i gets spawn key spawn_key +
    (first_child + i,), exactly as SeedSequence.spawn numbers them."""

    words: list[int]
    pool_size: int
    first_child: int = 0

    @classmethod
    def of(cls, ss: np.random.SeedSequence) -> "_Seed":
        run = _entropy_words(ss.entropy)
        # SeedSequence pads only ahead of a spawn key; without one, the
        # mixing hashes a zero for every missing pool word all the same
        run += [0] * (ss.pool_size - len(run))
        key = [w for k in ss.spawn_key for w in _words(int(k))]
        return cls(run + key, ss.pool_size, ss.n_children_spawned)

    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            np.array(self.words, dtype=np.uint32), pool_size=self.pool_size
        )

    def child(self, i: int) -> "_Seed":
        return _Seed(self.words + _words(self.first_child + i), self.pool_size)


class _Decomposition:
    """One recursion over g. Each node is a piece (vertex mask); its edges
    are the edges of g with both ends in it. Nodes append their coarse
    vertex groups (masks) to ``groups`` in topological order, and record
    the removals that do not point backwards in that order: the pieces that
    gave up, and each case-2 node's (a_out, piece)."""

    def __init__(self, g: DiGraph, adj: tuple[_Adjacency, _Adjacency], d: int):
        self.g = g
        self.fwd, self.rev = adj
        self.loops = _mask(g.tails[g.tails == g.heads].tolist())
        self.d = d
        self.groups: list[int] = []
        self.gave_up: list[int] = []
        self.case_two: list[tuple[int, int]] = []

    def has_edge_inside(self, piece: int) -> bool:
        """Does g have an edge with both ends in piece? Vertex by vertex,
        lowest first, since a piece with an edge mostly shows one at once."""
        if piece & self.loops:
            return True
        rest = piece
        while rest:
            low = rest & -rest
            if any(succ & piece for _, succ in self.fwd[low.bit_length() - 1]):
                return True
            rest ^= low
        return False

    def within_both_ways(self, u: int, piece: int, targets: int) -> bool:
        """Is every vertex of targets within distance d/2 of u and u within
        d/2 of it, measured inside piece?"""
        r = self.d // 2
        return not (
            targets & ~_ball(self.fwd, u, r, piece) or targets & ~_ball(self.rev, u, r, piece)
        )

    def node(self, piece: int, seed: _Seed) -> None:
        nv = piece.bit_count()
        if nv <= 1 or not self.has_edge_inside(piece):
            # no internal edges left: nothing to remove, refinement will
            # split the group into singletons
            if piece:
                self.groups.append(piece)
            return
        d = self.d

        # Trivial accept: if every vertex is within d/2 of the lowest-id one
        # in both directions, the whole set already has weak diameter at
        # most d (route any pair through that vertex), so recursing further
        # would only remove edges for nothing.
        if self.within_both_ways((piece & -piece).bit_length() - 1, piece, piece):
            self.groups.append(piece)
            return

        rng = np.random.default_rng(seed.sequence())

        # Phase 1: light/heavy marking from sampled ball membership counts.
        # s lies in Ball_in(v, r) iff v lies in Ball_out(s, r), and vice
        # versa. The counts are bit-sliced: plane i holds bit i of each
        # vertex's count.
        r4 = d // 4
        n_samples = max(1, math.ceil(_C * math.log2(max(nv, 2))))
        ids = _members(piece)
        in_planes: list[int] = []
        out_planes: list[int] = []
        draws = rng.integers(0, nv, size=n_samples).tolist()
        for s in set(draws):
            into, out_of = _ball(self.fwd, ids[s], r4, piece), _ball(self.rev, ids[s], r4, piece)
            for _ in range(draws.count(s)):
                _count(in_planes, into)
                _count(out_planes, out_of)
        heavy = 3 * n_samples // 5  # light means 5 * count <= 3 * n_samples
        in_heavy = _above(in_planes, heavy)
        in_light = piece & ~in_heavy
        out_light = in_heavy & ~_above(out_planes, heavy)

        # Phase 2: balanced sets with light boundaries. A_in grows in-balls
        # (reverse graph) around in-light centers, A_out grows out-balls.
        # Case 1: one side is balanced; split on it and recurse. A split
        # ends the node's draws (children draw from their own seeds), so
        # A_out is only grown when A_in does not split.
        a_in = _balanced(self.rev, piece, nv, in_light, d, rng)
        if nv < 10 * a_in.bit_count() <= 9 * nv:
            self.split(piece, a_in, seed, into=True)
            return
        a_out = _balanced(self.fwd, piece, nv, out_light, d, rng)
        if nv < 10 * a_out.bit_count() <= 9 * nv:
            self.split(piece, a_out, seed, into=False)
            return

        # Clean up: the untouched middle must sit within d/2 of one vertex.
        mid = piece & ~(a_in | a_out)
        ok = 2 * (nv - mid.bit_count()) < nv
        if ok and mid:
            # lowest-id choice keeps this deterministic
            ok = self.within_both_ways((mid & -mid).bit_length() - 1, piece, mid)
        if not ok:
            # give up on this subproblem: drop every edge, singleton components
            self.gave_up.append(piece)
            self.groups.extend(1 << v for v in ids)
            return

        # Case 2: both sides small; middle becomes its own ordered block.
        # The edges leaving a_out within the piece are cut as well.
        self.case_two.append((a_out, piece))
        self.node(a_in, seed.child(0))
        if mid:
            self.groups.append(mid)
        self.node(a_out & ~a_in, seed.child(1))

    def split(self, piece: int, a: int, seed: _Seed, into: bool) -> None:
        """Recurse on a and on the rest of piece, in topological order: a
        first when the edges entering it (into) are cut, last when the edges
        leaving it are, so that the cut edges point backwards."""
        inside = (a, seed.child(0))
        outside = (piece & ~a, seed.child(1))
        # the children's seeds do not depend on the order they run in
        for child in (inside, outside) if into else (outside, inside):
            self.node(*child)

    def removed_edges(self, groups: list[list[int]]) -> np.ndarray:
        """The removed edges' indices, ascending, given the members of each
        coarse group: the edges that point backwards in the order of the
        groups, every edge inside a piece that gave up, and for each case-2
        node the edges from a_out into the rest of its piece."""
        g, n = self.g, self.g.vertex_count
        label = np.empty(n, dtype=_INT)
        label[np.fromiter(chain.from_iterable(groups), dtype=_INT, count=n)] = np.repeat(
            np.arange(len(groups), dtype=_INT), [len(group) for group in groups]
        )
        removed = label[g.tails] > label[g.heads]
        for piece in self.gave_up:
            inside = _bits(piece, n)
            removed |= inside[g.tails] & inside[g.heads]
        for a_out, piece in self.case_two:
            removed |= _bits(a_out, n)[g.tails] & _bits(piece & ~a_out, n)[g.heads]
        return np.flatnonzero(removed)


def _count(planes: list[int], mask: int) -> None:
    """Add one to the bit-sliced count of every vertex in mask: a ripple
    carry through the planes."""
    i = 0
    while mask:
        if i == len(planes):
            planes.append(mask)
            return
        carry = planes[i] & mask
        planes[i] ^= mask
        mask = carry
        i += 1


def _above(planes: list[int], k: int) -> int:
    """Mask of the vertices whose bit-sliced count exceeds k, comparing
    from the most significant plane down."""
    above, tied = 0, -1
    for i in range(max(len(planes), k.bit_length()) - 1, -1, -1):
        plane = planes[i] if i < len(planes) else 0
        if k >> i & 1:
            tied &= plane
        else:
            above |= tied & plane
            tied &= ~plane
    return above


def _refine_to_sccs(
    g: DiGraph, removed: np.ndarray, coarse: list[list[int]]
) -> list[tuple[int, ...]]:
    """Split each coarse group (its vertices, ascending) into the strongly
    connected components of G - E^rem it contains: the groups in turn, each
    group's components as scc_topological orders its induced subgraph alone.

    The groups are in topological order, so no cycle of G - E^rem leaves a
    group, and one scc_topological pass over the groups' blocks finds every
    component. scipy labels components as its searches, started at each
    unvisited vertex in index order, finish them, so each block gets one run
    of labels, and the smallest-label-first order lists the blocks in turn."""
    keep = np.ones(g.edge_count, dtype=bool)
    keep[removed] = False
    blocks, ids, _ = group_blocks(g.edge_subset(keep), coarse)
    ids = ids.tolist()
    return [tuple(ids[v] for v in comp) for comp in scc_topological(blocks)]


def estimate_removal_probability(g: DiGraph, d: int, trials: int, seed: int) -> np.ndarray:
    """Per-edge empirical frequency of removal over trials runs, run t seeded
    by spawn key (t,) of seed."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    freq = np.zeros(g.edge_count)
    for t in range(trials):
        res = low_diameter_decomposition(g, d, np.random.SeedSequence(seed, spawn_key=(t,)))
        if res.removed_edges:
            freq[np.asarray(res.removed_edges, dtype=_INT)] += 1.0
    return freq / trials
