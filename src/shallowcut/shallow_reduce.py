"""General-graph reduction: epochs of phases over scaled lengths.

Each phase targets paths whose length-to-hopbound ratio falls in one
dyadic band. It scales lengths down so those paths look short, splits the
graph with a low-diameter decomposition, force-bounds the strong diameter
of every piece with star edges, runs the clustered-DAG reduction, and
scales the resulting edges back up. Repetitions with fresh randomness are
unioned so that every fixed path is handled well by some sample.

The decomposition runs on each strong component of the scaled graph with
two or more vertices, on its own: the LDD's contract constrains only the
strong components of G - E^rem, and an edge between two strong components
of G lies on no cycle, so it is never cut. The k-th component in
topological order is seeded by spawn key (epoch, phase, repetition, 0, k);
the clustered-DAG reduction of the same repetition by (epoch, phase,
repetition, 1). On a DAG no decomposition runs at all.

A shortcut is the case with a single length scale. reduce_shortcut runs
the same epoch loop on the input with length bound 1 and eps = 1, so the
formulas give one phase per epoch, band 0 with sigma = 1 on the unscaled
working graph, and a lambda' with no eps factor.

Both modes stop by one rule. After each epoch the loop records the fewest
hops within which every reachable pair has a shortest path in G union H,
and it stops once that is at most h. In shortcut mode that is the hop
radius. In hopset mode each epoch checks H as kept, and an edge shorter
than its pair's distance in the input (inf when unreachable) raises
RuntimeError: nothing is repaired. Scaling up never shortens an edge
(sigma * ceil(l / (eps * 2^j)) >= l) and a star spoke is at least its
piece's weak diameter, so only a faulty oracle fails the check. Then
G union H has G's distances, and the rule holds exactly when every
reachable pair has an h-hop path of its true length: h-hop stretch 1.
Either target, once met, stays met, so later epochs could only add size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .dag_reduce import DagIterationRecord, reduce_clustered_dag
from .graphs import (
    _CELLS,
    DiGraph,
    EdgeSet,
    Record,
    WeightedEdgeSet,
    _distances,
    dist_all_pairs,
    group_blocks,
    scc_topological,
)
from .ldd import LddResult, low_diameter_decomposition
from .oracles import ShallowOracle, ShortcutOracleAdapter
from .verify import VerificationReport, _hop_radius

_INT = np.int64
# every integer up to this is exact in float64
_FLOAT_EXACT = 1 << 53


@dataclass(frozen=True)
class ReductionConfig:
    """The scalars of one reduction run."""

    lam: int
    h: int
    eps: Fraction = Fraction(1)
    seed: int = 0
    ldd_repetitions: Optional[int] = None

    def __post_init__(self):
        if self.lam < 2:
            raise ValueError("lambda must be at least 2")
        if self.h < 1:
            raise ValueError("h must be at least 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.ldd_repetitions is not None and self.ldd_repetitions < 1:
            raise ValueError("ldd_repetitions must be at least 1")

    def lambda_prime_unclamped(self, n: int) -> float:
        """lambda / log2(n)^2, times eps when eps <= 1."""
        log2n = math.log2(max(n, 2))
        raw = float(self.lam) / (log2n * log2n)
        if self.eps <= 1:
            raw *= float(self.eps)
        return raw

    def lambda_prime(self, n: int) -> float:
        """The epoch base: the unclamped formula, at least 2. The paper
        assumes lambda > log^3(n) * (1/eps^2 + 1), which keeps it above 2;
        desk-scale lambdas do not, hence the clamp, which the report records."""
        return max(self.lambda_prime_unclamped(n), 2.0)

    def epoch_count(self, n: int) -> int:
        if n < 2:
            return 1
        return math.ceil(math.log(n) / math.log(self.lambda_prime(n))) + 1

    def phase_count(self, max_length: int) -> int:
        return max(0, math.ceil(math.log2(max(max_length, 1)))) + 1

    def repetitions(self, n: int) -> int:
        if self.ldd_repetitions is not None:
            return self.ldd_repetitions
        return 4 * max(1, math.ceil(math.log2(max(n, 2))))


def phase_sigma(j: int, eps: Fraction) -> int:
    """sigma = ceil(eps * 2^j), the band's scale-up factor."""
    value = Fraction(eps) * (1 << j)
    return max(1, -(-value.numerator // value.denominator))


def scaled_length(length, j: int, eps: Fraction):
    """Band-j scaled-down length: ceil(length * min(1, 1/(eps * 2^j))), of
    one length or elementwise over an array of lengths."""
    if np.any(np.asarray(length) < 1):
        raise ValueError("length must be positive")
    if j < 0:
        raise ValueError("j must be nonnegative")
    factor = Fraction(eps) * (1 << j)
    if factor <= 1:
        return length
    num, den = factor.numerator, factor.denominator
    return (length * den + num - 1) // num


def scale_down_graph(g: DiGraph, j: int, eps: Fraction) -> DiGraph:
    """g with band-j scaled-down lengths. A band that does not scale
    (sigma = 1) gets g itself, so all such phases on g share what is kept
    on it: the strong parts and their LDD adjacency."""
    if phase_sigma(j, eps) == 1:
        return g
    lengths = np.asarray(scaled_length(g.lengths, j, eps), dtype=_INT)
    bound = int(lengths.max()) if len(lengths) else 1
    return DiGraph(g.vertex_count, g.tails, g.heads, lengths.copy(), max(bound, 1))


def build_stars(components, star_length: int) -> WeightedEdgeSet:
    """Bidirected star per multi-vertex component, centered at the lowest
    id, every spoke of the given length. Forces strong diameter at most
    2 * star_length without shrinking any distance."""
    if star_length < 1:
        raise ValueError("star_length must be at least 1")
    tails, heads = [], []
    for comp in components:
        if len(comp) < 2:
            continue
        verts = np.asarray(sorted(comp), dtype=_INT)
        center, others = verts[0], verts[1:]
        tails.append(np.full(len(others), center, dtype=_INT))
        heads.append(others)
        tails.append(others)
        heads.append(np.full(len(others), center, dtype=_INT))
    if not tails:
        return WeightedEdgeSet.empty()
    t = np.concatenate(tails)
    h = np.concatenate(heads)
    return WeightedEdgeSet.from_arrays(t, h, np.full(len(t), star_length, dtype=_INT))


@dataclass(frozen=True)
class RepetitionTrace(Record):
    """One repetition of a phase: its LDDs (one per strong component with
    two or more vertices), the edges they removed and the components they
    left, and the clustered-DAG reduction's rounds and scaled-up sample."""

    decompositions: int
    removed_edges: int
    components: int
    oracle_calls: int
    sample_size: int
    dag_iterations: list[DagIterationRecord]


@dataclass(frozen=True)
class PhaseTrace(Record):
    epoch: int
    phase: int
    sigma: int
    repetitions: list[RepetitionTrace]
    output_size: int
    oracle_calls: int


@dataclass
class ReductionReport(Record):
    # the hopset and the shortcut are written as artifacts, not into the JSON
    hopset: WeightedEdgeSet = field(metadata={"json": False})
    epochs: list[list[PhaseTrace]]
    total_size: int
    oracle_calls: int
    ldd_calls: int
    # always 0, as a short edge raises; kept since report readers check it
    clamp_count: int
    lambda_prime: float
    lambda_prime_clamped: bool
    epoch_count: int
    phase_count: int
    repetitions: int
    # per epoch run: the fewest hops within which every reachable pair has a
    # shortest path in G union H; the last is at most h unless all epochs
    # ran. An epoch whose count _measure cannot take exactly records no entry.
    epoch_hopbounds: list[int]
    shortcut: Optional[EdgeSet] = field(default=None, metadata={"json": False})
    verification: Optional[VerificationReport] = None


def run_phase(
    g_prev: DiGraph,
    epoch: int,
    phase: int,
    cfg: ReductionConfig,
    oracle: ShallowOracle,
) -> tuple[WeightedEdgeSet, PhaseTrace]:
    """One phase, for length band `phase`: repeat (LDD -> stars ->
    clustered reduction -> scale up by sigma) on scale_down_graph(g_prev)
    and union the samples. Edges come back in original-length units.

    Each repetition decomposes each strong component of the scaled graph
    with two or more vertices on its own, the k-th in topological order
    seeded by spawn key (epoch, phase, repetition, 0, k); single vertices
    pass through as components."""
    reps = cfg.repetitions(g_prev.vertex_count)
    d = (cfg.lam * cfg.h) // 2
    sigma = phase_sigma(phase, cfg.eps)
    scaled = scale_down_graph(g_prev, phase, cfg.eps)
    parts = scaled._derived("strong parts", _StrongParts.of)
    outputs, repetitions = [], []
    for r in range(reps):
        key = (epoch, phase, r)
        dag_seed = np.random.SeedSequence(cfg.seed, spawn_key=key + (1,))
        result = parts.decompose(d, cfg.seed, key)
        stars = build_stars(result.components, d)
        clustered = result.remaining_graph(scaled).with_extra(stars)
        hopset, dag_trace = reduce_clustered_dag(
            clustered, result.components, oracle, cfg.lam, cfg.h, cfg.eps, dag_seed
        )
        sample = WeightedEdgeSet.union(hopset, stars).scaled(sigma)
        outputs.append(sample)
        repetitions.append(RepetitionTrace(
            len(parts.graphs), len(result.removed_edges), len(result.components),
            dag_trace.oracle_calls, len(sample), dag_trace.iterations,
        ))
    union = WeightedEdgeSet.union(*outputs)
    calls = sum(rep.oracle_calls for rep in repetitions)
    return union, PhaseTrace(epoch, phase, sigma, repetitions, len(union), calls)


@dataclass(frozen=True)
class _StrongParts:
    """A graph's strong components in topological order and, for the k-th
    if it has two or more vertices, graphs[k], its induced subgraph on local
    ids in ascending vertex order, and edges[k], the indices in the graph of
    that subgraph's edges: a block of group_blocks. Kept on the graph, so
    that each subgraph's LDD adjacency is built once for all the repetitions,
    and once for all the phases that scale_down_graph runs on the same graph."""

    sccs: list[tuple[int, ...]]
    graphs: dict[int, DiGraph]
    edges: dict[int, np.ndarray]

    @classmethod
    def of(cls, g: DiGraph) -> "_StrongParts":
        sccs = scc_topological(g)
        multi = [k for k, comp in enumerate(sccs) if len(comp) > 1]
        sizes = [len(sccs[k]) for k in multi]
        blocks, _, inside = group_blocks(g, [sccs[k] for k in multi])
        first = np.cumsum([0] + sizes)
        # the block of each edge, ascending: edges are grouped by block
        block = np.repeat(np.arange(len(multi), dtype=_INT), sizes)[blocks.tails]
        bounds = np.searchsorted(block, np.arange(len(multi) + 1)).tolist()
        graphs, edges = {}, {}
        for j, k in enumerate(multi):
            lo, hi, v0 = bounds[j], bounds[j + 1], first[j]
            t, h = blocks.tails[lo:hi] - v0, blocks.heads[lo:hi] - v0
            graphs[k] = DiGraph(sizes[j], t, h, blocks.lengths[lo:hi], g.max_length_bound)
            edges[k] = inside[lo:hi]
        return cls(sccs, graphs, edges)

    def decompose(self, d: int, seed: int, key: tuple[int, ...]) -> LddResult:
        """One LDD of each graphs[k], seeded by spawn key key + (0, k), as an
        LDD of the whole graph: the pieces of each strong component in turn,
        in the condensation's topological order, and the removed edges as
        indices into the graph's edges."""
        pieces = [[comp] for comp in self.sccs]
        removed = [np.empty(0, dtype=_INT)]
        for k, sub in self.graphs.items():
            ss = np.random.SeedSequence(seed, spawn_key=key + (0, k))
            result = low_diameter_decomposition(sub, d, ss)
            verts = self.sccs[k]
            pieces[k] = [tuple(verts[v] for v in piece) for piece in result.components]
            removed.append(self.edges[k][list(result.removed_edges)])
        return LddResult(
            tuple(np.sort(np.concatenate(removed)).tolist()),
            tuple(chain.from_iterable(pieces)),
        )


def reduce_hopset(g: DiGraph, cfg: ReductionConfig, oracle: ShallowOracle) -> ReductionReport:
    """Full pipeline: epochs of phases against a frozen snapshot, each epoch
    folding its union into the working graph.

    The returned hopset preserves exact distances: each epoch raises
    RuntimeError on the first kept edge shorter than its pair's true
    distance, which only a faulty oracle gives.
    """
    return _run_epochs(g, cfg, oracle, shortcut=False)


def reduce_shortcut(g: DiGraph, cfg: ReductionConfig, shortcut_oracle) -> ReductionReport:
    """Reachability-only pipeline, stopping once the hop radius is at most
    h; the weights are stripped at the end into report.shortcut. The oracle
    implements build_shortcut. The result is not checked here:
    verify_shortcut does that for the caller.

    A shortcut has one length scale and no stretch to trade against hops,
    so the epoch loop runs on g with length bound 1 and with eps = 1
    whatever cfg.eps is: one unscaled phase per epoch, and a lambda' with
    no eps factor.
    """
    if g.edge_count and g.lengths.max() != 1:
        raise ValueError("shortcut mode expects unit edge lengths")
    unit = DiGraph(g.vertex_count, g.tails, g.heads, g.lengths, 1)
    report = _run_epochs(
        unit, replace(cfg, eps=Fraction(1)), ShortcutOracleAdapter(shortcut_oracle),
        shortcut=True,
    )
    # the hopset is canonical with one edge per (tail, head) pair, so the
    # pairs without self-loops are already a canonical EdgeSet
    keep = report.hopset.tails != report.hopset.heads
    report.shortcut = EdgeSet(report.hopset.tails[keep], report.hopset.heads[keep])
    return report


def _run_epochs(
    g: DiGraph, cfg: ReductionConfig, oracle: ShallowOracle, shortcut: bool
) -> ReductionReport:
    """The epoch loop of both modes.

    Each epoch runs one phase per dyadic length band, all on the snapshot
    g_cur, so no phase reads another's edges, and hopset mode checks H as
    kept once, after min_per_pair: an edge shorter than its pair's distance
    in dist0 raises RuntimeError. After each epoch, epoch_hopbounds records the
    fewest hops within which every reachable pair has a shortest path in
    G union H: _measure in hopset mode, and in shortcut mode _hop_metric,
    the hop radius. That is the same number at unit lengths, and it is kept
    because it skips the search from each source whose closure row is all
    one hop away. Every shortcut edge joins a pair reachable in G (the
    adapter checks each against its call's graph, whose reach sets lie
    within G's), so G union H has G's reach sets: _hop_metric reads the
    closure of g, built once per run, and closes no union graph. The
    out-degrees it compares with the reach sets come from g's CSR and cur's
    rows, so g_cur's CSR is built only when some source needs a search;
    then the next epoch's run_phase reads it, and otherwise builds it if
    that epoch runs.

    The loop stops at the first entry at most h. In hopset mode the check
    has passed by then, so that entry is at most h exactly when the h-hop
    stretch is 1, and an edge added later could not undo that: it is the
    certificate of stretch 1, and no stretch is measured here. An epoch
    where _measure cannot count hops exactly (a packed distance reaches
    2^53) records no entry; dist0 serves only the check.
    """
    n = g.vertex_count
    lp = cfg.lambda_prime(n)
    epochs = cfg.epoch_count(n)
    phases = cfg.phase_count(g.max_length_bound)
    reps = cfg.repetitions(n)
    dist0 = None if shortcut else dist_all_pairs(g)

    cur = WeightedEdgeSet.empty()
    g_cur = g
    traces: list[list[PhaseTrace]] = []
    epoch_hopbounds: list[int] = []
    for i in range(1, epochs + 1):
        outs, phase_traces = zip(*(run_phase(g_cur, i, j, cfg, oracle) for j in range(phases)))
        traces.append(list(phase_traces))
        cur = WeightedEdgeSet.union(cur, *outs).min_per_pair()
        if dist0 is not None:
            true = dist0[cur.tails, cur.heads]  # inf for an unreachable pair
            ok = cur.lengths >= true
            if not ok.all():
                k = int(np.flatnonzero(~ok)[0])
                u, v = int(cur.tails[k]), int(cur.heads[k])
                raise RuntimeError(
                    f"produced an edge between unreachable vertices ({u}, {v})"
                    if np.isinf(true[k]) else
                    f"produced an edge ({u}, {v}) of length {int(cur.lengths[k])}, "
                    f"shorter than the distance {int(true[k])}"
                )
        g_cur = g.with_extra(cur)
        hops = _hop_metric(g, cur, g_cur) if shortcut else _measure(g_cur)
        if hops is not None:
            epoch_hopbounds.append(hops)
            if hops <= cfg.h:
                break

    phase_list = [tr for epoch in traces for tr in epoch]
    return ReductionReport(
        hopset=cur,
        epochs=traces,
        total_size=len(cur),
        oracle_calls=sum(tr.oracle_calls for tr in phase_list),
        ldd_calls=sum(rep.decompositions for tr in phase_list for rep in tr.repetitions),
        clamp_count=0,
        lambda_prime=lp,
        lambda_prime_clamped=cfg.lambda_prime_unclamped(n) < 2.0,
        epoch_count=epochs,
        phase_count=phases,
        repetitions=reps,
        epoch_hopbounds=epoch_hopbounds,
    )


def _hop_metric(g: DiGraph, cur: WeightedEdgeSet, g_cur: DiGraph) -> int:
    return _hop_radius(g, cur, g_cur)


def _measure(gu: DiGraph) -> Optional[int]:
    """The fewest hops within which every reachable pair of gu has a
    shortest path (0 when no vertex reaches another), or None when float64
    cannot count them exactly. The epoch loop calls it once no edge of H is
    shorter than the true distance, so these paths have G's lengths.

    One shortest-path pass on the weights length * n + 1, over gu's simple
    CSR (self-loops dropped, the lightest edge kept per pair): a path's
    weight is its length times n plus its hops, and a shortest path with
    the fewest hops is simple, so under n hops. The distance d from u to v
    is thus dist(u, v) * n plus those fewest hops, which are d mod n. The
    searches run from chunks of _CELLS // n sources, so at most about
    _CELLS distances are held at once. When one chunk holds every source
    (n^2 <= _CELLS), graphs._distances picks the kernel by density, so a
    dense G union H runs Floyd-Warshall; otherwise each chunk runs
    Dijkstra. Under either kernel a path weight below 2^53 is summed
    exactly, and one at or past 2^53 rounds to at least 2^53, so while a
    chunk's largest finite d stays below 2^53 every d of it is exact; at
    the first chunk where it does not, this returns None.
    """
    n = gu.vertex_count
    csr = gu._csr
    if csr.nnz == 0:
        return 0
    weighted = sp.csr_matrix((csr.data * n + 1, csr.indices, csr.indptr), shape=(n, n))
    chunk = max(1, _CELLS // n)
    hops = 0
    for start in range(0, n, chunk):
        d = _distances(weighted, None if chunk >= n else np.arange(start, min(start + chunk, n)))
        d[np.isinf(d)] = 0  # unreached: no hops to count
        if d.max() >= _FLOAT_EXACT:
            return None
        hops = max(hops, int(np.remainder(d, n, out=d).max()))
    return hops
