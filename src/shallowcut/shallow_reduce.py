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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from .dag_reduce import ClusteredInput, DagIterationRecord, reduce_clustered_dag
from .graphs import (
    DiGraph,
    EdgeSet,
    Record,
    WeightedEdgeSet,
    dist_all_pairs,
    group_blocks,
    hop_limited_dist,
    scc_topological,
)
from .ldd import LddResult, low_diameter_decomposition
from .oracles import ShallowOracle, ShortcutOracleAdapter
from .verify import VerificationReport, _hop_radius, max_stretch

_INT = np.int64

# largest n whose hopset runs are measured (all-pairs passes per epoch)
_MEASURE_CEILING = 512


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
    clamp_count: int
    lambda_prime: float
    lambda_prime_clamped: bool
    epoch_count: int
    phase_count: int
    repetitions: int
    measured_stretch: Optional[Fraction] = None
    measured_hopbound: Optional[int] = None
    epoch_hop_metrics: list[int] = field(default_factory=list)
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
        cinput = ClusteredInput(clustered, tuple(result.components), cfg.lam * cfg.h)
        hopset, dag_trace = reduce_clustered_dag(
            cinput, oracle, cfg.lam, cfg.h, cfg.eps, dag_seed
        )
        sample = WeightedEdgeSet.union(hopset, stars).scaled(sigma)
        outputs.append(sample)
        repetitions.append(RepetitionTrace(
            len(parts.graphs), len(result.removed_edges), len(result.components),
            dag_trace.oracle_calls, len(sample), dag_trace.iterations,
        ))
    union = WeightedEdgeSet.union(*outputs) if outputs else WeightedEdgeSet.empty()
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

    The returned hopset preserves exact distances; in desk-scale runs any
    candidate edge shorter than the true distance is clamped up and
    counted (a nonzero count flags a bug).
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

    Each epoch runs one phase per dyadic length band. Hopset mode clamps
    candidate edges up to the true distance, and measures the hop radius
    after each epoch and the stretch at the end (up to _MEASURE_CEILING
    vertices). Shortcut mode has unit lengths and nothing to clamp; it
    stops once the hop radius is at most h, since the radius only shrinks
    as edges accumulate and later epochs could only add size.
    """
    n = g.vertex_count
    measure = not shortcut and n <= _MEASURE_CEILING
    lp = cfg.lambda_prime(n)
    epochs = cfg.epoch_count(n)
    phases = cfg.phase_count(g.max_length_bound)
    reps = cfg.repetitions(n)
    dist0 = dist_all_pairs(g) if not shortcut and n > 0 else None

    cur = WeightedEdgeSet.empty()
    g_cur = g
    clamp_count = 0
    traces: list[list[PhaseTrace]] = []
    epoch_hop_metrics: list[int] = []
    for i in range(1, epochs + 1):
        phase_outputs = []
        phase_traces = []
        for j in range(phases):
            out, tr = run_phase(g_cur, i, j, cfg, oracle)
            if dist0 is not None and len(out):
                true = dist0[out.tails, out.heads]
                if not np.isfinite(true).all():
                    bad = int(np.flatnonzero(~np.isfinite(true))[0])
                    raise RuntimeError(
                        "produced an edge between unreachable vertices "
                        f"({int(out.tails[bad])}, {int(out.heads[bad])})"
                    )
                short = out.lengths < true
                if short.any():
                    clamp_count += int(short.sum())
                    fixed = np.where(short, true.astype(_INT), out.lengths)
                    out = WeightedEdgeSet.from_arrays(out.tails, out.heads, fixed)
            phase_outputs.append(out)
            phase_traces.append(tr)
        traces.append(phase_traces)
        cur = WeightedEdgeSet.union(cur, *phase_outputs).min_per_pair()
        g_cur = g.with_extra(cur)
        if shortcut:
            if _hop_metric(g_cur) <= cfg.h:
                break
        elif measure:
            epoch_hop_metrics.append(_hop_metric(g_cur))

    phase_list = [tr for epoch in traces for tr in epoch]
    report = ReductionReport(
        hopset=cur,
        epochs=traces,
        total_size=len(cur),
        oracle_calls=sum(tr.oracle_calls for tr in phase_list),
        ldd_calls=sum(rep.decompositions for tr in phase_list for rep in tr.repetitions),
        clamp_count=clamp_count,
        lambda_prime=lp,
        lambda_prime_clamped=cfg.lambda_prime_unclamped(n) < 2.0,
        epoch_count=epochs,
        phase_count=phases,
        repetitions=reps,
        epoch_hop_metrics=epoch_hop_metrics,
    )
    if measure and n > 0:
        # the last epoch's hop radius is that of g with the final hopset
        report.measured_stretch = _measure(dist0, g, cur, cfg.h)
        report.measured_hopbound = epoch_hop_metrics[-1]
    return report


def _hop_metric(gu: DiGraph) -> int:
    return _hop_radius(gu, None)


def _measure(
    dist: np.ndarray, g: DiGraph, hopset: WeightedEdgeSet, h: int
) -> Optional[Fraction]:
    """Max stretch of the h-hop distances in g + hopset over dist, the
    distances of g."""
    return max_stretch(dist, hop_limited_dist(g, hopset, h))
