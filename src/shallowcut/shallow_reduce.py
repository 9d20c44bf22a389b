"""General-graph reduction: epochs of phases over scaled lengths.

Each phase targets paths whose length-to-hopbound ratio falls in one
dyadic band. It scales lengths down so those paths look short, splits the
graph with a low-diameter decomposition, force-bounds the strong diameter
of every piece with star edges, runs the clustered-DAG reduction, and
scales the resulting edges back up. Repetitions with fresh randomness are
unioned so that every fixed path is handled well by some sample.

A shortcut is the case with a single length scale: shortcut mode runs the
same epoch loop with one phase per epoch, band 0 with sigma = 1 on the
unscaled working graph, and no eps anywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .dag_reduce import ClusteredInput, reduce_clustered_dag
from .graphs import DiGraph, EdgeSet, WeightedEdgeSet, dist_all_pairs, hop_limited_dist
from .ldd import LddParams, low_diameter_decomposition
from .oracles import OracleSizeLaw, ShallowOracle, ShortcutOracleAdapter
from .verify import VerificationReport, _hop_radius, max_stretch, verify_shortcut

log = logging.getLogger(__name__)

_INT = np.int64

# largest n whose hopset runs are measured (all-pairs passes per epoch)
_MEASURE_CEILING = 512


@dataclass(frozen=True)
class ReductionConfig:
    """Fixed scalars of one reduction run plus desk-scale overrides.

    Strict mode enforces the theoretical constraint
    lambda > c0 * log^3(n) * (1/eps^2 + 1); desk-scale mode (the default)
    only clamps the derived epoch base lambda' to at least 2 and records
    the clamp. A shortcut has no stretch to trade against hops, so with
    shortcut=True the formulas leave eps out.
    """

    lam: int
    h: int
    eps: Fraction = Fraction(1)
    c0: Fraction = Fraction(1)
    seed: int = 0
    ldd_repetitions: Optional[int] = None
    strict_mode: bool = False

    def __post_init__(self):
        if self.lam < 2:
            raise ValueError("lambda must be at least 2")
        if self.h < 1:
            raise ValueError("h must be at least 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.lam * self.h < 2:
            raise ValueError("lambda * h must be at least 2")

    def validate_strict(self, n: int, shortcut: bool = False) -> None:
        stretch_term = 0 if shortcut else 1 / float(self.eps) ** 2
        bound = float(self.c0) * math.log2(max(n, 2)) ** 3 * (stretch_term + 1)
        if not self.lam > bound:
            raise ValueError(
                f"strict mode requires lambda > c0*log^3(n)*(1/eps^2+1) = {bound:.1f}, "
                f"got lambda = {self.lam}"
            )

    def lambda_prime_unclamped(self, n: int, shortcut: bool = False) -> float:
        """lambda / (sqrt(c0) * log2(n)^2), times eps when eps <= 1."""
        log2n = math.log2(max(n, 2))
        raw = float(self.lam) / (math.sqrt(float(self.c0)) * log2n * log2n)
        if not shortcut and self.eps <= 1:
            raw *= float(self.eps)
        return raw

    def lambda_prime(self, n: int, shortcut: bool = False) -> float:
        """The epoch base: the unclamped formula, at least 2."""
        return max(self.lambda_prime_unclamped(n, shortcut), 2.0)

    def epoch_count(self, n: int, shortcut: bool = False) -> int:
        if n < 2:
            return 1
        return math.ceil(math.log(n) / math.log(self.lambda_prime(n, shortcut))) + 1

    def phase_count(self, max_length: int) -> int:
        return max(0, math.ceil(math.log2(max(max_length, 1)))) + 1

    def repetitions(self, n: int) -> int:
        if self.ldd_repetitions is not None:
            return self.ldd_repetitions
        return 4 * max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class PhasePlan:
    epoch_index: int
    phase_index: int
    sigma: int


def phase_sigma(j: int, eps: Fraction) -> int:
    """sigma = ceil(eps * 2^j), the band's scale-up factor."""
    value = Fraction(eps) * (1 << j)
    return max(1, -(-value.numerator // value.denominator))


def scaled_length(length: int, j: int, eps: Fraction) -> int:
    """Band-j scaled-down length: ceil(length * min(1, 1/(eps * 2^j)))."""
    if length < 1:
        raise ValueError("length must be positive")
    if j < 0:
        raise ValueError("j must be nonnegative")
    factor = Fraction(eps) * (1 << j)
    if factor <= 1:
        return length
    return -(-(length * factor.denominator) // factor.numerator)


def _scaled_length_array(lengths: np.ndarray, j: int, eps: Fraction) -> np.ndarray:
    factor = Fraction(eps) * (1 << j)
    if factor <= 1:
        return lengths
    num, den = factor.numerator, factor.denominator
    return (lengths * den + num - 1) // num


def scale_down_graph(g: DiGraph, j: int, eps: Fraction) -> DiGraph:
    lengths = np.asarray(_scaled_length_array(g.lengths, j, eps), dtype=_INT)
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


@dataclass
class PhaseTrace:
    epoch_index: int
    phase_index: int
    sigma: int
    repetitions: list[dict] = field(default_factory=list)
    output_size: int = 0

    @property
    def oracle_calls(self) -> int:
        return sum(r["oracle_calls"] for r in self.repetitions)

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch_index,
            "phase": self.phase_index,
            "sigma": self.sigma,
            "repetitions": self.repetitions,
            "output_size": self.output_size,
            "oracle_calls": self.oracle_calls,
        }


@dataclass
class ReductionReport:
    hopset: WeightedEdgeSet
    total_size: int
    epoch_traces: list[list[PhaseTrace]]
    oracle_calls: int
    ldd_calls: int
    clamp_count: int
    lambda_prime: float
    lambda_prime_clamped: bool
    epoch_count: int
    phase_count: int
    repetitions: int
    size_bound: Optional[dict] = None
    measured_stretch: Optional[Fraction] = None
    measured_hopbound: Optional[int] = None
    epoch_hop_metrics: list[int] = field(default_factory=list)
    shortcut: Optional[EdgeSet] = None
    verification: Optional[VerificationReport] = None

    def to_json(self) -> dict:
        return {
            "total_size": self.total_size,
            "oracle_calls": self.oracle_calls,
            "ldd_calls": self.ldd_calls,
            "clamp_count": self.clamp_count,
            "lambda_prime": self.lambda_prime,
            "lambda_prime_clamped": self.lambda_prime_clamped,
            "epoch_count": self.epoch_count,
            "phase_count": self.phase_count,
            "repetitions": self.repetitions,
            "size_bound": self.size_bound,
            "measured_stretch": None
            if self.measured_stretch is None
            else str(self.measured_stretch),
            "measured_hopbound": self.measured_hopbound,
            "epoch_hop_metrics": self.epoch_hop_metrics,
            "epochs": [[p.to_json() for p in epoch] for epoch in self.epoch_traces],
            "verification": None
            if self.verification is None
            else self.verification.to_json(),
        }


def run_phase(
    g_prev: DiGraph,
    plan: PhasePlan,
    cfg: ReductionConfig,
    oracle: ShallowOracle,
) -> tuple[WeightedEdgeSet, PhaseTrace]:
    """One phase: repeat (LDD -> stars -> clustered reduction -> scale up)
    and union the samples. Edges come back in original-length units.

    sigma = 1 means the band's scale factor is at most 1 (or shortcut
    mode's single band), so the phase runs on g_prev's own lengths."""
    reps = cfg.repetitions(g_prev.vertex_count)
    d = (cfg.lam * cfg.h) // 2
    trace = PhaseTrace(plan.epoch_index, plan.phase_index, plan.sigma)
    if plan.sigma == 1:
        scaled = g_prev
    else:
        scaled = scale_down_graph(g_prev, plan.phase_index, cfg.eps)
    outputs = []
    for r in range(reps):
        key = (plan.epoch_index, plan.phase_index, r)
        ldd_seed = np.random.SeedSequence(cfg.seed, spawn_key=key + (0,))
        dag_seed = np.random.SeedSequence(cfg.seed, spawn_key=key + (1,))
        result = low_diameter_decomposition(
            scaled, LddParams(d=d, seed=cfg.seed), seed_seq=ldd_seed
        )
        stars = build_stars(result.components, d)
        clustered = result.remaining_graph(scaled).with_extra(stars)
        cinput = ClusteredInput(clustered, tuple(result.components), cfg.lam * cfg.h)
        hopset, dag_trace = reduce_clustered_dag(
            cinput, oracle, cfg.lam, cfg.h, cfg.eps, seed_seq=dag_seed
        )
        sample = WeightedEdgeSet.union(hopset, stars).scaled(plan.sigma)
        outputs.append(sample)
        trace.repetitions.append(
            {
                "removed_edges": len(result.removed_edges),
                "components": len(result.components),
                "oracle_calls": dag_trace.oracle_calls,
                "sample_size": len(sample),
                "dag_iterations": [rec.to_json() for rec in dag_trace.iterations],
            }
        )
    union = WeightedEdgeSet.union(*outputs) if outputs else WeightedEdgeSet.empty()
    trace.output_size = len(union)
    return union, trace


def reduce_hopset(g: DiGraph, cfg: ReductionConfig, oracle: ShallowOracle) -> ReductionReport:
    """Full pipeline: epochs of phases against a frozen snapshot, each epoch
    folding its union into the working graph.

    The returned hopset preserves exact distances; in desk-scale runs any
    candidate edge shorter than the true distance is clamped up and
    counted (a nonzero count flags a bug).
    """
    return _run_epochs(g, cfg, oracle, shortcut=False)


def reduce_shortcut(
    g: DiGraph,
    cfg: ReductionConfig,
    shortcut_oracle,
    verify: bool = True,
    ceiling: int = 2000,
) -> ReductionReport:
    """Reachability-only pipeline: one unscaled phase per epoch, stopping once
    the hop radius is at most h; the weights are stripped at the end, and
    the result is checked as a shortcut of hopbound h. The oracle implements
    build_shortcut."""
    if g.edge_count and g.lengths.max() != 1:
        raise ValueError("shortcut mode expects unit edge lengths")
    report = _run_epochs(g, cfg, ShortcutOracleAdapter(shortcut_oracle), shortcut=True)
    keep = report.hopset.tails != report.hopset.heads
    report.shortcut = EdgeSet.from_arrays(
        report.hopset.tails[keep], report.hopset.heads[keep]
    )
    if verify:
        report.verification = verify_shortcut(g, report.shortcut, cfg.h, ceiling=ceiling)
    return report


def _run_epochs(
    g: DiGraph, cfg: ReductionConfig, oracle: ShallowOracle, shortcut: bool
) -> ReductionReport:
    """The epoch loop of both modes.

    Hopset mode runs one phase per dyadic length band, clamps candidate
    edges up to the true distance, and measures the hop radius after each
    epoch and the stretch at the end (up to _MEASURE_CEILING vertices).
    Shortcut mode runs band 0 alone, where every length is 1 and there is
    nothing to clamp; it stops once the hop radius is at most h, since the
    radius only shrinks as edges accumulate and later epochs could only add
    size.
    """
    n = g.vertex_count
    if cfg.strict_mode:
        cfg.validate_strict(n, shortcut)
    measure = not shortcut and n <= _MEASURE_CEILING
    lp = cfg.lambda_prime(n, shortcut)
    epochs = cfg.epoch_count(n, shortcut)
    phases = 1 if shortcut else cfg.phase_count(g.max_length_bound)
    reps = cfg.repetitions(n)
    dist0 = dist_all_pairs(g) if not shortcut and n > 0 else None

    cur = WeightedEdgeSet.empty()
    g_cur = g
    clamp_count = 0
    oracle_calls = 0
    ldd_calls = 0
    epoch_traces: list[list[PhaseTrace]] = []
    epoch_hop_metrics: list[int] = []
    for i in range(1, epochs + 1):
        phase_outputs = []
        phase_traces = []
        for j in range(phases):
            plan = PhasePlan(i, j, 1 if shortcut else phase_sigma(j, cfg.eps))
            out, tr = run_phase(g_cur, plan, cfg, oracle)
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
            oracle_calls += tr.oracle_calls
            ldd_calls += len(tr.repetitions)
        epoch_traces.append(phase_traces)
        cur = WeightedEdgeSet.union(cur, *phase_outputs).min_per_pair()
        g_cur = g.with_extra(cur)
        if shortcut:
            if _hop_metric(g_cur) <= cfg.h:
                break
        elif measure:
            epoch_hop_metrics.append(_hop_metric(g_cur))

    report = ReductionReport(
        hopset=cur,
        total_size=len(cur),
        epoch_traces=epoch_traces,
        oracle_calls=oracle_calls,
        ldd_calls=ldd_calls,
        clamp_count=clamp_count,
        lambda_prime=lp,
        lambda_prime_clamped=cfg.lambda_prime_unclamped(n, shortcut) < 2.0,
        epoch_count=epochs,
        phase_count=phases,
        repetitions=reps,
        epoch_hop_metrics=epoch_hop_metrics,
    )
    report.size_bound = compute_size_bound(
        cfg, g.edge_count, oracle.size_law, n, g.max_length_bound, shortcut
    )
    if len(cur) > report.size_bound["bound"]:
        log.warning(
            "hopset size %d exceeds the solved-recurrence ceiling %d",
            len(cur), report.size_bound["bound"],
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


def compute_size_bound(
    cfg: ReductionConfig,
    m: int,
    law: OracleSizeLaw,
    n: int,
    max_length: int,
    shortcut: bool = False,
) -> dict:
    """Evaluate the solved size recurrences with explicit constants.

    Soft ceiling only: callers warn when measured sizes exceed it. The
    small-a branch applies when a < 1 / (c0 * log_lambda(n)^2).
    """
    log2n = math.log2(max(n, 2))
    log_lam_n = max(1.0, log2n / math.log2(cfg.lam))
    log_big_n = max(1.0, math.log2(max(max_length, 2)))
    epochs = cfg.epoch_count(n, shortcut)
    dag_iters = max(1.0, 2.0 * log_lam_n)
    a, b = float(law.a), float(law.b)
    small_a = a < 1.0 / (float(cfg.c0) * log_lam_n * log_lam_n)
    lp = cfg.lambda_prime(n, shortcut)
    log_lp_n = max(1.0, log2n / math.log2(lp))
    if small_a:
        branch = "small-a"
        bound = (
            max(1.0, math.log2(max(n, 2)))
            * log_big_n
            * log_lam_n
            * log_lp_n
            * (a * m + b + 1)
        )
    else:
        branch = "general"
        per_epoch = log_big_n * log2n * (1 + a) ** dag_iters
        bound = (1 + per_epoch) ** epochs * (m + b * log_lam_n + 1)
    return {
        "branch": branch,
        "bound": int(math.ceil(bound)),
        "a": a,
        "b": b,
        "epochs": epochs,
        "dag_iterations_bound": dag_iters,
    }
