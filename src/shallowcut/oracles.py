"""Shallow-graph oracle contract and reference implementations.

An oracle receives an approximately-shallow digraph (the caller promises an
alpha0-approximate shortest path hopbound of lambda*h) and must return a
hopset bringing the hopbound down to h, with a declared linear size law
|output| <= a * m0 + b. Hopset oracles implement `build`; shortcut oracles
implement `build_shortcut` and reach the epoch loop through
`ShortcutOracleAdapter`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from .graphs import (
    DiGraph,
    EdgeSet,
    WeightedEdgeSet,
    check_approx_hopbound,
    dist_all_pairs,
    hop_limited_dist,
    pairs_reachable,
    reachable_pairs,
)
from .verify import verify_hopset

log = logging.getLogger(__name__)


class SizeLawViolation(AssertionError):
    """An oracle returned more edges than its declared size law allows."""


@dataclass(frozen=True)
class OracleSizeLaw:
    a: Fraction
    b: Fraction

    def limit(self, m0: int) -> Fraction:
        return self.a * m0 + self.b

    def check(self, m0: int, out_size: int) -> None:
        if out_size > self.limit(m0):
            raise SizeLawViolation(
                f"oracle output of {out_size} edges exceeds "
                f"{self.a}*{m0}+{self.b} = {self.limit(m0)}"
            )


@dataclass(frozen=True)
class OracleCall:
    """One invocation: alpha0, the shallow input graph, the promised
    hopbound lambda*h and the target hopbound h."""

    alpha0: Fraction
    graph: DiGraph
    lambda_h: int
    target_h: int

    def check_precondition(self) -> None:
        """Debug-only: the caller-promised approximate hopbound. O(n*m*h)."""
        ok, witness = check_approx_hopbound(self.graph, self.alpha0, self.lambda_h)
        if not ok:
            log.warning(
                "oracle call precondition violated: pair %s has no "
                "%s-approximate path within %d hops",
                witness, self.alpha0, self.lambda_h,
            )


@runtime_checkable
class ShallowOracle(Protocol):
    size_law: OracleSizeLaw
    stretch_factor: Optional[Fraction]  # None means unbounded (shortcut mode)

    def build(self, call: OracleCall, rng: Optional[np.random.Generator] = None) -> WeightedEdgeSet:
        ...


def checked_call(
    oracle: ShallowOracle,
    call: OracleCall,
    rng: Optional[np.random.Generator] = None,
    debug: bool = False,
) -> WeightedEdgeSet:
    """Invoke an oracle and enforce its declared size law on the result."""
    if debug:
        call.check_precondition()
    out = oracle.build(call, rng)
    oracle.size_law.check(call.graph.edge_count, len(out))
    return out


class ExactTransitiveOracle:
    """Reference oracle: every reachable pair gets a direct edge carrying
    its exact distance. A (1, 1)-hopset, so it satisfies any valid call."""

    def __init__(self, n: int):
        self.size_law = OracleSizeLaw(Fraction(0), Fraction(n * n))
        self.stretch_factor: Optional[Fraction] = Fraction(1)

    def build(self, call: OracleCall, rng=None) -> WeightedEdgeSet:
        dist = dist_all_pairs(call.graph)
        np.fill_diagonal(dist, np.inf)
        t, h = np.nonzero(np.isfinite(dist))
        return WeightedEdgeSet.from_arrays(t, h, dist[t, h].astype(np.int64))


class HubSamplingOracle:
    """Randomized oracle connecting sampled hubs to everything they reach
    within the promised hopbound. Self-checking: if the result fails the
    hopset contract, the call falls back to the exact oracle.
    """

    def __init__(self, n: int, hub_rate: float):
        if not (0 <= hub_rate <= 1):
            raise ValueError("hub_rate must be in [0, 1]")
        self.hub_rate = hub_rate
        self.size_law = OracleSizeLaw(Fraction(0), Fraction(2 * n * n))
        self.stretch_factor: Optional[Fraction] = Fraction(1)
        self._exact = ExactTransitiveOracle(n)
        self.stats = {"calls": 0, "fallbacks": 0}

    def build(self, call: OracleCall, rng=None) -> WeightedEdgeSet:
        self.stats["calls"] += 1
        if rng is None:
            rng = np.random.default_rng(0)
        g = call.graph
        hubs = np.flatnonzero(rng.random(g.vertex_count) < self.hub_rate)
        if len(hubs) == 0:
            self.stats["fallbacks"] += 1
            return self._exact.build(call, rng)
        out_d = hop_limited_dist(g, None, call.lambda_h, sources=hubs)
        rev = DiGraph(g.vertex_count, g.heads, g.tails, g.lengths, g.max_length_bound)
        in_d = hop_limited_dist(rev, None, call.lambda_h, sources=hubs)
        parts = []
        for i, hub in enumerate(hubs):
            fwd = np.flatnonzero(np.isfinite(out_d[i]) & (np.arange(g.vertex_count) != hub))
            bwd = np.flatnonzero(np.isfinite(in_d[i]) & (np.arange(g.vertex_count) != hub))
            parts.append((np.full(len(fwd), hub), fwd, out_d[i][fwd].astype(np.int64)))
            parts.append((bwd, np.full(len(bwd), hub), in_d[i][bwd].astype(np.int64)))
        candidate = WeightedEdgeSet.from_arrays(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )
        report = verify_hopset(
            g, candidate, call.alpha0 * self.stretch_factor, call.target_h
        )
        if report.passed:
            return candidate
        self.stats["fallbacks"] += 1
        return self._exact.build(call, rng)


class ExactReachabilityOracle:
    """Reference shortcut oracle: the full set of reachable pairs, which is
    a shortcut of hopbound 1."""

    def __init__(self, n: int):
        self.size_law = OracleSizeLaw(Fraction(0), Fraction(n * n))

    def build_shortcut(self, call: OracleCall, rng=None) -> EdgeSet:
        return reachable_pairs(call.graph)


def shortcut_as_hopset(shortcut: EdgeSet, g: DiGraph) -> WeightedEdgeSet:
    """Wrap a reachability-only shortcut as hopset edges of length 1
    (lengths then carry no distance meaning). Edges between unreachable
    pairs are rejected: they would not be shortcut edges at all.
    """
    if len(shortcut) == 0:
        return WeightedEdgeSet.empty()
    ok = pairs_reachable(g, shortcut.tails, shortcut.heads)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(
            f"shortcut edge ({int(shortcut.tails[i])}, {int(shortcut.heads[i])}) "
            "does not join a reachable pair"
        )
    return shortcut.with_unit_lengths()


class ShortcutOracleAdapter:
    """Present a shortcut oracle as a hopset oracle with unbounded stretch."""

    def __init__(self, inner):
        self.inner = inner
        self.size_law = inner.size_law
        self.stretch_factor: Optional[Fraction] = None  # unbounded

    def build(self, call: OracleCall, rng=None) -> WeightedEdgeSet:
        shortcut = self.inner.build_shortcut(call, rng)
        return shortcut_as_hopset(shortcut, call.graph)
