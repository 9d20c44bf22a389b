"""Shallow-graph oracle contract and reference implementations.

An oracle receives an approximately-shallow digraph (the caller promises an
alpha0-approximate shortest path hopbound of lambda*h) and must return a
hopset bringing the hopbound down to h, with a declared linear size law
|output| <= a * m0 + b. Hopset oracles implement `build(call, rng)`;
shortcut oracles implement `build_shortcut(call, rng)` and reach the epoch
loop through `ShortcutOracleAdapter`. The caller always passes the
generator, so no oracle seeds itself.

`checked_call` enforces the size law on every call, and
`shortcut_as_hopset` rejects a shortcut edge whose tail does not reach its
head in the call's graph. In hopset mode `shallow_reduce._run_epochs`
holds each phase's edges against the input's exact distances: it raises on
an edge between unreachable vertices and clamps one shorter than the
distance up to it. Neither the shallow-input
promise nor the hopbound an oracle's output reaches is checked at run time,
since each check costs all-pairs passes per call: `tests/test_oracles.py`
records the calls and outputs of small runs and checks both with the
brute-force verifiers. This module depends on `graphs` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol, runtime_checkable

import numpy as np

from .graphs import (
    DiGraph,
    EdgeSet,
    WeightedEdgeSet,
    dist_all_pairs,
    hop_limited_dist,
    pairs_reachable,
    reachable_pairs,
)


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
    hopbound lambda*h and the target hopbound h.

    The caller promises that graph is shallow:
    verify_hopset(graph, WeightedEdgeSet.empty(), alpha0, lambda_h) passes.
    """

    alpha0: Fraction
    graph: DiGraph
    lambda_h: int
    target_h: int


@runtime_checkable
class ShallowOracle(Protocol):
    size_law: OracleSizeLaw

    def build(self, call: OracleCall, rng: np.random.Generator) -> WeightedEdgeSet:
        ...


def checked_call(
    oracle: ShallowOracle,
    call: OracleCall,
    rng: np.random.Generator,
) -> WeightedEdgeSet:
    """Invoke an oracle and enforce its declared size law on the result."""
    out = oracle.build(call, rng)
    oracle.size_law.check(call.graph.edge_count, len(out))
    return out


class ExactTransitiveOracle:
    """Reference oracle: every reachable pair gets a direct edge carrying
    its exact distance. A (1, 1)-hopset, so it satisfies any valid call."""

    def __init__(self, n: int):
        self.size_law = OracleSizeLaw(Fraction(0), Fraction(n * n))

    def build(self, call: OracleCall, rng: np.random.Generator) -> WeightedEdgeSet:
        dist = dist_all_pairs(call.graph)
        np.fill_diagonal(dist, np.inf)
        t, h = np.nonzero(np.isfinite(dist))
        return WeightedEdgeSet.from_arrays(t, h, dist[t, h].astype(np.int64))


class HubSamplingOracle:
    """Randomized oracle after Ullman-Yannakakis (1991): sample hubs at
    hub_rate and join every hub to each vertex it reaches, and from each
    vertex that reaches it, within the promised lambda*h hops, at that
    hop-limited distance. It uses nothing but the call; with no hubs
    sampled it returns the empty set. Nothing here checks the result
    against the target hopbound h."""

    def __init__(self, n: int, hub_rate: float):
        if not (0 <= hub_rate <= 1):
            raise ValueError("hub_rate must be in [0, 1]")
        self.hub_rate = hub_rate
        self.size_law = OracleSizeLaw(Fraction(0), Fraction(2 * n * n))

    def build(self, call: OracleCall, rng: np.random.Generator) -> WeightedEdgeSet:
        g = call.graph
        hubs = np.flatnonzero(rng.random(g.vertex_count) < self.hub_rate)
        out_d = hop_limited_dist(g, call.lambda_h, sources=hubs)
        in_d = hop_limited_dist(g.reversed(), call.lambda_h, sources=hubs)
        for d in (out_d, in_d):
            d[np.arange(len(hubs)), hubs] = np.inf  # no edge from a hub to itself
        i, v = np.nonzero(np.isfinite(out_d))
        j, u = np.nonzero(np.isfinite(in_d))
        return WeightedEdgeSet.from_arrays(
            np.concatenate([hubs[i], u]),
            np.concatenate([v, hubs[j]]),
            np.concatenate([out_d[i, v], in_d[j, u]]).astype(np.int64),
        )


class ExactReachabilityOracle:
    """Reference shortcut oracle: the full set of reachable pairs, which is
    a shortcut of hopbound 1."""

    def __init__(self, n: int):
        self.size_law = OracleSizeLaw(Fraction(0), Fraction(n * n))

    def build_shortcut(self, call: OracleCall, rng: np.random.Generator) -> EdgeSet:
        return reachable_pairs(call.graph)


def shortcut_as_hopset(shortcut: EdgeSet, g: DiGraph) -> WeightedEdgeSet:
    """Wrap a reachability-only shortcut as hopset edges of length 1
    (lengths then carry no distance meaning). Edges between unreachable
    pairs are rejected: they would not be shortcut edges at all. The check
    reads the closure kept on g, which the exact oracle has built already."""
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
    """Present a shortcut oracle as a hopset oracle whose edges carry unit
    lengths, which say nothing about distances."""

    def __init__(self, inner):
        self.inner = inner
        self.size_law = inner.size_law

    def build(self, call: OracleCall, rng: np.random.Generator) -> WeightedEdgeSet:
        shortcut = self.inner.build_shortcut(call, rng)
        return shortcut_as_hopset(shortcut, call.graph)
