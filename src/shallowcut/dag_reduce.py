"""Hopset construction for clustered DAGs.

A clustered digraph (every strongly connected component has bounded strong
diameter) already has a small approximate hopbound within each component.
The reduction repeatedly calls the shallow oracle on the graph with all
cross-group edges removed, then merges lambda consecutive groups along the
topological order, so each round multiplies the per-group hopbound budget
by at most lambda while the group count shrinks geometrically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graphs import DiGraph, WeightedEdgeSet, strong_diameter
from .oracles import OracleCall, ShallowOracle, checked_call

log = logging.getLogger(__name__)

_INT = np.int64


@dataclass(frozen=True)
class ClusteredInput:
    graph: DiGraph
    components_topo: tuple[tuple[int, ...], ...]
    cluster_diameter: int

    def validate(self, check_diameter: bool = False) -> None:
        """Reject anything that is not a topologically ordered SCC partition.

        The strong-diameter bound is only checked on request: it costs an
        all-pairs computation per component.
        """
        g = self.graph
        n = g.vertex_count
        group = np.full(n, -1, dtype=_INT)
        for i, comp in enumerate(self.components_topo):
            for v in comp:
                if v < 0 or v >= n or group[v] != -1:
                    raise ValueError("components do not partition the vertex set")
                group[v] = i
        if n and (group < 0).any():
            raise ValueError("components do not partition the vertex set")
        if g.edge_count and (group[g.tails] > group[g.heads]).any():
            raise ValueError("component list is not in topological order")
        if n:
            z, labels = connected_components(g._csr, connection="strong")
            if z != len(self.components_topo):
                raise ValueError("components are not the strongly connected components")
            for comp in self.components_topo:
                if len({int(labels[v]) for v in comp}) != 1:
                    raise ValueError("a component spans several SCCs")
        if check_diameter:
            for comp in self.components_topo:
                if len(comp) > 1 and strong_diameter(g, comp) > self.cluster_diameter:
                    raise ValueError("component exceeds the declared strong diameter")


@dataclass(frozen=True)
class DagIterationRecord:
    index: int
    alpha0: Fraction
    group_count: int
    stripped_edge_count: int
    hopset_size: int

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "alpha0": str(self.alpha0),
            "group_count": self.group_count,
            "stripped_edge_count": self.stripped_edge_count,
            "hopset_size": self.hopset_size,
        }


@dataclass
class DagReduceTrace:
    iterations: list[DagIterationRecord] = field(default_factory=list)

    @property
    def oracle_calls(self) -> int:
        return len(self.iterations)

    def to_json(self) -> dict:
        return {"iterations": [r.to_json() for r in self.iterations]}


def merge_groups(
    groups: Sequence[tuple[int, ...]], lam: int
) -> list[tuple[int, ...]]:
    """Union lambda consecutive groups; the last block may be shorter."""
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    merged = []
    for start in range(0, len(groups), lam):
        block = groups[start : start + lam]
        merged.append(tuple(sorted(v for grp in block for v in grp)))
    return merged


def strip_cross_edges(g: DiGraph, groups: Sequence[tuple[int, ...]]) -> DiGraph:
    """Disjoint union of the induced subgraphs, with vertex ids unchanged."""
    group = np.full(g.vertex_count, -1, dtype=_INT)
    for i, comp in enumerate(groups):
        group[list(comp)] = i
    if (group < 0).any():
        raise ValueError("groups must partition the vertex set")
    return g.edge_subset(group[g.tails] == group[g.heads])


def reduce_clustered_dag(
    cinput: ClusteredInput,
    oracle: ShallowOracle,
    lam: int,
    h: int,
    eps: Fraction,
    seed_seq: Optional[np.random.SeedSequence] = None,
    strict: bool = False,
    debug: bool = False,
) -> tuple[WeightedEdgeSet, DagReduceTrace]:
    """Run the merge-and-call loop until a single group remains.

    Returns the union of all oracle outputs together with the per-iteration
    trace. With the exact reference oracle the result is an (alpha, h)-hopset
    for alpha = (1 + eps)^iterations.
    """
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    if strict and lam < 9:
        raise ValueError("strict mode requires lambda >= 9")
    if lam < 9:
        log.info("lambda=%d below 9: iteration-count bound 2*log_lambda(n) not guaranteed", lam)
    if cinput.cluster_diameter > lam * h:
        raise ValueError("cluster_diameter must be at most lambda * h")
    cinput.validate(check_diameter=debug)
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(0)

    g = cinput.graph
    eps = Fraction(eps)
    groups: list[tuple[int, ...]] = list(cinput.components_topo)
    trace = DagReduceTrace()
    acc = WeightedEdgeSet.empty()
    alpha0 = Fraction(1)
    i = 0
    if g.vertex_count == 0:
        return WeightedEdgeSet.empty(), trace
    while True:
        i += 1
        current = g.with_extra(acc)
        stripped = strip_cross_edges(current, groups)
        call = OracleCall(alpha0, stripped, lam * h, h)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed_seq.entropy, spawn_key=tuple(seed_seq.spawn_key) + (i,)
        ))
        hopset = checked_call(oracle, call, rng, debug=debug)
        acc = WeightedEdgeSet.union(acc, hopset)
        trace.iterations.append(
            DagIterationRecord(i, alpha0, len(groups), stripped.edge_count, len(hopset))
        )
        if len(groups) == 1:
            break
        groups = merge_groups(groups, lam)
        alpha0 *= 1 + eps
    return acc, trace
