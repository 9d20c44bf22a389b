"""Hopset construction for clustered DAGs.

A clustered digraph (every strongly connected component has bounded strong
diameter) already has a small approximate hopbound within each component.
The reduction repeatedly calls the shallow oracle on the graph with all
cross-group edges removed, then merges lambda consecutive groups along the
topological order, so each round multiplies the per-group hopbound budget
by at most lambda while the group count shrinks geometrically. Groups are
one label vector: each vertex's group index, so a merge is an integer
division by lambda and the stripped graph is one edge mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graphs import DiGraph, Record, WeightedEdgeSet
from .oracles import OracleCall, ShallowOracle, checked_call

_INT = np.int64


@dataclass(frozen=True)
class ClusteredInput:
    graph: DiGraph
    components_topo: tuple[tuple[int, ...], ...]
    cluster_diameter: int

    def validate(self) -> np.ndarray:
        """Reject anything that is not a topologically ordered SCC partition;
        return each vertex's component index.

        The strong-diameter bound is left to verify_clustered: it costs an
        all-pairs computation per component.
        """
        g = self.graph
        n = g.vertex_count
        sizes = [len(comp) for comp in self.components_topo]
        members = np.fromiter(chain.from_iterable(self.components_topo), dtype=_INT)
        if not np.array_equal(np.sort(members), np.arange(n)):
            raise ValueError("components do not partition the vertex set")
        group = np.empty(n, dtype=_INT)
        group[members] = np.repeat(np.arange(len(sizes), dtype=_INT), sizes)
        if (group[g.tails] > group[g.heads]).any():
            raise ValueError("component list is not in topological order")
        if n:
            z, labels = connected_components(g._csr, connection="strong")
            if z != len(sizes):
                raise ValueError("components are not the strongly connected components")
            label_of = np.empty(z, dtype=labels.dtype)
            label_of[group] = labels
            if (label_of[group] != labels).any():
                raise ValueError("a component spans several SCCs")
        return group


@dataclass(frozen=True)
class DagIterationRecord(Record):
    index: int
    alpha0: Fraction
    group_count: int
    stripped_edge_count: int
    hopset_size: int


@dataclass
class DagReduceTrace(Record):
    iterations: list[DagIterationRecord] = field(default_factory=list)

    @property
    def oracle_calls(self) -> int:
        return len(self.iterations)


def reduce_clustered_dag(
    cinput: ClusteredInput,
    oracle: ShallowOracle,
    lam: int,
    h: int,
    eps: Fraction,
    seed_seq: np.random.SeedSequence,
) -> tuple[WeightedEdgeSet, DagReduceTrace]:
    """Run the merge-and-call loop until a single group remains.

    Returns the union of all oracle outputs together with the per-iteration
    trace. Call i draws from seed_seq's spawn key extended by (i,). With
    the exact reference oracle the result is an (alpha, h)-hopset for
    alpha = (1 + eps)^iterations. The bound of 2 log_lambda(n) iterations
    needs lambda >= 9.
    """
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    if cinput.cluster_diameter > lam * h:
        raise ValueError("cluster_diameter must be at most lambda * h")
    group = cinput.validate()

    g = cinput.graph
    eps = Fraction(eps)
    group_count = len(cinput.components_topo)
    trace = DagReduceTrace()
    acc = WeightedEdgeSet.empty()
    alpha0 = Fraction(1)
    i = 0
    if g.vertex_count == 0:
        return WeightedEdgeSet.empty(), trace
    while True:
        i += 1
        current = g.with_extra(acc)
        stripped = current.edge_subset(group[current.tails] == group[current.heads])
        call = OracleCall(alpha0, stripped, lam * h, h)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed_seq.entropy, spawn_key=tuple(seed_seq.spawn_key) + (i,)
        ))
        hopset = checked_call(oracle, call, rng)
        acc = WeightedEdgeSet.union(acc, hopset)
        trace.iterations.append(
            DagIterationRecord(i, alpha0, group_count, stripped.edge_count, len(hopset))
        )
        if group_count == 1:
            break
        group //= lam
        group_count = -(-group_count // lam)
        alpha0 *= 1 + eps
    return acc, trace
