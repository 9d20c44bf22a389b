"""Hopset construction for clustered DAGs.

The inputs are a graph and the topological order of its strongly connected
components. A clustered digraph (every such component has bounded strong
diameter) already has a small approximate hopbound within each component.
The reduction repeatedly calls the shallow oracle on the graph with all
cross-group edges removed, then merges lambda consecutive groups along the
topological order, so each round multiplies the per-group hopbound budget
by at most lambda while the group count shrinks geometrically. Groups are
one label vector: each vertex's group index, so a merge is an integer
division by lambda and the stripped graph is one edge mask. Each oracle
call draws from its own child of the caller's stream, numbered as
SeedSequence.spawn and the LDD number them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graphs import DiGraph, Record, WeightedEdgeSet
from .ldd import _Seed
from .oracles import OracleCall, ShallowOracle, checked_call

_INT = np.int64


def _component_labels(g: DiGraph, components_topo: Sequence[Sequence[int]]) -> np.ndarray:
    """Reject anything that is not a topologically ordered SCC partition of
    g; return each vertex's component index.

    The strong-diameter bound is left to verify_clustered: it costs an
    all-pairs computation per component.
    """
    n = g.vertex_count
    sizes = [len(comp) for comp in components_topo]
    members = np.fromiter(chain.from_iterable(components_topo), dtype=_INT)
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
    g: DiGraph,
    components_topo: Sequence[Sequence[int]],
    oracle: ShallowOracle,
    lam: int,
    h: int,
    eps: Fraction,
    seed_seq: np.random.SeedSequence,
) -> tuple[WeightedEdgeSet, DagReduceTrace]:
    """Run the merge-and-call loop on g, whose strongly connected components
    are components_topo in topological order, until a single group remains.

    Returns the union of all oracle outputs together with the per-iteration
    trace. Call i draws from seed_seq's child with spawn key (k + i,) for k
    children already spawned, with seed_seq's entropy and pool size. With
    the exact reference oracle the result is an (alpha, h)-hopset for
    alpha = (1 + eps)^iterations when every component has strong diameter
    at most lambda * h. The bound of 2 log_lambda(n) iterations needs
    lambda >= 9.
    """
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    group = _component_labels(g, components_topo)

    eps = Fraction(eps)
    group_count = len(components_topo)
    trace = DagReduceTrace()
    acc = WeightedEdgeSet.empty()
    alpha0 = Fraction(1)
    seeds = _Seed.of(seed_seq)
    i = 0
    if g.vertex_count == 0:
        return WeightedEdgeSet.empty(), trace
    while True:
        i += 1
        current = g.with_extra(acc)
        stripped = current.edge_subset(group[current.tails] == group[current.heads])
        call = OracleCall(alpha0, stripped, lam * h, h)
        hopset = checked_call(oracle, call, np.random.default_rng(seeds.child(i).sequence()))
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
