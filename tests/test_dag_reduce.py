"""Clustered-DAG reduction: validation, merging, stripping, the iteration loop."""

from fractions import Fraction

import numpy as np
import pytest

from shallowcut import (
    ClusteredInput,
    DiGraph,
    ExactTransitiveOracle,
    GeneratorSpec,
    WeightedEdgeSet,
    generate,
    reduce_clustered_dag,
    scc_topological,
    verify_clustered,
    verify_hopset,
)


# the seed stream of every run that does not test seeding; the reduction
# only reads it
SEED = np.random.SeedSequence(0)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def clustered(g, diameter):
    return ClusteredInput(g, tuple(scc_topological(g)), diameter)


class RecordingOracle(ExactTransitiveOracle):
    """The exact oracle, keeping every call and its output."""

    def __init__(self, n):
        super().__init__(n)
        self.calls = []

    def build(self, call, rng=None):
        out = super().build(call, rng)
        self.calls.append((call, out))
        return out


def call_edges(g, components, lam):
    """Run the reduction with the exact oracle; return each call's edge list."""
    oracle = RecordingOracle(g.vertex_count)
    _, trace = reduce_clustered_dag(
        ClusteredInput(g, components, 1), oracle, lam, 4, Fraction(1, 2), SEED
    )
    return trace, [sorted(call.graph.edges()) for call, _ in oracle.calls]


def singletons(n):
    return tuple((v,) for v in range(n))


class TestMergeGroups:
    def test_single_group_fixed_point(self):
        g = DiGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        trace, calls = call_edges(g, ((0, 1),), 3)
        assert [r.group_count for r in trace.iterations] == [1]
        assert calls == [[(0, 1, 1), (1, 0, 1)]]

    def test_27_singletons_lambda_3(self):
        trace, calls = call_edges(unit_path(27), singletons(27), 3)
        assert [r.group_count for r in trace.iterations] == [27, 9, 3, 1]
        # the second call sees nine blocks of three: two path edges each
        assert calls[1] == [(i, i + 1, 1) for i in range(26) if i % 3 != 2]

    def test_ceiling_arithmetic(self):
        trace, calls = call_edges(unit_path(10), singletons(10), 3)
        assert [r.group_count for r in trace.iterations] == [10, 4, 2, 1]
        # blocks {0,1,2} {3,4,5} {6,7,8} {9}: the last one is shorter
        assert calls[1] == [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (6, 7, 1), (7, 8, 1)]


class TestStripCrossEdges:
    def test_one_group_unchanged(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        _, calls = call_edges(g, ((0, 1, 2),), 3)
        assert calls == [sorted(g.edges())]

    def test_singletons_leave_nothing(self):
        trace, calls = call_edges(unit_path(3), singletons(3), 3)
        assert calls[0] == []
        assert trace.iterations[0].stripped_edge_count == 0

    def test_forced_example(self):
        # SCC {0, 1} then {2}: the first call keeps the cycle, drops 1 -> 2
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)])
        _, calls = call_edges(g, ((0, 1), (2,)), 3)
        assert calls[0] == [(0, 1, 1), (1, 0, 1)]

    def test_requires_partition(self):
        with pytest.raises(ValueError, match="partition"):
            call_edges(unit_path(3), ((0, 1),), 3)


class TestClusteredInput:
    def test_validate_accepts_scc_order(self):
        g = generate(GeneratorSpec("scc-chain", blocks=4, block_size=3))
        cinput = clustered(g, 3)
        group = cinput.validate()
        for i, comp in enumerate(cinput.components_topo):
            assert group[list(comp)].tolist() == [i] * len(comp)
        assert len(group) == g.vertex_count
        assert verify_clustered(g, 3).passed

    def test_rejects_non_partition(self):
        g = unit_path(3)
        with pytest.raises(ValueError):
            ClusteredInput(g, ((0,), (1,)), 4).validate()

    def test_rejects_wrong_order(self):
        g = unit_path(3)
        with pytest.raises(ValueError):
            ClusteredInput(g, ((2,), (1,), (0,)), 4).validate()

    def test_rejects_split_scc(self):
        g = DiGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        with pytest.raises(ValueError):
            ClusteredInput(g, ((0,), (1,)), 4).validate()

    # the partition cases list three vertex ids, as many as the graph has
    @pytest.mark.parametrize("components, message", [
        (((0, 1), (1,)), "partition"),
        (((0, 1), (3,)), "partition"),
        (((0, 1), (-1,)), "partition"),
        (((0, 1), (), (2,)), "not the strongly connected"),
        (((0, 1, 2), ()), "several SCCs"),  # as many components as SCCs
        (((0, 1, 2),), "not the strongly connected"),
    ])
    def test_rejects_bad_component_lists(self, components, message):
        # 0 <-> 1 is one SCC, 2 another, edge 1 -> 2 between them
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)])
        with pytest.raises(ValueError, match=message):
            ClusteredInput(g, components, 4).validate()


class TestReduceClusteredDag:
    def test_single_component_one_call(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        oracle = ExactTransitiveOracle(3)
        hopset, trace = reduce_clustered_dag(
            clustered(g, 2), oracle, 3, 4, Fraction(1, 2), SEED
        )
        assert trace.oracle_calls == 1
        assert verify_hopset(g, hopset, 1, 1).passed

    def test_scc_chain_iteration_schedule(self):
        g = generate(GeneratorSpec("scc-chain", blocks=27, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        hopset, trace = reduce_clustered_dag(
            clustered(g, 3), oracle, 3, 4, Fraction(1, 2), SEED
        )
        assert [r.group_count for r in trace.iterations] == [27, 9, 3, 1]
        assert [str(r.alpha0) for r in trace.iterations] == ["1", "3/2", "9/4", "27/8"]
        report = verify_hopset(g, hopset, Fraction(3, 2) ** 4, 4)
        assert report.passed
        assert report.measured_stretch == 1

    def test_group_count_not_a_power_of_lambda(self):
        # 10 groups merge 3 at a time into 4, 2, then 1 (the last block of
        # each round is shorter); each call sees G plus the earlier outputs
        # with every edge between two merged blocks stripped
        g = generate(GeneratorSpec("scc-chain", blocks=10, block_size=3))
        oracle = RecordingOracle(g.vertex_count)
        components = tuple(scc_topological(g))
        _, trace = reduce_clustered_dag(
            ClusteredInput(g, components, 3), oracle, 3, 4, Fraction(1, 2), SEED
        )
        assert [r.group_count for r in trace.iterations] == [10, 4, 2, 1]
        acc = WeightedEdgeSet.empty()
        for r, (rec, (call, out)) in enumerate(zip(trace.iterations, oracle.calls, strict=True)):
            block = {v: i // 3**r for i, comp in enumerate(components) for v in comp}
            kept = sorted(e for e in g.with_extra(acc).edges() if block[e[0]] == block[e[1]])
            assert sorted(call.graph.edges()) == kept
            assert rec.stripped_edge_count == len(kept)
            acc = WeightedEdgeSet.union(acc, out)
        assert [r.stripped_edge_count for r in trace.iterations] == [30, 96, 179, 423]

    def test_rejects_lambda_one(self):
        g = unit_path(3)
        with pytest.raises(ValueError, match="lambda"):
            reduce_clustered_dag(
                clustered(g, 1), ExactTransitiveOracle(3), 1, 4, Fraction(1), SEED
            )

    def test_path_singletons_with_wide_lambda(self):
        g = unit_path(64)
        oracle = ExactTransitiveOracle(64)
        hopset, trace = reduce_clustered_dag(
            clustered(g, 1), oracle, 9, 4, Fraction(1, 2), SEED
        )
        # singleton groups keep no edge
        assert [r.group_count for r in trace.iterations] == [64, 8, 1]
        assert trace.iterations[0].stripped_edge_count == 0
        report = verify_hopset(g, hopset, Fraction(3, 2) ** trace.oracle_calls, 4)
        assert report.passed
        assert report.measured_stretch == 1

    def test_intermediate_precondition_holds(self):
        # after iteration i the merged groups must be shallow enough for
        # the next oracle call
        g = generate(GeneratorSpec("scc-chain", blocks=9, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        lam, h, eps = 3, 4, Fraction(1, 2)
        cinput = clustered(g, 3)
        hopset, trace = reduce_clustered_dag(cinput, oracle, lam, h, eps, SEED)
        gi = g.with_extra(hopset)
        alpha = (1 + eps) ** trace.oracle_calls
        assert verify_hopset(gi, WeightedEdgeSet.empty(), alpha, h).passed

    def test_size_recurrence_per_call(self):
        g = generate(GeneratorSpec("scc-chain", blocks=9, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        _, trace = reduce_clustered_dag(clustered(g, 3), oracle, 3, 4, Fraction(1, 2), SEED)
        a, b = oracle.size_law.a, oracle.size_law.b
        for rec in trace.iterations:
            assert rec.hopset_size <= a * rec.stripped_edge_count + b

    def test_determinism(self):
        g = generate(GeneratorSpec("scc-chain", blocks=9, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        seed = np.random.SeedSequence(11)
        a, _ = reduce_clustered_dag(clustered(g, 3), oracle, 3, 4, Fraction(1, 2), seed)
        b, _ = reduce_clustered_dag(clustered(g, 3), oracle, 3, 4, Fraction(1, 2), seed)
        assert a == b

    def test_rejects_diameter_above_lambda_h(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        with pytest.raises(ValueError):
            reduce_clustered_dag(
                clustered(g, 100), ExactTransitiveOracle(3), 3, 4, Fraction(1), SEED
            )
