"""Clustered-DAG reduction: merging, stripping, the iteration loop."""

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
    merge_groups,
    reduce_clustered_dag,
    scc_topological,
    strip_cross_edges,
    verify_clustered,
    verify_hopset,
)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def clustered(g, diameter):
    return ClusteredInput(g, tuple(scc_topological(g)), diameter)


class TestMergeGroups:
    def test_single_group_fixed_point(self):
        assert merge_groups([(0, 1)], 3) == [(0, 1)]

    def test_27_singletons_lambda_3(self):
        groups = [(i,) for i in range(27)]
        merged = merge_groups(groups, 3)
        assert len(merged) == 9
        assert all(len(grp) == 3 for grp in merged)

    def test_ceiling_arithmetic(self):
        merged = merge_groups([(i,) for i in range(10)], 3)
        assert [len(grp) for grp in merged] == [3, 3, 3, 1]

    def test_rejects_small_lambda(self):
        with pytest.raises(ValueError):
            merge_groups([(0,)], 1)


class TestStripCrossEdges:
    def test_one_group_unchanged(self):
        g = unit_path(3)
        stripped = strip_cross_edges(g, [(0, 1, 2)])
        assert stripped.edge_count == 2

    def test_singletons_leave_nothing(self):
        g = unit_path(3)
        assert strip_cross_edges(g, [(0,), (1,), (2,)]).edge_count == 0

    def test_forced_example(self):
        g = unit_path(3)
        stripped = strip_cross_edges(g, [(0, 1), (2,)])
        assert list(stripped.edges()) == [(0, 1, 1)]

    def test_requires_partition(self):
        with pytest.raises(ValueError):
            strip_cross_edges(unit_path(3), [(0, 1)])


class TestClusteredInput:
    def test_validate_accepts_scc_order(self):
        g = generate(GeneratorSpec("scc-chain", blocks=4, block_size=3))
        clustered(g, 3).validate()
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

class TestReduceClusteredDag:
    def test_single_component_one_call(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        oracle = ExactTransitiveOracle(3)
        hopset, trace = reduce_clustered_dag(
            clustered(g, 2), oracle, 3, 4, Fraction(1, 2)
        )
        assert trace.oracle_calls == 1
        assert verify_hopset(g, hopset, 1, 1).passed

    def test_scc_chain_iteration_schedule(self):
        g = generate(GeneratorSpec("scc-chain", blocks=27, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        hopset, trace = reduce_clustered_dag(
            clustered(g, 3), oracle, 3, 4, Fraction(1, 2)
        )
        assert [r.group_count for r in trace.iterations] == [27, 9, 3, 1]
        assert [str(r.alpha0) for r in trace.iterations] == ["1", "3/2", "9/4", "27/8"]
        report = verify_hopset(g, hopset, Fraction(3, 2) ** 4, 4)
        assert report.passed
        assert report.measured_stretch == 1

    def test_path_singletons_with_wide_lambda(self):
        g = unit_path(64)
        oracle = ExactTransitiveOracle(64)
        hopset, trace = reduce_clustered_dag(
            clustered(g, 1), oracle, 9, 4, Fraction(1, 2)
        )
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
        hopset, trace = reduce_clustered_dag(cinput, oracle, lam, h, eps)
        gi = g.with_extra(hopset)
        alpha = (1 + eps) ** trace.oracle_calls
        assert verify_hopset(gi, WeightedEdgeSet.empty(), alpha, h).passed

    def test_size_recurrence_per_call(self):
        g = generate(GeneratorSpec("scc-chain", blocks=9, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        _, trace = reduce_clustered_dag(clustered(g, 3), oracle, 3, 4, Fraction(1, 2))
        a, b = oracle.size_law.a, oracle.size_law.b
        for rec in trace.iterations:
            assert rec.hopset_size <= a * rec.stripped_edge_count + b

    def test_determinism(self):
        g = generate(GeneratorSpec("scc-chain", blocks=9, block_size=3))
        oracle = ExactTransitiveOracle(g.vertex_count)
        seed = np.random.SeedSequence(11)
        a, _ = reduce_clustered_dag(
            clustered(g, 3), oracle, 3, 4, Fraction(1, 2), seed_seq=seed
        )
        b, _ = reduce_clustered_dag(
            clustered(g, 3), oracle, 3, 4, Fraction(1, 2), seed_seq=seed
        )
        assert a == b

    def test_rejects_diameter_above_lambda_h(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        with pytest.raises(ValueError):
            reduce_clustered_dag(
                clustered(g, 100), ExactTransitiveOracle(3), 3, 4, Fraction(1)
            )
