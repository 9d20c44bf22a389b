"""The verifiers must catch planted violations and accept honest inputs."""

from fractions import Fraction

import pytest

from shallowcut import (
    DiGraph,
    EdgeSet,
    ExactTransitiveOracle,
    LddParams,
    LddResult,
    OracleCall,
    SizeCeilingError,
    WeightedEdgeSet,
    low_diameter_decomposition,
    verify_clustered,
    verify_distance_preservation,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def unit_cycle(n):
    return DiGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])


class TestVerifyHopset:
    def test_empty_hopset_full_budget_passes(self):
        g = unit_path(6)
        assert verify_hopset(g, WeightedEdgeSet.empty(), 1, 5).passed

    def test_detects_distance_decrease(self):
        g = unit_path(3)
        bad = WeightedEdgeSet.from_triples([(0, 2, 1)])
        report = verify_hopset(g, bad, 1, 2)
        assert not report.passed
        assert any(v.kind == "distance-decreased" for v in report.violations)

    def test_detects_stretch_violation(self):
        g = unit_path(6)
        report = verify_hopset(g, WeightedEdgeSet.empty(), 1, 2)
        assert not report.passed
        assert any(v.kind == "stretch-exceeded" for v in report.violations)

    def test_exact_oracle_output_passes_at_hop_one(self):
        g = unit_path(40)
        out = ExactTransitiveOracle(40).build(OracleCall(Fraction(1), g, 40, 1))
        assert verify_hopset(g, out, 1, 1).passed

    def test_measured_stretch_is_exact_rational(self):
        # detour: direct edge of length 3 vs true distance 2
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
        report = verify_hopset(g, WeightedEdgeSet.empty(), 2, 1)
        assert report.measured_stretch == Fraction(3, 2)

    def test_size_ceiling(self):
        with pytest.raises(SizeCeilingError):
            verify_hopset(unit_path(30), WeightedEdgeSet.empty(), 1, 29, ceiling=10)


class TestVerifyDistancePreservation:
    def test_honest_edge_passes(self):
        g = unit_path(4)
        assert verify_distance_preservation(
            g, WeightedEdgeSet.from_triples([(0, 3, 3)])
        ).passed

    def test_short_edge_fails(self):
        g = unit_path(4)
        report = verify_distance_preservation(
            g, WeightedEdgeSet.from_triples([(0, 3, 2)])
        )
        assert not report.passed


class TestVerifyShortcut:
    def test_full_closure_hopbound_one(self):
        g = unit_path(8)
        closure = EdgeSet.from_pairs(
            [(i, j) for i in range(8) for j in range(i + 1, 8)]
        )
        report = verify_shortcut(g, closure, 1)
        assert report.passed
        assert report.measured_hopbound == 1

    def test_empty_shortcut_fails_with_witness(self):
        report = verify_shortcut(unit_path(10), EdgeSet.empty(), 4)
        assert not report.passed
        assert report.violations[0].witness == (0, 9)

    def test_detects_unreachable_pair_edge(self):
        report = verify_shortcut(unit_path(4), EdgeSet.from_pairs([(3, 0)]), 4)
        assert not report.passed
        assert any(v.kind == "not-reachable-pair" for v in report.violations)

    def test_rejects_weighted_graph(self):
        g = DiGraph.from_edges(2, [(0, 1, 2)])
        with pytest.raises(ValueError):
            verify_shortcut(g, EdgeSet.empty(), 2)


class TestVerifyLdd:
    def test_empty_graph(self):
        result = LddResult((), ())
        assert verify_ldd(DiGraph.from_edges(0, []), 4, result).passed

    def test_reversed_order_fails_topological_check(self):
        g = unit_path(3)
        result = LddResult((), ((2,), (1,), (0,)))
        report = verify_ldd(g, 2, result)
        assert not report.passed
        assert any(v.kind == "topological-order" for v in report.violations)

    def test_missing_vertex_fails_partition(self):
        g = unit_path(3)
        report = verify_ldd(g, 2, LddResult((), ((0,), (1,))))
        assert not report.passed

    def test_out_of_range_vertex_fails_partition(self):
        g = unit_path(4)
        # four distinct ids with one outside V, and all of V plus one more
        for comps in (((0, 1, 2, 9),), ((0, 1, 2, 3, 9),)):
            report = verify_ldd(g, 4, LddResult((), comps))
            assert not report.passed
            assert (9,) in [v.witness for v in report.violations if v.kind == "not-a-partition"]

    def test_out_of_range_removed_edge_fails(self):
        g = unit_path(4)
        for removed in ((7,), (-1,)):
            report = verify_ldd(g, 4, LddResult(removed, ((0, 1, 2, 3),)))
            assert not report.passed
            assert [v.kind for v in report.violations] == ["removed-edge-out-of-range"]

    def test_oversized_component_fails_weak_diameter(self):
        g = unit_cycle(8)
        result = LddResult((), ((0, 1, 2, 3, 4, 5, 6, 7),))
        report = verify_ldd(g, 3, result)
        assert not report.passed
        assert any(v.kind == "weak-diameter" for v in report.violations)

    def test_non_scc_component_fails(self):
        g = unit_path(3)
        result = LddResult((), ((0, 1), (2,)))
        report = verify_ldd(g, 2, result)
        assert not report.passed
        assert any(v.kind == "not-strongly-connected" for v in report.violations)

    def test_real_output_passes_many_seeds(self):
        import numpy as np

        rng = np.random.default_rng(0)
        t = rng.integers(0, 60, size=200)
        h = (t + 1 + rng.integers(0, 59, size=200)) % 60
        g = DiGraph.from_arrays(60, t, h, np.ones(200, dtype=np.int64))
        for seed in range(5):
            result = low_diameter_decomposition(g, LddParams(d=12, seed=seed))
            assert verify_ldd(g, 12, result).passed


class TestVerifyClustered:
    def test_dag_passes_any_diameter(self):
        assert verify_clustered(unit_path(6), 0).passed

    def test_cycle_threshold(self):
        g = unit_cycle(5)
        assert verify_clustered(g, 4).passed
        assert not verify_clustered(g, 3).passed

    def test_report_json_round_trip(self):
        report = verify_clustered(unit_cycle(5), 3)
        payload = report.to_json()
        assert payload["passed"] is False
        assert payload["violation_count"] == 1
