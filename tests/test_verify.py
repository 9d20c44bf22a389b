"""The verifiers must catch planted violations and accept honest inputs."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shallowcut import (
    DiGraph,
    EdgeSet,
    ExactTransitiveOracle,
    LddResult,
    OracleCall,
    SizeCeilingError,
    WeightedEdgeSet,
    low_diameter_decomposition,
    verify,
    verify_clustered,
    verify_distance_preservation,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)
from shallowcut.graphs import dist_all_pairs, dist_from_sources


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def unit_cycle(n):
    return DiGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])


def reference_hop_radius(g, extra):
    """The all-pairs formula: unit-length distances of G union extra, the
    diagonal excluded, the largest finite one (0 when there is none)."""
    gu = g.with_extra(extra)
    if gu.vertex_count == 0:
        return 0
    unit = DiGraph(gu.vertex_count, gu.tails, gu.heads, np.ones(gu.edge_count, dtype=np.int64), 1)
    hops = dist_all_pairs(unit)
    np.fill_diagonal(hops, np.inf)
    finite = hops[np.isfinite(hops)]
    return int(finite.max()) if len(finite) else 0


@st.composite
def graphs_with_extra(draw, max_n=16, max_m=40):
    """Weighted graphs with self-loops, parallel edges and (unless drawn
    forward-only) multi-vertex SCCs, plus a weighted extra edge set or None."""
    n = draw(st.integers(0, max_n))
    forward_only = draw(st.booleans())

    def edges(count):
        out = []
        for _ in range(count):
            t, h = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if forward_only:
                t, h = min(t, h), max(t, h)
            out.append((t, h, draw(st.integers(1, 5))))
        return out

    if n == 0:
        return DiGraph.from_edges(0, [], max_length_bound=5), None
    base = edges(draw(st.integers(0, max_m)))
    base += base[: draw(st.integers(0, len(base)))]
    g = DiGraph.from_edges(n, base, max_length_bound=5)
    extra = edges(draw(st.integers(0, max_m)))
    if not extra and draw(st.booleans()):
        return g, None
    return g, WeightedEdgeSet.from_triples(extra)


class TestHopRadius:
    @given(graphs_with_extra(), st.sampled_from([1, 5, 1 << 20]))
    @example((DiGraph.from_edges(1, []), None), 1 << 20)
    @example((DiGraph.from_edges(1, [(0, 0, 1), (0, 0, 1)]), None), 1 << 20)
    @example((unit_cycle(5), WeightedEdgeSet.from_triples([(0, 2, 3)])), 5)
    @settings(max_examples=150, deadline=None)
    def test_matches_all_pairs_reference(self, case, cells):
        g, extra = case
        with mock.patch.object(verify, "_CELLS", cells):
            assert verify._hop_radius(g, extra) == reference_hop_radius(g, extra)

    @given(graphs_with_extra(), st.sampled_from([1, 5, 1 << 20]))
    @example((unit_path(5), None), 1 << 20)
    @example((DiGraph.from_edges(3, [(2, 2, 1), (2, 0, 1), (1, 0, 4)]), None), 1 << 20)
    @settings(max_examples=150, deadline=None)
    def test_pair_is_the_first_at_the_radius(self, case, cells):
        """The pair is the first (u, v) in row-major order of the unit-length
        all-pairs hop matrix (diagonal excluded) at its maximum."""
        g, extra = case
        with mock.patch.object(verify, "_CELLS", cells):
            radius, pair = verify._farthest_pair(g, extra)
        assert radius == reference_hop_radius(g, extra)
        if radius == 0:
            assert pair is None
            return
        gu = g.with_extra(extra)
        unit = DiGraph(gu.vertex_count, gu.tails, gu.heads, np.ones(gu.edge_count, dtype=np.int64), 1)
        hops = dist_all_pairs(unit)
        np.fill_diagonal(hops, np.inf)
        hops[~np.isfinite(hops)] = -np.inf
        assert pair == tuple(int(x) for x in np.unravel_index(np.argmax(hops), hops.shape))

    def test_open_sources_span_several_chunks(self, monkeypatch):
        chunks = []

        def recording(graph, sources, **kwargs):
            chunks.append(len(sources))
            return dist_from_sources(graph, sources, **kwargs)

        monkeypatch.setattr(verify, "_CELLS", 36)
        monkeypatch.setattr(verify, "dist_from_sources", recording)
        g = unit_path(12)
        assert verify._hop_radius(g, None) == 11
        # sources 0..9 reach a vertex that is not an out-neighbour
        assert chunks == [3, 3, 3, 1]

    def test_full_closure_searches_no_source(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no source should be searched")

        monkeypatch.setattr(verify, "dist_from_sources", refuse)
        closure = WeightedEdgeSet.from_triples(
            [(i, j, 1) for i in range(8) for j in range(i + 1, 8)]
        )
        assert verify._hop_radius(unit_path(8), closure) == 1


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

    def test_no_stretch_when_a_pair_is_beyond_h_hops(self):
        # 28 of the path's 45 pairs need more than 2 hops; no finite stretch
        # holds for them, so none is reported
        report = verify_hopset(unit_path(10), WeightedEdgeSet.empty(), 1, 2)
        assert report.violation_count == 28
        assert {v.kind for v in report.violations} == {"stretch-exceeded"}
        assert report.measured_stretch is None
        assert report.to_json()["measured_stretch"] is None

    def test_size_ceiling(self):
        with pytest.raises(SizeCeilingError):
            verify_hopset(unit_path(30), WeightedEdgeSet.empty(), 1, 29, ceiling=10)

    def test_keeps_the_first_violations_across_two_kinds(self):
        # a hopset edge 2 -> n-3 of length 1 shortens the 9 pairs (u <= 2,
        # v >= n-3); at h = 1 every pair two or more hops apart on the path,
        # but (2, n-3), exceeds the stretch
        n = 24
        report = verify_hopset(unit_path(n), WeightedEdgeSet.from_triples([(2, n - 3, 1)]), 1, 1)
        u, v = np.indices((n, n))
        dist = np.where(v >= u, v - u, np.inf)
        via = np.where((u <= 2) & (v >= n - 3), (2 - u) + 1 + (v - (n - 3)), np.inf)
        decreased = via < dist
        one_hop = (v == u) | (v == u + 1) | ((u == 2) & (v == n - 3))
        over = np.isfinite(dist) & ~one_hop
        assert report.violation_count == decreased.sum() + over.sum() == 9 + 252
        expected = [
            (kind, (int(a), int(b)))
            for kind, mask in [("distance-decreased", decreased), ("stretch-exceeded", over)]
            for a, b in zip(*np.nonzero(mask))
        ]
        kept = [(x.kind, x.witness) for x in report.violations]
        assert len(kept) == verify._MAX_RECORDED == 100
        assert kept == expected[:100]
        first_decreased, first_over = report.violations[0], report.violations[9]
        assert (first_decreased.expected, first_decreased.actual) == (21.0, 3.0)
        assert (first_over.witness, first_over.expected, first_over.actual) == (
            (0, 2), "<= 1 * 2.0", float("inf")
        )


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

    def test_witness_needs_no_all_pairs_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no all-pairs distance matrix")

        monkeypatch.setattr(verify, "dist_all_pairs", refuse)
        g = DiGraph.from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (4, 5, 1)])
        report = verify_shortcut(g, EdgeSet.from_pairs([(4, 5)]), 1)
        assert not report.passed
        assert report.measured_hopbound == 3
        assert [(v.kind, v.witness) for v in report.violations] == [("hopbound-exceeded", (0, 3))]
        # at radius 1 the witness is the first edge
        report = verify_shortcut(unit_path(4), EdgeSet.from_pairs([(0, 2), (0, 3), (1, 3)]), 0)
        assert report.measured_hopbound == 1
        assert [(v.kind, v.witness) for v in report.violations] == [("hopbound-exceeded", (0, 1))]

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

    def test_empty_component_fails_partition(self):
        # a decomposition read from a file may list an empty component: it
        # is a violation, not a crash in the weak-diameter check
        report = verify_ldd(unit_cycle(4), 4, LddResult((), ((0, 1, 2, 3), ())))
        assert not report.passed
        assert [(v.kind, v.witness) for v in report.violations] == [("not-a-partition", (1,))]

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
            result = low_diameter_decomposition(g, 12, np.random.SeedSequence(seed))
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
