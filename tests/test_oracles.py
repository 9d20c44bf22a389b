"""Oracle contract: size laws, reference oracles, shortcut adaptation."""

from fractions import Fraction

import numpy as np
import pytest

from shallowcut import (
    DiGraph,
    EdgeSet,
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    HubSamplingOracle,
    OracleCall,
    OracleSizeLaw,
    ShallowOracle,
    ShortcutOracleAdapter,
    SizeLawViolation,
    WeightedEdgeSet,
    checked_call,
    shortcut_as_hopset,
    verify_hopset,
)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def call_on(g, alpha0=1, lam=8, h=4):
    return OracleCall(Fraction(alpha0), g, lam * h, h)


class TestSizeLaw:
    def test_limit(self):
        law = OracleSizeLaw(Fraction(1, 2), Fraction(3))
        assert law.limit(10) == 8

    def test_check_passes_at_limit(self):
        OracleSizeLaw(Fraction(0), Fraction(5)).check(100, 5)

    def test_check_raises_above_limit(self):
        with pytest.raises(SizeLawViolation):
            OracleSizeLaw(Fraction(0), Fraction(5)).check(100, 6)

    def test_checked_call_enforces_law(self):
        class Oversized:
            size_law = OracleSizeLaw(Fraction(0), Fraction(1))
            stretch_factor = Fraction(1)

            def build(self, call, rng=None):
                return WeightedEdgeSet.from_triples([(0, 2, 2), (1, 3, 2)])

        with pytest.raises(SizeLawViolation):
            checked_call(Oversized(), call_on(unit_path(4)), None)


class TestExactTransitiveOracle:
    def test_edgeless_graph(self):
        oracle = ExactTransitiveOracle(3)
        out = oracle.build(call_on(DiGraph.from_edges(3, [])))
        assert len(out) == 0

    def test_path_gives_all_gaps(self):
        oracle = ExactTransitiveOracle(5)
        out = oracle.build(call_on(unit_path(5)))
        assert len(out) == 10
        assert dict(((t, h), w) for t, h, w in out) == {
            (i, j): j - i for i in range(5) for j in range(i + 1, 5)
        }

    def test_is_one_one_hopset(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 30, size=80)
        h = (t + 1 + rng.integers(0, 29, size=80)) % 30
        g = DiGraph.from_arrays(30, t, h, rng.integers(1, 5, size=80))
        out = ExactTransitiveOracle(30).build(call_on(g))
        assert verify_hopset(g, out, 1, 1).passed

    def test_satisfies_protocol(self):
        assert isinstance(ExactTransitiveOracle(4), ShallowOracle)


class TestHubSamplingOracle:
    def test_zero_rate_falls_back(self):
        oracle = HubSamplingOracle(6, 0.0)
        out = oracle.build(call_on(unit_path(6)), np.random.default_rng(0))
        assert oracle.stats["fallbacks"] == 1
        assert out == ExactTransitiveOracle(6).build(call_on(unit_path(6)))

    def test_full_rate_contains_reachable_hub_pairs(self):
        g = unit_path(8)
        oracle = HubSamplingOracle(8, 1.0)
        out = oracle.build(call_on(g, lam=8, h=8), np.random.default_rng(1))
        produced = {(t, h) for t, h, _ in out}
        assert (0, 7) in produced

    def test_output_always_verifies(self):
        # self-checking contract: either the sampled set passes or the
        # call falls back to the exact oracle, which passes
        g = unit_path(12)
        oracle = HubSamplingOracle(12, 0.25)
        out = oracle.build(call_on(g, lam=8, h=4), np.random.default_rng(2))
        assert verify_hopset(g, out, Fraction(1), 4).passed


class TestShortcutOracle:
    def test_reachability_oracle_closure(self):
        oracle = ExactReachabilityOracle(4)
        out = oracle.build_shortcut(call_on(unit_path(4)))
        assert len(out) == 6

    def test_adapter_wraps_as_unit_hopset(self):
        adapter = ShortcutOracleAdapter(ExactReachabilityOracle(4))
        out = adapter.build(call_on(unit_path(4)))
        assert set(np.unique(out.lengths)) == {1}
        assert adapter.stretch_factor is None


class TestShortcutAsHopset:
    def test_empty(self):
        assert len(shortcut_as_hopset(EdgeSet.empty(), unit_path(3))) == 0

    def test_reachability_mode_unit_lengths(self):
        out = shortcut_as_hopset(EdgeSet.from_pairs([(0, 2)]), unit_path(3))
        assert list(out) == [(0, 2, 1)]

    def test_rejects_unreachable_pair(self):
        with pytest.raises(ValueError):
            shortcut_as_hopset(EdgeSet.from_pairs([(2, 0)]), unit_path(3))
