"""Oracle contract: size laws, reference oracles, shortcut adaptation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shallowcut import (
    DiGraph,
    EdgeSet,
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    GeneratorSpec,
    HubSamplingOracle,
    OracleCall,
    OracleSizeLaw,
    ReductionConfig,
    ShallowOracle,
    ShortcutOracleAdapter,
    SizeLawViolation,
    WeightedEdgeSet,
    checked_call,
    generate,
    hop_limited_dist,
    reduce_hopset,
    reduce_shortcut,
    shortcut_as_hopset,
    verify_distance_preservation,
    verify_hopset,
)
from shallowcut import graphs


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def call_on(g, alpha0=1, lam=8, h=4):
    return OracleCall(Fraction(alpha0), g, lam * h, h)


@st.composite
def multigraphs(draw, max_n=12, max_m=40, max_len=6):
    """Weighted digraphs with self-loops and parallel edges."""
    n = draw(st.integers(1, max_n))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, max_len))
    edges = draw(st.lists(edge, max_size=max_m))
    parallel = [(t, h, w + 1) for t, h, w in edges[: draw(st.integers(0, len(edges)))]]
    return DiGraph.from_edges(n, edges + parallel, max_length_bound=max_len + 1)


def hub_reference(g, hubs, hops):
    """Hub edges read off the hub rows and columns of one all-sources
    hop-limited distance matrix, as {(tail, head): length}."""
    dist = hop_limited_dist(g, hops)
    edges = {}
    for hub in hubs:
        for v in range(g.vertex_count):
            for pair in ((hub, v), (v, hub)):
                if v != hub and np.isfinite(dist[pair]):
                    edges[pair] = int(dist[pair])
    return edges


def recorded_hopset_run(oracle):
    """A CallRecorder holding every call and output of one small
    reduce_hopset run: random-gnm n=48, lambda = h = 4, eps = 1/2."""
    recorder = CallRecorder(oracle)
    cfg = ReductionConfig(lam=4, h=4, eps=Fraction(1, 2), ldd_repetitions=1)
    g = generate(GeneratorSpec("random-gnm", n=48, m=144, big_n=8, seed=0))
    reduce_hopset(g, cfg, recorder)
    assert recorder.calls
    return recorder


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

            def build(self, call, rng):
                return WeightedEdgeSet.from_triples([(0, 2, 2), (1, 3, 2)])

        with pytest.raises(SizeLawViolation):
            checked_call(Oversized(), call_on(unit_path(4)), np.random.default_rng(0))


class TestExactTransitiveOracle:
    def test_edgeless_graph(self):
        oracle = ExactTransitiveOracle(3)
        out = oracle.build(call_on(DiGraph.from_edges(3, [])), np.random.default_rng(0))
        assert len(out) == 0

    def test_path_gives_all_gaps(self):
        oracle = ExactTransitiveOracle(5)
        out = oracle.build(call_on(unit_path(5)), np.random.default_rng(0))
        assert len(out) == 10
        assert dict(((t, h), w) for t, h, w in out) == {
            (i, j): j - i for i in range(5) for j in range(i + 1, 5)
        }

    def test_is_one_one_hopset(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 30, size=80)
        h = (t + 1 + rng.integers(0, 29, size=80)) % 30
        g = DiGraph.from_arrays(30, t, h, rng.integers(1, 5, size=80))
        out = ExactTransitiveOracle(30).build(call_on(g), rng)
        assert verify_hopset(g, out, 1, 1).passed

    def test_satisfies_protocol(self):
        assert isinstance(ExactTransitiveOracle(4), ShallowOracle)


class TestHubSamplingOracle:
    @given(multigraphs(), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1),
           st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    @example(DiGraph.from_edges(1, [(0, 0, 1)]), 1.0, 0, 1)
    @example(DiGraph.from_edges(3, [(0, 1, 4), (0, 1, 2), (1, 1, 1), (1, 2, 3)]), 1.0, 0, 1)
    def test_matches_all_sources_reference(self, g, rate, seed, hops):
        out = HubSamplingOracle(g.vertex_count, rate).build(
            OracleCall(Fraction(1), g, hops, 1), np.random.default_rng(seed)
        )
        hubs = np.flatnonzero(np.random.default_rng(seed).random(g.vertex_count) < rate)
        want = hub_reference(g, hubs, hops)
        assert {(t, h): w for t, h, w in out} == want
        assert len(out) == len(want)

    def test_one_min_csr_per_direction(self, monkeypatch):
        # the in-distances run on g.reversed(), whose CSR matrices are g's
        # own, so a call on a graph whose forward matrix exists (as every
        # pipeline call's does) builds only g's reverse one
        built = []
        min_csr = graphs._min_csr

        def counted_min_csr(n, tails, heads, lengths):
            built.append((id(tails), id(heads)))
            return min_csr(n, tails, heads, lengths)

        monkeypatch.setattr(graphs, "_min_csr", counted_min_csr)
        g = generate(GeneratorSpec("cycle", n=64))
        g._csr
        out = HubSamplingOracle(64, 0.1).build(call_on(g, lam=4, h=4), np.random.default_rng(3))
        assert built == [(id(g.tails), id(g.heads)), (id(g.heads), id(g.tails))]
        monkeypatch.undo()
        hubs = np.flatnonzero(np.random.default_rng(3).random(64) < 0.1)
        assert len(hubs) > 0
        assert {(t, h): w for t, h, w in out} == hub_reference(g, hubs, 16)

    def test_zero_rate_returns_empty_set(self):
        out = HubSamplingOracle(6, 0.0).build(call_on(unit_path(6)), np.random.default_rng(0))
        assert len(out) == 0

    def test_full_rate_contains_reachable_hub_pairs(self):
        g = unit_path(8)
        oracle = HubSamplingOracle(8, 1.0)
        out = oracle.build(call_on(g, lam=8, h=8), np.random.default_rng(1))
        produced = {(t, h) for t, h, _ in out}
        assert (0, 7) in produced

    def test_full_rate_meets_the_contract(self):
        # with every vertex a hub, each pair within lambda*h hops gets a
        # direct edge, so the promise alone makes the output a hopset
        recorder = recorded_hopset_run(HubSamplingOracle(48, 1.0))
        for call, out in zip(recorder.calls, recorder.outputs):
            assert verify_hopset(call.graph, out, call.alpha0, call.target_h).passed

    def test_outputs_preserve_distances(self):
        recorder = recorded_hopset_run(HubSamplingOracle(48, 0.25))
        misses = 0
        for call, out in zip(recorder.calls, recorder.outputs):
            assert verify_distance_preservation(call.graph, out).passed
            misses += not verify_hopset(call.graph, out, call.alpha0, call.target_h).passed
        # a sampled hub set may miss the target hopbound; the count is a
        # measurement, not a requirement
        print(f"hub rate 0.25: {misses} of {len(recorder.calls)} outputs miss "
              "the target hopbound")


class TestShortcutOracle:
    def test_reachability_oracle_closure(self):
        oracle = ExactReachabilityOracle(4)
        out = oracle.build_shortcut(call_on(unit_path(4)), np.random.default_rng(0))
        assert len(out) == 6

    def test_adapter_wraps_as_unit_hopset(self):
        adapter = ShortcutOracleAdapter(ExactReachabilityOracle(4))
        out = adapter.build(call_on(unit_path(4)), np.random.default_rng(0))
        assert set(np.unique(out.lengths)) == {1}


class TestShortcutAsHopset:
    def test_empty(self):
        assert len(shortcut_as_hopset(EdgeSet.empty(), unit_path(3))) == 0

    def test_reachability_mode_unit_lengths(self):
        out = shortcut_as_hopset(EdgeSet.from_pairs([(0, 2)]), unit_path(3))
        assert list(out) == [(0, 2, 1)]

    def test_rejects_unreachable_pair(self):
        with pytest.raises(ValueError):
            shortcut_as_hopset(EdgeSet.from_pairs([(2, 0)]), unit_path(3))


class CallRecorder:
    """Hands every call on to the wrapped oracle and keeps the call and
    its output."""

    def __init__(self, inner):
        self.inner = inner
        self.size_law = inner.size_law
        self.calls = []
        self.outputs = []

    def build(self, call, rng):
        return self._keep(call, self.inner.build(call, rng))

    def build_shortcut(self, call, rng):
        return self._keep(call, self.inner.build_shortcut(call, rng))

    def _keep(self, call, out):
        self.calls.append(call)
        self.outputs.append(out)
        return out


class TestOracleCallPromise:
    """The pipeline's promise to the oracle: every graph it passes is
    alpha0-approximately within lambda*h hops (exactly, for shortcut calls)."""

    @pytest.mark.parametrize("mode, make_oracle", [
        ("hopset", lambda: ExactTransitiveOracle(48)),
        ("hopset", lambda: HubSamplingOracle(48, 0.25)),
        ("shortcut", lambda: ExactReachabilityOracle(96)),
    ], ids=["hopset-exact", "hopset-hub", "shortcut-exact"])
    def test_every_call_is_shallow(self, mode, make_oracle):
        if mode == "hopset":
            recorder = recorded_hopset_run(make_oracle())
        else:
            recorder = CallRecorder(make_oracle())
            cfg = ReductionConfig(lam=4, h=4, eps=Fraction(1, 2), ldd_repetitions=1)
            reduce_shortcut(generate(GeneratorSpec("path", n=96)), cfg, recorder)
            assert recorder.calls
        # A shortcut call promises reachability within lambda*h hops. On unit
        # lengths that is alpha = 1, stricter than the alpha0 the reduction
        # passes, which grows by a factor of 2 per round in shortcut mode.
        misses = [
            i for i, call in enumerate(recorder.calls)
            if not verify_hopset(
                call.graph, WeightedEdgeSet.empty(),
                1 if mode == "shortcut" else call.alpha0, call.lambda_h,
            ).passed
        ]
        assert misses == []
