"""General reduction: scaling, stars, epochs, and the two top drivers."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from shallowcut import (
    DiGraph,
    EdgeSet,
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    GeneratorSpec,
    HubSamplingOracle,
    ReductionConfig,
    WeightedEdgeSet,
    build_stars,
    dist_all_pairs,
    generate,
    hop_limited_dist,
    induced_subgraph,
    low_diameter_decomposition,
    phase_sigma,
    reduce_hopset,
    reduce_shortcut,
    run_phase,
    scale_down_graph,
    scaled_length,
    scc_topological,
    verify_distance_preservation,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)
from shallowcut import graphs, ldd, oracles, shallow_reduce
from shallowcut.dag_reduce import _component_labels

fractions = st.fractions(
    min_value=Fraction(1, 64), max_value=Fraction(64), max_denominator=64
)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


class TestScaledLength:
    def test_small_factor_is_identity(self):
        assert scaled_length(7, 0, Fraction(1, 2)) == 7

    def test_hand_evaluated(self):
        assert scaled_length(7, 3, Fraction(1, 2)) == 2

    def test_huge_factor_floors_at_one(self):
        assert scaled_length(5, 10, Fraction(3)) == 1

    @pytest.mark.parametrize("length, j, message", [
        (0, 1, "length must be positive"),
        (np.array([3, 0]), 1, "length must be positive"),
        (1, -1, "j must be nonnegative"),
    ], ids=["zero", "zero-in-array", "negative-band"])
    def test_rejects_bad_arguments(self, length, j, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scaled_length(length, j, Fraction(1, 2))

    @given(st.integers(1, 10**6), st.integers(0, 20), fractions)
    @settings(max_examples=200, deadline=None)
    def test_exact_ceiling(self, length, j, eps):
        got = scaled_length(length, j, eps)
        factor = eps * 2**j
        expected = length if factor <= 1 else -((-length * factor.denominator) // factor.numerator)
        assert got == expected
        assert got >= 1

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 10)])
    def test_graph_kept_exactly_when_the_band_does_not_scale(self, eps):
        g = DiGraph.from_edges(4, [(0, 1, 7), (1, 2, 13), (2, 3, 1)], 13)
        for j in range(5):
            assert (scale_down_graph(g, j, eps) is g) == (phase_sigma(j, eps) == 1)

    def test_vectorized_matches_scalar(self):
        g = DiGraph.from_edges(4, [(0, 1, 7), (1, 2, 13), (2, 3, 1)], 13)
        scaled = scale_down_graph(g, 3, Fraction(1, 2))
        assert list(scaled.lengths) == [
            scaled_length(w, 3, Fraction(1, 2)) for w in (7, 13, 1)
        ]


class TestPhaseSigma:
    @given(st.integers(0, 20), fractions)
    @settings(max_examples=100, deadline=None)
    def test_is_exact_ceiling(self, j, eps):
        sigma = phase_sigma(j, eps)
        value = eps * 2**j
        assert sigma >= 1
        assert sigma - 1 < value <= sigma or value <= 1 == sigma


class TestBuildStars:
    def test_singletons_only(self):
        assert len(build_stars([(0,), (1,)], 5)) == 0

    def test_rejects_spokes_shorter_than_one(self):
        with pytest.raises(ValueError, match="^star_length must be at least 1$"):
            build_stars([(0, 1)], 0)

    def test_component_of_four(self):
        stars = build_stars([(3, 1, 7, 5)], 4)
        assert len(stars) == 6
        assert all(w == 4 for _, _, w in stars)
        assert all(1 in (t, h) for t, h, _ in stars)  # lowest id is the center

    def test_no_scaled_distance_decreases(self):
        # star length d on components of weak diameter <= d keeps distances
        g = DiGraph.from_edges(
            4, [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1), (1, 2, 1)]
        )
        stars = build_stars([(0, 1), (2, 3)], 2)
        before = dist_all_pairs(g)
        after = dist_all_pairs(g.with_extra(stars))
        finite = np.isfinite(before)
        assert np.all(after[finite] >= before[finite])


class TestReductionConfig:
    def test_lambda_prime_clamped_to_two(self):
        cfg = ReductionConfig(lam=8, h=8)
        assert cfg.lambda_prime(512) == 2.0

    def test_lambda_prime_unclamped_when_large(self):
        cfg = ReductionConfig(lam=10_000, h=4, eps=Fraction(2))
        assert cfg.lambda_prime(16) == pytest.approx(10_000 / 16)

    def test_eps_scales_lambda_prime_only_below_one(self):
        small = ReductionConfig(lam=4096, h=4, eps=Fraction(1, 2))
        big = ReductionConfig(lam=4096, h=4, eps=Fraction(8))
        assert small.lambda_prime(16) == pytest.approx(4096 / 32)
        assert big.lambda_prime(16) == pytest.approx(4096 / 16)

    def test_epoch_count(self):
        cfg = ReductionConfig(lam=8, h=8)
        assert cfg.epoch_count(1) == 1
        assert cfg.epoch_count(512) == 10  # ceil(log2(512)) + 1

    def test_phase_count_unit_lengths(self):
        assert ReductionConfig(lam=8, h=8).phase_count(1) == 1

    def test_phase_count_weighted(self):
        assert ReductionConfig(lam=8, h=8).phase_count(32) == 6

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ReductionConfig(lam=1, h=8)
        with pytest.raises(ValueError):
            ReductionConfig(lam=8, h=0)
        with pytest.raises(ValueError):
            ReductionConfig(lam=8, h=8, eps=Fraction(0))

    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_fewer_than_one_repetition(self, reps):
        # zero repetitions would build nothing and still pass as a result
        with pytest.raises(ValueError):
            ReductionConfig(lam=8, h=8, ldd_repetitions=reps)


class TestRunPhase:
    def test_edgeless_graph(self):
        g = DiGraph.from_edges(5, [])
        cfg = ReductionConfig(lam=4, h=2, ldd_repetitions=1)
        out, trace = run_phase(g, 1, 0, cfg, ExactTransitiveOracle(5))
        assert len(out) == 0
        assert trace.oracle_calls >= 1

    def test_output_never_decreases_distances(self):
        g = unit_path(48)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2, eps=Fraction(1, 2))
        out, _ = run_phase(g, 1, 0, cfg, ExactTransitiveOracle(48))
        before = dist_all_pairs(g)
        after = dist_all_pairs(g.with_extra(out))
        assert np.all((after >= before) | ~np.isfinite(before))


    def test_repetitions_share_one_adjacency(self, monkeypatch):
        # one LDD per repetition and strong component, one (forward,
        # reverse) adjacency per strong component and graph: the bands
        # that do not scale run on the same graph and share it
        built, decompositions = [], []
        adjacency = ldd._adjacency
        decompose = shallow_reduce.low_diameter_decomposition

        def counted_adjacency(mat, max_length):
            built.append(max_length)
            return adjacency(mat, max_length)

        def counted_decompose(*args, **kwargs):
            decompositions.append(args[1])
            return decompose(*args, **kwargs)

        monkeypatch.setattr(ldd, "_adjacency", counted_adjacency)
        monkeypatch.setattr(shallow_reduce, "low_diameter_decomposition", counted_decompose)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=3, eps=Fraction(1, 2))
        cycle = generate(GeneratorSpec("cycle", n=48))
        # band 2 is the first that scales at eps = 1/2 (sigma = 2)
        _, trace = run_phase(cycle, 1, 2, cfg, ExactTransitiveOracle(48))
        # the cycle is one strong component: one decomposition per repetition
        assert len(decompositions) == 3
        assert [r.decompositions for r in trace.repetitions] == [1, 1, 1]
        assert built == [16, 16]
        for j in (0, 1):
            run_phase(cycle, 1, j, cfg, ExactTransitiveOracle(48))
        assert len(decompositions) == 9
        assert built == [16, 16] * 2


# lambda = h = 4, so d = 8: each 12-vertex cycle of the chain is wider than
# d, and the random graph's lengths run up to 8, so the LDD has to cut
CONTRACT_INPUTS = {
    "scc-chain": GeneratorSpec("scc-chain", blocks=4, block_size=12),
    "random-gnm": GeneratorSpec("random-gnm", n=48, m=144, big_n=8, seed=0),
}
CONTRACT_CFG = ReductionConfig(lam=4, h=4, eps=Fraction(1, 2), ldd_repetitions=4, seed=3)


def recorded_phases(monkeypatch, name):
    """Run band 0 and band 3 of one epoch on a contract input; return
    (scaled graph, band, the LddResult of each repetition) per phase."""
    decompose = shallow_reduce._StrongParts.decompose
    results = []

    def recording(self, *args):
        results.append(decompose(self, *args))
        return results[-1]

    monkeypatch.setattr(shallow_reduce._StrongParts, "decompose", recording)
    g = generate(CONTRACT_INPUTS[name])
    cfg = CONTRACT_CFG
    phases = []
    for j in (0, 3):
        run_phase(g, 1, j, cfg, ExactTransitiveOracle(g.vertex_count))
        phases.append((scale_down_graph(g, j, cfg.eps), j, results[:]))
        results.clear()
    return phases


class TestStrongComponentDecomposition:
    """run_phase decomposes each strong component of its scaled graph on
    its own; the combined result must still meet the LDD's contract on the
    whole scaled graph."""

    @pytest.mark.parametrize("name", CONTRACT_INPUTS)
    def test_no_edge_between_strong_components_is_removed(self, monkeypatch, name):
        removed_total = 0
        for scaled, _, results in recorded_phases(monkeypatch, name):
            labels = connected_components(scaled._csr, connection="strong")[1]
            across = labels[scaled.tails] != labels[scaled.heads]
            assert across.any()
            for res in results:
                removed = np.asarray(res.removed_edges, dtype=np.int64)
                assert not across[removed].any()
                removed_total += len(removed)
        assert removed_total > 0

    @pytest.mark.parametrize("name", CONTRACT_INPUTS)
    def test_components_are_a_clustered_input(self, monkeypatch, name):
        for scaled, _, results in recorded_phases(monkeypatch, name):
            for res in results:
                group = _component_labels(res.remaining_graph(scaled), res.components)
                assert len(np.unique(group)) == len(res.components)

    @pytest.mark.parametrize("name", CONTRACT_INPUTS)
    def test_result_is_an_ldd_of_the_scaled_graph(self, monkeypatch, name):
        # weak diameters are measured in the whole scaled graph
        d = CONTRACT_CFG.lam * CONTRACT_CFG.h // 2
        for scaled, _, results in recorded_phases(monkeypatch, name):
            for res in results:
                report = verify_ldd(scaled, d, res)
                assert report.passed, report.violations[:3]

    @pytest.mark.parametrize("name", CONTRACT_INPUTS)
    def test_each_component_decomposed_with_its_own_key(self, monkeypatch, name):
        # reference: one LDD per multi-vertex strong component, the k-th in
        # topological order seeded by spawn key (epoch, phase, rep, 0, k)
        d = CONTRACT_CFG.lam * CONTRACT_CFG.h // 2
        for scaled, j, results in recorded_phases(monkeypatch, name):
            assert len(results) == CONTRACT_CFG.ldd_repetitions
            for r, res in enumerate(results):
                key = (1, j, r, 0)
                components, removed = [], []
                for k, comp in enumerate(scc_topological(scaled)):
                    if len(comp) == 1:
                        components.append(comp)
                        continue
                    sub, ids = induced_subgraph(scaled, comp)
                    inside = np.isin(scaled.tails, ids) & np.isin(scaled.heads, ids)
                    seed = np.random.SeedSequence(CONTRACT_CFG.seed, spawn_key=key + (k,))
                    local = low_diameter_decomposition(sub, d, seed)
                    components += [tuple(ids[list(c)].tolist()) for c in local.components]
                    removed += np.flatnonzero(inside)[list(local.removed_edges)].tolist()
                assert res.components == tuple(components)
                assert res.removed_edges == tuple(sorted(removed))

    def test_unit_path_runs_no_decomposition(self, monkeypatch):
        calls = []
        decompose = shallow_reduce.low_diameter_decomposition

        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(shallow_reduce, "low_diameter_decomposition", counted)
        g = unit_path(48)
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=3)
        out, trace = run_phase(g, 1, 0, cfg, ExactTransitiveOracle(48))
        assert calls == []
        assert [r.decompositions for r in trace.repetitions] == [0, 0, 0]
        assert [r.removed_edges for r in trace.repetitions] == [0, 0, 0]
        assert [r.components for r in trace.repetitions] == [48, 48, 48]
        # nothing cut, so one clustered-DAG run reaches every pair
        assert len(out) == 48 * 47 // 2


class TestReduceHopset:
    def test_distance_preservation_random_weighted(self):
        rng = np.random.default_rng(3)
        n, m = 48, 140
        t = rng.integers(0, n, size=m)
        h = (t + 1 + rng.integers(0, n - 1, size=m)) % n
        g = DiGraph.from_arrays(n, t, h, rng.integers(1, 9, size=m), 8)
        cfg = ReductionConfig(lam=8, h=8, eps=Fraction(1, 2), ldd_repetitions=2)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(n))
        assert report.clamp_count == 0
        assert np.array_equal(dist_all_pairs(g.with_extra(report.hopset)), dist_all_pairs(g))

    def test_epoch_hop_metric_never_increases(self):
        # few hubs, so the unit path needs several epochs to reach h hops
        g = unit_path(64)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2)
        report = reduce_hopset(g, cfg, HubSamplingOracle(64, 0.05))
        metrics = report.epoch_hopbounds
        assert len(metrics) >= 2
        assert metrics == sorted(metrics, reverse=True)

    def test_long_hopset_edges_keep_the_stop_check(self):
        # hopset edges up to 31 * 2^40 long: n^2 times the longest edge is
        # past 2^53, n times the longest distance is not
        n = 32
        g = DiGraph.from_edges(n, [(i, i + 1, 1 << 40) for i in range(n - 1)])
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=1)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(n))
        assert report.clamp_count == 0
        assert report.epoch_hopbounds == [1]
        assert len(report.epochs) == 1
        assert verify_hopset(g, report.hopset, 1, cfg.h).passed

    def test_stop_check_runs_wherever_the_packed_distances_are_exact(self):
        # 3 * (q + 1) is past 2^53, but the one reachable pair, at distance
        # q and one hop, packs to 3 * q + 1 < 2^53: its hops are exact
        q = (1 << 53) // 3
        g = DiGraph.from_edges(3, [(0, 1, q)], max_length_bound=q)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=1)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(3))
        assert report.epoch_hopbounds == [1]
        assert len(report.epochs) == 1

    def test_distances_past_the_exact_range_run_every_epoch(self):
        # 16 * (15 * 2^47 + 1) is past 2^53: hops cannot be counted
        # exactly, so no epoch records an entry and nothing raises
        n = 16
        g = DiGraph.from_edges(n, [(i, i + 1, 1 << 47) for i in range(n - 1)])
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=1)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(n))
        assert report.epoch_hopbounds == []
        assert len(report.epochs) == report.epoch_count
        assert report.clamp_count == 0
        assert np.array_equal(dist_all_pairs(g.with_extra(report.hopset)), dist_all_pairs(g))

    def test_determinism(self):
        g = unit_path(48)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2, seed=5)
        a = reduce_hopset(g, cfg, ExactTransitiveOracle(48))
        b = reduce_hopset(g, cfg, ExactTransitiveOracle(48))
        assert a.hopset == b.hopset
        assert a.to_json() == b.to_json()

    def test_call_accounting(self):
        g = unit_path(32)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(32))
        from_traces = sum(
            tr.oracle_calls for epoch in report.epochs for tr in epoch
        )
        assert report.oracle_calls == from_traces
        # every strong component of a path is one vertex: no LDD runs
        assert report.ldd_calls == 0
        assert report.to_json()["ldd_calls"] == 0
        cycle = generate(GeneratorSpec("cycle", n=32))
        report = reduce_hopset(cycle, cfg, ExactTransitiveOracle(32))
        phases = sum(len(epoch) for epoch in report.epochs)
        assert report.ldd_calls == 2 * phases > 0

    def test_shallow_graph_already_within_budget(self):
        g = DiGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        cfg = ReductionConfig(lam=4, h=3, ldd_repetitions=1)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(4))
        assert len(report.epochs) == 1
        assert report.epoch_hopbounds[-1] <= cfg.h
        assert verify_hopset(g, report.hopset, 1, cfg.h).passed


def measure_cases():
    """Small weighted graphs, each with a self-loop and a parallel edge,
    and hopsets over them whose every edge is at least the true distance;
    the unit path needs n - 1 hops from end to end."""
    cases = [(unit_path(7), WeightedEdgeSet.empty())]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 3 * n + 1))
        t, h = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        w = rng.integers(1, 9, size=m)
        t, h = np.r_[t, t[0], t[0]], np.r_[h, t[0], h[0]]
        g = DiGraph.from_arrays(n, t, h, np.r_[w, rng.integers(1, 9, size=2)], 8)
        dist = dist_all_pairs(g)
        u, v = np.nonzero(np.isfinite(dist) & (dist > 0))
        pick = rng.random(len(u)) < rng.random()
        u, v = u[pick], v[pick]
        slack = rng.integers(0, 3, size=len(u))
        hopset = WeightedEdgeSet.from_arrays(u, v, dist[u, v].astype(np.int64) + slack)
        cases.append((g, hopset))
    return cases


class TestMeasure:
    """_measure(G union H) is the fewest hops k for which the k-hop
    distances of G union H are the distances of G, whenever no edge of H is
    shorter than the true distance."""

    # None keeps one chunk of sources; 1 and 16 cells split the sources
    @pytest.mark.parametrize("cells", [None, 1, 16])
    def test_is_the_fewest_hops_that_reach_every_distance(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(shallow_reduce, "_CELLS", cells)
        for g, hopset in measure_cases():
            dist = dist_all_pairs(g)
            finite = np.isfinite(dist)
            gu = g.with_extra(hopset)
            hops = shallow_reduce._measure(gu)
            for k in range(g.vertex_count + 1):
                exact = np.array_equal(hop_limited_dist(gu, k)[finite], dist[finite])
                assert (hops <= k) == exact, (g.vertex_count, k, hops)

    def test_returns_none_past_the_exact_float_range(self):
        # 16 * (15 * 2^50) is past 2^53: the distances length * n + hops
        # would round
        g = DiGraph.from_edges(16, [(i, i + 1, (1 << 50) - i) for i in range(15)])
        assert shallow_reduce._measure(g) is None

    @pytest.mark.parametrize("length, hops", [((1 << 52) - 1, 1), (1 << 52, None)])
    def test_exact_range_ends_at_two_to_the_53(self, length, hops):
        # one edge of length L on 2 vertices packs to 2L + 1, below 2^53
        # exactly when L < 2^52
        g = DiGraph.from_edges(2, [(0, 1, length)], max_length_bound=length)
        assert shallow_reduce._measure(g) == hops

    def test_edges_off_every_shortest_path_may_be_long(self):
        # a self-loop, a parallel edge heavier than its twin and a shortcut
        # heavier than the path it skips lie on no shortest path, so their
        # lengths may pass the exact range
        edges = [(i, i + 1, 1) for i in range(15)]
        edges += [(3, 3, 1 << 60), (0, 1, 1 << 60), (0, 15, 1 << 60)]
        assert shallow_reduce._measure(DiGraph.from_edges(16, edges)) == 15


class NoEdgesOracle(ExactTransitiveOracle):
    """Returns no edges at all."""

    def build(self, call, rng):
        return WeightedEdgeSet.empty()


class TestStopRule:
    """The epoch loop stops at the first epoch after which every reachable
    pair has a shortest path within h hops, on random-gnm n=128 m=384 N=32
    (generator seed 0), lambda = h = 8, eps = 1/2, two LDD repetitions,
    seed 0: 8 epochs of 6 phases at most."""

    @staticmethod
    def run(oracle):
        g = generate(GeneratorSpec("random-gnm", n=128, m=384, big_n=32, seed=0))
        cfg = ReductionConfig(lam=8, h=8, eps=Fraction(1, 2), ldd_repetitions=2, seed=0)
        report = reduce_hopset(g, cfg, oracle)
        assert report.epoch_count == 8
        assert len(report.epochs) == len(report.epoch_hopbounds)
        return g, report

    def test_exact_oracle_stops_after_one_epoch(self):
        g, report = self.run(ExactTransitiveOracle(128))
        assert report.epoch_hopbounds == [8]
        assert report.oracle_calls == 46
        assert verify_hopset(g, report.hopset, 1, 8).passed

    def test_sampling_oracle_runs_until_the_target_holds(self):
        g, report = self.run(HubSamplingOracle(128, 0.25))
        assert report.epoch_hopbounds == [10, 7]
        assert verify_hopset(g, report.hopset, 1, 8).passed

    def test_runs_every_epoch_while_the_target_fails(self):
        g, report = self.run(NoEdgesOracle(128))
        assert report.epoch_hopbounds == [13] * 8
        assert not verify_hopset(g, report.hopset, 1, 8).passed


class TestReportJson:
    """report.json is the report's fields, less the two written as
    artifacts, and json.dumps takes it as it is."""

    @staticmethod
    def report(mode):
        g = generate(GeneratorSpec("cycle", n=12))
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=2)
        if mode == "shortcut":
            report = reduce_shortcut(g, cfg, ExactReachabilityOracle(12))
            report.verification = verify_shortcut(g, report.shortcut, cfg.h)
        else:
            report = reduce_hopset(g, cfg, ExactTransitiveOracle(12))
            report.verification = verify_distance_preservation(g, report.hopset)
        return report

    @pytest.mark.parametrize("mode", ["hopset", "shortcut"])
    def test_keys_are_the_fields(self, mode):
        doc = self.report(mode).to_json()
        names = {f.name for f in dataclasses.fields(shallow_reduce.ReductionReport)}
        assert set(doc) == names - {"hopset", "shortcut"}
        reps = [rep for epoch in doc["epochs"] for tr in epoch for rep in tr["repetitions"]]
        rep_names = {f.name for f in dataclasses.fields(shallow_reduce.RepetitionTrace)}
        assert reps and all(set(rep) == rep_names for rep in reps)

    @pytest.mark.parametrize("mode", ["hopset", "shortcut"])
    def test_dumps_with_no_default(self, mode):
        report = self.report(mode)
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["verification"]["passed"] is True
        assert doc["total_size"] == len(report.hopset)


class ShortenedOracle(ExactTransitiveOracle):
    """Faulty: every returned length of 2 or more comes back 1 too short."""

    def build(self, call, rng):
        out = super().build(call, rng)
        lengths = np.where(out.lengths >= 2, out.lengths - 1, out.lengths)
        return WeightedEdgeSet.from_arrays(out.tails, out.heads, lengths)


class BackEdgeOracle(ExactTransitiveOracle):
    """Faulty: returns one edge, from the last vertex back to vertex 0."""

    def build(self, call, rng):
        return WeightedEdgeSet.from_arrays([call.graph.vertex_count - 1], [0], [1])


class TestFaultyOracle:
    """The epoch loop checks what a pluggable oracle returns against the
    distances of the input."""

    def test_too_short_lengths_are_clamped(self):
        g = unit_path(16)
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=1)
        report = reduce_hopset(g, cfg, ShortenedOracle(16))
        assert report.clamp_count > 0
        assert report.to_json()["clamp_count"] == report.clamp_count
        check = verify_distance_preservation(g, report.hopset)
        assert check.passed, check.violations[:3]

    def test_edge_between_unreachable_vertices_is_an_error(self):
        g = unit_path(16)
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=1)
        with pytest.raises(RuntimeError, match=r"unreachable vertices \(15, 0\)"):
            reduce_hopset(g, cfg, BackEdgeOracle(16))


class TestReduceShortcut:
    def test_unit_path(self):
        g = unit_path(128)
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2)
        report = reduce_shortcut(g, cfg, ExactReachabilityOracle(128))
        assert verify_shortcut(g, report.shortcut, 8).passed
        assert report.clamp_count == 0

    def test_stop_rule_matches_an_all_pairs_reference(self):
        """The stop rule and verify_shortcut share _farthest_pair, so a fault
        there would go unseen by the verifier: the last hop radius is judged
        by the all-pairs formula instead, the largest finite unit-length
        distance of G union H."""
        g = generate(GeneratorSpec("cycle", n=96))
        cfg = ReductionConfig(lam=4, h=8, ldd_repetitions=2)
        report = reduce_shortcut(g, cfg, ExactReachabilityOracle(96))
        bounds = report.epoch_hopbounds
        hops = dist_all_pairs(g.with_extra(report.shortcut.with_unit_lengths()))
        np.fill_diagonal(hops, np.inf)
        assert bounds[-1] == int(hops[np.isfinite(hops)].max())
        assert bounds[-1] <= cfg.h
        assert len(bounds) > 1 and all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_single_edge_dag(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=1)
        report = reduce_shortcut(g, cfg, ExactReachabilityOracle(2))
        assert verify_shortcut(g, report.shortcut, 4).passed

    def test_disjoint_paths_stay_disjoint(self):
        g = generate(GeneratorSpec("disjoint-paths", n=128, paths=8))
        cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2)
        report = reduce_shortcut(g, cfg, ExactReachabilityOracle(128))
        assert verify_shortcut(g, report.shortcut, 8).passed
        block = np.asarray(report.shortcut.tails) // 16
        assert np.array_equal(block, np.asarray(report.shortcut.heads) // 16)

    def test_rejects_weighted_graph(self):
        g = DiGraph.from_edges(2, [(0, 1, 3)])
        cfg = ReductionConfig(lam=4, h=4)
        with pytest.raises(ValueError):
            reduce_shortcut(g, cfg, ExactReachabilityOracle(2))

    @pytest.mark.parametrize("family", ["path", "disjoint-paths"])
    def test_shortcut_does_not_depend_on_eps(self, family):
        # Reachability has one length scale and no stretch to trade against
        # hops, so neither eps nor the graph's length bound may reach the
        # shortcut or its report.
        extra = {"paths": 4} if family == "disjoint-paths" else {}
        g = generate(GeneratorSpec(family, n=96, **extra))
        reports = [
            reduce_shortcut(
                DiGraph(g.vertex_count, g.tails, g.heads, g.lengths, bound),
                ReductionConfig(lam=8, h=8, eps=eps, ldd_repetitions=2),
                ExactReachabilityOracle(96),
            )
            for bound in (1, 8)
            for eps in (Fraction(1, 4), Fraction(1), Fraction(3))
        ]
        assert all(r.shortcut == reports[0].shortcut for r in reports)
        assert all(r.to_json() == reports[0].to_json() for r in reports)

    def test_lambda_prime_has_no_eps_factor(self):
        cfg = ReductionConfig(lam=4096, h=4, eps=Fraction(1, 2))
        report = reduce_shortcut(unit_path(16), cfg, ExactReachabilityOracle(16))
        assert report.lambda_prime == 256  # 4096 / log2(16)^2, not halved

    def test_one_closure_per_oracle_call_and_stop_check(self, monkeypatch):
        # the oracle closes its call's graph, shortcut_as_hopset checks the
        # shortcut against the closure kept on that graph, and every epoch's
        # stop rule reads the closure of reduce_shortcut's unit-length input,
        # since a shortcut joins only reachable pairs: no graph is closed
        # twice and no union graph is closed at all
        closed, checked, returned, called = [], [], [], []
        closure, reachable = graphs._closure, oracles.pairs_reachable

        def counted_closure(g):
            closed.append(g)
            return closure(g)

        def counted_reachable(g, tails, heads):
            checked.append(len(tails))
            return reachable(g, tails, heads)

        class Recording(ExactReachabilityOracle):
            def build_shortcut(self, call, rng):
                out = super().build_shortcut(call, rng)
                called.append(call.graph)
                returned.append(len(out))
                return out

        monkeypatch.setattr(graphs, "_closure", counted_closure)
        monkeypatch.setattr(oracles, "pairs_reachable", counted_reachable)
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=2)
        cycle = generate(GeneratorSpec("cycle", n=64))
        report = reduce_shortcut(cycle, cfg, Recording(64))
        epochs = len(report.epochs)
        assert epochs >= 2 and report.oracle_calls >= 2 * epochs
        assert len(closed) == report.oracle_calls + 1
        assert len({id(g) for g in closed}) == len(closed)
        (base,) = [g for g in closed if not any(g is c for c in called)]
        assert base.vertex_count == cycle.vertex_count and base.max_length_bound == 1
        assert np.array_equal(base.tails, cycle.tails)
        assert np.array_equal(base.heads, cycle.heads)
        # every pair the oracle returned was still checked
        assert sum(checked) == sum(returned) > 0


def _edge_digest(es):
    columns = [es.tails, es.heads] + ([es.lengths] if hasattr(es, "lengths") else [])
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(c, dtype="<i8").tobytes() for c in columns)
    ).hexdigest()[:12]


class TestPinnedShortcuts:
    """Digests of reduce_shortcut's shortcut on unit paths, lambda = h = 16,
    two LDD repetitions, seeds 0-2, recorded when run_phase began to
    decompose each strong component on its own. Every strong component of
    a path is one vertex, so nothing is cut, one epoch's clustered-DAG runs
    see the whole path and the exact oracle returns its whole closure, at
    every seed. Any change to the closure's pair set or order moves them."""

    PINNED = {
        256: ["9969fff0742f"] * 3,
        1024: ["96d5f59325ff"] * 3,
    }

    @pytest.mark.parametrize("n", [256, 1024])
    def test_unit_path(self, n):
        g = unit_path(n)
        closure = EdgeSet.from_arrays(*np.triu_indices(n, 1))
        got = []
        for seed in range(3):
            report = reduce_shortcut(
                g, ReductionConfig(lam=16, h=16, ldd_repetitions=2, seed=seed),
                ExactReachabilityOracle(n),
            )
            assert verify_shortcut(g, report.shortcut, 16).passed
            assert report.shortcut == closure
            assert len(report.epochs) == 1 and report.ldd_calls == 0
            got.append(_edge_digest(report.shortcut))
        assert got == self.PINNED[n]


class TestPinnedHopsets:
    """Digests of reduce_hopset's hopset and of its report's JSON on
    random-gnm n=48 m=144 N=8 (generator seed 0), lambda = h = 8, eps = 1/2,
    two LDD repetitions, seeds 0-1, recorded when the epoch loop began to
    stop once every reachable pair has a shortest path within h hops. Each
    case first checks the hopset on its own: it keeps every distance, no
    clamp fired and its h-hop stretch is 1. Any change to the epoch loop,
    the decompositions, the clamp, the stop rule or the report's fields
    moves them."""

    PINNED = {0: ("ba6b185dc131", "d6f62d927812"), 1: ("5af12b43356f", "8b9d7d6bf04d")}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_gnm(self, seed):
        g = generate(GeneratorSpec("random-gnm", n=48, m=144, big_n=8, seed=0))
        cfg = ReductionConfig(lam=8, h=8, eps=Fraction(1, 2), ldd_repetitions=2, seed=seed)
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(48))
        assert np.array_equal(dist_all_pairs(g.with_extra(report.hopset)), dist_all_pairs(g))
        assert report.clamp_count == 0
        assert verify_hopset(g, report.hopset, 1, cfg.h).passed
        text = json.dumps(report.to_json(), sort_keys=True).encode()
        got = (_edge_digest(report.hopset), hashlib.sha256(text).hexdigest()[:12])
        assert got == self.PINNED[seed]
