"""Low-diameter decomposition: contract checks, determinism, sampling."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from shallowcut import (
    DiGraph,
    LddParams,
    ball,
    dist_all_pairs,
    estimate_removal_probability,
    find_balanced_set,
    induced_subgraph,
    low_diameter_decomposition,
    sample_truncated_geometric,
    verify_ldd,
)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def random_digraph(n, m, max_len, seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, n, size=m)
    h = (t + 1 + rng.integers(0, n - 1, size=m)) % n
    w = rng.integers(1, max_len + 1, size=m)
    return DiGraph.from_arrays(n, t, h, w, max_length_bound=max_len)


class TestBall:
    def test_radius_zero(self):
        g = unit_path(4)
        assert ball(g, 2, 0, "out") == {2}

    def test_forced_path_ball(self):
        g = unit_path(4)
        assert ball(g, 0, 2, "out") == {0, 1, 2}
        assert ball(g, 3, 2, "in") == {1, 2, 3}

    def test_long_edge_not_traversed(self):
        g = DiGraph.from_edges(2, [(0, 1, 3)])
        assert ball(g, 0, 2, "out") == {0}

    @given(
        st.integers(0, 9),
        st.integers(0, 6),
        st.lists(st.booleans(), min_size=10, max_size=10),
    )
    # lengths are 1..3, so small radii leave some edges untraversable; the
    # first example drops vertex 1, which the unrestricted 2-ball of 0 uses
    @example(v=0, radius=2, mask=[u != 1 for u in range(10)])
    @example(v=2, radius=1, mask=[True] * 10)
    @settings(max_examples=30, deadline=None)
    def test_matches_distance_threshold(self, v, radius, mask):
        g = random_digraph(10, 30, 3, seed=5)
        dist = dist_all_pairs(g)
        assert ball(g, v, radius, "out") == {
            int(u) for u in np.flatnonzero(dist[v] <= radius)
        }
        assert ball(g, v, radius, "in") == {
            int(u) for u in np.flatnonzero(dist[:, v] <= radius)
        }
        # restricted to a piece: distances of the induced subgraph
        piece = sorted(set(np.flatnonzero(mask).tolist()) | {v})
        sub, orig = induced_subgraph(g, piece)
        src = piece.index(v)
        for direction, mat in (("out", sub._csr), ("in", sub._csr_rev)):
            row = dijkstra(mat, directed=True, indices=[src], limit=radius)[0]
            assert ball(g, v, radius, direction, within=piece) == {
                int(orig[u]) for u in np.flatnonzero(row <= radius)
            }


class TestTruncatedGeometric:
    def test_p_one_always_one(self):
        rng = np.random.default_rng(0)
        assert all(sample_truncated_geometric(1.0, 10, rng) == 1 for _ in range(50))

    def test_cap_one_always_one(self):
        rng = np.random.default_rng(0)
        assert all(sample_truncated_geometric(0.1, 1, rng) == 1 for _ in range(50))

    def test_pmf_matches_analytic(self):
        rng = np.random.default_rng(42)
        draws = np.array(
            [sample_truncated_geometric(0.5, 4, rng) for _ in range(100_000)]
        )
        freq = np.bincount(draws, minlength=5)[1:] / len(draws)
        # overflow mass folds onto the cap: (.5, .25, .125, .125)
        assert np.allclose(freq, [0.5, 0.25, 0.125, 0.125], atol=0.01)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_truncated_geometric(0.0, 4, rng)
        with pytest.raises(ValueError):
            sample_truncated_geometric(0.5, 0, rng)


class TestFindBalancedSet:
    def test_empty_input(self):
        g = unit_path(8)
        rng = np.random.default_rng(0)
        assert find_balanced_set(g, set(), LddParams(d=4), "in", rng) == set()

    def test_isolated_vertex(self):
        g = DiGraph.from_edges(5, [(1, 2, 1)])
        rng = np.random.default_rng(0)
        assert find_balanced_set(g, {0}, LddParams(d=8), "out", rng) == {0}

    def test_replay_on_cycle(self):
        n = 20
        g = DiGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])
        params = LddParams(d=16)
        centers = [0, 4, 8, 12, 16]
        a = find_balanced_set(g, centers, params, "out", np.random.default_rng(7))
        # replay the same permutation and radii stream, then rebuild the
        # union by brute force
        rng = np.random.default_rng(7)
        order = rng.permutation(np.array(sorted(centers)))
        p = min(params.c * math.log2(n) / params.d, 1.0)
        radii = np.minimum(rng.geometric(p, size=len(centers)), params.d // 4)
        expected = set()
        for v, r in zip(order, radii):
            expected |= ball(g, v, int(r), "out")
            if 10 * len(expected) > n:
                break
        assert a == expected

    def test_result_balanced_or_exhausts_input(self):
        g = random_digraph(40, 120, 2, seed=3)
        params = LddParams(d=8)
        centers = set(range(0, 40, 3))
        a = find_balanced_set(g, centers, params, "in", np.random.default_rng(1))
        assert 10 * len(a) > g.vertex_count or centers <= a


class TestDecomposition:
    def test_empty_graph(self):
        result = low_diameter_decomposition(
            DiGraph.from_edges(0, []), LddParams(d=4)
        )
        assert result.removed_edges == ()
        assert result.components == ()

    def test_small_complete_digraph_single_component(self):
        n = 6
        edges = [(i, j, 1) for i in range(n) for j in range(n) if i != j]
        g = DiGraph.from_edges(n, edges)
        result = low_diameter_decomposition(g, LddParams(d=64, seed=1))
        assert result.removed_edges == ()
        assert len(result.components) == 1

    def test_long_path_contract(self):
        g = unit_path(1000)
        result = low_diameter_decomposition(g, LddParams(d=100, seed=0))
        report = verify_ldd(g, 100, result)
        assert report.passed, [v.to_json() for v in report.violations]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_contract(self, seed):
        g = random_digraph(120, 500, 4, seed=seed)
        d = 24
        result = low_diameter_decomposition(g, LddParams(d=d, seed=seed))
        report = verify_ldd(g, d, result)
        assert report.passed, [v.to_json() for v in report.violations]

    def test_determinism(self):
        g = random_digraph(80, 300, 3, seed=9)
        params = LddParams(d=16, seed=123)
        a = low_diameter_decomposition(g, params)
        b = low_diameter_decomposition(g, params)
        assert a == b

    def test_different_seed_usually_differs(self):
        g = unit_path(300)
        a = low_diameter_decomposition(g, LddParams(d=20, seed=0))
        b = low_diameter_decomposition(g, LddParams(d=20, seed=1))
        assert a != b

    def test_remaining_graph_drops_removed(self):
        g = unit_path(300)
        result = low_diameter_decomposition(g, LddParams(d=16, seed=2))
        remaining = result.remaining_graph(g)
        assert remaining.edge_count == g.edge_count - len(result.removed_edges)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LddParams(d=0)
        with pytest.raises(ValueError):
            LddParams(d=4, c=0)


def _digest(result):
    return hashlib.sha256(
        repr((result.removed_edges, result.components)).encode()
    ).hexdigest()[:12]


def _criterion_one_graphs():
    """The (graph, d) stream of acceptance criterion 1."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 301))
        m = int(rng.integers(0, 1201))
        t = rng.integers(0, n, size=m)
        h = (t + 1 + rng.integers(0, n - 1, size=m)) % n
        w = rng.integers(1, 17, size=m)
        yield DiGraph.from_arrays(n, t, h, w, 16), int(rng.integers(4, 65))


class TestPinnedOutputs:
    """Digests of (removed_edges, components) recorded from the earlier
    implementation, which built a scipy subgraph for every recursion node
    and searched it with scipy's dijkstra. Any change to a node's draw
    order or ball membership moves them."""

    PATH = {
        32: ["7f8b3b24c232", "42b400afa4e5", "cd193e7f36b6", "bc41ac2ab6e4", "bf8442e2e35d"],
        64: ["fc2a00e505ab", "04fbe8e8b38c", "e6874f05a08a", "bc9d28f8f756", "3dfee5c2f6a7"],
        128: ["9057512957a7", "1461d68d6e1b", "6c7becc47175", "8c8db7b3418d", "60edc43aed67"],
    }
    CRITERION_ONE = [
        "10ae9ec1a904", "883d05458639", "e73d80541a5b", "c81d0c25978d", "8571119bee5d",
        "cb9d3cd29b74", "8f216853b6d5", "60c25f34102d", "7551929f5dfb", "201181512901",
        "44598ac0032a", "10dd68b47c0e", "b4855c46bcde", "87a367b45997", "5e354be08b2f",
        "e2bb978246f9", "97fbf0dfde20", "2d3ea9f8a35b", "558e6106e3e9", "bd6331a0070b",
        "83d08e3992c7", "6b7c169fdafa", "c5da14c62053", "412c97fe15cb", "f032cab2c43e",
        "83d08e3992c7", "db0811a18a24", "9ca39f644695", "316c4a05fc86", "c32c02ab173e",
        "15b2e13cc87e", "d862df96f8f2", "d418b9d7f1da", "32e1ee59f46a", "80ca7e954b25",
        "d6d1e0c08121", "27cba3165bb7", "64b9aedefec6", "463e91576f71", "9d6856401ffa",
        "e2fe36ccede1", "e803b1731237", "10dbfc6452ac", "373338f84a20", "c7211045abb3",
        "d8632ce3fbec", "495fb30c1175", "9aa0f0d0e824", "85f43074ee1d", "10dbfc6452ac",
    ]
    LOOPY = [
        "fb81f970e541", "a03d62d1573d", "9ce8fb4c486e",  # d=4, seeds 0-2
        "ee2a349b2fde", "a03d62d1573d", "a41ac0e1d903",  # d=8
        "a87efc2024eb", "0cd5998fa0e2", "b7300bd9b6e6",  # d=16
    ]
    SPAWNED = ["60fc73289850", "d05ccc3f5870", "6a9f177ca3a1"]
    # (entropy, spawn_key, children already spawned), each on the unit path
    # (d=64) and on a random digraph (d=16); recorded from the implementation
    # that called seed_seq.spawn(2) in every drawing node
    PRESPAWNED = {
        (0, (), 1): ("fe568810e06a", "6c0196936daf"),
        (7, (3,), 2): ("0815251eeab9", "c249d532d3cb"),
        (11, (1, 4), 5): ("5b4d24d47b3d", "9389f4e45474"),
    }

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_unit_path(self, d):
        g = unit_path(512)
        got = [
            _digest(low_diameter_decomposition(g, LddParams(d=d, seed=s)))
            for s in range(5)
        ]
        assert got == self.PATH[d]

    def test_spawned_seeds(self):
        # the seed sequences estimate_removal_probability hands out
        g = unit_path(512)
        got = [
            _digest(low_diameter_decomposition(
                g, LddParams(d=64), seed_seq=np.random.SeedSequence(0, spawn_key=(t,))
            ))
            for t in range(3)
        ]
        assert got == self.SPAWNED

    @pytest.mark.parametrize("entropy,key,spawned", list(PRESPAWNED))
    def test_prespawned_seed_sequence(self, entropy, key, spawned):
        # the root's children continue the numbering of the children the
        # caller's SeedSequence has already handed out, as spawn() would
        got = []
        for g, d in ((unit_path(512), 64), (random_digraph(120, 360, 4, 5), 16)):
            ss = np.random.SeedSequence(entropy, spawn_key=key)
            ss.spawn(spawned)
            got.append(_digest(low_diameter_decomposition(g, LddParams(d=d), seed_seq=ss)))
        assert tuple(got) == self.PRESPAWNED[(entropy, key, spawned)]

    def test_criterion_one_graphs(self):
        got = []
        for g, d in _criterion_one_graphs():
            per_seed = "".join(
                _digest(low_diameter_decomposition(g, LddParams(d=d, seed=s)))
                for s in range(5)
            )
            got.append(hashlib.sha256(per_seed.encode()).hexdigest()[:12])
        assert got == self.CRITERION_ONE

    def test_self_loops_and_parallel_edges(self):
        # self-loops count as internal edges of a piece, so they decide
        # whether a piece is recursed into at all
        rng = np.random.default_rng(77)
        t = rng.integers(0, 60, size=240)
        h = rng.integers(0, 60, size=240)
        h[::8] = t[::8]
        g = DiGraph.from_arrays(60, t, h, rng.integers(1, 6, size=240), 5)
        got = [
            _digest(low_diameter_decomposition(g, LddParams(d=d, seed=s)))
            for d in (4, 8, 16)
            for s in range(3)
        ]
        assert got == self.LOOPY


class TestRemovalProbability:
    def test_tiny_diameter_graph_never_cut(self):
        n = 6
        edges = [(i, j, 1) for i in range(n) for j in range(n) if i != j]
        g = DiGraph.from_edges(n, edges)
        freq = estimate_removal_probability(g, LddParams(d=64, seed=0), trials=20)
        assert np.all(freq == 0)

    def test_single_trial_binary(self):
        g = unit_path(100)
        freq = estimate_removal_probability(g, LddParams(d=8, seed=4), trials=1)
        assert set(np.unique(freq)) <= {0.0, 1.0}

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_removal_probability(unit_path(4), LddParams(d=4), trials=0)
