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
    ball,
    dist_all_pairs,
    estimate_removal_probability,
    find_balanced_set,
    induced_subgraph,
    low_diameter_decomposition,
    scc_topological,
    verify_ldd,
)
from shallowcut import ldd
from shallowcut.ldd import _Seed


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def random_digraph(n, m, max_len, seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, n, size=m)
    h = (t + 1 + rng.integers(0, n - 1, size=m)) % n
    w = rng.integers(1, max_len + 1, size=m)
    return DiGraph.from_arrays(n, t, h, w, max_length_bound=max_len)


def _wide_graph():
    """Weighted digraph on 130 vertices: a random graph plus a unit path
    through every vertex, so short balls cross the 64-bit word boundaries."""
    rng = np.random.default_rng(17)
    t = rng.integers(0, 130, size=260)
    h = (t + 1 + rng.integers(0, 129, size=260)) % 130
    w = rng.integers(1, 4, size=260)
    path = np.arange(129)
    return DiGraph.from_arrays(
        130,
        np.concatenate([t, path]),
        np.concatenate([h, path + 1]),
        np.concatenate([w, np.ones(129, dtype=np.int64)]),
        3,
    )


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

    @pytest.mark.parametrize("v, radius, direction, within, message", [
        (0, -1, "out", None, "radius must be nonnegative"),
        (0, 1, "both", None, "direction must be 'in' or 'out'"),
        (4, 1, "out", None, "v must be a vertex of within"),
        (-1, 1, "out", None, "v must be a vertex of within"),
        (0, 1, "in", [1, 2], "v must be a vertex of within"),
    ], ids=["radius", "direction", "v-past-n", "v-negative", "v-outside-within"])
    def test_rejects_bad_arguments(self, v, radius, direction, within, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ball(unit_path(4), v, radius, direction, within=within)

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

    @given(
        st.sampled_from([0, 1, 62, 63, 64, 65, 100, 127, 128, 129]),
        st.integers(0, 8),
        st.sets(st.sampled_from([63, 64, 128])),
    )
    @example(v=62, radius=8, dropped={63, 64, 128})
    @example(v=127, radius=8, dropped={128})
    @settings(max_examples=30, deadline=None)
    def test_matches_distance_threshold_past_one_word(self, v, radius, dropped):
        # 130 vertices: pieces span three 64-bit words, and the dropped
        # vertices sit on both sides of the first word boundary and open
        # the third word
        g = _wide_graph()
        dist = dist_all_pairs(g)
        assert ball(g, v, radius, "out") == {
            int(u) for u in np.flatnonzero(dist[v] <= radius)
        }
        assert ball(g, v, radius, "in") == {
            int(u) for u in np.flatnonzero(dist[:, v] <= radius)
        }
        piece = sorted((set(range(130)) - dropped) | {v})
        sub, orig = induced_subgraph(g, piece)
        src = piece.index(v)
        for direction, mat in (("out", sub._csr), ("in", sub._csr_rev)):
            row = dijkstra(mat, directed=True, indices=[src], limit=radius)[0]
            assert ball(g, v, radius, direction, within=piece) == {
                int(orig[u]) for u in np.flatnonzero(row <= radius)
            }


class TestFindBalancedSet:
    def test_empty_input(self):
        g = unit_path(8)
        rng = np.random.default_rng(0)
        assert find_balanced_set(g, set(), 4, "in", rng) == set()

    def test_isolated_vertex(self):
        g = DiGraph.from_edges(5, [(1, 2, 1)])
        rng = np.random.default_rng(0)
        assert find_balanced_set(g, {0}, 8, "out", rng) == {0}

    def test_replay_on_cycle(self):
        n = 20
        g = DiGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])
        d = 16
        centers = [0, 4, 8, 12, 16]
        a = find_balanced_set(g, centers, d, "out", np.random.default_rng(7))
        # replay the same permutation and radii stream, then rebuild the
        # union by brute force
        rng = np.random.default_rng(7)
        order = rng.permutation(np.array(sorted(centers)))
        p = min(2 * math.log2(n) / d, 1.0)  # the analysis's c = 2
        radii = np.minimum(rng.geometric(p, size=len(centers)), d // 4)
        expected = set()
        for v, r in zip(order, radii):
            expected |= ball(g, v, int(r), "out")
            if 10 * len(expected) > n:
                break
        assert a == expected

    def test_result_balanced_or_exhausts_input(self):
        g = random_digraph(40, 120, 2, seed=3)
        centers = set(range(0, 40, 3))
        a = find_balanced_set(g, centers, 8, "in", np.random.default_rng(1))
        assert 10 * len(a) > g.vertex_count or centers <= a


class TestDecomposition:
    def test_empty_graph(self):
        g = DiGraph.from_edges(0, [])
        result = low_diameter_decomposition(g, 4, np.random.SeedSequence(0))
        assert result.removed_edges == ()
        assert result.components == ()

    def test_small_complete_digraph_single_component(self):
        n = 6
        edges = [(i, j, 1) for i in range(n) for j in range(n) if i != j]
        g = DiGraph.from_edges(n, edges)
        result = low_diameter_decomposition(g, 64, np.random.SeedSequence(1))
        assert result.removed_edges == ()
        assert len(result.components) == 1

    def test_long_path_contract(self):
        g = unit_path(1000)
        result = low_diameter_decomposition(g, 100, np.random.SeedSequence(0))
        report = verify_ldd(g, 100, result)
        assert report.passed, [v.to_json() for v in report.violations]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_contract(self, seed):
        g = random_digraph(120, 500, 4, seed=seed)
        d = 24
        result = low_diameter_decomposition(g, d, np.random.SeedSequence(seed))
        report = verify_ldd(g, d, result)
        assert report.passed, [v.to_json() for v in report.violations]

    def test_determinism(self):
        g = random_digraph(80, 300, 3, seed=9)
        a = low_diameter_decomposition(g, 16, np.random.SeedSequence(123))
        b = low_diameter_decomposition(g, 16, np.random.SeedSequence(123))
        assert a == b

    def test_different_seed_usually_differs(self):
        g = unit_path(300)
        a = low_diameter_decomposition(g, 20, np.random.SeedSequence(0))
        b = low_diameter_decomposition(g, 20, np.random.SeedSequence(1))
        assert a != b

    def test_remaining_graph_drops_removed(self):
        g = unit_path(300)
        result = low_diameter_decomposition(g, 16, np.random.SeedSequence(2))
        remaining = result.remaining_graph(g)
        assert remaining.edge_count == g.edge_count - len(result.removed_edges)

    def test_give_up_drops_every_edge_of_the_node(self, monkeypatch):
        # balanced sets that swallow the whole piece split neither side and
        # leave no middle, so the clean-up fails and the node gives up; on a
        # unit cycle wider than d the trivial accept does not step in first
        monkeypatch.setattr(ldd, "_balanced", lambda adj, piece, *rest: piece)
        n, d = 16, 4
        g = DiGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])
        result = low_diameter_decomposition(g, d, np.random.SeedSequence(0))
        assert result.removed_edges == tuple(range(n))
        assert sorted(result.components) == [(v,) for v in range(n)]
        report = verify_ldd(g, d, result)
        assert report.passed, [v.to_json() for v in report.violations]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="d must be at least 1"):
            low_diameter_decomposition(unit_path(4), 0, np.random.SeedSequence(0))


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
            _digest(low_diameter_decomposition(g, d, np.random.SeedSequence(s)))
            for s in range(5)
        ]
        assert got == self.PATH[d]

    def test_spawned_seeds(self):
        # the seed sequences estimate_removal_probability hands out
        g = unit_path(512)
        got = [
            _digest(low_diameter_decomposition(
                g, 64, np.random.SeedSequence(0, spawn_key=(t,))
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
            got.append(_digest(low_diameter_decomposition(g, d, ss)))
        assert tuple(got) == self.PRESPAWNED[(entropy, key, spawned)]

    def test_criterion_one_graphs(self):
        got = []
        for g, d in _criterion_one_graphs():
            per_seed = "".join(
                _digest(low_diameter_decomposition(g, d, np.random.SeedSequence(s)))
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
            _digest(low_diameter_decomposition(g, d, np.random.SeedSequence(s)))
            for d in (4, 8, 16)
            for s in range(3)
        ]
        assert got == self.LOOPY


class TestSeedWords:
    """A node's seed is the words its SeedSequence mixes; the streams must
    be numpy's own for the same entropy, spawn key and pool size."""

    # the last is a list, whose ints numpy mixes word by word in turn
    ENTROPIES = [0, 7, 2**64 + 3, 0x9F3B_5C2E_71D4_0A86_E5B2_4C19_D873_6F20, [7, 2**40]]

    @pytest.mark.parametrize("entropy", ENTROPIES)
    @pytest.mark.parametrize("key", [(), (3,), (1, 4, 2**33)])
    @pytest.mark.parametrize("pool_size", [4, 8])
    def test_matches_numpy(self, entropy, key, pool_size):
        ss = np.random.SeedSequence(entropy, spawn_key=key, pool_size=pool_size)
        seed = _Seed.of(ss)
        assert np.array_equal(seed.sequence().generate_state(8), ss.generate_state(8))
        for i, child in enumerate(ss.spawn(2)):
            assert np.array_equal(
                seed.child(i).sequence().generate_state(8), child.generate_state(8)
            )
            grandchild = child.spawn(2)[1]
            assert np.array_equal(
                seed.child(i).child(1).sequence().generate_state(8),
                grandchild.generate_state(8),
            )

    @pytest.mark.parametrize("pool_size", [4, 8])
    def test_children_continue_after_spawned(self, pool_size):
        ss = np.random.SeedSequence(2**64 + 3, spawn_key=(1, 4), pool_size=pool_size)
        ss.spawn(5)
        seed = _Seed.of(ss)
        assert np.array_equal(seed.sequence().generate_state(8), ss.generate_state(8))
        for i, child in enumerate(ss.spawn(2)):
            assert child.spawn_key == (1, 4, 5 + i)
            assert np.array_equal(
                seed.child(i).sequence().generate_state(8), child.generate_state(8)
            )


class TestRefineToSccs:
    @staticmethod
    def per_group(g, removed, coarse):
        """The refinement as one scc_topological pass per group of two or
        more vertices."""
        keep = np.ones(g.edge_count, dtype=bool)
        keep[removed] = False
        remaining = g.edge_subset(keep)
        out = []
        for mask in coarse:
            group = [v for v in range(g.vertex_count) if mask >> v & 1]
            if len(group) == 1:
                out.append(tuple(group))
                continue
            sub, orig = induced_subgraph(remaining, group)
            out += [tuple(int(orig[v]) for v in comp) for comp in scc_topological(sub)]
        return out

    def test_matches_a_pass_per_group(self, monkeypatch):
        # the criterion-1 graphs; some group must split
        refine = ldd._refine_to_sccs
        pairs, splits = [], []

        def recording_refine(g, removed, coarse):
            out = refine(g, removed, coarse)
            pairs.append((out, self.per_group(g, removed, coarse)))
            splits.append(len(out) > len(coarse))
            return out

        monkeypatch.setattr(ldd, "_refine_to_sccs", recording_refine)
        for g, d in _criterion_one_graphs():
            low_diameter_decomposition(g, d, np.random.SeedSequence(0))
        assert all(got == want for got, want in pairs)
        assert any(splits)


class TestSharedAdjacency:
    def _counting(self, monkeypatch):
        built = []
        adjacency = ldd._adjacency

        def counted(mat, max_length):
            built.append(max_length)
            return adjacency(mat, max_length)

        monkeypatch.setattr(ldd, "_adjacency", counted)
        return built

    def test_one_build_per_graph_and_d(self, monkeypatch):
        built = self._counting(monkeypatch)
        g = random_digraph(60, 200, 4, seed=2)

        def run(graph, d, t):
            return low_diameter_decomposition(
                graph, d, np.random.SeedSequence(0, spawn_key=(t,))
            )

        first = [run(g, 16, t) for t in range(3)]
        assert built == [8, 8]  # forward and reverse, once
        run(g, 12, 0)
        assert built == [8, 8, 6, 6]
        # kept for as long as the graph lives: later calls at either d build nothing
        assert [run(g, 16, t) for t in range(3)] == first
        run(g, 12, 1)
        assert built == [8, 8, 6, 6]
        # a separate graph with equal edges builds its own, and decomposes
        # the same way as the graph whose adjacency was already kept
        twin = DiGraph.from_arrays(g.vertex_count, g.tails, g.heads, g.lengths, g.max_length_bound)
        built.clear()
        assert [run(twin, 16, t) for t in range(3)] == first
        assert built == [8, 8]

    def test_removal_trials_share_one_build(self, monkeypatch):
        built = self._counting(monkeypatch)
        g = unit_path(40)
        freq = estimate_removal_probability(g, 8, trials=5, seed=0)
        assert built == [4, 4]
        # the adjacency stays on g: another estimate builds nothing and
        # gives the same frequencies as a fresh graph with the same edges
        assert np.array_equal(estimate_removal_probability(g, 8, trials=5, seed=0), freq)
        assert built == [4, 4]
        again = estimate_removal_probability(unit_path(40), 8, trials=5, seed=0)
        assert np.array_equal(again, freq)
        assert built == [4, 4, 4, 4]


class TestRemovalProbability:
    def test_tiny_diameter_graph_never_cut(self):
        n = 6
        edges = [(i, j, 1) for i in range(n) for j in range(n) if i != j]
        g = DiGraph.from_edges(n, edges)
        freq = estimate_removal_probability(g, 64, trials=20, seed=0)
        assert np.all(freq == 0)

    def test_single_trial_binary(self):
        g = unit_path(100)
        freq = estimate_removal_probability(g, 8, trials=1, seed=4)
        assert set(np.unique(freq)) <= {0.0, 1.0}

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_removal_probability(unit_path(4), 4, trials=0, seed=0)
