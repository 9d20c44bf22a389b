"""Graph primitives: distances, hop limits, diameters, SCC order, closure."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shallowcut import (
    DiGraph,
    EdgeSet,
    GeneratorSpec,
    WeightedEdgeSet,
    dist_all_pairs,
    generate,
    hop_limited_dist,
    induced_subgraph,
    low_diameter_decomposition,
    pairs_reachable,
    reachable_pairs,
    scc_topological,
    strong_diameter,
    verify_hopset,
)
from shallowcut import graphs
from shallowcut.graphs import _min_csr, condensation_closure, group_blocks


@st.composite
def random_graphs(draw, max_n=50, max_m=150, max_len=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(1, max_len)),
        )
        for _ in range(m)
    ]
    return DiGraph.from_edges(n, edges, max_length_bound=max_len)


@st.composite
def closure_graphs(draw, max_n=20, max_m=50):
    """Unit-length graphs with self-loops and parallel edges; half of them
    acyclic apart from self-loops, so every vertex is its own component."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return DiGraph.from_edges(0, [])
    forward_only = draw(st.booleans())
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_m))):
        t, h = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if forward_only:
            t, h = min(t, h), max(t, h)
        edges.append((t, h, 1))
    repeated = edges[: draw(st.integers(0, len(edges)))]
    return DiGraph.from_edges(n, edges + repeated, max_length_bound=1)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def kept_arrays(obj):
    """Every numpy array inside obj: dict values, tuple and list items, and
    the three arrays of a scipy sparse matrix."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif sp.issparse(obj):
        yield from (obj.data, obj.indices, obj.indptr)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from kept_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from kept_arrays(item)


def vertex_reach(labels, rows, n):
    """The n x n bool matrix of condensation_closure's packed rows: u
    reaches v when bit v of rows[labels[u]] is set."""
    return np.unpackbits(rows[labels], axis=1, count=n, bitorder="little").view(bool)


@st.composite
def int_columns(draw, width, max_m=60):
    """width equal-length int64 columns drawn from a few values each (so
    rows repeat often), near 0, 2**40 or -2**40, spread narrowly or across
    2**40: three wide columns overflow one packed int64 key, narrow ones
    near 2**40 still fit."""
    m = draw(st.integers(0, max_m))
    columns = []
    for _ in range(width):
        base = draw(st.sampled_from([0, 2**40 - 8, -(2**40)]))
        spread = draw(st.sampled_from([0, 8, 2**40]))
        pool = draw(st.lists(st.integers(base, base + spread), min_size=1, max_size=6))
        column = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        columns.append(np.array(column, dtype=np.int64))
    return columns


def lexsort_unique(columns, key_columns):
    """Reference canonical sort: np.lexsort, then the first row of each run
    equal on the first key_columns columns."""
    order = np.lexsort(columns[::-1])
    cols = [c[order] for c in columns]
    first = np.ones(len(order), dtype=bool)
    for c in cols[:key_columns]:
        first[1:] &= c[1:] == c[:-1]
    first[1:] = ~first[1:]
    return [c[first] for c in cols]


def assert_columns(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


def coo_min_csr(n, tails, heads, lengths):
    """Reference: the lightest edge per pair, self-loops dropped, built
    through scipy's COO constructor."""
    keep = tails != heads
    t, h, w = lexsort_unique([tails[keep], heads[keep], lengths[keep]], 2)
    return sp.csr_matrix((w.astype(np.float64), (t, h)), shape=(n, n))


def scatter_hop_limited_dist(g, extra, h, sources=None):
    """Reference: h synchronous rounds of np.minimum.at over every edge."""
    gu = g.with_extra(extra)
    n = gu.vertex_count
    sources = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    dist = np.full((len(sources), n), np.inf)
    dist[np.arange(len(sources)), sources] = 0.0
    keep = gu.tails != gu.heads
    tails, heads = gu.tails[keep], gu.heads[keep]
    weights = gu.lengths[keep].astype(np.float64)
    if len(tails) == 0 or n == 0:
        return dist
    dist_t = np.ascontiguousarray(dist.T)
    for _ in range(h):
        cand = dist_t[tails] + weights[:, None]
        before = dist_t.copy()
        np.minimum.at(dist_t, heads, cand)
        if np.array_equal(before, dist_t):
            break
    return dist_t.T.copy()


def weak_diameter(g, s):
    """Max pairwise distance within s, measured in all of g."""
    verts = sorted(set(s))
    return dist_all_pairs(g)[np.ix_(verts, verts)].max()


class TestDiGraph:
    def test_validation_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 2, 1)])

    def test_validation_rejects_zero_length(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 1, 0)])

    def test_validation_rejects_length_above_bound(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 1, 5)], max_length_bound=4)

    @pytest.mark.parametrize("n, tails, heads, message", [
        (-1, [], [], "vertex_count must be nonnegative"),
        (2, [0], [1, 0], "edge arrays must have equal length"),
    ], ids=["negative-n", "ragged"])
    def test_validation_rejects_bad_shapes(self, n, tails, heads, message):
        t, h = np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)
        with pytest.raises(ValueError, match=f"^{message}$"):
            DiGraph(n, t, h, np.ones(len(tails), dtype=np.int64), 1)

    def test_parallel_edges_use_minimum(self):
        g = DiGraph.from_edges(2, [(0, 1, 5), (0, 1, 2)])
        assert dist_all_pairs(g)[0, 1] == 2

    def test_self_loop_never_traversed(self):
        g = DiGraph.from_edges(2, [(0, 0, 3), (0, 1, 1)])
        d = dist_all_pairs(g)
        assert d[0, 0] == 0
        assert d[0, 1] == 1

    def test_with_extra_leaves_original_untouched(self):
        g = unit_path(3)
        extra = WeightedEdgeSet.from_triples([(0, 2, 2)])
        g2 = g.with_extra(extra)
        assert g.edge_count == 2
        assert g2.edge_count == 3

    def test_reversed_shares_the_csr_matrices(self):
        g = DiGraph.from_edges(4, [(0, 1, 2), (0, 1, 1), (1, 0, 3), (2, 2, 1), (2, 3, 1)])
        rev = g.reversed()
        assert list(rev.edges()) == [(h, t, w) for t, h, w in g.edges()]
        assert rev._csr is g._csr_rev and rev._csr_rev is g._csr
        # the matrices a fresh reversed graph would build
        fresh = DiGraph(4, g.heads, g.tails, g.lengths, g.max_length_bound)
        for kept, built in ((rev._csr, fresh._csr), (rev._csr_rev, fresh._csr_rev)):
            assert (kept != built).nnz == 0
            assert np.array_equal(kept.indptr, built.indptr)

    @pytest.mark.parametrize(
        "edges", [[(0, 1, 2), (1, 0, 1), (1, 2, 3), (2, 2, 1), (2, 3, 1)], [], [(1, 1, 1)]],
        ids=["cycle-and-loop", "edgeless", "loop-only"],
    )
    def test_kept_arrays_are_read_only(self, edges):
        g = DiGraph.from_edges(4, edges, max_length_bound=3)
        # build everything a graph keeps: both CSR matrices, the closure and
        # the LDD's adjacency
        low_diameter_decomposition(g, 8, np.random.SeedSequence(0))
        hop_limited_dist(g, 2)
        pairs_reachable(g, np.array([0]), np.array([3]))
        assert {"_csr", "_csr_rev", "_kept"} <= set(vars(g))
        kept = list(kept_arrays(vars(g)))
        # tails, heads, lengths; data, indices, indptr twice; labels and rows
        assert len(kept) == 11
        for arr in kept:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


class TestEdgeSets:
    def test_weighted_canonical_order_and_dedup(self):
        a = WeightedEdgeSet.from_triples([(1, 0, 2), (0, 1, 3), (1, 0, 2)])
        b = WeightedEdgeSet.from_triples([(0, 1, 3), (1, 0, 2)])
        assert a == b
        assert len(a) == 2

    def test_union(self):
        a = WeightedEdgeSet.from_triples([(0, 1, 1)])
        b = WeightedEdgeSet.from_triples([(1, 2, 1), (0, 1, 1)])
        assert len(WeightedEdgeSet.union(a, b)) == 2
        # a lone nonempty part is canonical already
        assert WeightedEdgeSet.union(a, WeightedEdgeSet.empty()) is a
        assert WeightedEdgeSet.union(WeightedEdgeSet.empty(), b) is b

    def test_union_of_three_overlapping_parts(self):
        rows = [
            [(0, 1, 2), (0, 2, 1), (3, 0, 4), (5, 5, 1)],
            [(0, 1, 1), (0, 2, 1), (2, 3, 7), (3, 0, 4)],
            [(0, 1, 2), (1, 0, 1), (3, 0, 4), (5, 5, 2)],
        ]
        parts = [WeightedEdgeSet.from_triples(r) for r in rows]
        union = WeightedEdgeSet.union(*parts)
        assert union == WeightedEdgeSet.from_triples(rows[0] + rows[1] + rows[2])
        assert len(union) == 8

    def test_min_per_pair(self, monkeypatch):
        es = WeightedEdgeSet.from_triples([(0, 1, 5), (0, 1, 2), (1, 2, 7), (1, 2, 9)])
        # the rows are canonical, so each pair's first row is kept, unsorted
        monkeypatch.setattr(graphs, "_sorted_unique", None)
        assert list(es.min_per_pair()) == [(0, 1, 2), (1, 2, 7)]

    def test_scaled(self):
        es = WeightedEdgeSet.from_triples([(0, 1, 3)])
        assert list(es.scaled(4)) == [(0, 1, 12)]

    def test_plain_edge_set_dedup(self):
        es = EdgeSet.from_pairs([(2, 0), (0, 1), (2, 0)])
        assert list(es) == [(0, 1), (2, 0)]

    def test_unit_lengths(self):
        es = EdgeSet.from_pairs([(0, 1)])
        assert list(es.with_unit_lengths()) == [(0, 1, 1)]


@pytest.mark.parametrize(
    "cls,from_rows,names",
    [
        pytest.param(EdgeSet, EdgeSet.from_pairs, ("tails", "heads"), id="EdgeSet"),
        pytest.param(
            WeightedEdgeSet,
            WeightedEdgeSet.from_triples,
            ("tails", "heads", "lengths"),
            id="WeightedEdgeSet",
        ),
    ],
)
class TestEdgeRowContract:
    """The canonical edge-row format that both edge-set types share."""

    ROWS = [(2, 0, 1), (0, 1, 1), (2, 0, 1)]

    def rows(self, names):
        return [row[: len(names)] for row in self.ROWS]

    def test_columns_are_read_only(self, cls, from_rows, names):
        es = from_rows(self.rows(names))
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(es, name)[0] = 7

    def test_empty_is_the_set_of_no_rows(self, cls, from_rows, names):
        empty = cls.empty()
        assert len(empty) == 0 and list(empty) == []
        assert empty == from_rows([])
        assert empty == cls.from_arrays(*(np.empty(0, dtype=np.int64) for _ in names))
        assert [getattr(empty, name).dtype for name in names] == [np.int64] * len(names)

    def test_iteration_yields_python_ints(self, cls, from_rows, names):
        got = list(from_rows(self.rows(names)))
        assert got == sorted(set(self.rows(names)))
        assert all(type(x) is int for row in got for x in row)

    def test_equal_only_to_the_same_type(self, cls, from_rows, names):
        es = from_rows(self.rows(names))
        assert es == from_rows(self.rows(names)[::-1])
        pairs = EdgeSet.from_pairs(self.rows(("tails", "heads")))
        other = pairs.with_unit_lengths() if cls is EdgeSet else pairs
        assert [row[:2] for row in other] == [row[:2] for row in es]
        assert es != other and other != es
        assert not es == tuple(es)

    def test_two_dimensional_column_is_rejected(self, cls, from_rows, names):
        for i, name in enumerate(names):
            columns = [np.arange(3)] * len(names)
            columns[i] = np.zeros((3, 1), dtype=np.int64)
            with pytest.raises(ValueError, match=f"^{name} must be one-dimensional$"):
                cls.from_arrays(*columns)


class TestCanonicalSort:
    """The packed-key sort behind the edge sets and the CSR builder, checked
    against np.lexsort on empty, duplicate-heavy and overflowing inputs."""

    @given(int_columns(3))
    @settings(max_examples=150, deadline=None)
    def test_weighted_from_arrays(self, cols):
        es = WeightedEdgeSet.from_arrays(*cols)
        assert_columns((es.tails, es.heads, es.lengths), lexsort_unique(cols, 3))

    @given(int_columns(3), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_union(self, cols, cut1, cut2):
        lo, hi = sorted((min(cut1, len(cols[0])), min(cut2, len(cols[0]))))
        parts = [
            WeightedEdgeSet.from_arrays(*(c[a:b] for c in cols))
            for a, b in ((0, lo), (lo, hi), (hi, len(cols[0])))
        ]
        es = WeightedEdgeSet.union(*parts)
        assert_columns((es.tails, es.heads, es.lengths), lexsort_unique(cols, 3))

    @given(int_columns(3))
    @settings(max_examples=100, deadline=None)
    def test_min_per_pair(self, cols):
        es = WeightedEdgeSet.from_arrays(*cols).min_per_pair()
        assert_columns((es.tails, es.heads, es.lengths), lexsort_unique(cols, 2))

    @given(int_columns(2))
    @settings(max_examples=150, deadline=None)
    def test_edge_set_from_arrays(self, cols):
        es = EdgeSet.from_arrays(*cols)
        assert_columns((es.tails, es.heads), lexsort_unique(cols, 2))

    @pytest.mark.parametrize("spread,packed", [(8, True), (2**40, False)])
    def test_both_branches_near_2_40(self, monkeypatch, spread, packed):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        rng = np.random.default_rng(3)
        cols = [2**40 + rng.integers(0, spread + 1, size=200) for _ in range(3)]
        cols = [np.concatenate([c, c[:50]]) for c in cols]  # repeated rows
        want = lexsort_unique(cols, 3)
        calls.clear()
        es = WeightedEdgeSet.from_arrays(*cols)
        assert_columns((es.tails, es.heads, es.lengths), want)
        assert len(es) == len(want[0]) <= 200
        assert (not calls) == packed

    @given(random_graphs(max_n=12, max_m=80), st.integers(0, 80))
    @settings(max_examples=150, deadline=None)
    @example(DiGraph.from_edges(3, [(0, 0, 2), (1, 1, 1)]), 0)
    @example(DiGraph.from_edges(3, [(0, 1, 4), (0, 1, 2), (2, 2, 1), (1, 0, 3)]), 2)
    def test_min_csr_matches_coo(self, g, repeat):
        # repeat a prefix of the edges so parallel edges are common
        t = np.concatenate([g.tails, g.tails[:repeat]])
        h = np.concatenate([g.heads, g.heads[:repeat]])
        w = np.concatenate([g.lengths, g.lengths[:repeat] + 1])
        got = _min_csr(g.vertex_count, t, h, w)
        want = coo_min_csr(g.vertex_count, t, h, w)
        got.check_format(full_check=True)
        assert got.has_sorted_indices == want.has_sorted_indices
        assert got.dtype == want.dtype
        assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


class TestDistances:
    def test_unreachable_is_inf(self):
        g = unit_path(3)
        assert np.isinf(dist_all_pairs(g)[2, 0])

    def test_path_distances(self):
        g = unit_path(5)
        d = dist_all_pairs(g)
        assert d[0, 4] == 4
        assert d[1, 3] == 2

    def test_hop_limit_below_zero(self):
        with pytest.raises(ValueError, match="^h must be nonnegative$"):
            hop_limited_dist(unit_path(3), -1)

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_hop_limit_monotone_in_h(self, g):
        d2 = hop_limited_dist(g, 2)
        d5 = hop_limited_dist(g, 5)
        assert np.all(d5 <= d2)

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_full_hop_budget_matches_dijkstra(self, g):
        # two independent implementations must agree entrywise
        full = hop_limited_dist(g, max(g.vertex_count - 1, 1))
        assert np.array_equal(full, dist_all_pairs(g))

    def test_hop_zero_is_identity(self):
        g = unit_path(4)
        d0 = hop_limited_dist(g, 0)
        assert np.all(np.isinf(d0[~np.eye(4, dtype=bool)]))
        assert np.all(np.diag(d0) == 0)

    def test_extra_edges_shorten_hops_not_distance(self):
        g = unit_path(6)
        gu = g.with_extra(WeightedEdgeSet.from_triples([(0, 5, 5)]))
        assert hop_limited_dist(gu, 1)[0, 5] == 5
        assert dist_all_pairs(gu)[0, 5] == 5

    def test_sources_subset(self):
        g = unit_path(4)
        d = hop_limited_dist(g, 3, sources=[1])
        assert d.shape == (1, 4)
        assert d[0, 3] == 2

    @given(random_graphs(max_n=20, max_m=50), st.integers(0, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_hop_limit_matches_scatter_reference(self, g, h, data):
        # random_graphs gives self-loops, and vertices without in-edges
        # whenever m is small next to n
        n = g.vertex_count
        extra = WeightedEdgeSet.empty()
        if data.draw(st.booleans()):
            vertex = st.integers(0, n - 1)
            extra = WeightedEdgeSet.from_triples(data.draw(
                st.lists(st.tuples(vertex, vertex, st.integers(1, 9)), max_size=15)
            ))
        sources = None
        if data.draw(st.booleans()):
            sources = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        got = hop_limited_dist(g.with_extra(extra), h, sources=sources)
        want = scatter_hop_limited_dist(g, extra, h, sources=sources)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestDiameters:
    def test_weak_vs_strong(self):
        # 0 <-> 1 directly, plus a shortcut through 2 outside the set
        g = DiGraph.from_edges(3, [(0, 2, 1), (2, 1, 1), (1, 0, 1), (0, 1, 5)])
        assert weak_diameter(g, [0, 1]) == 2
        assert strong_diameter(g, [0, 1]) == 5

    def test_strong_diameter_of_no_vertices(self):
        with pytest.raises(ValueError, match="^vertex set must be nonempty$"):
            strong_diameter(unit_path(3), [])

    @given(random_graphs(max_n=20, max_m=60), st.data())
    @settings(max_examples=40, deadline=None)
    def test_strong_at_least_weak(self, g, data):
        k = data.draw(st.integers(1, g.vertex_count))
        s = data.draw(
            st.lists(st.integers(0, g.vertex_count - 1), min_size=k, max_size=k)
        )
        assert strong_diameter(g, s) >= weak_diameter(g, s)


class TestGroupBlocks:
    @given(random_graphs(max_n=16, max_m=60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_blocks_are_the_induced_subgraphs(self, g, data):
        # random_graphs gives self-loops and parallel edges; the groups are
        # runs of a vertex permutation, so they come in no set order, some
        # are singletons, the vertices outside the runs are in no group, and
        # fewer than two cuts give no group at all
        n = g.vertex_count
        perm = data.draw(st.permutations(range(n)))
        cuts = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=8))))
        groups = [perm[a:b] for a, b in zip(cuts, cuts[1:])]
        sub, ids, edges = group_blocks(g, groups)

        assert ids.tolist() == [v for group in groups for v in group]
        assert sub.vertex_count == len(ids)
        assert sub.max_length_bound == g.max_length_bound
        assert np.array_equal(g.tails[edges], ids[sub.tails])
        assert np.array_equal(g.heads[edges], ids[sub.heads])
        assert np.array_equal(g.lengths[edges], sub.lengths)
        block = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
        assert np.array_equal(block[sub.tails], block[sub.heads])
        # grouped by block, each block's edges in g's order, none twice
        key = list(zip(block[sub.tails].tolist(), edges.tolist()))
        assert key == sorted(set(key))
        for b, group in enumerate(groups):
            want = Counter(e for e in g.edges() if e[0] in group and e[1] in group)
            got = Counter(
                (int(ids[t]), int(ids[h]), w) for t, h, w in sub.edges() if block[t] == b
            )
            assert got == want

    @pytest.mark.parametrize("vertices", [[-1, 0], [0, 4], [4]])
    def test_rejects_ids_outside_the_graph(self, vertices):
        # a negative id used to wrap around: [-1, 0] kept edge 3 -> 0 as 0 -> 1
        cycle = DiGraph.from_edges(4, [(i, (i + 1) % 4, 1) for i in range(4)])
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(cycle, vertices)
        with pytest.raises(ValueError, match="out of range"):
            group_blocks(cycle, [[1], vertices])

    @pytest.mark.parametrize("groups", [[[0, 1], [1, 2]], [[2, 0, 2]], [[3], [0], [3]]])
    def test_rejects_a_vertex_listed_twice(self, groups):
        with pytest.raises(ValueError, match="listed twice"):
            group_blocks(unit_path(4), groups)

    def test_induced_subgraph_takes_a_vertex_set(self):
        # the one-group case: repeats are taken once, ids come out ascending
        sub, ids = induced_subgraph(unit_path(5), [3, 1, 2, 3, 2])
        assert ids.tolist() == [1, 2, 3]
        assert list(sub.edges()) == [(0, 1, 1), (1, 2, 1)]


class TestApproxHopbound:
    """dist^(h)(u, v) <= alpha * dist(u, v) for all pairs: verify_hopset
    with an empty hopset is the approximate-hopbound check of a graph."""

    def test_exact_on_short_path(self):
        report = verify_hopset(unit_path(5), WeightedEdgeSet.empty(), 1, 4)
        assert report.passed and report.violations == []

    def test_fails_below_needed_hops(self):
        report = verify_hopset(unit_path(5), WeightedEdgeSet.empty(), 1, 3)
        assert not report.passed
        assert [(v.kind, v.witness) for v in report.violations] == [
            ("stretch-exceeded", (0, 4))
        ]

    def test_fractional_alpha(self):
        # 0->1->2 of length 2, plus a 1-hop length-3 alternative
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
        assert verify_hopset(g, WeightedEdgeSet.empty(), Fraction(3, 2), 1).passed
        assert not verify_hopset(g, WeightedEdgeSet.empty(), Fraction(4, 3), 1).passed


class TestSccTopological:
    def test_cycle_is_one_component(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert scc_topological(g) == [(0, 1, 2)]

    def test_dag_order(self):
        g = DiGraph.from_edges(3, [(2, 1, 1), (1, 0, 1)])
        assert scc_topological(g) == [(2,), (1,), (0,)]

    @given(random_graphs(max_n=30, max_m=90))
    @settings(max_examples=60, deadline=None)
    def test_no_backward_edges(self, g):
        comps = scc_topological(g)
        index = {}
        for i, comp in enumerate(comps):
            for v in comp:
                index[v] = i
        for t, h, _ in g.edges():
            assert index[t] <= index[h]

    @given(random_graphs(max_n=30, max_m=90))
    @settings(max_examples=60, deadline=None)
    def test_partition(self, g):
        seen = sorted(v for comp in scc_topological(g) for v in comp)
        assert seen == list(range(g.vertex_count))


class TestReachablePairs:
    def test_path_closure(self):
        pairs = reachable_pairs(unit_path(4))
        assert set(pairs) == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_cycle_closure(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert len(reachable_pairs(g)) == 6

    @given(closure_graphs())
    @example(DiGraph.from_edges(0, []))
    @example(DiGraph.from_edges(1, []))
    @example(DiGraph.from_edges(1, [(0, 0, 1), (0, 0, 1)]))
    @example(DiGraph.from_edges(3, [(0, 1, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1)]))
    @settings(max_examples=80, deadline=None)
    def test_matches_distance_matrix(self, g):
        n = g.vertex_count
        reach = np.isfinite(dist_all_pairs(g))
        labels, rows = condensation_closure(g)
        assert np.array_equal(vertex_reach(labels, rows, n), reach)
        u, v = np.divmod(np.arange(n * n, dtype=np.int64), max(n, 1))
        assert np.array_equal(pairs_reachable(g, u, v), reach.ravel())

        np.fill_diagonal(reach, False)
        pairs = reachable_pairs(g)
        expected_t, expected_h = np.nonzero(reach)
        assert np.array_equal(pairs.tails, expected_t)
        assert np.array_equal(pairs.heads, expected_h)
        # canonical without EdgeSet.from_arrays: strictly increasing, no diagonal
        assert pairs.tails.dtype == pairs.heads.dtype == np.int64
        key = pairs.tails * n + pairs.heads
        assert np.all(np.diff(key) > 0)
        assert not np.any(pairs.tails == pairs.heads)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec("cycle", n=23),
        GeneratorSpec("scc-chain", blocks=7, block_size=3),
        GeneratorSpec("random-gnm", n=37, m=90, big_n=1, seed=2),
    ])
    @pytest.mark.parametrize("rows", [2, 5])
    def test_several_blocks_match_one_block(self, monkeypatch, spec, rows):
        # blocks of `rows` rows, and n a multiple of neither, so the last
        # block is shorter and each later block drops its own diagonal
        g = generate(spec)
        n = g.vertex_count
        assert n % rows != 0
        whole = reachable_pairs(g)
        monkeypatch.setattr(graphs, "_CELLS", rows * n + 1)
        assert reachable_pairs(g) == whole
        assert len(whole) > 0


class TestCondensationClosure:
    @given(closure_graphs(max_n=100, max_m=250))
    @example(DiGraph.from_edges(65, [(i, (i + 1) % 65, 1) for i in range(65)] + [(3, 3, 1)]))
    @example(DiGraph.from_edges(130, [(i, i + 1, 1) for i in range(129)] + [(129, 64, 1)] * 2))
    @example(DiGraph.from_edges(9, [(8, 0, 1), (0, 8, 1), (4, 4, 1), (4, 5, 1), (4, 5, 1)]))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_distance_matrix(self, g):
        n = g.vertex_count
        labels, rows = condensation_closure(g)
        z = len(np.unique(labels))
        assert rows.dtype == np.uint8
        assert rows.shape == (z, (n + 7) // 8)
        assert np.array_equal(vertex_reach(labels, rows, n), np.isfinite(dist_all_pairs(g)))
        # no bit past vertex n - 1
        full = np.unpackbits(rows, axis=1, bitorder="little")
        assert not full[:, n:].any()

    @given(closure_graphs(max_n=40, max_m=120))
    @settings(max_examples=60, deadline=None)
    def test_fallback_order_gives_the_same_closure(self, g):
        """Labels that put successors at larger labels fail the label-order
        check, so the rows are ORed in Kahn order; the closure is the same."""
        n = g.vertex_count
        labels, rows = condensation_closure(g)
        cc, topo = graphs.connected_components, graphs._topo_order_of_components
        calls = []

        def reversed_labels(*args, **kwargs):
            z, lab = cc(*args, **kwargs)
            return z, z - 1 - lab

        def recording(ptr, succ):
            calls.append(len(succ))
            return topo(ptr, succ)

        # a fresh graph object: g keeps the closure computed above
        fresh = DiGraph(n, g.tails, g.heads, g.lengths, g.max_length_bound)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "connected_components", reversed_labels)
            mp.setattr(graphs, "_topo_order_of_components", recording)
            labels2, rows2 = condensation_closure(fresh)
        assert np.array_equal(labels2, len(rows) - 1 - labels)
        assert np.array_equal(vertex_reach(labels2, rows2, n), vertex_reach(labels, rows, n))
        # every condensation edge now points to a larger label
        assert bool(calls) == bool((labels[g.tails] != labels[g.heads]).any())

    @given(closure_graphs(max_n=40, max_m=120))
    @settings(max_examples=60, deadline=None)
    def test_scipy_labels_need_no_topological_sort(self, g):
        """scipy's strong-component labels already put every condensation
        successor at a smaller label, so the closure never falls back to
        the Kahn order (which would still be correct, only slower)."""

        def refuse(ptr, succ):
            raise AssertionError("fell back to the Kahn order")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_topo_order_of_components", refuse)
            labels, rows = condensation_closure(g)
        assert np.array_equal(
            vertex_reach(labels, rows, g.vertex_count), np.isfinite(dist_all_pairs(g))
        )
