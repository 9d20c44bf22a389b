"""Independent brute-force verification of every guarantee the library
produces: hopset validity, shortcut validity, LDD properties, clustered
preconditions.

Everything here is computed from first principles on top of the graph
primitives only, so these checks stay independent of the construction
code they judge. All checks are exhaustive over ordered pairs, guarded by
a size ceiling (the work is Theta(n^2) or worse).

Each verifier reports through one recorder: it counts every violation and
keeps the first _MAX_RECORDED in the order found. A check over a mask counts
its true cells in numpy and builds Violations only for those it keeps.

The hop radius of G union H reads each source's reach set from G's closure,
kept on G, when every edge of H joins a pair reachable in G, which is then
checked; a faulty H is judged on the closure of G union H as built, since
a closure reads no lengths. Each source's out-degree comes from G's CSR
and H's canonical rows in one linear pass, so the union's CSR is built
only when some source needs a search, and that search counts hops on the
CSR the distance checks read, ignoring its lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import numpy as np
from scipy.sparse.csgraph import connected_components, dijkstra

from .graphs import (
    _CELLS,
    DiGraph,
    EdgeSet,
    Record,
    WeightedEdgeSet,
    condensation_closure,
    dist_all_pairs,
    hop_limited_dist,
    induced_subgraph,
    pairs_reachable,
    scc_topological,
    strong_diameter,
)
from .ldd import LddResult

DEFAULT_CEILING = 2000
_MAX_RECORDED = 100
# set bits of each byte value
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class SizeCeilingError(ValueError):
    """Graph too large for exhaustive verification."""


@dataclass
class Violation(Record):
    kind: str
    witness: tuple
    expected: Any
    actual: Any

    def to_json(self) -> dict:
        """Record.to_json with expected and actual written as strings; the
        object keeps their values."""
        return {**super().to_json(), "expected": str(self.expected), "actual": str(self.actual)}


@dataclass
class VerificationReport(Record):
    passed: bool
    violations: list[Violation] = field(default_factory=list)
    violation_count: int = 0
    measured_stretch: Optional[Fraction] = None
    measured_hopbound: Optional[int] = None


def _guard(n: int, ceiling: int) -> None:
    if n > ceiling:
        raise SizeCeilingError(
            f"graph has {n} vertices, above the verification ceiling {ceiling}"
        )


class _Recorder:
    """Counts every violation of one verification and keeps the first
    _MAX_RECORDED of them in the order found."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.count = 0

    def add(self, kind: str, witness: tuple, expected: Any, actual: Any) -> None:
        self.count += 1
        if len(self.violations) < _MAX_RECORDED:
            self.violations.append(Violation(kind, witness, expected, actual))

    def add_where(self, kind: str, mask: np.ndarray, describe) -> None:
        """Count the true cells of mask in numpy; keep a violation for the
        first of them in row-major order while there is room, with
        describe(*index) giving its (witness, expected, actual)."""
        self.count += int(np.count_nonzero(mask))
        room = _MAX_RECORDED - len(self.violations)
        cells = np.flatnonzero(mask)[:room]
        for index in zip(*np.unravel_index(cells, mask.shape)):
            self.violations.append(Violation(kind, *describe(*map(int, index))))

    def report(self, **measured: Any) -> VerificationReport:
        return VerificationReport(self.count == 0, self.violations, self.count, **measured)


def verify_hopset(
    g: DiGraph,
    hopset: WeightedEdgeSet,
    alpha: Fraction | int,
    h: int,
    ceiling: int = DEFAULT_CEILING,
) -> VerificationReport:
    """Check both halves of the hopset definition for all ordered pairs:
    distances never decrease, and the h-restricted distance in the union
    is within alpha of the true distance."""
    _guard(g.vertex_count, ceiling)
    alpha = Fraction(alpha)
    gu = g.with_extra(hopset)
    rec = _Recorder()
    dist = _record_shortened(rec, "distance-decreased", g, gu)
    dist_h = hop_limited_dist(gu, h)
    over = np.isfinite(dist) & (
        ~np.isfinite(dist_h) | (dist_h * alpha.denominator > dist * alpha.numerator)
    )
    rec.add_where(
        "stretch-exceeded",
        over,
        lambda u, v: ((u, v), f"<= {alpha} * {float(dist[u, v])}", float(dist_h[u, v])),
    )
    return rec.report(
        measured_stretch=max_stretch(dist, dist_h),
        measured_hopbound=_hop_radius(g, hopset, gu),
    )


def max_stretch(dist: np.ndarray, dist_h: np.ndarray) -> Optional[Fraction]:
    """Largest dist_h / dist over the pairs at positive finite distance, as
    an exact fraction, at least 1; None when dist_h leaves one of them
    unreached, since no finite stretch holds then."""
    pairs = np.isfinite(dist) & (dist > 0)
    if not np.isfinite(dist_h[pairs]).all():
        return None
    if not pairs.any():
        return Fraction(1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(pairs, dist_h / np.maximum(dist, 1), -np.inf)
    u, v = np.unravel_index(np.argmax(ratio), ratio.shape)
    return max(Fraction(1), Fraction(int(dist_h[u, v]), int(dist[u, v])))


def verify_distance_preservation(
    g: DiGraph, hopset: WeightedEdgeSet, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Check the unconditional half of the hopset contract alone: adding
    the edges changes no distance. This is the guarantee that holds at any
    parameter scale; the stretch-at-h half needs the full asymptotic
    regime and is reported as a measurement instead."""
    _guard(g.vertex_count, ceiling)
    gu = g.with_extra(hopset)
    rec = _Recorder()
    _record_shortened(rec, "distance-changed", g, gu)
    return rec.report(measured_hopbound=_hop_radius(g, hopset, gu))


def _record_shortened(rec: _Recorder, kind: str, g: DiGraph, gu: DiGraph) -> np.ndarray:
    """Record as kind each pair that gu, G union some H, brings closer than
    G, and return G's all-pairs distances. G is a subgraph of gu, so no
    distance grows: a changed distance is a shortened one."""
    dist = dist_all_pairs(g)
    dist_union = dist_all_pairs(gu)
    rec.add_where(
        kind,
        dist_union < dist,
        lambda u, v: ((u, v), float(dist[u, v]), float(dist_union[u, v])),
    )
    return dist


def _hop_radius(g: DiGraph, extra: WeightedEdgeSet, gu: Optional[DiGraph] = None) -> int:
    """Max hop count needed to connect any reachable pair u != v in
    G union extra (0 when no vertex reaches another), found by
    _farthest_pair from packed closure rows and open-source searches."""
    return _farthest_pair(g, extra, gu)[0]


def _farthest_pair(
    g: DiGraph,
    extra: WeightedEdgeSet,
    gu: Optional[DiGraph] = None,
    inside: Optional[bool] = None,
) -> tuple[int, Optional[tuple[int, int]]]:
    """The hop radius of G union extra and the first pair (u, v) in
    row-major order that is that many hops apart (None at radius 0). gu is
    g.with_extra(extra); a caller that holds it passes it, so that its CSR
    is built once, and otherwise it is built where it is first needed.
    inside says whether every extra edge joins a pair reachable in G; a
    caller that has checked it passes it, so that it is not checked again.

    A closure counts the vertices each source reaches, by popcount of its
    packed row. When every extra edge joins a pair reachable in G, as in a
    shortcut or a distance-preserving hopset, G union extra has G's strong
    components and reach sets, so the rows are read from
    condensation_closure(g), built once and kept on g. Otherwise (the
    faulty input a verifier must judge) gu is closed; a closure reads no
    lengths. The out-degrees of the simple union graph come from g's CSR,
    kept on g, and extra's canonical rows (_simple_out_degrees). A source
    with an edge to each vertex it reaches needs one hop, so searches that
    count hops on gu's CSR, ignoring its lengths, run only from the other
    sources, in chunks of at most _CELLS distances: no n x n matrix is
    held. Only those searches, or the faulty input's closure, build gu's
    CSR. A source that needs a search reaches some vertex two or more hops
    away, so at a radius above 1 the pair comes from the searches; at
    radius 1 it is the smallest (tail, head) edge of the simple union graph.
    """
    n = g.vertex_count
    if n == 0:
        return 0, None
    if inside is None:
        inside = bool(pairs_reachable(g, extra.tails, extra.heads).all())
    if gu is None and not inside:
        gu = g.with_extra(extra)
    labels, rows = condensation_closure(g if inside else gu)
    reached = _POPCOUNT[rows].sum(axis=1, dtype=np.int64)[labels] - 1  # minus itself
    out_degree, smallest = _simple_out_degrees(g, extra)
    open_sources = np.flatnonzero(out_degree < reached)
    if len(open_sources) == 0:
        if not reached.any():
            return 0, None
        return 1, divmod(smallest, n)
    if gu is None:
        gu = g.with_extra(extra)
    radius, pair = 1, None
    chunk = max(1, _CELLS // n)
    for i in range(0, len(open_sources), chunk):
        sources = open_sources[i : i + chunk]
        hops = dijkstra(gu._csr, directed=True, indices=sources, unweighted=True)
        hops[~np.isfinite(hops)] = -1
        u, v = np.unravel_index(np.argmax(hops), hops.shape)
        if hops[u, v] > radius:
            radius, pair = int(hops[u, v]), (int(sources[u]), int(v))
    return radius, pair


def _simple_out_degrees(g: DiGraph, extra: WeightedEdgeSet) -> tuple[np.ndarray, Optional[int]]:
    """The out-degree of each vertex in the simple G union extra (self-loops
    dropped, parallel edges counted once) and its smallest pair key
    tail * n + head (None without edges), in linear passes.

    g's CSR is simple already. extra's rows are canonical, sorted by
    (tail, head), so the first row of each run of one pair counts; a pair
    of g counts unless extra has it, which a searchsorted over extra's
    sorted keys finds.
    """
    n = g.vertex_count
    csr = g._csr
    g_tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    g_keys = g_tails * n + csr.indices
    keys = extra.tails * n + extra.heads
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first &= extra.tails != extra.heads
    keys = keys[first]
    if len(keys):
        shared = keys[np.minimum(np.searchsorted(keys, g_keys), len(keys) - 1)] == g_keys
        g_tails = g_tails[~shared]
    out_degree = np.bincount(extra.tails[first], minlength=n) + np.bincount(g_tails, minlength=n)
    return out_degree, min((int(k[0]) for k in (keys, g_keys) if len(k)), default=None)


def verify_shortcut(
    g: DiGraph, shortcut: EdgeSet, h: int, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Check that every shortcut edge joins a reachable pair and that the
    augmented graph has reachability diameter at most h."""
    _guard(g.vertex_count, ceiling)
    if g.edge_count and g.lengths.max() != 1:
        raise ValueError("verify_shortcut expects unit edge lengths")
    t, hd = shortcut.tails, shortcut.heads
    rec = _Recorder()
    joined = pairs_reachable(g, t, hd)
    rec.add_where(
        "not-reachable-pair",
        ~joined,
        lambda i: ((int(t[i]), int(hd[i])), "reachable in G", "unreachable"),
    )
    diam, witness = _farthest_pair(g, shortcut.with_unit_lengths(), inside=bool(joined.all()))
    if diam > h:
        rec.add("hopbound-exceeded", witness, f"<= {h}", diam)
    return rec.report(measured_hopbound=diam)


def verify_ldd(
    g: DiGraph, d: int, result: LddResult, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Check the decomposition contract: the components partition V, the
    surviving edges respect the component order, every component is
    strongly connected in G - E^rem (or a singleton), and each component
    has weak diameter at most d in G."""
    _guard(g.vertex_count, ceiling)
    rec = _Recorder()
    seen: dict[int, int] = {}
    for i, comp in enumerate(result.components):
        if not comp:
            rec.add("not-a-partition", (i,), "a nonempty component", "empty")
        for v in comp:
            if v in seen or v < 0 or v >= g.vertex_count:
                rec.add("not-a-partition", (v,), "exactly one component", i)
            seen[v] = i
    missing = [v for v in range(g.vertex_count) if v not in seen]
    if missing:
        rec.add("not-a-partition", tuple(missing[:5]), "covered", "missing")
    outside = [e for e in result.removed_edges if not 0 <= e < g.edge_count]
    if outside:
        rec.add("removed-edge-out-of-range", tuple(outside[:5]), "an edge of G", "out of range")
    if rec.count:
        # the remaining checks index by vertex and edge id
        return rec.report()

    comp_of = np.empty(g.vertex_count, dtype=np.int64)
    for i, comp in enumerate(result.components):
        comp_of[list(comp)] = i
    keep = np.ones(g.edge_count, dtype=bool)
    keep[list(result.removed_edges)] = False
    remaining = g.edge_subset(keep)
    t, hd = remaining.tails, remaining.heads
    rec.add_where(
        "topological-order",
        comp_of[t] > comp_of[hd],
        lambda i: (
            (int(t[i]), int(hd[i])),
            "edge points to same or later component",
            (int(comp_of[t[i]]), int(comp_of[hd[i]])),
        ),
    )

    max_weak = 0
    dist = dist_all_pairs(g)
    for i, comp in enumerate(result.components):
        verts = np.asarray(comp, dtype=np.int64)
        if len(verts) > 1:
            sub, _ = induced_subgraph(remaining, verts)
            z, _labels = connected_components(sub._csr, connection="strong")
            if z != 1:
                rec.add("not-strongly-connected", (i,), 1, int(z))
        wd = dist[np.ix_(verts, verts)].max()
        if not np.isfinite(wd) or wd > d:
            rec.add("weak-diameter", (i,), f"<= {d}", float(wd))
        else:
            max_weak = max(max_weak, int(wd))
    return rec.report(measured_hopbound=max_weak)


def verify_clustered(
    g: DiGraph, d: int, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Every strongly connected component must have strong diameter <= d."""
    _guard(g.vertex_count, ceiling)
    rec = _Recorder()
    worst = 0
    for i, comp in enumerate(scc_topological(g)):
        sd = strong_diameter(g, comp) if len(comp) > 1 else 0
        if not np.isfinite(sd) or sd > d:
            rec.add("strong-diameter", (i,), f"<= {d}", float(sd))
        else:
            worst = max(worst, int(sd))
    return rec.report(measured_hopbound=worst)
