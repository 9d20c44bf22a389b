"""Independent brute-force verification of every guarantee the library
produces: hopset validity, shortcut validity, LDD properties, clustered
preconditions.

Everything here is computed from first principles on top of the graph
primitives only, so these checks stay independent of the construction
code they judge. All checks are exhaustive over ordered pairs, guarded by
a size ceiling (the work is Theta(n^2) or worse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graphs import (
    DiGraph,
    EdgeSet,
    WeightedEdgeSet,
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


class SizeCeilingError(ValueError):
    """Graph too large for exhaustive verification."""


@dataclass
class Violation:
    kind: str
    witness: tuple
    expected: Any
    actual: Any

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "witness": list(self.witness),
            "expected": str(self.expected),
            "actual": str(self.actual),
        }


@dataclass
class VerificationReport:
    passed: bool
    violations: list[Violation] = field(default_factory=list)
    violation_count: int = 0
    measured_stretch: Optional[Fraction] = None
    measured_hopbound: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violation_count": self.violation_count,
            "violations": [v.to_json() for v in self.violations],
            "measured_stretch": None
            if self.measured_stretch is None
            else str(self.measured_stretch),
            "measured_hopbound": self.measured_hopbound,
        }


def _guard(n: int, ceiling: int) -> None:
    if n > ceiling:
        raise SizeCeilingError(
            f"graph has {n} vertices, above the verification ceiling {ceiling}"
        )


def _collect(violations: list[Violation], count: int, v: Violation) -> int:
    if len(violations) < _MAX_RECORDED:
        violations.append(v)
    return count + 1


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
    dist = dist_all_pairs(g)
    dist_union = dist_all_pairs(g, hopset)
    dist_h = hop_limited_dist(g, hopset, h)
    violations: list[Violation] = []
    count = 0

    decreased = dist_union < dist
    for u, v in zip(*np.nonzero(decreased)):
        count = _collect(
            violations,
            count,
            Violation(
                "distance-decreased",
                (int(u), int(v)),
                float(dist[u, v]),
                float(dist_union[u, v]),
            ),
        )

    finite = np.isfinite(dist)
    over = finite & (
        ~np.isfinite(dist_h)
        | (dist_h * alpha.denominator > dist * alpha.numerator)
    )
    for u, v in zip(*np.nonzero(over)):
        count = _collect(
            violations,
            count,
            Violation(
                "stretch-exceeded",
                (int(u), int(v)),
                f"<= {alpha} * {float(dist[u, v])}",
                float(dist_h[u, v]),
            ),
        )

    return VerificationReport(
        passed=count == 0,
        violations=violations,
        violation_count=count,
        measured_stretch=max_stretch(dist, dist_h),
        measured_hopbound=_hop_radius(g, hopset),
    )


def max_stretch(dist: np.ndarray, dist_h: np.ndarray) -> Fraction:
    """Largest dist_h / dist over the pairs at positive finite distance that
    dist_h reaches, as an exact fraction; at least 1."""
    pairs = np.isfinite(dist) & (dist > 0) & np.isfinite(dist_h)
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
    dist = dist_all_pairs(g)
    dist_union = dist_all_pairs(g, hopset)
    violations: list[Violation] = []
    count = 0
    changed = dist_union != dist
    for u, v in zip(*np.nonzero(changed)):
        count = _collect(
            violations,
            count,
            Violation(
                "distance-changed",
                (int(u), int(v)),
                float(dist[u, v]),
                float(dist_union[u, v]),
            ),
        )
    return VerificationReport(
        passed=count == 0,
        violations=violations,
        violation_count=count,
        measured_hopbound=_hop_radius(g, hopset),
    )


def _hop_radius(g: DiGraph, extra: Optional[WeightedEdgeSet]) -> int:
    """Max hop count needed to connect any reachable pair in G union extra."""
    gu = g.with_extra(extra)
    if gu.vertex_count == 0:
        return 0
    unit = DiGraph(
        gu.vertex_count,
        gu.tails,
        gu.heads,
        np.ones(gu.edge_count, dtype=np.int64),
        1,
    )
    hops = dist_all_pairs(unit)
    np.fill_diagonal(hops, np.inf)
    finite = hops[np.isfinite(hops)]
    return int(finite.max()) if len(finite) else 0


def verify_shortcut(
    g: DiGraph, shortcut: EdgeSet, h: int, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Check that every shortcut edge joins a reachable pair and that the
    augmented graph has reachability diameter at most h."""
    _guard(g.vertex_count, ceiling)
    if g.edge_count and g.lengths.max() != 1:
        raise ValueError("verify_shortcut expects unit edge lengths")
    violations: list[Violation] = []
    count = 0

    reach_ok = pairs_reachable(g, shortcut.tails, shortcut.heads)
    for i in np.flatnonzero(~reach_ok):
        count = _collect(
            violations,
            count,
            Violation(
                "not-reachable-pair",
                (int(shortcut.tails[i]), int(shortcut.heads[i])),
                "reachable in G",
                "unreachable",
            ),
        )

    diam = _hop_radius(g, shortcut.with_unit_lengths())
    if diam > h:
        hops = dist_all_pairs(g.with_extra(shortcut.with_unit_lengths()))
        np.fill_diagonal(hops, np.inf)
        hops[~np.isfinite(hops)] = -np.inf
        u, v = np.unravel_index(np.argmax(hops), hops.shape)
        count = _collect(
            violations,
            count,
            Violation("hopbound-exceeded", (int(u), int(v)), f"<= {h}", diam),
        )
    return VerificationReport(
        passed=count == 0,
        violations=violations,
        violation_count=count,
        measured_hopbound=diam,
    )


def verify_ldd(
    g: DiGraph, d: int, result: LddResult, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Check the decomposition contract: the components partition V, the
    surviving edges respect the component order, every component is
    strongly connected in G - E^rem (or a singleton), and each component
    has weak diameter at most d in G."""
    _guard(g.vertex_count, ceiling)
    violations: list[Violation] = []
    count = 0

    seen: dict[int, int] = {}
    for i, comp in enumerate(result.components):
        for v in comp:
            if v in seen or v < 0 or v >= g.vertex_count:
                count = _collect(
                    violations, count,
                    Violation("not-a-partition", (v,), "exactly one component", i),
                )
            seen[v] = i
    missing = [v for v in range(g.vertex_count) if v not in seen]
    if missing:
        count = _collect(
            violations, count,
            Violation("not-a-partition", tuple(missing[:5]), "covered", "missing"),
        )
    outside = [e for e in result.removed_edges if not 0 <= e < g.edge_count]
    if outside:
        count = _collect(
            violations, count,
            Violation("removed-edge-out-of-range", tuple(outside[:5]), "an edge of G", "out of range"),
        )
    if count:
        # the remaining checks index by vertex and edge id
        return VerificationReport(False, violations, count)

    comp_of = np.empty(g.vertex_count, dtype=np.int64)
    for i, comp in enumerate(result.components):
        comp_of[list(comp)] = i
    remaining = result.remaining_graph(g)
    backward = comp_of[remaining.tails] > comp_of[remaining.heads]
    for i in np.flatnonzero(backward):
        count = _collect(
            violations, count,
            Violation(
                "topological-order",
                (int(remaining.tails[i]), int(remaining.heads[i])),
                "edge points to same or later component",
                (int(comp_of[remaining.tails[i]]), int(comp_of[remaining.heads[i]])),
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
                count = _collect(
                    violations, count,
                    Violation("not-strongly-connected", (i,), 1, int(z)),
                )
        wd = dist[np.ix_(verts, verts)].max()
        if not np.isfinite(wd) or wd > d:
            count = _collect(
                violations, count,
                Violation("weak-diameter", (i,), f"<= {d}", float(wd)),
            )
        else:
            max_weak = max(max_weak, int(wd))
    return VerificationReport(
        passed=count == 0,
        violations=violations,
        violation_count=count,
        measured_hopbound=max_weak,
    )


def verify_clustered(
    g: DiGraph, d: int, ceiling: int = DEFAULT_CEILING
) -> VerificationReport:
    """Every strongly connected component must have strong diameter <= d."""
    _guard(g.vertex_count, ceiling)
    violations: list[Violation] = []
    count = 0
    worst = 0
    for i, comp in enumerate(scc_topological(g)):
        sd = strong_diameter(g, comp) if len(comp) > 1 else 0
        if not np.isfinite(sd) or sd > d:
            count = _collect(
                violations, count,
                Violation("strong-diameter", (i,), f"<= {d}", float(sd)),
            )
        else:
            worst = max(worst, int(sd))
    return VerificationReport(
        passed=count == 0,
        violations=violations,
        violation_count=count,
        measured_hopbound=worst,
    )
