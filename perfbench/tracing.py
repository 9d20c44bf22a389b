"""Spans and counts around the calls into each shallowcut module, recorded
from outside the package.

`install` rebinds each traced function, in every shallowcut module that
holds a reference to it, to a wrapper that records a span: name, start,
end and the index of the enclosing span. The first part of a span's name is
its layer. Spans stay in memory and are written out when the run ends.

A layer's `time_s` is the summed length of its outermost spans, and its
`self_s` is that time minus the time of the spans of other layers nested in
it, so the `self_s` of all layers add up to the operation.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._last_epoch: dict[int, object] = {}

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(tracer, span, args, result)`
        then adds the call's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, span, args, result)
            return result

        return traced

    def take(self) -> tuple[list[list], dict[str, float]]:
        """The spans and counts recorded since the last take."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts, self._last_epoch = [], defaultdict(float), {}
        return spans, counts


def _count(*names):
    def after(tr, span, args, result):
        for name in names:
            tr.counts[name] += 1

    return after


def _ldd(tr, span, args, result):
    tr.counts["ldd.calls"] += 1
    tr.counts["ldd.removed_edges"] += len(result.removed_edges)
    tr.counts["ldd.components"] += len(result.components)


def _dag(tr, span, args, result):
    tr.counts["dag_reduce.iterations"] += len(result[1].iterations)


def _oracle(tr, span, args, result):
    tr.counts["oracles.calls"] += 1
    tr.counts["oracles.in_edges"] += args[1].graph.edge_count
    tr.counts["oracles.out_edges"] += len(result)


def _union(tr, span, args, result):
    tr.counts["graphs.union_calls"] += 1
    tr.counts["graphs.union_in_edges"] += sum(len(s) for s in args)
    tr.counts["graphs.union_out_edges"] += len(result)


def _epoch(tr, span, args, result):
    # reduce_hopset folds each epoch into the hopset with one min_per_pair
    # call; an epoch is idle when that leaves the hopset as it was.
    parent = span[3]
    if parent < 0 or tr.spans[parent][0] != "shallow_reduce.reduce_hopset":
        return
    tr.counts["shallow_reduce.epochs"] += 1
    before = tr._last_epoch.get(parent)
    if (len(result) == 0) if before is None else (before == result):
        tr.counts["shallow_reduce.idle_epochs"] += 1
    tr._last_epoch[parent] = result


def _written(tr, span, args, result):
    tr.counts["fileio.write_bytes"] += os.path.getsize(args[1])


def install(tracer: Tracer):
    """Trace the package's layer entry points; return a function that undoes
    it. Import shallowcut.cli first, so that every module is loaded."""
    from shallowcut import dag_reduce, fileio, graphs, ldd, oracles, shallow_reduce, verify

    functions = [
        (fileio.read_graph, "fileio.read", None),
        (fileio.write_edge_set, "fileio.write", _written),
        (fileio.write_weighted_edge_set, "fileio.write", _written),
        (shallow_reduce.reduce_shortcut, "shallow_reduce.reduce_shortcut", None),
        (shallow_reduce.reduce_hopset, "shallow_reduce.reduce_hopset", None),
        (shallow_reduce.run_phase, "shallow_reduce.run_phase", _count("shallow_reduce.phase_calls")),
        (shallow_reduce.build_stars, "shallow_reduce.build_stars", None),
        (shallow_reduce._measure, "verify.measure", None),
        (shallow_reduce._hop_metric, "verify.hop_metric", None),
        (ldd.low_diameter_decomposition, "ldd.decompose", _ldd),
        (dag_reduce.reduce_clustered_dag, "dag_reduce.reduce", _dag),
        (oracles.checked_call, "oracles.call", _oracle),
        (oracles.shortcut_as_hopset, "oracles.as_hopset", None),
        (graphs.hop_limited_dist, "graphs.hop_limited_dist", None),
        (graphs.dist_all_pairs, "graphs.all_pairs", _count("graphs.all_pairs_calls")),
        (verify.verify_shortcut, "verify.verify_shortcut", None),
        (verify.verify_distance_preservation, "verify.verify_distance_preservation", None),
        (verify._hop_radius, "verify.hop_radius", _count("verify.hop_radius_calls")),
    ]
    methods = [
        (oracles.ExactReachabilityOracle, "build_shortcut", "oracles.closure", None),
        (oracles.ExactTransitiveOracle, "build", "oracles.closure", None),
        (graphs.WeightedEdgeSet, "union", "graphs.union", _union),
        (graphs.WeightedEdgeSet, "min_per_pair", "graphs.min_per_pair", _epoch),
    ]
    modules = [m for k, m in sys.modules.items() if k == "shallowcut" or k.startswith("shallowcut.")]
    undo = []
    for fn, name, after in functions:
        traced = tracer.wrap(name, fn, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
                    undo.append((module, key, fn))
    for cls, attr, name, after in methods:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, original.__func__, after)))
        else:
            setattr(cls, attr, tracer.wrap(name, original, after))
        undo.append((cls, attr, original))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall


LAYERS = ("cli", "fileio", "shallow_reduce", "ldd", "dag_reduce", "oracles", "graphs", "verify")


def _outermost_time(spans, match) -> float:
    """Summed length of the spans matching `match` that no other matching
    span encloses."""
    total = 0.0
    for span in spans:
        if not match(span[0]):
            continue
        parent = span[3]
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def _own_times(spans) -> list[float]:
    """Each span's length minus the lengths of the spans directly inside it."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def self_times(spans) -> dict[str, float]:
    """Each layer's time minus the time of the other layers' spans in it."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, _own_times(spans)):
        out[span[0].split(".")[0]] += own
    return out


COUNTS = (
    "ldd.calls", "ldd.removed_edges", "ldd.components", "dag_reduce.iterations",
    "oracles.calls", "oracles.in_edges", "oracles.out_edges",
    "graphs.union_calls", "graphs.union_in_edges", "graphs.union_out_edges",
    "graphs.all_pairs_calls", "shallow_reduce.phase_calls", "shallow_reduce.epochs",
    "shallow_reduce.idle_epochs", "verify.hop_radius_calls", "fileio.write_bytes",
)


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""

    def layer(prefix):
        return _outermost_time(spans, lambda name: name.startswith(prefix + "."))

    def named(full):
        return _outermost_time(spans, lambda name: name == full)

    own = self_times(spans)
    metrics = {
        "ldd.time_s": layer("ldd"),
        "dag_reduce.time_s": layer("dag_reduce"),
        "dag_reduce.self_s": own["dag_reduce"],
        "oracles.time_s": layer("oracles"),
        "oracles.closure_s": named("oracles.closure"),
        "oracles.as_hopset_s": named("oracles.as_hopset"),
        "graphs.union_s": named("graphs.union"),
        "graphs.min_per_pair_s": named("graphs.min_per_pair"),
        "graphs.hop_limited_dist_s": named("graphs.hop_limited_dist"),
        "graphs.all_pairs_s": named("graphs.all_pairs"),
        "shallow_reduce.time_s": layer("shallow_reduce"),
        "shallow_reduce.self_s": own["shallow_reduce"],
        "shallow_reduce.stars_s": named("shallow_reduce.build_stars"),
        "verify.time_s": layer("verify"),
        "fileio.read_s": named("fileio.read"),
        "fileio.write_s": named("fileio.write"),
        "cli.self_s": own["cli"],
    }
    for name in COUNTS:
        metrics[name] = counts.get(name, 0.0)
    return metrics


def check_spans(spans, op_seconds: float, tolerance: float = 0.01) -> list[str]:
    """The span tree is well formed, and the layers' self times add up both
    to the whole operation (timed outside the tracer) and, inside each
    top-level `shallow_reduce` span, to that span's length; each sum within
    `tolerance` times the total."""
    problems = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {name} lies outside its parent")
        if start < last_end.get(parent, -float("inf")):
            problems.append(f"span {i} {name} overlaps its previous sibling")
        last_end[parent] = end
    total = sum(self_times(spans).values())
    if abs(total - op_seconds) > tolerance * op_seconds:
        problems.append(f"layer self times sum to {total:.4f} s, operation took {op_seconds:.4f} s")
    inside: dict[int, float] = defaultdict(float)
    for i, own in enumerate(_own_times(spans)):
        root, j = None, i
        while j >= 0:
            if spans[j][0].startswith("shallow_reduce."):
                root = j
            j = spans[j][3]
        if root is not None:
            inside[root] += own
    for root, summed in inside.items():
        length = spans[root][2] - spans[root][1]
        if abs(summed - length) > tolerance * length:
            problems.append(
                f"layers inside {spans[root][0]} sum to {summed:.4f} s, the span is {length:.4f} s"
            )
    return problems
