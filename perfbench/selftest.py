"""Checks of the benchmark's own machinery on small inputs (a few seconds).

    python3 perfbench/selftest.py

For a small hopset input and a small shortcut input it checks that:
- the output checks of `checks.py` pass on a real `shallowcut reduce` output
  and reject every mutant of it;
- a traced operation writes the same bytes as an untraced one, so the
  traced `output_edges` equals the untraced one;
- the spans of the traced operation pass `tracing.check_spans`: the layers'
  self times add up to the operation and to each top-level `shallow_reduce`
  span within its stated tolerance, and the same spans with one LDD span
  counted twice fail it.
Exits 1 if any of this fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import SRC, Workload, make_input  # noqa: E402

SMALL = (
    Workload("small-hopset", "hopset", "random-gnm", 32, 96, 8,
             ("--mode", "hopset", "--lambda", "4", "--h", "4", "--eps", "1/2", "--reps", "2"), 4),
    Workload("small-shortcut", "shortcut", "path", 64, 0, 1,
             ("--mode", "shortcut", "--lambda", "4", "--h", "4", "--reps", "2"), 4),
)


def _reduce(call, argv) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = call(argv)
    if code != 0:
        raise RuntimeError(f"shallowcut reduce exited {code}")
    return time.perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(SRC))
    from shallowcut import cli

    out = HERE / "out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    failures = []
    for w in SMALL:
        graph_path = out / f"{w.name}.txt"
        make_input(w, graph_path)
        graph = checks.parse_graph(graph_path.read_text())
        plain_dir, traced_dir = out / f"{w.name}-plain", out / f"{w.name}-traced"
        _reduce(cli.main, w.argv(graph_path, 0, plain_dir))

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            seconds = _reduce(tracer.wrap("cli.reduce", cli.main), w.argv(graph_path, 0, traced_dir))
        finally:
            uninstall()
        spans, counts = tracer.take()

        plain = (plain_dir / w.artifact).read_text()
        report = json.loads((plain_dir / "report.json").read_text())
        edges = checks.parse_artifact(w.mode, plain)
        results = {
            "output checks pass": not checks.check(w.mode, graph, edges, report, w.h),
            "traced output equals untraced": plain == (traced_dir / w.artifact).read_text(),
            "span sums add up": not tracing.check_spans(spans, seconds),
            # an LDD span counted twice must break the sums
            "doubled span rejected": bool(tracing.check_spans(
                spans + [next(s for s in spans if s[0] == "ldd.decompose")], seconds)),
        }
        for label, found in checks.mutation_results(w.mode, graph, edges, report, w.h).items():
            results[f"mutant rejected: {label}"] = bool(found)
        for label, ok in results.items():
            print(f"{w.name}: {label}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{w.name}: {label}")
        split = tracing.self_times(spans)
        print(f"{w.name}: {len(spans)} spans, operation {seconds:.3f} s, layer self times "
              + ", ".join(f"{k} {v:.3f}" for k, v in split.items()))
        if w.mode == "shortcut":
            none = (edges[0][:0], edges[1][:0])
            print(f"{w.name}: hop diameter of the path alone: "
                  f"{checks.shortcut_hop_diameter(graph, none)}")
    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
