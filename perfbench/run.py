"""Benchmark of `shallowcut reduce`, one workload per process.

    python3 perfbench/run.py --workload hopset-gnm --seed 0 --seconds 40 --trace 0

Set-up (timed as `setup_s`, median of SETUP_REPEATS fresh interpreters):
import shallowcut, generate the workload's graph and write it to a file.
Then operations run one after another, for at least `--seconds` seconds and
at least MIN_OPS times. The seed becomes the program's `--seed` (see
workloads.py). One operation is a whole `shallowcut reduce` call through
`shallowcut.cli.main`: reading the graph, the construction, the program's
own measurement and verification, and writing the artifact, report.json and
manifest.json.

The calibration kernel of `calibrate.py` runs before and after the set-ups
and each operation. `solve_s` and `setup_s` are medians of times converted
with it to one fixed host speed, so that the shared host's drift cancels;
run.json keeps the wall times as well.

After the timed loop, outside the timing, every operation's artifact is
checked by `checks.py`, all operations must have written byte-identical
artifacts and reports, and broken copies of the artifact must be rejected
by the same checks (else the run is not `correct`).

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
operations traced and reports the per-layer metrics of `tracing.py`. The last
line of standard output is the JSON result; details go to
perfbench/out/<workload>-seed<seed>-trace<trace>/run.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process, set before numpy loads: the benchmark runs alone
# on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import SRC, WORKLOADS  # noqa: E402

OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_OPS = 3


def _setup(name: str, graph: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), name, str(graph)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    if not (SRC / "shallowcut").is_dir():
        # never fall back to some other installed copy of the package
        raise RuntimeError(f"no shallowcut sources under {SRC}")
    out = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    graph_path = out / "graph.txt"
    calibrate.kernel()  # warm-up
    setup_kernel_s = calibrate.sample()
    setup = _setup(name, graph_path)

    sys.path.insert(0, str(SRC))
    from shallowcut import cli

    tracer = tracing.Tracer() if traced else None
    if traced:
        tracing.install(tracer)
        reduce = tracer.wrap("cli.reduce", cli.main)
    else:
        reduce = cli.main
    op_dir = out / "op"
    argv = workload.argv(graph_path, seed, op_dir)
    times, codes, digests, layers, span_problems, all_spans = [], [], [], [], [], []
    outputs: dict[str, tuple[str, str]] = {}
    kernel_s = [calibrate.sample()]  # kernel_s[i], operation i, kernel_s[i + 1]
    loop_start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - loop_start < seconds:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = reduce(argv)
        times.append(time.perf_counter() - start)
        codes.append(code)
        if len(times) == 1:
            # a user's `shallowcut reduce` process runs one operation; later
            # ones would add the allocator's state left by earlier ones
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        artifact = (op_dir / workload.artifact).read_text() if code == 0 else ""
        report = (op_dir / "report.json").read_text() if code == 0 else ""
        digest = hashlib.sha256((artifact + "\0" + report).encode()).hexdigest()
        digests.append(digest)
        outputs.setdefault(digest, (artifact, report))
        if traced:
            spans, counts = tracer.take()
            layers.append(tracing.layer_metrics(spans, counts))
            span_problems.extend(tracing.check_spans(spans, times[-1]))
            all_spans.append(spans)
        kernel_s.append(calibrate.sample())

    graph = checks.parse_graph(graph_path.read_text())
    mode, h = workload.mode, workload.h
    problems = {
        digest: checks.check(mode, graph, checks.parse_artifact(mode, artifact), json.loads(report), h)
        if artifact else ["no artifact"]
        for digest, (artifact, report) in outputs.items()
    }
    # every operation must write the bytes the first good one wrote
    good = next((d for d in digests if not problems[d]), None)
    failed = sum(1 for code, d in zip(codes, digests) if code != 0 or d != good)
    artifact, report = outputs[good] if good else ("", "")
    mutations, figures = {}, {}
    if good:
        edges = checks.parse_artifact(mode, artifact)
        mutations = checks.mutation_results(mode, graph, edges, json.loads(report), h)
        if mode == "hopset":
            figures = checks.hopset_figures(graph, edges, h)
        else:
            figures = {"hop_diameter": checks.shortcut_hop_diameter(graph, edges)}
    output_edges = artifact.count("\n")
    # the checks count only if they reject every broken copy of the output
    correct = bool(mutations) and all(mutations.values()) and not span_problems

    # seconds on this host now -> seconds at the reference speed (calibrate.py)
    solve = [calibrate.at_reference_speed(t, kernel_s[i], kernel_s[i + 1]) for i, t in enumerate(times)]
    setup_reference = [calibrate.at_reference_speed(t, setup_kernel_s, kernel_s[0]) for t in setup]
    details = {
        "workload": name, "seed": seed, "traced": traced, "op_seconds": times,
        "op_reference_seconds": solve, "kernel_seconds": kernel_s, "setup_seconds": setup,
        "setup_reference_seconds": setup_reference, "setup_kernel_seconds": setup_kernel_s,
        "exit_codes": codes, "distinct_outputs": len(outputs),
        "problems": problems, "mutations": mutations, "span_problems": span_problems,
        "reference_figures": figures, "program_report": json.loads(report) if report else None,
        "output_edges": output_edges, "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        details["layers"] = layers
        details["layer_self_seconds"] = [tracing.self_times(s) for s in all_spans]
        (out / "spans.json").write_text(json.dumps(all_spans))
        metrics = {
            key: {"value": statistics.median(op[key] for op in layers), "unit": _unit(key)}
            for key in layers[0]
        }
        metrics["trace.solve_s"] = {"value": statistics.median(solve), "unit": "s"}
    else:
        metrics = {
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_reference), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "output_edges": {"value": output_edges, "unit": "edges"},
        }
    (out / "run.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    for label, found in mutations.items():
        print(f"mutation {label!r}: {'rejected' if found else 'NOT REJECTED'}", file=sys.stderr)
    return {"correct": correct, "attempted": len(times), "failed": failed, "metrics": metrics}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_edges"):
        return "edges"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
