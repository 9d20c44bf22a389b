"""The benchmark's tracer (perfbench/tracing.py) looks up package functions
and methods by name; a rename in the package must fail here rather than
break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import shallowcut.cli  # noqa: F401  (install expects every module loaded)
import shallowcut.verify
from shallowcut import (
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    GeneratorSpec,
    ReductionConfig,
    generate,
    shallow_reduce,
)

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_the_package():
    tracing = _tracing()
    before = shallow_reduce.reduce_hopset
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert shallow_reduce.reduce_hopset is not before
    finally:
        uninstall()
    assert shallow_reduce.reduce_hopset is before


def test_traced_runs_reach_every_layer():
    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        # a cycle, so that the LDD runs: it decomposes strong components only
        cycle = generate(GeneratorSpec("cycle", n=24))
        cfg = ReductionConfig(lam=4, h=4, ldd_repetitions=1)
        report = shallow_reduce.reduce_shortcut(cycle, cfg, ExactReachabilityOracle(24))
        # through the module attribute, which install rebinds
        shallowcut.verify.verify_shortcut(cycle, report.shortcut, cfg.h)
        hopset = shallow_reduce.reduce_hopset(cycle, cfg, ExactTransitiveOracle(24)).hopset
        # reduce_hopset measures no h-hop distances; the hopset verifier does
        shallowcut.verify.verify_hopset(cycle, hopset, 1, cfg.h)
    finally:
        uninstall()
    spans, _ = tracer.take()
    assert {
        "shallow_reduce.reduce_shortcut", "shallow_reduce.reduce_hopset",
        "shallow_reduce.run_phase", "ldd.decompose", "dag_reduce.reduce",
        "oracles.call", "oracles.closure", "oracles.as_hopset",
        "verify.hop_metric", "verify.measure", "verify.verify_shortcut",
        "verify.hop_radius", "graphs.union", "graphs.min_per_pair",
        "graphs.hop_limited_dist", "graphs.all_pairs",
    } <= {name for name, *_ in spans}
