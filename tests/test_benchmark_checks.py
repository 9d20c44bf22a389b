"""The benchmark's output checks (perfbench/checks.py) read what
`shallowcut reduce` writes: the edge artifact and report.json. A change to
either format, or to a report key they gate on such as `clamp_count`, must
fail here rather than as an incorrect output of a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from shallowcut.cli import main

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode, gen, reduce, h", [
    ("hopset", ["--family", "random-gnm", "--n", "32", "--m", "96", "--N", "8"],
     ["--lambda", "4", "--h", "4", "--eps", "1/2", "--reps", "2"], 4),
    ("shortcut", ["--family", "path", "--n", "64"],
     ["--lambda", "4", "--h", "4", "--reps", "1"], 4),
], ids=["hopset", "shortcut"])
def test_reduce_output_passes_the_checks_and_its_mutants_fail(tmp_path, mode, gen, reduce, h):
    checks = _checks()
    graph_path, run = tmp_path / "g.txt", tmp_path / "run"
    assert main(["gen", *gen, "--seed", "0", "--out", str(graph_path)]) == 0
    assert main(["reduce", str(graph_path), "--mode", mode, *reduce,
                 "--seed", "0", "--out-dir", str(run)]) == 0
    graph = checks.parse_graph(graph_path.read_text())
    edges = checks.parse_artifact(mode, (run / f"{mode}.txt").read_text())
    report = json.loads((run / "report.json").read_text())
    assert checks.check(mode, graph, edges, report, h) == []
    found = checks.mutation_results(mode, graph, edges, report, h)
    assert found and all(found.values()), found
