"""The benchmark's workloads: each one's input graph, and the
`shallowcut reduce` flags it runs with.

Run as a script, this file is the timed set-up step. It imports
`shallowcut`, generates one workload's graph, writes it to a file and prints
the seconds that took:

    python3 perfbench/workloads.py <workload> <graph-file>
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

@dataclass(frozen=True)
class Workload:
    """One input graph plus the flags it runs with. The graph is the
    generator's output for seed 0; the benchmark's seed becomes the
    program's `--seed` unless `program_seed` fixes it."""

    name: str
    mode: str  # "hopset" or "shortcut"
    family: str
    n: int
    m: int
    big_n: int
    flags: tuple[str, ...]
    h: int
    program_seed: int | None = None

    @property
    def artifact(self) -> str:
        return f"{self.mode}.txt"

    def argv(self, graph: Path, seed: int, out_dir: Path) -> list[str]:
        if self.program_seed is not None:
            seed = self.program_seed
        return ["reduce", str(graph), *self.flags, "--seed", str(seed), "--out-dir", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        # Random input with a large strongly connected core: the LDD does most
        # of the work, and the hop radius is 1 from the third epoch on. A new
        # graph per seed changed the output size by up to 7%, so the graph is
        # fixed and the seed reaches only the program.
        Workload(
            "hopset-gnm", "hopset", "random-gnm", 128, 384, 32,
            ("--mode", "hopset", "--lambda", "8", "--h", "8", "--eps", "1/2", "--reps", "2"), 8,
        ),
        # Unit path: the reachability oracle, the hop-radius checks and the
        # half-million-edge artifact dominate; the LDD is a minor share. The
        # program's seed changes the shortcut's size up to 2.7-fold, so it is
        # fixed as well: the seed changes nothing here.
        Workload(
            "shortcut-path", "shortcut", "path", 1024, 0, 1,
            ("--mode", "shortcut", "--lambda", "16", "--h", "16", "--reps", "2"), 16,
            program_seed=0,
        ),
    )
}


def make_input(w: Workload, path: Path) -> float:
    """Import shallowcut, generate the workload's graph, write it to `path`;
    return the seconds all of that took."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shallowcut.cli  # noqa: F401  (the import a `shallowcut reduce` user pays)
    from shallowcut.fileio import write_graph
    from shallowcut.generators import GeneratorSpec, generate

    spec = GeneratorSpec(w.family, n=w.n, m=w.m, big_n=w.big_n, seed=0)
    write_graph(generate(spec), path)
    return time.perf_counter() - start


if __name__ == "__main__":
    name, path = sys.argv[1], Path(sys.argv[2])
    print(f"{make_input(WORKLOADS[name], path):.6f}")
