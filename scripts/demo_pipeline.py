#!/usr/bin/env python3
"""End-to-end walkthrough of the library on one small graph.

Runs the low-diameter decomposition, the clustered-DAG reduction, and both
top-level drivers (hopset and shortcut mode), printing what each stage
produced and verifying every artifact with the brute-force checkers.

Usage: python3 scripts/demo_pipeline.py [--seed 0]
"""

import argparse
from fractions import Fraction

import numpy as np

from shallowcut import (
    ClusteredInput,
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    GeneratorSpec,
    ReductionConfig,
    generate,
    low_diameter_decomposition,
    reduce_clustered_dag,
    reduce_hopset,
    reduce_shortcut,
    scc_topological,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("== low-diameter decomposition (random digraph, n=120) ==")
    g = generate(GeneratorSpec("random-gnm", n=120, m=400, big_n=4, seed=args.seed))
    result = low_diameter_decomposition(g, 16, np.random.SeedSequence(args.seed))
    report = verify_ldd(g, 16, result)
    print(
        f"components={len(result.components)} removed={len(result.removed_edges)} "
        f"max_weak_diam={report.measured_hopbound} verified={report.passed}"
    )

    print("\n== clustered-DAG reduction (27 chained 3-cycles) ==")
    chain = generate(GeneratorSpec("scc-chain", blocks=27, block_size=3))
    cinput = ClusteredInput(chain, tuple(scc_topological(chain)), 3)
    hopset, trace = reduce_clustered_dag(
        cinput, ExactTransitiveOracle(chain.vertex_count), 3, 4, Fraction(1, 2),
        np.random.SeedSequence(args.seed),
    )
    check = verify_hopset(chain, hopset, Fraction(3, 2) ** trace.oracle_calls, 4)
    print(
        f"iterations={[r.group_count for r in trace.iterations]} |H|={len(hopset)} "
        f"stretch={check.measured_stretch} hopbound={check.measured_hopbound}"
    )

    print("\n== hopset mode (weighted random digraph, n=96) ==")
    wg = generate(GeneratorSpec("random-gnm", n=96, m=300, big_n=16, seed=args.seed))
    cfg = ReductionConfig(lam=8, h=8, eps=Fraction(1, 2), ldd_repetitions=2,
                          seed=args.seed)
    rep = reduce_hopset(wg, cfg, ExactTransitiveOracle(96))
    check = verify_hopset(wg, rep.hopset, 1, cfg.h)
    print(
        f"|H|={rep.total_size} oracle_calls={rep.oracle_calls} clamps={rep.clamp_count} "
        f"epochs={len(rep.epochs)}/{rep.epoch_count} hopbound={rep.epoch_hopbounds[-1]} "
        f"stretch={check.measured_stretch}"
    )

    print("\n== shortcut mode (unit path, n=256) ==")
    path = generate(GeneratorSpec("path", n=256))
    cfg = ReductionConfig(lam=8, h=8, ldd_repetitions=2, seed=args.seed)
    rep = reduce_shortcut(path, cfg, ExactReachabilityOracle(256))
    check = verify_shortcut(path, rep.shortcut, cfg.h)
    print(
        f"|H|={rep.total_size} hopbound={check.measured_hopbound} "
        f"verified={check.passed}"
    )


if __name__ == "__main__":
    main()
