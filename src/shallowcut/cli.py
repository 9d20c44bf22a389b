"""Command-line front end.

Subcommands: gen, ldd, dag-reduce, reduce, verify. Exit codes:
0 success, 1 verification failure, 2 usage error (argparse's own
convention for bad flags is preserved). Usage errors include flag values
the library rejects, a weighted graph where unit lengths are required,
and asking `ldd` or `verify` to check a graph with more vertices than
`--ceiling`. `reduce` constructs, then verifies what it built in either
mode with the verifiers of `verify.py`; it skips that check on a graph
above `--ceiling`, as it does under `--no-verify`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .dag_reduce import reduce_clustered_dag
from .fileio import (
    FormatError,
    read_edge_set,
    read_graph,
    read_weighted_edge_set,
    write_edge_set,
    write_graph,
    write_weighted_edge_set,
)
from .generators import FAMILIES, GeneratorSpec, generate
from .graphs import DiGraph, scc_topological
from .ldd import LddResult, estimate_removal_probability, low_diameter_decomposition
from .oracles import ExactReachabilityOracle, ExactTransitiveOracle, HubSamplingOracle
from .shallow_reduce import ReductionConfig, reduce_hopset, reduce_shortcut
from .verify import (
    DEFAULT_CEILING,
    SizeCeilingError,
    verify_clustered,
    verify_distance_preservation,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Invalid invocation; mapped to exit code 2."""


def _versions() -> dict:
    return {
        "shallowcut": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r}") from exc


def _from_flags(make, *args, **kwargs):
    """make(*args, **kwargs), with the ValueError that a bad flag value
    raises there reported as a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _require_unit_lengths(g: DiGraph) -> None:
    if g.edge_count and g.lengths.max() != 1:
        raise CliError("shortcuts are defined on graphs with unit edge lengths")


def _load_graph(path: str) -> DiGraph:
    try:
        return read_graph(path)
    except (OSError, FormatError) as exc:
        raise CliError(f"cannot read graph {path}: {exc}") from exc


def _load_edges(path: str, read, n: int):
    """The edge set that read() parses from path, with every vertex id
    checked against the graph's n."""
    try:
        edges = read(path)
    except (OSError, FormatError) as exc:
        raise CliError(f"cannot read edge set {path}: {exc}") from exc
    ids = np.concatenate([edges.tails, edges.heads])
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise CliError(f"edge set {path} names a vertex outside [0, {n})")
    return edges


def _json_int(value) -> int:
    if type(value) is not int:  # a JSON float, string or boolean
        raise TypeError(f"not an integer: {value!r}")
    return value


def _load_decomposition(path: str) -> LddResult:
    try:
        data = json.loads(Path(path).read_text())
        return LddResult(
            tuple(map(_json_int, data["removed_edges"])),
            tuple(tuple(map(_json_int, c)) for c in data["components"]),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot read decomposition {path}: {exc!r}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _make_oracle(name: str, n: int, hub_rate: float):
    if name == "exact":
        return ExactTransitiveOracle(n)
    return _from_flags(HubSamplingOracle, n, hub_rate)


def _emit(args, payload: dict, summary: str) -> None:
    """Under --json, stdout is the payload alone; else the summary line."""
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else summary)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    spec = _from_flags(
        GeneratorSpec,
        family=args.family,
        n=args.n,
        m=args.m,
        big_n=args.N,
        seed=args.seed,
        layers=args.layers,
        blocks=args.blocks,
        block_size=args.block_size,
        paths=args.paths,
    )
    g = _from_flags(generate, spec)
    out = Path(args.out) if args.out else _out_dir(args) / f"{args.family}.txt"
    write_graph(g, out)
    _emit(args, {"path": str(out), "n": g.vertex_count, "m": g.edge_count},
          f"wrote {out} (n={g.vertex_count} m={g.edge_count} N={g.max_length_bound})")
    return EXIT_OK


def _cmd_ldd(args) -> int:
    g = _load_graph(args.graph)
    if args.trials < 0:
        raise CliError("--trials must be nonnegative")
    result = _from_flags(low_diameter_decomposition, g, args.d, np.random.SeedSequence(args.seed))
    report = verify_ldd(g, args.d, result, ceiling=args.ceiling)
    payload = {
        "removed_edges": list(result.removed_edges),
        "components": [list(c) for c in result.components],
        "passed": report.passed,
        "max_weak_diameter": report.measured_hopbound,
    }
    if args.trials:
        freq = estimate_removal_probability(g, args.d, args.trials, args.seed)
        payload["removal_frequency_max"] = float(freq.max()) if len(freq) else 0.0
        payload["removal_frequency_median"] = float(np.median(freq)) if len(freq) else 0.0
    _emit(args, payload, f"components={len(result.components)} "
          f"removed={len(result.removed_edges)} max_weak_diam={report.measured_hopbound}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_dag_reduce(args) -> int:
    g = _load_graph(args.graph)
    cfg = _from_flags(
        ReductionConfig, lam=args.lam, h=args.h, eps=_parse_fraction(args.eps), seed=args.seed
    )
    oracle = _make_oracle(args.oracle, g.vertex_count, args.hub_rate)
    hopset, trace = reduce_clustered_dag(
        g, scc_topological(g), oracle, cfg.lam, cfg.h, cfg.eps, np.random.SeedSequence(cfg.seed)
    )
    out = _out_dir(args) / "dag-hopset.txt"
    write_weighted_edge_set(hopset, out)
    _emit(args, {"trace": trace.to_json(), "hopset_size": len(hopset), "path": str(out)},
          f"iterations={trace.oracle_calls} hopset={len(hopset)} wrote {out}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    graph_path = Path(args.graph)
    g = _load_graph(args.graph)
    cfg = _from_flags(
        ReductionConfig,
        lam=args.lam,
        h=args.h,
        eps=_parse_fraction(args.eps),
        seed=args.seed,
        ldd_repetitions=args.reps,
    )
    shortcut = args.mode == "shortcut"
    if shortcut:
        if args.oracle != "exact":
            raise CliError("shortcut mode has only the exact reachability oracle")
        _require_unit_lengths(g)
        oracle = ExactReachabilityOracle(g.vertex_count)
    else:
        oracle = _make_oracle(args.oracle, g.vertex_count, args.hub_rate)
    out = _out_dir(args)
    verify = not args.no_verify and g.vertex_count <= args.ceiling
    stage_seconds: dict[str, float] = {}
    t0 = time.perf_counter()
    report = (reduce_shortcut if shortcut else reduce_hopset)(g, cfg, oracle)
    stage_seconds["reduce"] = time.perf_counter() - t0
    if verify:
        t1 = time.perf_counter()
        if shortcut:
            report.verification = verify_shortcut(g, report.shortcut, cfg.h, ceiling=args.ceiling)
        else:
            report.verification = verify_distance_preservation(
                g, report.hopset, ceiling=args.ceiling
            )
        stage_seconds["verify"] = time.perf_counter() - t1
    if shortcut:
        edges_path = out / "shortcut.txt"
        write_edge_set(report.shortcut, edges_path)
    else:
        edges_path = out / "hopset.txt"
        write_weighted_edge_set(report.hopset, edges_path)
    doc = report.to_json()
    report_path = out / "report.json"
    report_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # the reproducibility record of this run
    manifest = {
        "config": {
            "mode": args.mode,
            "lambda": cfg.lam,
            "h": cfg.h,
            "eps": str(cfg.eps),
            "seed": cfg.seed,
            "reps": cfg.ldd_repetitions,
            "oracle": args.oracle,
        },
        "input_path": str(graph_path),
        "input_sha256": _sha256(graph_path),
        "output_paths": {"edges": str(edges_path), "report": str(report_path)},
        "versions": _versions(),
        "stage_seconds": stage_seconds,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if report.verification is None:
        verified = "skipped"
    else:
        verified = "yes" if report.verification.passed else "NO"
    _emit(args, doc, f"mode={args.mode} size={report.total_size} "
          f"oracle_calls={report.oracle_calls} clamps={report.clamp_count} verified={verified}")
    return EXIT_VERIFY if verified == "NO" else EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    if args.kind in ("hopset", "shortcut") and args.h < 0:
        raise CliError("--h must be nonnegative")
    if args.kind in ("ldd", "clustered") and args.d < 0:
        raise CliError("--d must be nonnegative")
    if args.kind == "hopset":
        alpha = _parse_fraction(args.alpha)
        if alpha < 1:
            raise CliError("--alpha must be at least 1")
        hopset = _load_edges(args.edges, read_weighted_edge_set, g.vertex_count)
        report = verify_hopset(g, hopset, alpha, args.h, ceiling=args.ceiling)
    elif args.kind == "shortcut":
        _require_unit_lengths(g)
        shortcut = _load_edges(args.edges, read_edge_set, g.vertex_count)
        report = verify_shortcut(g, shortcut, args.h, ceiling=args.ceiling)
    elif args.kind == "ldd":
        result = _load_decomposition(args.decomposition)
        report = verify_ldd(g, args.d, result, ceiling=args.ceiling)
    else:
        report = verify_clustered(g, args.d, ceiling=args.ceiling)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, seed: bool = True, out_dir: bool = True) -> None:
    """--json on every subcommand; --seed and --out-dir where they are read."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out_dir:
        p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true", help="print one JSON document, not the summary")


def _add_reduce_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--eps", default="1", help="stretch parameter; no effect in shortcut mode")
    p.add_argument("--oracle", choices=("exact", "hub"), default="exact")
    p.add_argument("--hub-rate", type=float, default=0.25)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowcut",
        description="Hopset and shortcut construction for directed graphs.",
    )
    # flags match by full name only: argparse would otherwise read a prefix
    # such as --c as the flag it abbreviates (--ceiling)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--blocks", type=int, default=0)
    p.add_argument("--block-size", type=int, default=3)
    p.add_argument("--paths", type=int, default=2)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ldd", help="run the low-diameter decomposition")
    p.add_argument("graph")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    _add_common(p, out_dir=False)
    p.set_defaults(func=_cmd_ldd)

    p = sub.add_parser("dag-reduce", help="clustered-DAG reduction on one graph")
    p.add_argument("graph")
    _add_reduce_config(p)
    _add_common(p)
    p.set_defaults(func=_cmd_dag_reduce)

    p = sub.add_parser("reduce", help="full hopset/shortcut pipeline")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("hopset", "shortcut"), default="hopset")
    _add_reduce_config(p)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check a previously produced artifact")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("hopset", "shortcut", "ldd", "clustered"), required=True)
    p.add_argument("--edges", help="hopset/shortcut edge file")
    p.add_argument("--decomposition", help="JSON from the ldd subcommand")
    p.add_argument("--alpha", default="1")
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    _add_common(p, seed=False, out_dir=False)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.kind in ("hopset", "shortcut") and not args.edges:
            parser.error("--edges is required for hopset/shortcut verification")
        if args.kind == "ldd" and not args.decomposition:
            parser.error("--decomposition is required for ldd verification")
    try:
        return args.func(args)
    except (CliError, SizeCeilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
