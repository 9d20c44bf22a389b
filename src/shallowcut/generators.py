"""Deterministic graph generators for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .graphs import DiGraph

_INT = np.int64


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator invocation: family name plus its parameters.

    n is the vertex count, m the edge target (random-gnm only), big_n the
    maximum edge length. Family extras: layers (dag-layers), blocks and
    block_size (scc-chain, where n is 0 or blocks * block_size), paths
    (disjoint-paths). A field the family does not read must keep its
    default.
    """

    family: str
    n: int = 0
    m: int = 0
    big_n: int = 1
    seed: int = 0
    layers: int = 4
    blocks: int = 0
    block_size: int = 3
    paths: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        reads = _FAMILIES[self.family][1] + ("family", "n", "seed")
        unread = [f.name for f in fields(self)
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.family} does not read {', '.join(unread)}")
        if self.big_n < 1:
            raise ValueError("big_n must be at least 1")
        if self.family == "scc-chain" and self.n not in (0, self.blocks * self.block_size):
            raise ValueError("scc-chain needs n = 0 or n = blocks * block_size")


def generate(spec: GeneratorSpec) -> DiGraph:
    return _FAMILIES[spec.family][0](spec)


def _lengths(spec: GeneratorSpec, count: int, rng: Optional[np.random.Generator]) -> np.ndarray:
    if spec.big_n == 1 or rng is None:
        return np.ones(count, dtype=_INT)
    return rng.integers(1, spec.big_n + 1, size=count).astype(_INT)


def _path(spec: GeneratorSpec) -> DiGraph:
    if spec.n < 1:
        raise ValueError("path needs n >= 1")
    t = np.arange(spec.n - 1, dtype=_INT)
    rng = np.random.default_rng(spec.seed) if spec.big_n > 1 else None
    return DiGraph(spec.n, t, t + 1, _lengths(spec, spec.n - 1, rng), spec.big_n)


def _cycle(spec: GeneratorSpec) -> DiGraph:
    if spec.n < 2:
        raise ValueError("cycle needs n >= 2")
    t = np.arange(spec.n, dtype=_INT)
    h = (t + 1) % spec.n
    rng = np.random.default_rng(spec.seed) if spec.big_n > 1 else None
    return DiGraph(spec.n, t, h, _lengths(spec, spec.n, rng), spec.big_n)


def _dag_layers(spec: GeneratorSpec) -> DiGraph:
    """Complete bipartite edges between consecutive layers of n/layers
    vertices, random lengths."""
    if spec.n < spec.layers or spec.layers < 2:
        raise ValueError("dag-layers needs layers >= 2 and n >= layers")
    rng = np.random.default_rng(spec.seed)
    bounds = np.linspace(0, spec.n, spec.layers + 1).astype(_INT)
    tails, heads = [], []
    for i in range(spec.layers - 1):
        a = np.arange(bounds[i], bounds[i + 1], dtype=_INT)
        b = np.arange(bounds[i + 1], bounds[i + 2], dtype=_INT)
        tails.append(np.repeat(a, len(b)))
        heads.append(np.tile(b, len(a)))
    t = np.concatenate(tails)
    h = np.concatenate(heads)
    return DiGraph(spec.n, t, h, _lengths(spec, len(t), rng), spec.big_n)


def _random_gnm(spec: GeneratorSpec) -> DiGraph:
    """m uniform random non-loop edges (with replacement) on n vertices."""
    if spec.n < 2 or spec.m < 0:
        raise ValueError("random-gnm needs n >= 2 and m >= 0")
    rng = np.random.default_rng(spec.seed)
    t = rng.integers(0, spec.n, size=spec.m).astype(_INT)
    # shift heads past the tail so no self-loops come out
    h = (t + 1 + rng.integers(0, spec.n - 1, size=spec.m)).astype(_INT) % spec.n
    return DiGraph(spec.n, t, h, _lengths(spec, spec.m, rng), spec.big_n)


def _scc_chain(spec: GeneratorSpec) -> DiGraph:
    """blocks unit-length directed cycles of block_size vertices, chained in
    topological order by one edge from each block's last vertex to the next
    block's first."""
    if spec.blocks < 1 or spec.block_size < 2:
        raise ValueError("scc-chain needs blocks >= 1 and block_size >= 2")
    k, b = spec.blocks, spec.block_size
    n = k * b
    tails, heads = [], []
    for i in range(k):
        base = i * b
        v = np.arange(base, base + b, dtype=_INT)
        tails.append(v)
        heads.append(np.roll(v, -1))
        if i + 1 < k:
            tails.append(np.array([base + b - 1], dtype=_INT))
            heads.append(np.array([base + b], dtype=_INT))
    t = np.concatenate(tails)
    h = np.concatenate(heads)
    return DiGraph(n, t, h, np.ones(len(t), dtype=_INT), max(spec.big_n, 1))


def _disjoint_paths(spec: GeneratorSpec) -> DiGraph:
    """paths vertex-disjoint directed paths splitting n as evenly as possible."""
    if spec.paths < 1 or spec.n < spec.paths:
        raise ValueError("disjoint-paths needs paths >= 1 and n >= paths")
    rng = np.random.default_rng(spec.seed) if spec.big_n > 1 else None
    bounds = np.linspace(0, spec.n, spec.paths + 1).astype(_INT)
    tails = []
    for i in range(spec.paths):
        v = np.arange(bounds[i], bounds[i + 1] - 1, dtype=_INT)
        tails.append(v)
    t = np.concatenate(tails) if tails else np.empty(0, dtype=_INT)
    return DiGraph(spec.n, t, t + 1, _lengths(spec, len(t), rng), spec.big_n)


# each family's builder and the fields it reads besides family, n and seed
_FAMILIES = {
    "path": (_path, ("big_n",)),
    "cycle": (_cycle, ("big_n",)),
    "dag-layers": (_dag_layers, ("big_n", "layers")),
    "random-gnm": (_random_gnm, ("m", "big_n")),
    "scc-chain": (_scc_chain, ("big_n", "blocks", "block_size")),
    "disjoint-paths": (_disjoint_paths, ("big_n", "paths")),
}
FAMILIES = tuple(_FAMILIES)
