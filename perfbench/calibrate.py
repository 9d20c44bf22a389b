"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's machine is a few cores of a shared host, and the host's speed
drifts by a third and more over minutes: in five 40-second `hopset-gnm` runs
one after another the median operation took 5.2, 6.2, 6.0, 6.7 and 6.8 s, and
the set-up time moved with it. The drift is the same for every CPU-bound step,
and it shows within a 40-second run as well: one `shortcut-path` run took
6.2, 7.3, 9.5, 8.2 and 5.9 s over five operations while the kernel went from
0.22 s to 0.35 s and back. So `run.py` times this kernel a few times before
and after each operation (and around the set-ups) and converts every time it
reports to the host speed at which the kernel takes REFERENCE_S: the time
divided by the median of the kernel times on either side, times REFERENCE_S.

The kernel uses only the Python standard library, numpy and scipy, never
`shallowcut`, so no change to the program changes it: a program that gets
faster or slower moves the reported time by the same share as its wall
time. Its mix is the program's: interpreted loops over dicts, sets and
heaps, and numpy and scipy array work.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# A round figure for the kernel's time on the machine that recorded
# perfbench/README.md's reference figures (Intel Xeon, 2 cores, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1), where its median per 45-second run ranged
# 0.23-0.35 s.
REFERENCE_S = 0.25
REPEATS = 3

_N, _M = 600, 2400


def _graph() -> tuple[dict[int, list[tuple[int, int]]], csr_matrix]:
    rng = random.Random(20240611)
    edges = {}
    while len(edges) < _M:
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            edges[(u, v)] = rng.randrange(1, 33)
    adj: dict[int, list[tuple[int, int]]] = {u: [] for u in range(_N)}
    for (u, v), w in edges.items():
        adj[u].append((v, w))
    rows, cols = zip(*edges)
    matrix = csr_matrix((list(edges.values()), (rows, cols)), shape=(_N, _N), dtype=np.float64)
    return adj, matrix


_ADJ, _MATRIX = _graph()
_VALUES = np.random.default_rng(20240611).integers(0, 1 << 30, size=20_000)


def kernel() -> int:
    """Fixed work; returns a checksum of its results."""
    total = 0
    for source in range(0, _N, 3):  # heap-based Dijkstra in the interpreter
        dist = {source: 0}
        heap = [(0, source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _ADJ[u]:
                if d + w < dist.get(v, 1 << 60):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        total += sum(dist.values())
    dense = dijkstra(_MATRIX, indices=range(0, _N, 4))
    total += int(np.isfinite(dense).sum())
    for shift in range(16):  # sorting, deduplication and counting on small arrays
        keys = np.unique(_VALUES >> shift)
        total += int(np.bincount(keys % 1024).max()) + int(np.argsort(keys, kind="stable")[0])
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sample() -> list[float]:
    """REPEATS kernel times, taken between two timed steps."""
    return [time_kernel() for _ in range(REPEATS)]


def at_reference_speed(seconds: float, before: list[float], after: list[float]) -> float:
    """`seconds` timed between the kernel samples `before` and `after`,
    converted to seconds at the host speed where the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(before + after)
