"""Independent checks of what `shallowcut reduce` writes.

Built on numpy and scipy alone: nothing here imports shallowcut, so a fault
in the package's own graph primitives or verifiers cannot hide a fault in
its output. Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra


@dataclass(frozen=True)
class Graph:
    n: int
    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray


def parse_graph(text: str) -> Graph:
    """Graph file: header `n m N`, then m lines `tail head length`."""
    fields = np.array(text.split(), dtype=np.int64)
    n, m = int(fields[0]), int(fields[1])
    rows = fields[3:].reshape(m, 3)
    return Graph(n, rows[:, 0], rows[:, 1], rows[:, 2])


def parse_artifact(mode: str, text: str) -> tuple[np.ndarray, ...]:
    """Hopset file: `tail head length` lines; shortcut file: `tail head`."""
    columns = 3 if mode == "hopset" else 2
    rows = np.array(text.split(), dtype=np.int64).reshape(-1, columns)
    return tuple(rows[:, i] for i in range(columns))


def distances(n: int, tails, heads, lengths) -> np.ndarray:
    """All-pairs shortest-path lengths, inf where unreachable."""
    keep = tails != heads
    t, h, w = tails[keep], heads[keep], lengths[keep]
    # a sparse matrix sums parallel entries, so keep the shortest of each pair
    order = np.lexsort((w, h, t))
    t, h, w = t[order], h[order], w[order]
    first = np.ones(len(t), dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (h[1:] != h[:-1])
    mat = sp.csr_matrix((w[first].astype(np.float64), (t[first], h[first])), shape=(n, n))
    return dijkstra(mat, directed=True)


def hop_closure(n: int, tails, heads, cap: int) -> tuple[int | None, np.ndarray]:
    """Level-synchronous BFS from every vertex at once, on rows of bits.

    Returns (r, reach): r is the fewest hops within which every reachable
    pair is reached (None if that is more than `cap`), and reach[u, v] says
    whether v is reachable from u.
    """
    keep = tails != heads
    order = np.argsort(tails[keep], kind="stable")
    t, h = tails[keep][order], heads[keep][order]
    words = (n + 63) // 64
    ids = np.arange(n)
    bits = np.zeros((n, words), dtype=np.uint64)
    bits[ids, ids // 64] = np.left_shift(np.uint64(1), (ids % 64).astype(np.uint64))
    rounds = None
    if len(t):
        starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        sources = t[starts]
        for r in range(cap + 1):
            nxt = bits.copy()
            nxt[sources] |= np.bitwise_or.reduceat(bits[h], starts, axis=0)
            if np.array_equal(nxt, bits):
                rounds = r
                break
            bits = nxt
    else:
        rounds = 0
    reach = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")[:, :n]
    return rounds, reach.astype(bool)


def hop_limited_distances(n: int, tails, heads, lengths, hops: int) -> np.ndarray:
    """Shortest lengths over paths of at most `hops` edges (min-plus powers)."""
    step = np.full((n, n), np.inf)
    np.minimum.at(step, (tails, heads), lengths.astype(np.float64))
    np.fill_diagonal(step, 0.0)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    block = 16
    for _ in range(hops):
        nxt = np.empty_like(dist)
        for lo in range(0, n, block):
            nxt[lo : lo + block] = (dist[lo : lo + block, :, None] + step[None]).min(axis=1)
        dist = nxt
    return dist


def check_hopset(g: Graph, hopset: tuple, report: dict) -> list[str]:
    """Every edge joins a reachable pair and is no shorter than the true
    distance; adding the edges changes no distance; nothing was clamped."""
    t, h, w = hopset
    problems = []
    if len(t) and (min(t.min(), h.min()) < 0 or max(t.max(), h.max()) >= g.n):
        return ["edge endpoint out of range"]
    dist = distances(g.n, g.tails, g.heads, g.lengths)
    true = dist[t, h]
    if not np.isfinite(true).all():
        problems.append(f"{int((~np.isfinite(true)).sum())} edges join unreachable pairs")
    short = w < true
    if short.any():
        problems.append(f"{int(short.sum())} edges shorter than the true distance")
    union = distances(
        g.n, np.r_[g.tails, t], np.r_[g.heads, h], np.r_[g.lengths, w]
    )
    if not np.array_equal(union, dist):
        problems.append(f"{int((union != dist).sum())} distances of G + H differ from G")
    if report.get("clamp_count") != 0:
        problems.append(f"clamp_count is {report.get('clamp_count')}, not 0")
    return problems


def hopset_figures(g: Graph, hopset: tuple, h: int) -> dict:
    """Reference figures, not gated on: hop radius of G + H and its stretch
    within h hops."""
    t, hd, w = hopset
    tails, heads, lengths = np.r_[g.tails, t], np.r_[g.heads, hd], np.r_[g.lengths, w]
    radius, _ = hop_closure(g.n, tails, heads, g.n)
    dist = distances(g.n, g.tails, g.heads, g.lengths)
    dist_h = hop_limited_distances(g.n, tails, heads, lengths, h)
    pairs = np.isfinite(dist) & (dist > 0)
    stretch = float((dist_h[pairs] / dist[pairs]).max()) if pairs.any() else 1.0
    return {"hop_radius": radius, "stretch_at_h": stretch}


def check_shortcut(g: Graph, shortcut: tuple, h: int) -> list[str]:
    """On the path 0 -> 1 -> ... -> n-1: every edge (u, v) has u < v, and
    G + S reaches every reachable pair within h hops."""
    n = g.n
    if not (np.array_equal(g.tails, np.arange(n - 1)) and np.array_equal(g.heads, g.tails + 1)):
        return ["input is not the path 0 -> 1 -> ... -> n-1"]
    t, hd = shortcut
    problems = []
    if len(t) and (min(t.min(), hd.min()) < 0 or max(t.max(), hd.max()) >= n):
        return ["edge endpoint out of range"]
    backward = t >= hd
    if backward.any():
        problems.append(f"{int(backward.sum())} edges (u, v) with u >= v")
    rounds, reach = hop_closure(n, np.r_[g.tails, t], np.r_[g.heads, hd], h)
    if rounds is None:
        problems.append(f"hop diameter of G + S above h = {h}")
    elif not np.array_equal(reach, np.triu(np.ones((n, n), dtype=bool))):
        problems.append("G + S changes reachability")
    return problems


def shortcut_hop_diameter(g: Graph, shortcut: tuple) -> int | None:
    t, hd = shortcut
    return hop_closure(g.n, np.r_[g.tails, t], np.r_[g.heads, hd], g.n)[0]


def mutants(mode: str, g: Graph, edges: tuple) -> dict[str, tuple]:
    """Broken copies of a correct artifact, each of which the checks above
    must reject."""
    if mode == "hopset":
        t, h, w = edges
        dist = distances(g.n, g.tails, g.heads, g.lengths)
        i = int(np.flatnonzero(dist[t, h] >= 2)[0])
        w = w.copy()
        w[i] = int(dist[t[i], h[i]]) - 1
        return {"hopset edge shorter than the true distance": (t, h, w)}
    t, h = edges
    back_t, back_h = t.copy(), h.copy()
    back_t[0], back_h[0] = h[0], t[0]
    empty = np.zeros(0, dtype=np.int64)
    return {
        "shortcut edge (v, u) with u < v": (back_t, back_h),
        "empty shortcut": (empty, empty),
    }


def check(mode: str, g: Graph, edges: tuple, report: dict, h: int) -> list[str]:
    if mode == "hopset":
        return check_hopset(g, edges, report)
    return check_shortcut(g, edges, h)


def mutation_results(mode: str, g: Graph, edges: tuple, report: dict, h: int) -> dict[str, list[str]]:
    """What the checks find in each mutant; an empty list means it slipped by."""
    return {label: check(mode, g, bad, report, h) for label, bad in mutants(mode, g, edges).items()}
