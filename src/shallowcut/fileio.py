"""Plain-text interchange formats.

Graph file: first line ``n m N``, then m lines ``tail head length``
(0-based decimal ids, LF-terminated). Edge-set files are ``tail head
length`` lines (hopsets) or ``tail head`` lines (shortcuts).
"""

from __future__ import annotations

from pathlib import Path

from .graphs import DiGraph, EdgeSet, WeightedEdgeSet


class FormatError(ValueError):
    """Malformed graph or edge-set file."""


def _parse_ints(line: str, count: int, lineno: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"line {lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: non-integer field") from exc


def read_graph(path: str | Path) -> DiGraph:
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty graph file")
    n, m, big_n = _parse_ints(lines[0], 3, 1)
    if n < 0 or m < 0 or big_n < 1:
        raise FormatError("invalid header values")
    if len(lines) < m + 1:
        raise FormatError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for i in range(m):
        t, h, w = _parse_ints(lines[1 + i], 3, 2 + i)
        edges.append((t, h, w))
    try:
        return DiGraph.from_edges(n, edges, max_length_bound=big_n)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# rows formatted per write: the Python ints and strings of one chunk are a
# few MB, where those of a whole half-million-edge set took over 50 MB
_CHUNK = 1 << 16


def _write_lines(path: str | Path, header: str, fmt: str, *columns) -> None:
    """Write header, then fmt formatted with each row of the columns."""
    with Path(path).open("w") as f:
        f.write(header)
        for start in range(0, len(columns[0]), _CHUNK):
            rows = (c[start : start + _CHUNK].tolist() for c in columns)
            f.write("".join(map(fmt.format, *rows)))


def write_graph(g: DiGraph, path: str | Path) -> None:
    header = f"{g.vertex_count} {g.edge_count} {g.max_length_bound}\n"
    _write_lines(path, header, "{} {} {}\n", g.tails, g.heads, g.lengths)


def write_weighted_edge_set(es: WeightedEdgeSet, path: str | Path) -> None:
    _write_lines(path, "", "{} {} {}\n", es.tails, es.heads, es.lengths)


def read_weighted_edge_set(path: str | Path) -> WeightedEdgeSet:
    triples = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if line.strip():
            t, h, w = _parse_ints(line, 3, i + 1)
            triples.append((t, h, w))
    return WeightedEdgeSet.from_triples(triples)


def write_edge_set(es: EdgeSet, path: str | Path) -> None:
    _write_lines(path, "", "{} {}\n", es.tails, es.heads)


def read_edge_set(path: str | Path) -> EdgeSet:
    pairs = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if line.strip():
            t, h = _parse_ints(line, 2, i + 1)
            pairs.append((t, h))
    return EdgeSet.from_pairs(pairs)
