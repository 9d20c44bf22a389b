"""Plain-text interchange formats.

Graph file: first line ``n m N``, then m lines ``tail head length``
(0-based decimal ids, LF-terminated); only blank lines may follow them.
Edge-set files are ``tail head length`` lines (hopsets, every length at
least 1) or ``tail head`` lines (shortcuts).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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
    for i in range(m + 1, len(lines)):
        if lines[i].strip():
            raise FormatError(f"line {i + 1}: text after the {m} edges the header promises")
    try:
        return DiGraph.from_edges(n, edges, max_length_bound=big_n)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# rows formatted per write: one chunk's digit arrays are a few MB, where
# those of a whole half-million-edge set would be tens of MB
_CHUNK = 1 << 16
# 10^0 .. 10^19: an int64 has at most 19 digits
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _format_rows(columns) -> np.ndarray:
    """The bytes of "{} {} ... {}\n".format(*row) for each row of the int64
    columns, as one uint8 array.

    Each column becomes a right-aligned block of ASCII digits as wide as its
    widest value; one boolean mask drops the leading padding of every row
    in row-major order, which is the file's byte order. Widths come from
    comparisons with scalar powers of ten and digits from a // and - loop by
    the scalar 10: with a scalar operand numpy takes its vectorised path,
    where a broadcast array of divisors does not.
    """
    cells, keep = [], []
    last = len(columns) - 1
    for j, col in enumerate(columns):
        neg = col < 0
        mag = col.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)  # |int64 min| = 2^63 fits in uint64
        width = 1 + neg.astype(np.int64)
        for power in _POW10[1 : len(str(mag.max()))]:
            width += mag >= power
        w = int(width.max())
        block = np.empty((len(col), w), dtype=np.uint8)
        for k in range(w - 1, -1, -1):
            rest = mag // 10
            block[:, k] = mag - rest * 10
            mag = rest
        block += ord("0")
        pad = w - width
        block[neg, pad[neg]] = ord("-")
        sep = np.full((len(col), 1), ord("\n" if j == last else " "), dtype=np.uint8)
        cells += [block, sep]
        keep += [np.arange(w) >= pad[:, None], np.ones_like(sep, dtype=bool)]
    return np.concatenate(cells, axis=1)[np.concatenate(keep, axis=1)]


def _write_lines(path: str | Path, header: str, *columns: np.ndarray) -> None:
    """Write header, then one line per row of the int64 columns: the row's
    values in decimal, separated by single spaces. The bytes are those of
    "{} {} ... {}\n".format(*row), formatted _CHUNK rows at a time."""
    with Path(path).open("wb") as f:
        f.write(header.encode("ascii"))
        for start in range(0, len(columns[0]), _CHUNK):
            f.write(_format_rows([c[start : start + _CHUNK] for c in columns]))


def write_graph(g: DiGraph, path: str | Path) -> None:
    header = f"{g.vertex_count} {g.edge_count} {g.max_length_bound}\n"
    _write_lines(path, header, g.tails, g.heads, g.lengths)


def write_weighted_edge_set(es: WeightedEdgeSet, path: str | Path) -> None:
    _write_lines(path, "", es.tails, es.heads, es.lengths)


def _edge_rows(path: str | Path, count: int):
    """(line number, fields) for each non-blank line of an edge-set file,
    each line holding count integers."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.strip():
            yield lineno, _parse_ints(line, count, lineno)


def read_weighted_edge_set(path: str | Path) -> WeightedEdgeSet:
    triples = []
    for lineno, (t, h, w) in _edge_rows(path, 3):
        if w < 1:
            raise FormatError(f"line {lineno}: length {w} is below 1")
        triples.append((t, h, w))
    return WeightedEdgeSet.from_triples(triples)


def write_edge_set(es: EdgeSet, path: str | Path) -> None:
    _write_lines(path, "", es.tails, es.heads)


def read_edge_set(path: str | Path) -> EdgeSet:
    return EdgeSet.from_pairs([row for _, row in _edge_rows(path, 2)])
