"""Simple undirected graphs: construction, edge-list I/O, density, relabeling.

Graphs are immutable once built.  The adjacency matrix is a symmetric boolean
numpy array with a zero diagonal; node ids are dense 0..m-1.  Everything
downstream (moments, projections, hashing) consumes this representation
read-only, so a Graph can be shared freely across worker processes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class EdgeListError(ValueError):
    """Raised for unreadable, malformed or degenerate edge-list input."""


@dataclass(frozen=True)
class LoadReport:
    """What the edge-list loader kept, dropped and merged."""

    edges_kept: int = 0
    self_loops_dropped: int = 0
    duplicates_merged: int = 0


class Graph:
    """Undirected simple graph with m >= 2 nodes.

    `adj` is an (m, m) boolean array, symmetric with a false diagonal. The
    array is frozen (writeable=False) after construction; treat the whole
    object as immutable. Values derived from `adj` are cached on first use:
    `degrees`, and the A @ A node pass of the motif census (`_two_walks`).
    """

    __slots__ = ("adj", "m", "load_report", "_degrees", "_two_walks")

    def __init__(self, adj: np.ndarray, load_report: LoadReport | None = None, *,
                 _owned: bool = False):
        # _owned: the package's own builders pass a fresh array that is
        # symmetric by construction; the graph keeps it as it is, uncopied
        adj = np.asarray(adj, dtype=bool) if _owned else np.array(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 2:
            raise ValueError("graph needs at least 2 nodes")
        if np.any(np.diagonal(adj)):
            raise ValueError("adjacency has entries on the diagonal (self-loops)")
        if not _owned and not _is_symmetric(adj):
            raise ValueError("adjacency is not symmetric")
        adj.setflags(write=False)
        self.adj = adj
        self.m = adj.shape[0]
        self.load_report = load_report
        self._degrees = None
        self._two_walks = None

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            d = self.adj.sum(axis=1).astype(np.int64)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def edge_count(self) -> int:
        return int(np.add.reduce(self.degrees)) // 2

    @classmethod
    def from_edges(cls, m: int, edges) -> "Graph":
        """Build a graph from an iterable of (i, j) pairs on nodes 0..m-1."""
        uv = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        outside = ((uv < 0) | (uv >= m)).any(axis=1)
        if outside.any():
            i, j = uv[outside.argmax()].tolist()
            raise ValueError(f"edge ({i}, {j}) has a node id outside 0..{m - 1}")
        return cls(_adjacency(m, uv[uv[:, 0] != uv[:, 1]]), _owned=True)

    def __repr__(self):
        return f"Graph(m={self.m}, edges={self.edge_count})"


def density(g: Graph) -> float:
    """Empirical edge density: edges over C(m, 2); per graph for a stack."""
    return 2.0 * g.edge_count / (g.m * (g.m - 1))


# cells per block of the symmetry check, which compares rows lo:hi with
# columns lo:hi and so holds no m x m temporary
_SYMMETRY_BLOCK = 1 << 16


def _is_symmetric(adj: np.ndarray) -> bool:
    m = adj.shape[0]
    step = max(1, _SYMMETRY_BLOCK // m)
    return all(np.array_equal(adj[lo:lo + step], adj[:, lo:lo + step].T)
               for lo in range(0, m, step))


class GraphStack:
    """Graphs of one size m, read as arrays with a leading batch axis.

    `adj` is (B, m, m) and `degrees` (B, m), in the order of `graphs`. The
    motif census, the projections and the pair rows take a stack wherever
    they take a Graph; each value they return then has the batch axis, and a
    scalar becomes a (B,) array. A stack caches its A @ A node pass as a
    graph does.
    """

    __slots__ = ("graphs", "m", "adj", "degrees", "_two_walks")

    def __init__(self, graphs):
        self.graphs = list(graphs)
        self.m = self.graphs[0].m
        if any(g.m != self.m for g in self.graphs):
            raise ValueError("the graphs of a stack must have one size")
        self.adj = np.stack([g.adj for g in self.graphs])
        self.degrees = np.stack([g.degrees for g in self.graphs])
        self._two_walks = None

    @property
    def edge_count(self) -> np.ndarray:
        return self.degrees.sum(axis=1) // 2


def permute(g: Graph, pi) -> Graph:
    """Relabel nodes by the permutation pi (``new_label = position in pi``).

    Node i of the input becomes node pi[i] of the output. Density and every
    motif moment are invariant under this operation.
    """
    pi = np.asarray(pi, dtype=np.int64)
    if pi.shape != (g.m,) or not np.array_equal(np.sort(pi), np.arange(g.m)):
        raise ValueError("pi is not a bijection on 0..m-1")
    inv = np.empty(g.m, dtype=np.int64)
    inv[pi] = np.arange(g.m)
    return Graph(g.adj[np.ix_(inv, inv)], _owned=True)


# Byte classes of the bulk parser. Blanks (space, \t, \v, \f) separate
# tokens as str.split() does. The "\r" of "\r\n" becomes a blank and a lone
# "\r" a line feed; any other byte of class _CR or above, such as "#", "%",
# "+", "-", "_", \x1c-\x1f or a non-ASCII byte, sends its line to the
# per-line parser.
_BLANK, _DIGIT, _LF, _CR, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[[ord(" "), ord("\t"), ord("\v"), ord("\f")]] = _BLANK
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord("\n")] = _LF
_BYTE_CLASS[ord("\r")] = _CR
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63, so a longer run may not fit int64


def _split_plain_lines(data: bytes):
    """Find the lines of `data` and parse its plain lines with array code.

    Lines end at "\n", "\r\n" or a lone "\r", as in a text-mode read. A
    plain line holds exactly two runs of at most 18 ASCII digits and nothing
    else but blanks. Returns the (k, 2) int64 ids of the plain lines, their
    0-based line numbers, the start and end offsets of every line, and the
    0-based numbers of the other lines that hold anything but blanks.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = buf.size
    cls = _BYTE_CLASS[buf]
    cr = np.flatnonzero(cls == _CR)
    crlf = buf[np.minimum(cr + 1, n - 1)] == ord("\n")
    cls[cr[crlf]] = _BLANK
    cls[cr[~crlf]] = _LF
    line_end = np.flatnonzero(cls == _LF)
    line_start = np.concatenate(([0], line_end + 1))
    line_end = np.append(line_end, n)

    is_digit = np.zeros(n + 2, dtype=np.int8)  # padded, so every run has both edges
    is_digit[1:-1] = cls == _DIGIT
    step = np.diff(is_digit)
    run_start = np.flatnonzero(step == 1)
    run_len = np.flatnonzero(step == -1) - run_start
    run_line = np.searchsorted(line_end, run_start)
    runs = np.bincount(run_line, minlength=line_start.size)
    odd = np.zeros(line_start.size, dtype=bool)
    odd[np.searchsorted(line_end, np.flatnonzero(cls >= _CR))] = True
    odd[run_line[run_len > _MAX_DIGITS]] = True
    plain = (runs == 2) & ~odd

    ids = np.zeros(run_start.size, dtype=np.int64)
    for k in range(min(int(run_len.max(initial=0)), _MAX_DIGITS)):  # Horner
        more = run_len > k
        digit = buf[np.minimum(run_start + k, n - 1)] - ord("0")
        np.multiply(ids, 10, out=ids, where=more)
        np.add(ids, digit, out=ids, where=more)
    keep = plain[run_line]
    other = np.flatnonzero(~plain & ((runs > 0) | odd))
    return ids[keep].reshape(-1, 2), run_line[keep][::2], line_start, line_end, other


def _adjacency(m: int, *edge_blocks) -> np.ndarray:
    """The m x m adjacency with an edge for every (u, v) row of the blocks.

    Ids must lie in 0..m-1 with u != v. The blocks become int64 arrays only
    once the matrix is allocated, so an id too large for int64 is reported
    as the allocation it would need.
    """
    try:
        adj = np.zeros((m, m), dtype=bool)
    except (MemoryError, ValueError) as exc:
        raise EdgeListError(
            f"cannot allocate the adjacency of m={m} nodes ({m * m} bytes)"
        ) from exc
    for block in edge_blocks:
        uv = np.asarray(block, dtype=np.int64).reshape(-1, 2)
        adj[uv[:, 0], uv[:, 1]] = True
        adj[uv[:, 1], uv[:, 0]] = True
    return adj


def load_edge_list(path, indexing: str = "zero-based") -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    One edge per line; blank lines and `#` comments are skipped. A header line
    `%nodes N` pins the node count (otherwise m = max id + 1 after index
    adjustment); the last header wins. Self-loops are dropped and duplicate
    edges merged; both are counted in the attached LoadReport and logged. A
    third column means weighted input, which is rejected.

    Lines of two plain digit runs are parsed as arrays; every other line goes
    through the per-line code below, in file order, so the first bad line is
    the one reported whichever kind it is.
    """
    if indexing not in ("zero-based", "one-based"):
        raise EdgeListError(f"unknown indexing {indexing!r}")
    shift = 1 if indexing == "one-based" else 0

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            # a text-mode read rejects invalid UTF-8 before any line is parsed
            with open(path, "r", encoding="utf-8") as fh:
                fh.readlines()
    except OSError as exc:
        raise EdgeListError(f"cannot read edge list {path}: {exc}") from exc

    bulk, bulk_line, line_start, line_end, other = _split_plain_lines(data)
    bulk -= shift
    negative = bulk_line[(bulk < 0).any(axis=1)]
    stop = int(negative[0]) if negative.size else line_start.size

    declared_m = None
    pairs = []
    loops = 0
    for i in other[other < stop].tolist():
        lineno = i + 1
        raw = data[line_start[i]:line_end[i]].decode("utf-8")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0].lower() == "nodes":
                try:
                    declared_m = int(tokens[1])
                except ValueError as exc:
                    raise EdgeListError(f"line {lineno}: bad %nodes header") from exc
                continue
            raise EdgeListError(f"line {lineno}: unknown directive {line!r}")
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(
                f"line {lineno}: expected two integer node ids, got {len(tokens)} "
                "tokens (weighted edge lists are not supported)"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise EdgeListError(f"line {lineno}: non-integer token") from exc
        u -= shift
        v -= shift
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative node id after indexing shift")
        if u == v:
            loops += 1
            continue
        pairs.append((u, v))
    if negative.size:
        raise EdgeListError(f"line {stop + 1}: negative node id after indexing shift")

    loop = bulk[:, 0] == bulk[:, 1]
    loops += int(np.count_nonzero(loop))
    bulk = bulk[~loop]
    n_pairs = len(bulk) + len(pairs)
    if not n_pairs and declared_m is None:
        raise EdgeListError(f"{path}: no edges and no %nodes header")
    max_id = max(int(bulk.max(initial=-1)), max((max(p) for p in pairs), default=-1))
    m = declared_m if declared_m is not None else max_id + 1
    if declared_m is not None and max_id >= declared_m:
        raise EdgeListError(f"node id {max_id} exceeds declared %nodes {declared_m}")
    if m < 2:
        raise EdgeListError(f"resulting graph has m={m} < 2 nodes")

    adj = _adjacency(m, bulk, pairs)
    edges_kept = int(np.count_nonzero(adj)) // 2  # symmetric, empty diagonal
    report = LoadReport(
        edges_kept=edges_kept,
        self_loops_dropped=loops,
        duplicates_merged=n_pairs - edges_kept,
    )
    logger.info(
        "loaded %s: m=%d kept=%d loops_dropped=%d dups_merged=%d",
        path, m, report.edges_kept, report.self_loops_dropped, report.duplicates_merged,
    )
    return Graph(adj, load_report=report, _owned=True)


def save_edge_list(g: Graph, path) -> None:
    """Write the graph as a zero-based edge list with a %nodes header."""
    iu, ju = np.nonzero(np.triu(g.adj, k=1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {g.m}\n")
        for u, v in zip(iu.tolist(), ju.tolist()):
            fh.write(f"{u} {v}\n")
