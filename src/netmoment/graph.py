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
    object as immutable.
    """

    __slots__ = ("adj", "m", "load_report", "_degrees")

    def __init__(self, adj: np.ndarray, load_report: LoadReport | None = None):
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 2:
            raise ValueError("graph needs at least 2 nodes")
        if np.any(np.diagonal(adj)):
            raise ValueError("adjacency has entries on the diagonal (self-loops)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency is not symmetric")
        adj = adj.copy()
        adj.setflags(write=False)
        self.adj = adj
        self.m = adj.shape[0]
        self.load_report = load_report
        self._degrees = None

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            d = self.adj.sum(axis=1).astype(np.int64)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    @classmethod
    def from_edges(cls, m: int, edges) -> "Graph":
        """Build a graph from an iterable of (i, j) pairs on nodes 0..m-1."""
        adj = np.zeros((m, m), dtype=bool)
        for i, j in edges:
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) has a node id outside 0..{m - 1}")
            if i == j:
                continue
            adj[i, j] = True
            adj[j, i] = True
        return cls(adj)

    def __repr__(self):
        return f"Graph(m={self.m}, edges={self.edge_count})"


def density(g: Graph) -> float:
    """Empirical edge density: edges over C(m, 2)."""
    return 2.0 * g.edge_count / (g.m * (g.m - 1))


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
    return Graph(g.adj[np.ix_(inv, inv)])


def load_edge_list(path, indexing: str = "zero-based") -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    One edge per line; blank lines and `#` comments are skipped. A header line
    `%nodes N` pins the node count (otherwise m = max id + 1 after index
    adjustment). Self-loops are dropped and duplicate edges merged; both are
    counted in the attached LoadReport and logged. A third column means
    weighted input, which is rejected.
    """
    if indexing not in ("zero-based", "one-based"):
        raise EdgeListError(f"unknown indexing {indexing!r}")
    shift = 1 if indexing == "one-based" else 0

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise EdgeListError(f"cannot read edge list {path}: {exc}") from exc

    declared_m = None
    pairs = []
    loops = 0
    for lineno, raw in enumerate(lines, start=1):
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
        pairs.append((min(u, v), max(u, v)))

    if not pairs and declared_m is None:
        raise EdgeListError(f"{path}: no edges and no %nodes header")
    max_id = max((max(p) for p in pairs), default=-1)
    m = declared_m if declared_m is not None else max_id + 1
    if declared_m is not None and max_id >= declared_m:
        raise EdgeListError(f"node id {max_id} exceeds declared %nodes {declared_m}")
    if m < 2:
        raise EdgeListError(f"resulting graph has m={m} < 2 nodes")

    unique = sorted(set(pairs))
    report = LoadReport(
        edges_kept=len(unique),
        self_loops_dropped=loops,
        duplicates_merged=len(pairs) - len(unique),
    )
    adj = np.zeros((m, m), dtype=bool)
    for u, v in unique:
        adj[u, v] = True
        adj[v, u] = True
    logger.info(
        "loaded %s: m=%d kept=%d loops_dropped=%d dups_merged=%d",
        path, m, report.edges_kept, report.self_loops_dropped, report.duplicates_merged,
    )
    return Graph(adj, load_report=report)


def save_edge_list(g: Graph, path) -> None:
    """Write the graph as a zero-based edge list with a %nodes header."""
    iu, ju = np.nonzero(np.triu(g.adj, k=1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {g.m}\n")
        for u, v in zip(iu.tolist(), ju.tolist()):
            fh.write(f"{u} {v}\n")
