"""Motif patterns, the containment indicator h, and empirical moment machinery.

A motif is a small connected pattern graph with r nodes and s edges. The
indicator h(sub) is 1 when some relabeling embeds every motif edge into the
r-node subgraph `sub` (containment, not induced equality, so a triangle
contains a vshape). The whole-graph moment is the average of h over all
C(m, r) node subsets; per-node and per-pair restricted averages feed the
Hoeffding-style projections.

Edge, vshape and triangle get closed forms built on the exact rows of A @ A,
chosen by shape (r, s), never by name: a connected motif on at most three
nodes is fixed up to isomorphism by its node and edge counts. Every other
shape takes the generic path, which enumerates subsets and is meant for small
custom motifs only.
The brute-force enumerator is kept as an independent oracle for the fast
paths and is guarded against large inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .graph import Graph, GraphStack, density

MAX_MOTIF_NODES = 5
BRUTEFORCE_SUBSET_CAP = 10**6


def _check_connected(pattern: np.ndarray) -> bool:
    r = pattern.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(pattern[i])[0]:
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == r


@dataclass(frozen=True)
class Motif:
    """Connected pattern with r nodes, s edges and a symmetric 0/1 pattern."""

    name: str
    pattern: np.ndarray = field(repr=False)
    r: int = field(init=False)
    s: int = field(init=False)
    cyclic: bool = field(init=False)

    def __post_init__(self):
        pattern = np.asarray(self.pattern, dtype=bool)
        r = pattern.shape[0]
        if pattern.ndim != 2 or pattern.shape != (r, r):
            raise ValueError("motif pattern must be square")
        if r < 2 or r > MAX_MOTIF_NODES:
            raise ValueError(f"motif must have 2..{MAX_MOTIF_NODES} nodes, got {r}")
        if np.any(np.diagonal(pattern)):
            raise ValueError("motif pattern has self-loops")
        if not np.array_equal(pattern, pattern.T):
            raise ValueError("motif pattern is not symmetric")
        if not _check_connected(pattern):
            raise ValueError("motif pattern must be connected")
        pattern = pattern.copy()
        pattern.setflags(write=False)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "r", r)
        s = int(pattern.sum()) // 2
        object.__setattr__(self, "s", s)
        # connected graph is a tree iff s == r - 1
        object.__setattr__(self, "cyclic", s > r - 1)

    @property
    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.pattern, k=1))
        return list(zip(iu.tolist(), ju.tolist()))


def _motif(name, edges, r):
    pat = np.zeros((r, r), dtype=bool)
    for i, j in edges:
        pat[i, j] = pat[j, i] = True
    return Motif(name, pat)


EDGE = _motif("edge", [(0, 1)], 2)
VSHAPE = _motif("vshape", [(0, 1), (0, 2)], 3)
TRIANGLE = _motif("triangle", [(0, 1), (0, 2), (1, 2)], 3)

BUILTIN_MOTIFS = {m.name: m for m in (EDGE, VSHAPE, TRIANGLE)}
_ALIASES = {"2-star": "vshape", "twostar": "vshape", "2star": "vshape", "v-shape": "vshape"}


def motif_by_name(name: str) -> Motif:
    """Look up a built-in motif by name (case-insensitive, 2-star == vshape)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return BUILTIN_MOTIFS[key]
    except KeyError:
        raise ValueError(
            f"unknown motif {name!r}; built-ins: {sorted(BUILTIN_MOTIFS)}"
        ) from None


def motif_from_spec(spec) -> Motif:
    """Resolve a motif from a name string or a {name, pattern} literal.

    The pattern literal is a symmetric 0/1 row-list, e.g.
    {"name": "four-cycle", "pattern": [[0,1,0,1],[1,0,1,0],[0,1,0,1],[1,0,1,0]]}.
    """
    if isinstance(spec, Motif):
        return spec
    if isinstance(spec, str):
        return motif_by_name(spec)
    if isinstance(spec, dict) and "pattern" in spec:
        return Motif(str(spec.get("name", "custom")), np.asarray(spec["pattern"]))
    raise ValueError(f"cannot interpret motif spec {spec!r}")


def contains_motif(sub: np.ndarray, motif: Motif) -> int:
    """h indicator: 1 iff some node bijection embeds every motif edge in sub."""
    sub = np.asarray(sub, dtype=bool)
    if sub.shape != (motif.r, motif.r):
        raise ValueError(f"subgraph shape {sub.shape} does not match motif r={motif.r}")
    edges = motif.edges
    for perm in itertools.permutations(range(motif.r)):
        if all(sub[perm[a], perm[b]] for a, b in edges):
            return 1
    return 0


# A node-pass block holds at most this many pairs of A @ A; a graph with
# m * m <= _BLOCK keeps its whole product, so its passes share one product.
_BLOCK = 1 << 16
# Rows of A @ A come from CSR when sum_k d_k^2 < m^3 / _SPARSE_RATIO and from
# float32 BLAS otherwise. On random graphs (2 vCPUs, one BLAS thread) the two
# cost the same near sum d^2 / m^3 = 0.0025 at m = 1000 and 0.003 at m = 1600
# (density 0.05-0.06); at m = 400 both take at most 8 ms.
_SPARSE_RATIO = 400


class _TwoWalks:
    """Exact rows of A @ A, and the per-node counts read off every row once.

    Entry (i, j) of A @ A counts the walks i - k - j: the common neighbours
    of i and j off the diagonal, the degree on it. Both methods give exact
    integers: CSR expands each row's walks with `repeat` and counts them with
    `bincount` (sum_k d_k^2 work in all), and float32 BLAS multiplies 0/1
    values whose partial sums stay below m < 2^24. Rows come back as float64.
    The float32 copy of the adjacency, and the CSR path's walk and row
    buffers, live from a pass's first block to its last, which ends at row
    m; a sparse block of rows is a view of the row buffer, valid until the
    next call.

    The node pass reduces the rows in blocks of at most _BLOCK pairs:
    `tri_per_node` is the per-row sum of A @ A * A over two, the triangles
    through each node, and `cherry_ends` is A @ (d - 1), the per-row sum of
    A @ A minus the degree. Both are exact integers.
    """

    def __init__(self, g: Graph, sparse: bool):
        adj, m = g.adj, g.m
        self._adj, self._m = adj, m
        self._sparse = sparse
        self._full = None
        self._a32 = None
        self._walk = self._iota = None  # positions and cells of a block's walks
        self._out = None  # float64 rows of a block
        if sparse:
            self._nbr = np.nonzero(adj)[1]  # row-major, so grouped by row
            self._start = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(g.degrees, out=self._start[1:])
        tri2 = np.empty(m)
        walks = np.empty(m)
        step = max(1, _BLOCK // m)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            n2 = self.rows(lo, hi)
            tri2[lo:hi] = (n2 * adj[lo:hi]).sum(axis=1)
            walks[lo:hi] = n2.sum(axis=1)
        if step >= m:
            n2.setflags(write=False)
            self._full = n2
        self.tri_per_node = tri2 / 2.0
        self.cherry_ends = walks - g.degrees

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of A @ A as float64; read-only when cached."""
        if self._full is not None:
            return self._full[lo:hi]
        if not self._sparse:
            if self._a32 is None:
                self._a32 = self._adj.astype(np.float32)
            n2 = (self._a32[lo:hi] @ self._a32).astype(np.float64)
            if hi == self._m:  # every pass ends with the last row
                self._a32 = None
            return n2
        m, start, nbr = self._m, self._start, self._nbr
        mid = nbr[start[lo]:start[hi]]  # k of every walk i - k - j, by row
        first = start[mid]
        count = start[mid + 1] - first  # the d_k walks through each k
        ends = np.cumsum(count)
        n = int(ends[-1]) if ends.size else 0
        if self._walk is None or self._walk.shape[1] < n:
            self._walk = np.empty((2, n + n // 2), dtype=np.int64)
            self._iota = np.arange(n + n // 2)
        if self._out is None or self._out.size < (hi - lo) * m:
            self._out = np.empty((hi - lo) * m)
        pos, cell = self._walk[:, :n]
        np.add(self._iota[:n], np.repeat(first - (ends - count), count), out=pos)
        np.take(nbr, pos, out=cell, mode="wrap")  # "raise" would buffer `out`
        owner = np.repeat(np.arange(hi - lo) * m, np.diff(start[lo:hi + 1]))
        cell += np.repeat(owner, count)
        out = self._out[:(hi - lo) * m].reshape(hi - lo, m)
        np.copyto(out.reshape(-1), np.bincount(cell, minlength=out.size))
        if hi == m:  # every pass ends with the last row
            self._walk = self._iota = self._out = None
        return out


class _StackedWalks:
    """The members' `_TwoWalks` of a GraphStack, with the batch axis leading."""

    def __init__(self, stack: GraphStack):
        self._walks = [_two_walks(g) for g in stack.graphs]
        self.tri_per_node = np.stack([w.tri_per_node for w in self._walks])
        self.cherry_ends = np.stack([w.cherry_ends for w in self._walks])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return np.stack([w.rows(lo, hi) for w in self._walks])


def _two_walks(g: Graph | GraphStack) -> _TwoWalks | _StackedWalks:
    """The graph's `_TwoWalks`, built on first use and cached on the graph.

    A stack reads its members' cached passes, so a graph shares one node
    pass between every motif, whether it is summarized alone or in a stack.
    """
    if g._two_walks is None:
        if isinstance(g, GraphStack):
            g._two_walks = _StackedWalks(g)
        else:
            d = g.degrees
            g._two_walks = _TwoWalks(g, sparse=int(d @ d) * _SPARSE_RATIO < g.m ** 3)
    return g._two_walks


def _zero_diagonal(block: np.ndarray, lo: int) -> None:
    """Zero the diagonal cells of `block`, rows lo:lo+k of m-column matrices.

    Cell (i, lo + i) sits at flat offset lo + i * (m + 1) of its matrix;
    `block` (k, m), or (B, k, m) for a stack, must be C-contiguous, so that
    the flat view writes through.
    """
    step = block.shape[-1] + 1
    if block.ndim == 2:
        block.reshape(-1)[lo::step] = 0.0
    else:
        block.reshape(len(block), -1)[:, lo::step] = 0.0


def _float(x):
    """A Python float for one graph's numpy scalar; a stack's (B,) array as is."""
    return x if isinstance(x, np.ndarray) else float(x)


@dataclass(frozen=True)
class MomentCensus:
    """Whole-graph and per-node restricted averages, and optionally per-pair.

    For a GraphStack each field has a leading batch axis.
    """

    u_hat: float
    node_avgs: np.ndarray
    pair_avgs: np.ndarray | None


def moment_census(g: Graph | GraphStack, motif: Motif, want_pairs: bool = False) -> MomentCensus:
    """Compute u_hat and the per-node (optionally per-pair) averages together.

    The r = 3 closed forms read the graph's node pass over A @ A, which runs
    once per graph whatever the motif; the full pair matrix is
    `pair_avg_rows` over all rows. The closed form is picked by the motif's
    shape (r, s), whatever its name.
    """
    m = g.m
    if m < motif.r:
        raise ValueError(f"graph has m={m} < r={motif.r} nodes")
    node_denom = comb(m - 1, motif.r - 1)
    shape = (motif.r, motif.s)
    pair_avgs = None
    if motif.r == 2:  # edge
        u_hat = density(g)
        node_avgs = g.degrees / float(m - 1)
    elif shape in ((3, 2), (3, 3)):
        walks = _two_walks(g)
        tri_per_node = walks.tri_per_node
        tri_total = np.add.reduce(tri_per_node, axis=-1) / 3.0
        if shape == (3, 3):  # triangle
            u_hat = _float(tri_total) / comb(m, 3)
            node_avgs = tri_per_node / node_denom
        else:  # vshape
            d = g.degrees.astype(np.float64)
            centred = d * (d - 1) / 2.0  # vshapes centred at each node
            hits = np.add.reduce(centred, axis=-1) - 2.0 * tri_total
            u_hat = _float(hits) / comb(m, 3)
            # cherries through i: pairs of i's neighbours plus paths centred
            # at a neighbour; subtract twice the triangles to fix the
            # >=2-edge overcount
            cherries = centred + walks.cherry_ends
            node_avgs = (cherries - 2.0 * tri_per_node) / node_denom
    else:
        total, node_counts, pair_counts = _subset_census(g, motif, want_pairs)
        u_hat = total / comb(m, motif.r)
        node_avgs = node_counts / node_denom
        if want_pairs:
            pair_avgs = pair_counts / comb(m - 2, motif.r - 2)
    if want_pairs and pair_avgs is None:
        pair_avgs = pair_avg_rows(g, motif, 0, m)
    return MomentCensus(u_hat=u_hat, node_avgs=node_avgs, pair_avgs=pair_avgs)


def pair_avg_rows(g: Graph | GraphStack, motif: Motif, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of the pair-restricted averages, diagonal zeroed."""
    pair_denom = comb(g.m - 2, motif.r - 2)
    shape = (motif.r, motif.s)
    adj = g.adj[..., lo:hi, :]
    if motif.r == 2:  # edge
        out = adj.astype(np.float64)
    elif shape == (3, 3):  # triangle: the common neighbours of an edge
        out = _two_walks(g).rows(lo, hi) * adj
        out /= pair_denom
    elif shape == (3, 2):  # vshape: d_i + d_j - 2 - n2 on an edge, n2 off it
        n2 = _two_walks(g).rows(lo, hi)
        d = g.degrees.astype(np.float64)
        out = d[..., lo:hi, None] + d[..., None, :] - 2.0 - n2
        np.copyto(out, n2, where=~adj)
        out /= pair_denom
    else:
        out = _subset_census(g, motif, want_pairs=True)[2][..., lo:hi, :] / pair_denom
    _zero_diagonal(out, lo)
    return out


def moment_u(g: Graph, motif: Motif) -> float:
    """Whole-graph moment: fraction of r-subsets whose subgraph contains the motif."""
    return moment_census(g, motif).u_hat


def moment_u_bruteforce(g: Graph, motif: Motif) -> float:
    """Independent oracle: enumerate every r-subset and apply contains_motif."""
    m = g.m
    if m < motif.r:
        raise ValueError(f"graph has m={m} < r={motif.r} nodes")
    n_subsets = comb(m, motif.r)
    if n_subsets > BRUTEFORCE_SUBSET_CAP:
        raise ValueError(f"C({m},{motif.r})={n_subsets} exceeds brute-force cap")
    adj = g.adj
    hits = 0
    for combo in itertools.combinations(range(m), motif.r):
        sub = adj[np.ix_(combo, combo)]
        hits += contains_motif(sub, motif)
    return hits / n_subsets


def _subset_census(g: Graph | GraphStack, motif: Motif, want_pairs: bool):
    """Generic path: one sweep over all C(m, r) subsets.

    Costs C(m, r) contains_motif calls; intended for custom motifs (r <= 5)
    on small graphs, as documented in the module docstring. A stack sweeps
    its members one at a time.
    """
    if isinstance(g, GraphStack):
        totals, nodes, pairs = zip(*(_subset_census(x, motif, want_pairs) for x in g.graphs))
        return np.array(totals), np.stack(nodes), np.stack(pairs) if want_pairs else None
    m = g.m
    adj = g.adj
    total = 0.0
    node_counts = np.zeros(m)
    pair_counts = np.zeros((m, m)) if want_pairs else None
    for combo in itertools.combinations(range(m), motif.r):
        sub = adj[np.ix_(combo, combo)]
        h = contains_motif(sub, motif)
        if not h:
            continue
        total += 1.0
        for i in combo:
            node_counts[i] += 1.0
        if want_pairs:
            for i, j in itertools.combinations(combo, 2):
                pair_counts[i, j] += 1.0
                pair_counts[j, i] += 1.0
    return total, node_counts, pair_counts
