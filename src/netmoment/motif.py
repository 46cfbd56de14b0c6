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

from .graph import _BLOCK, Graph, GraphStack, density

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


# The half product multiplies blocks of at most this many pairs: thinner
# blocks run float32 sgemm below its speed, and blocks of a few hundred rows
# beat the full product (CHANGES.md, "Hash every motif of a graph in one
# pass").
_HALF_BLOCK = 1 << 18
# Rows of A @ A come from CSR when sum_k d_k^2 < m^3 / _SPARSE_RATIO and from
# float32 BLAS otherwise: the ratio where the two cost the same on random
# graphs (CHANGES.md, "PR 7: streamed summary").
_SPARSE_RATIO = 400


class _TwoWalks:
    """Exact rows of A @ A, and the per-node counts read off every row once.

    Entry (i, j) of A @ A counts the walks i - k - j: the common neighbours
    of i and j off the diagonal, the degree on it. Every path gives exact
    integers: CSR expands each row's walks with `repeat` and counts them with
    `bincount` (sum_k d_k^2 work in all), and float32 BLAS multiplies 0/1
    values whose partial sums stay below m < 2^24.

    The node pass reads the rows a block at a time: `tri_per_node` is the
    per-row sum of A @ A * A over two, the triangles through each node, and
    `cherry_ends` is A @ (d - 1), the per-row sum of A @ A minus the degree.
    Both are exact integers. The rows come one of two ways:

    - *CSR* (a single graph whose squared degrees sum to less than
      m^3 / _SPARSE_RATIO): float64 rows, in blocks of at most _BLOCK pairs.
      The walk and row buffers live from a pass's first block to its last,
      which ends at row m; a block of rows is a view of the row buffer,
      valid until the next call.
    - *Half product* (any other graph, and every GraphStack, with the
      stack's batch axis leading on every array): block lo:hi, of at most
      _HALF_BLOCK pairs, multiplies A[lo:hi] @ A[lo:].T, which is columns
      lo: of its rows of A @ A; all the blocks take about m^3 / 2 flops,
      half of the full product. No later block reads rows lo:hi of the
      float32 copy of A again, so the block is written over them, and their
      columns :lo are copied from the rows above, by symmetry. When one
      block holds every row, A @ A is one float32 product of the copy with
      itself, which sgemm runs faster than A @ A.T.

    The store holds A @ A when one array does: the half product's float32
    array (4 bytes a pair), or a CSR graph's block when one block holds
    every row; `counts` gives views of it. A pass is held by the call that
    builds it and freed when that call returns: the summary kernel builds
    one per call for all its motifs, a census called alone its own.
    """

    def __init__(self, g: Graph | GraphStack, sparse: bool):
        adj, m = g.adj, g.m
        self._adj, self._m, self._sparse = adj, m, sparse
        self._store = None  # A @ A, when one array holds it
        # a CSR block's walks (positions and cells) and its float64 rows
        self._walk = self._iota = self._out = None
        tri2 = np.empty(g.degrees.shape)
        walks = np.empty(g.degrees.shape)
        if sparse:
            self._nbr = np.nonzero(adj)[1]  # row-major, so grouped by row
            self._start = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(g.degrees, out=self._start[1:])
        step = max(1, _BLOCK // m)  # rows of a CSR block
        csr_blocks = ((lo, min(lo + step, m)) for lo in range(0, m, step))
        for lo, hi in csr_blocks if sparse else self._half_product():
            n2 = self.counts(lo, hi)
            # exact in float32 too (at most m), and summed exactly in float64
            tri2[..., lo:hi] = (n2 * adj[..., lo:hi, :]).sum(axis=-1, dtype=np.float64)
            walks[..., lo:hi] = n2.sum(axis=-1, dtype=np.float64)
        if sparse and step >= m:  # one block holds every row
            self._store = n2
        self.tri_per_node = tri2 / 2.0
        self.cherry_ends = walks - g.degrees

    def _half_product(self):
        """Build the store, A @ A in float32, a block of rows at a time;
        yield each block's rows lo, hi once they are whole."""
        m = self._m
        step = max(1, _HALF_BLOCK // m)
        a = self._adj.astype(np.float32)
        if step >= m:  # one block: sgemm runs A @ A faster than A @ A.T
            self._store = a @ a
            yield 0, m
            return
        self._store = a
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            a[..., lo:hi, lo:] = a[..., lo:hi, :] @ a[..., lo:, :].swapaxes(-1, -2)
            a[..., lo:hi, :lo] = a[..., :lo, lo:hi].swapaxes(-1, -2)
            yield lo, hi

    def counts(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of A @ A as they are held: a view of the store,
        float32 for the half product, or a CSR block of float64 rows, valid
        until the next call."""
        if self._store is not None:
            return self._store[..., lo:hi, :]
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
        if hi == m:  # every pass over the rows ends with the last row
            self._walk = self._iota = self._out = None
        return out


def _two_walks(g: Graph | GraphStack) -> _TwoWalks:
    """A new node pass over the graph's or stack's A @ A.

    Only a single graph whose squared degrees sum to less than
    m^3 / _SPARSE_RATIO takes the CSR rows; a stack, whose pass is one
    batched product, is dense.
    """
    d = g.degrees
    return _TwoWalks(g, d.ndim == 1 and int(d @ d) * _SPARSE_RATIO < g.m ** 3)


def _reads_two_walks(motif: Motif) -> bool:
    """Whether the motif's census and pair rows read A @ A: the r = 3 closed
    forms, vshape and triangle."""
    return (motif.r, motif.s) in ((3, 2), (3, 3))


def _zero_diagonal(block: np.ndarray, lo: int) -> None:
    """Zero the diagonal cells of `block`, rows lo:lo+k of m-column matrices.

    Cell (i, lo + i) sits at flat offset lo + i * (m + 1) of its matrix;
    `block` (k, m), or (B, k, m) for a stack, must be C-contiguous, so that
    the flat view writes through.
    """
    step = block.shape[-1] + 1
    block.reshape(-1, block.shape[-2] * block.shape[-1])[:, lo::step] = 0.0


def _float(x):
    """A Python float for one graph's numpy scalar; a stack's (B,) array as is."""
    return x if isinstance(x, np.ndarray) else float(x)


@dataclass(frozen=True)
class MomentCensus:
    """Whole-graph and per-node restricted averages, and the per-pair ones
    of the subset census, or of any motif when asked for.

    For a GraphStack each field has a leading batch axis.
    """

    u_hat: float
    node_avgs: np.ndarray
    pair_avgs: np.ndarray | None


def moment_census(g: Graph | GraphStack, motif: Motif, want_pairs: bool = False,
                  _walks: _TwoWalks | None = None) -> MomentCensus:
    """Compute u_hat and the per-node (and per-pair) averages together.

    The r = 3 closed forms read a node pass over A @ A: `_walks` when given
    (the summary kernel shares one between its motifs), else one built for
    this call; their full pair matrix, with `want_pairs`, is `pair_avg_rows`
    over all the pass's rows. The generic path counts pairs with every
    subset, so its census always holds them. The closed form is picked by
    the motif's shape (r, s), whatever its name.
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
    elif _reads_two_walks(motif):
        walks = _two_walks(g) if _walks is None else _walks
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
        total, node_counts, pair_counts = _subset_census(g, motif)
        u_hat = total / comb(m, motif.r)
        node_avgs = node_counts / node_denom
        pair_avgs = pair_counts / comb(m - 2, motif.r - 2)
    if want_pairs and pair_avgs is None:
        rows = walks.counts(0, m) if _reads_two_walks(motif) else None
        pair_avgs = pair_avg_rows(g, motif, 0, m, rows)
    return MomentCensus(u_hat=u_hat, node_avgs=node_avgs, pair_avgs=pair_avgs)


def pair_avg_rows(g: Graph | GraphStack, motif: Motif, lo: int, hi: int,
                  _rows: np.ndarray | None = None) -> np.ndarray:
    """Rows lo:hi of the pair-restricted averages, diagonal zeroed.

    The r = 3 closed forms read rows lo:hi of A @ A from `_rows` when given
    (so that several motifs share them), else from a node pass of their own.
    """
    pair_denom = comb(g.m - 2, motif.r - 2)
    shape = (motif.r, motif.s)
    adj = g.adj[..., lo:hi, :]
    if _reads_two_walks(motif):  # exact counts, float32 or float64
        n2 = _two_walks(g).counts(lo, hi) if _rows is None else _rows
    if motif.r == 2:  # edge
        out = adj.astype(np.float64)
    elif shape == (3, 3):  # triangle: the common neighbours of an edge
        out = np.multiply(n2, adj, dtype=np.float64)
        out /= pair_denom
    elif shape == (3, 2):  # vshape: d_i + d_j - 2 - n2 on an edge, n2 off it
        d = g.degrees.astype(np.float64)
        out = d[..., lo:hi, None] + d[..., None, :] - 2.0 - n2
        np.copyto(out, n2, where=~adj)
        out /= pair_denom
    else:
        out = _subset_census(g, motif)[2][..., lo:hi, :] / pair_denom
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


# The generic census takes the C(m, r) subsets of one graph, or of all the
# graphs of a stack together, this many at a time, so that its arrays stay
# small whatever m (C(60, 5) subsets at once would take 200 MB).
_SUBSETS = 1 << 16


def _containment(motif: Motif) -> np.ndarray:
    """h of every r-node subgraph, indexed by its pair bits (bit k set when
    the k-th pair of `itertools.combinations(range(r), 2)` is an edge): 1
    iff the subgraph holds one of the motif's distinct labelled copies, at
    most r! of them (0.6 ms to build at r = 5)."""
    pairs = list(itertools.combinations(range(motif.r), 2))
    copies = np.array(sorted({
        sum(1 << k for k, (a, b) in enumerate(pairs) if motif.pattern[p[a], p[b]])
        for p in itertools.permutations(range(motif.r))}))
    codes = np.arange(1 << len(pairs))[:, None]
    return ((codes & copies) == copies).any(axis=1)


def _subset_census(g: Graph | GraphStack, motif: Motif):
    """Generic path: every r-subset's h, and the subsets with h = 1 counted
    in all, per node and per pair (each pair both ways), as float64.

    The subsets come as (N, r) index arrays in lexicographic blocks, N
    times the stack's size at most _SUBSETS; each subset's pair bits are
    gathered by fancy indexing and looked up in `_containment`, and the hits
    counted with `np.bincount`. The counts are integers, so exact in any
    order. A stack takes all its members at once, with the batch axis
    leading. `contains_motif` is the oracle.
    """
    m, r = g.m, motif.r
    batch = g.adj.shape[:-2]
    adj = g.adj.reshape(-1, m, m)
    size = len(adj)
    pairs = list(itertools.combinations(range(r), 2))
    contains = _containment(motif)
    total = np.zeros(size, dtype=np.int64)
    node_counts = np.zeros(size * m, dtype=np.int64)
    pair_counts = np.zeros(size * m * m, dtype=np.int64)
    subsets = itertools.combinations(range(m), r)
    while len(block := np.fromiter(itertools.chain.from_iterable(
            itertools.islice(subsets, max(1, _SUBSETS // size))), np.intp).reshape(-1, r)):
        code = np.zeros((size, len(block)), dtype=np.intp)
        for k, (a, b) in enumerate(pairs):
            code |= adj[:, block[:, a], block[:, b]].astype(np.intp) << k
        member, hit = np.nonzero(contains[code])
        nodes = block[hit]
        total += np.bincount(member, minlength=size)
        node_counts += np.bincount((member[:, None] * m + nodes).ravel(), minlength=size * m)
        for a, b in pairs:
            pair_counts += np.bincount((member * m + nodes[:, a]) * m + nodes[:, b],
                                       minlength=size * m * m)
    total = total.astype(np.float64).reshape(batch)
    node_counts = node_counts.astype(np.float64).reshape(*batch, m)
    pair_counts = pair_counts.astype(np.float64).reshape(*batch, m, m)
    pair_counts = pair_counts + np.swapaxes(pair_counts, -1, -2)
    return (total if batch else float(total)), node_counts, pair_counts
