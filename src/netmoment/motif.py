"""Motif patterns, the containment indicator h, and empirical moment machinery.

A motif is a small connected pattern graph with r nodes and s edges. The
indicator h(sub) is 1 when some relabeling embeds every motif edge into the
r-node subgraph `sub` (containment, not induced equality, so a triangle
contains a vshape). The whole-graph moment is the average of h over all
C(m, r) node subsets; per-node and per-pair restricted averages feed the
Hoeffding-style projections.

Edge, vshape and triangle get closed-form O(m^3)-at-worst matrix paths,
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

from .graph import Graph, density

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


@dataclass(frozen=True)
class MomentCensus:
    """One pass of whole-graph / per-node / per-pair restricted averages."""

    u_hat: float
    node_avgs: np.ndarray
    pair_avgs: np.ndarray | None


def moment_census(g: Graph, motif: Motif, want_pairs: bool = False) -> MomentCensus:
    """Compute u_hat and the per-node (optionally per-pair) averages together.

    Sharing the common-neighbor matrix across all three levels keeps summary
    construction at one A @ A per graph for the r=3 closed forms. The closed
    form is picked by the motif's shape (r, s), whatever its name.
    """
    m = g.m
    if m < motif.r:
        raise ValueError(f"graph has m={m} < r={motif.r} nodes")
    node_denom = comb(m - 1, motif.r - 1)
    pair_denom = comb(m - 2, motif.r - 2)
    shape = (motif.r, motif.s)
    if shape in ((3, 2), (3, 3)):
        a = g.adj.astype(np.float64)
        # A @ A on a 0/1 float matrix: every partial product is 0 or 1 and
        # every partial sum stays below 2^53, so the counts are exact integers
        # in float64 regardless of BLAS blocking order
        n2 = a @ a  # common neighbours per pair
        tri_per_node = (n2 * g.adj).sum(axis=1) / 2.0
        tri_total = tri_per_node.sum() / 3.0
    if motif.r == 2:  # edge
        u_hat = density(g)
        node_avgs = g.degrees / float(m - 1)
        pair_avgs = g.adj.astype(np.float64) if want_pairs else None
    elif shape == (3, 3):  # triangle
        u_hat = float(tri_total) / comb(m, 3)
        node_avgs = tri_per_node / node_denom
        pair_avgs = (a * n2 / pair_denom) if want_pairs else None
    elif shape == (3, 2):  # vshape
        d = g.degrees.astype(np.float64)
        centred = d * (d - 1) / 2.0  # vshapes centred at each node
        hits = centred.sum() - 2.0 * tri_total
        u_hat = float(hits) / comb(m, 3)
        # cherries through i: pairs of i's neighbours plus paths centred at a
        # neighbour; subtract twice the triangles to fix the >=2-edge overcount
        cherries = centred + a @ (d - 1)
        node_avgs = (cherries - 2.0 * tri_per_node) / node_denom
        if want_pairs:
            with_edge = d[:, None] + d[None, :] - 2.0 - n2
            pair_avgs = np.where(g.adj, with_edge, n2) / pair_denom
        else:
            pair_avgs = None
    else:
        total, node_counts, pair_counts = _subset_census(g, motif, want_pairs)
        u_hat = total / comb(m, motif.r)
        node_avgs = node_counts / node_denom
        pair_avgs = pair_counts / pair_denom if want_pairs else None
    if pair_avgs is not None:
        np.fill_diagonal(pair_avgs, 0.0)
    return MomentCensus(u_hat=u_hat, node_avgs=node_avgs, pair_avgs=pair_avgs)


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


def _subset_census(g: Graph, motif: Motif, want_pairs: bool):
    """Generic path: one sweep over all C(m, r) subsets.

    Costs C(m, r) contains_motif calls; intended for custom motifs (r <= 5)
    on small graphs, as documented in the module docstring.
    """
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
