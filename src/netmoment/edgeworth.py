"""Per-network summary statistics and the pairwise Edgeworth machinery.

`summarize` reduces one network to the dozen scalars that every later
pairwise comparison needs: the sparsity-scaled moment ingredients, the
first-order influence values alpha1 and their bias/skewness-style companion
terms (alpha0, alpha3 per node, alpha2/alpha4 per pair), folded into the
empirical expectations that drive the expansion coefficients. The per-pair
terms are built a block of rows at a time and reduced at once, in numpy's
own summation order. All population
quantities are replaced by their plug-in estimates.

One kernel (`_summaries`) summarizes a graph for every motif of a call at
once, from at most one node pass over A @ A, which it frees on return. Each
motif builds its node terms; then a single walk over the leaves of numpy's
summation tree builds each leaf's motif-free blocks once (the grho2 rows,
and the rows of A @ A that the r = 3 closed forms read, from the pass), and
every live motif adds its own pair terms to them. The motifs' leaf
sums are added as one small array, element by element, so each summary
keeps the bits it has alone, and a motif that fails (too few nodes, an
empty or complete graph, an overflow) is dropped alone with the error
`summarize` raises for it. `summarize` is that kernel with one motif,
`hash_network` calls it once per network.

`summarize_many` runs the same kernel over a stack of same-size graphs, with
a leading batch axis on every array: 2^16 / m^2 graphs of m <= 90 nodes at a
time (40 at m = 40, 10 at m = 80), each stack built once for all the motifs
of the call; a larger graph goes alone, where a stack
costs as much as it saves or more. numpy sums each graph's row of a stacked
array as it sums that graph alone, so every summary keeps the bits of
`summarize`. The CDF and coverage runners summarize their replicates this
way. The bootstrap does not: its resampling and smoothing draws alternate on
one stream, and whether a smoothing draw happens depends on the summary just
computed. `combine` then turns two summaries into the studentizer S and the
three correction coefficients (I0, Q1, Q2) of the expanded CDF

    G(u) = Phi(u) - phi(u) * (Q1 + Q2 (u^2 + 1) + I0),

clamped to [0, 1]. Quantiles invert the expansion in closed Cornish-Fisher
form. A tiny artificial Gaussian (the smoothing noise) is available to keep
the statistic's distribution smooth on discrete-ish networks.

The pair formulas (S^2 and the coefficients, the expanded CDF, the smoothing
draw) are written once, for one pair of Python floats or for float64 arrays
of many pairs, as a store query scores them. Each operation they use besides
+ - * / (`_sqrt`, `_pow`, `_exp`, `_log`, `_erfc`, `_min`, `_max`) takes
either, and gives each element of an array the bits it gives that element
alone, since numpy's + - * / and comparisons are the correctly rounded IEEE
operations Python's floats use. One pair's values are Python floats, and
its errors are Python's. The integer sizes the formulas divide by are
Python ints, rounded once to a double (`_pair_sizes`, `_size_columns`).

No cross-network quantity is ever required: the two sides of every formula
are computed separately, which is what makes offline hashing possible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graph import Graph, GraphStack, density
from .motif import Motif, _reads_two_walks, _two_walks, _zero_diagonal, moment_census
from .projections import (
    DegenerateGraphError,
    ProjectionSet,
    _any,
    _cell,
    _mean,
    g2_matrix,
    grho2_matrix,
    project,
)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# The operations of the pair formulas besides + - * /, each for a Python
# float or a float64 array. A float goes to Python's own function, so it
# gives a Python float and raises as Python raises. An array takes pow, exp,
# log and erfc from Python element by element (`_each`), since numpy's vector
# versions differ from them in the last bit for a few percent of inputs, and
# numpy's sqrt, correctly rounded as math.sqrt is (nan below 0). The clamps
# are Python's min(x, y), x unless y < x, and max(x, y), x unless y > x,
# element by element where y is an array.
def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _pow(x, k):
    return _each(pow, x, k) if isinstance(x, np.ndarray) else pow(x, k)


def _exp(x):
    return _each(math.exp, x) if isinstance(x, np.ndarray) else math.exp(x)


def _log(x):
    return _each(math.log, x) if isinstance(x, np.ndarray) else math.log(x)


def _erfc(x):
    return _each(math.erfc, x) if isinstance(x, np.ndarray) else math.erfc(x)


def _min(x, y):
    return np.where(y < x, y, x) if isinstance(y, np.ndarray) else min(x, y)


def _max(x, y):
    return np.where(y > x, y, x) if isinstance(y, np.ndarray) else max(x, y)


def _each(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn of each element of a float64 array, by Python's own float
    arithmetic; an element where fn raises (a domain or range error) becomes
    nan."""
    values = x.tolist()
    try:
        return np.fromiter(map(fn, values, *map(repeat, args)), np.float64, len(values))
    except (ArithmeticError, ValueError):
        return np.array([_nan_on_error(fn, v, args) for v in values], dtype=np.float64)


def _nan_on_error(fn, v, args):
    try:
        return fn(v, *args)
    except (ArithmeticError, ValueError):
        return math.nan


def norm_cdf(u):
    """Standard normal CDF via erfc, accurate in both tails."""
    return 0.5 * _erfc(-u / _SQRT2)


def norm_pdf(u):
    return _INV_SQRT_2PI * _exp(-0.5 * u * u)


def norm_quantile(alpha: float) -> float:
    """Inverse standard normal CDF."""
    # imported here: scipy.special adds about 0.3 s to every process that
    # loads it, and only `ci` and the coverage runner reach this function
    from scipy.special import ndtri

    if not 0.0 < alpha < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {alpha}")
    return float(ndtri(alpha))


# the nine float fields of NetworkSummary, in declaration order
SUMMARY_FIELDS = (
    "rho_hat",
    "u_hat",
    "alpha0_hat",
    "xi_g1_sq",
    "xi_alpha1_sq",
    "e_a1_cubed",
    "e_a1_a3",
    "e_a4_a1",
    "e_a1a1a2",
)


@dataclass(frozen=True)
class NetworkSummary:
    """The hash payload: everything one network contributes to a later test."""

    network_id: str
    n: int
    motif_name: str
    motif_r: int
    motif_s: int
    rho_hat: float
    u_hat: float
    alpha0_hat: float
    xi_g1_sq: float        # variance of the first-order moment projection
    xi_alpha1_sq: float    # variance of alpha1 (the studentizer ingredient)
    e_a1_cubed: float
    e_a1_a3: float
    e_a4_a1: float
    e_a1a1a2: float

    def motif_descriptor(self) -> dict:
        return {"name": self.motif_name, "r": self.motif_r, "s": self.motif_s}

    def same_motif(self, other: "NetworkSummary") -> bool:
        return (
            self.motif_name == other.motif_name
            and self.motif_r == other.motif_r
            and self.motif_s == other.motif_s
        )

    def validate(self) -> None:
        if not (0.0 < self.rho_hat < 1.0):
            raise ValueError(f"rho_hat must be in (0,1), got {self.rho_hat}")
        if not (0.0 <= self.u_hat <= 1.0):
            raise ValueError(f"u_hat must be in [0,1], got {self.u_hat}")
        if self.xi_alpha1_sq < 0 or self.xi_g1_sq < 0:
            raise ValueError("variance fields must be nonnegative")
        if self.n < self.motif_r + 1:
            raise ValueError(f"n={self.n} too small for motif r={self.motif_r}")
        for name in SUMMARY_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite summary field {name}")


@dataclass(frozen=True)
class EdgeworthCoeffs:
    """Studentizer and expansion coefficients for one ordered network pair
    (or float64 arrays of them, one element per pair, in a store query)."""

    m: int
    n: int
    S: float
    I0: float
    Q1: float
    Q2: float
    s_exp: int

    def correction(self, u: float) -> float:
        return self.Q1 + self.Q2 * (u * u + 1.0) + self.I0


# Pair terms are built one subtree of numpy's pairwise summation at a time,
# each of at most _LEAF pairs, so the working memory of `summarize` is
# O(_LEAF + m). It must be at least 128, numpy's own leaf, so that np.sum over
# the subtree's slice gives the subtree's bits. Much smaller leaves pay
# numpy's per-call overhead on every leaf; 2^15 to 2^17 were equally fast on
# the hash graphs (CHANGES.md, "Hash every motif of a graph in one pass").
_LEAF = 1 << 16


def _pairwise_sum(start: int, n: int, leaf_sum) -> float:
    """numpy's pairwise sum of n elements from `start`, leaves by `leaf_sum`.

    numpy sums a contiguous array of n > 128 elements as the sum of its first
    n // 2 elements, rounded down to a multiple of 8, plus the sum of the
    rest. This descends that tree to subtrees of at most _LEAF elements,
    calls leaf_sum(start, stop) on each, left to right, and adds the results
    as numpy would: element by element when they are arrays, to inf or nan
    without raising, as Python floats add.
    """
    if n <= _LEAF:
        return leaf_sum(start, start + n)
    half = n // 2
    half -= half % 8
    left = _pairwise_sum(start, half, leaf_sum)
    right = _pairwise_sum(start + half, n - half, leaf_sum)
    with np.errstate(over="ignore", invalid="ignore"):
        return left + right


def _group_size(m: int) -> int:
    """Graphs of m nodes that `summarize_many` summarizes as one stack.

    A stack pays only while numpy's per-call overhead outweighs its
    arithmetic. Graphs of at most _LEAF / 8 pairs (m <= 90) go in stacks of
    _LEAF // m^2, 8 or more, each stack one leaf; larger graphs, where a
    stack saved nothing or cost more, go one at a time (CHANGES.md, the
    review fixes to the grouped summaries; `BENCH_8.json`).
    """
    return _LEAF // (m * m) if 8 * m * m <= _LEAF else 1


def summarize(g: Graph, motif: Motif, network_id: str = "") -> NetworkSummary:
    """Hash one network into its motif summary vector.

    Every population symbol in the correction-term formulas is replaced by
    its plug-in estimate. Pairwise terms are built a block of rows at a time
    and reduced at once, so no m x m float array is ever alive; the blocks
    follow numpy's summation order, so the result has the bits of a sum over
    the full matrices. This is the kernel of `summarize_many` and
    `hash_network` on one graph and one motif; a graph's motifs share its
    A @ A pass only within one call of those, and two calls here run it twice.
    """
    result, = _summaries(g, [motif], [network_id])
    if isinstance(result, Exception):
        raise result
    return result[0]


def summarize_many(graphs, motifs: list[Motif]) -> list[list]:
    """Summaries of same-size graphs, one list per motif, each as `summarize`
    gives it.

    `graphs` is a list of same-size graphs or a GraphStack. Entry [j][i] is
    graph i's NetworkSummary for motifs[j], or the DegenerateGraphError that
    `summarize` raises for it. Graphs of m nodes go through the kernel in
    stacks of `_group_size(m)`, with a leading batch axis on every array;
    each reduction sums every graph's row as it sums that graph alone, so
    each summary has the bits of `summarize`. The kernel takes a stack once
    for all the motifs, so they share its A @ A pass and its motif-free pair
    blocks; the pass is freed when that call returns. A GraphStack whose
    every member is live is that stack itself. A motif that fails on a stack
    (a member's arithmetic overflowed) is redone one graph at a time; a graph
    summarized alone also takes all its motifs in one call.
    """
    given = isinstance(graphs, GraphStack)
    if not given:
        graphs = list(graphs)
        if any(g.m != graphs[0].m for g in graphs):
            raise ValueError("summarize_many needs graphs of one size")
    count = len(graphs)
    m = graphs.m if given else graphs[0].m if graphs else 0
    out = [[None] * count for _ in motifs]
    # graphs that fail the size, empty or complete gate go alone, where the
    # kernel gives their messages
    stackable = [j for j, motif in enumerate(motifs) if count and m > motif.r]
    live = []
    if stackable:
        dens = density(graphs) if given else np.array([density(g) for g in graphs])
        live = np.flatnonzero((0.0 < dens) & (dens < 1.0)).tolist()
    step = _group_size(m) if count else 1
    for lo in range(0, len(live), step):
        group = live[lo:lo + step]
        if len(group) < 2:
            continue
        if not given:
            stack = GraphStack([graphs[i] for i in group])
        elif len(group) < count:
            stack = GraphStack(graphs.adj[group])
        else:
            stack = graphs
        results = _summaries(stack, [motifs[j] for j in stackable], [""] * len(group))
        for j, result in zip(stackable, results):
            if not isinstance(result, Exception):
                for i, summary in zip(group, result):
                    out[j][i] = summary
    for i in range(count):
        todo = [j for j, summaries in enumerate(out) if summaries[i] is None]
        if not todo:
            continue
        g = graphs.graphs[i] if given else graphs[i]
        for j, result in zip(todo, _summaries(g, [motifs[j] for j in todo], [""])):
            if isinstance(result, DegenerateGraphError):
                out[j][i] = result
            elif isinstance(result, Exception):
                raise result
            else:
                out[j][i] = result[0]
    return out


@np.errstate(over="raise", invalid="raise")  # reported per motif: `_MotifTerms.too_extreme`
def _summaries(g: Graph | GraphStack, motifs: list[Motif], network_ids: list) -> list:
    """The summary kernel, for one graph or for each graph of a stack, and
    for every motif at once.

    Entry k is the list of motifs[k]'s summaries, one per graph, or the
    exception that stopped that motif (a ValueError or ArithmeticError, with
    the message `summarize` raises); the other motifs go on without it. Each
    motif first builds its node terms (`_MotifTerms`). One walk over the
    leaves of numpy's summation tree then builds, per leaf, the blocks that
    no motif changes, the grho2 rows and (when a motif reads them) the rows
    of A @ A, and each live motif adds its own pair terms in the order and
    with the buffers it uses alone. `_pairwise_sum` adds the leaf sums of
    all the motifs as one small array, element by element, so each motif's
    sum has the bits it has alone. A stack carries its scalars as (B, 1, 1)
    columns and its per-node values as (B, 1, m) rows, so each formula
    broadcasts over the stack as written for one graph. An exception is
    returned without its traceback (`_frameless`), so it keeps none of the
    kernel's frames, and through them the node pass, alive.
    """
    results = [None] * len(motifs)
    reads = any(_reads_two_walks(motif) and g.m > motif.r for motif in motifs)
    walks = _two_walks(g) if reads else None
    terms = {}
    for k, motif in enumerate(motifs):
        try:
            terms[k] = _MotifTerms(g, motif, walks)
        except (ValueError, ArithmeticError) as exc:
            results[k] = _frameless(exc)
    if not terms:
        return results
    m = g.m
    # grho1 and rho_hat, all that grho2 reads, are the same for every motif
    ps = next(iter(terms.values())).ps
    shape = (len(motifs),) + ps.g1.shape[:-1]  # a sum per motif (and graph)

    def leaf_sum(start: int, stop: int):
        lo, hi = start // m, -(-stop // m)  # the rows the cells touch
        cells = slice(start - lo * m, stop - lo * m)
        leaf = np.zeros(shape)
        if not terms:
            return leaf
        grm2 = grho2_matrix(g, ps, lo, hi)
        reads_rows = any(_reads_two_walks(t.motif) for t in terms.values())
        rows = walks.counts(lo, hi) if reads_rows else None
        for k, t in list(terms.items()):
            try:
                leaf[k] = t.leaf_sum(lo, hi, cells, grm2, rows)
            except DegenerateGraphError as exc:
                results[k] = _frameless(exc)
                del terms[k]
        return leaf

    pair_sums = _pairwise_sum(0, m * m, leaf_sum)  # inf or nan if they overflow
    for k, t in terms.items():
        try:
            results[k] = t.summaries(pair_sums[k], network_ids)
        except (ValueError, ArithmeticError) as exc:
            results[k] = _frameless(exc)
    return results


def _frameless(exc: BaseException) -> BaseException:
    """exc with the tracebacks of it and of its cause and context chain
    cleared."""
    todo, seen = [exc], set()
    while todo:
        err = todo.pop()
        if err is not None and id(err) not in seen:
            seen.add(id(err))
            err.__traceback__ = None
            todo += (err.__cause__, err.__context__)
    return exc


class _MotifTerms:
    """One motif's part of the summary kernel: its node terms, its pair terms
    one leaf at a time, and then its summaries."""

    def __init__(self, g: Graph | GraphStack, motif: Motif, walks):
        if g.m < motif.r + 1:
            raise DegenerateGraphError(f"m={g.m} too small for motif r={motif.r}")
        self.g, self.motif = g, motif
        self.stacked = stacked = isinstance(g, GraphStack)
        self.census = moment_census(g, motif, _walks=walks)
        self.ps = ps = project(g, motif, _census=self.census)
        if _any(ps.rho_hat >= 1.0):
            raise DegenerateGraphError("degenerate sparsity: complete graph (rho_hat = 1)")

        r, s = motif.r, motif.s
        u_hat, xi_g, xi_rho, xi_x = ps.u_hat, ps.xi_A1_sq, ps.xi_rhoA1_sq, ps.xi_cross
        g1, grho1 = ps.g1, ps.grho1
        if stacked:
            u_hat, xi_g, xi_rho, xi_x = map(_cell, (u_hat, xi_g, xi_rho, xi_x))
            g1, grho1 = g1[:, None, :], grho1[:, None, :]
        self.u_hat, self.g1, self.grho1 = u_hat, g1, grho1

        try:
            # Python's float power, one graph at a time: numpy's vector power
            # can differ from it in the last bit
            powers = (s, s + 1, s + 2, 2 * s, 2 * s + 1, 2 * s + 2, 2 * s + 3)
            if stacked:
                rp = {k: _cell(np.array([x ** (-k) for x in ps.rho_hat.tolist()]))
                      for k in powers}
            else:
                rp = {k: ps.rho_hat ** (-k) for k in powers}
            self.rp = rp

            self.a1_moment = r * rp[s] * g1  # the two terms of alpha1
            self.a1_density = 2.0 * s * rp[s + 1] * u_hat * grho1
            self.alpha1 = alpha1 = self.a1_moment - self.a1_density
            self.alpha0 = (
                2.0 * s * (s + 1) * rp[s + 2] * u_hat * xi_rho
                - 2.0 * r * s * rp[s + 1] * xi_x
            )
            self.alpha3 = (
                -4.0 * r * r * s * rp[2 * s + 1] * xi_g * grho1
                + r * r * rp[2 * s] * (g1 * g1 - xi_g)
                - 16.0 * s * s * (s + 1) * rp[2 * s + 3] * u_hat * u_hat * xi_rho * grho1
                + 8.0 * r * s * s * rp[2 * s + 2] * u_hat * xi_rho * g1
                + 4.0 * s * s * rp[2 * s + 2] * u_hat * u_hat * (grho1 * grho1 - xi_rho)
                - 4.0 * r * s * (
                    -(4.0 * s + 2.0) * rp[2 * s + 2] * u_hat * xi_x * grho1
                    + r * rp[2 * s + 1] * xi_x * g1
                    + rp[2 * s + 1] * u_hat * (g1 * grho1 - xi_x)
                )
            )
            self.alpha1_col = alpha1[:, 0] if stacked else alpha1  # the row index i, below
        except (FloatingPointError, OverflowError) as exc:  # under _summaries' errstate
            raise self.too_extreme(exc) from exc
        self.colsum = None  # alpha4 column sums over rows 0..done-1
        self.done = 0

    def too_extreme(self, exc: ArithmeticError) -> DegenerateGraphError:
        """The motif's error for an overflow or invalid operation."""
        return DegenerateGraphError(f"sparsity too extreme for motif {self.motif.name}: {exc}")

    def leaf_sum(self, lo: int, hi: int, cells: slice, grm2: np.ndarray, rows):
        """The sum of alpha1_i alpha1_j alpha2_ij over the leaf's cells, and
        the leaf's rows of alpha4 into the column sums.

        alpha4 and alpha2 are asymmetric (the row index is the first argument
        of the pair function):
          alpha4_ij = 2 r^2 (r-1) rho^-2s g1_i g2_ij
                    + 8 s^2 rho^-(2s+2) u^2 grho1_i grho2_ij
                    - 4 r (r-1) s rho^-(2s+1) u grho1_i g2_ij
                    - 4 r s rho^-(2s+1) u g1_i grho2_ij
          alpha2_ij = r (r-1)/2 rho^-s g2_ij - s rho^-(s+1) u grho2_ij
                    + 2 s (s+1) rho^-(s+2) u grho1_i grho1_j
                    - 2 r s rho^-(s+1) grho1_i g1_j
        Each is summed term by term, in this order, into one buffer. e_a4_a1
        averages over ordered pairs with alpha1 attached to the second
        argument, from the column sums of alpha4; e_a1a1a2 sums
        alpha1_i alpha1_j alpha2_ij over all m^2 cells. `grm2` (the grho2
        rows) and `rows` (rows lo:hi of A @ A, or None) are shared with the
        other motifs.
        """
        g, motif, ps, rp = self.g, self.motif, self.ps, self.rp
        r, s, u_hat = motif.r, motif.s, self.u_hat
        try:
            gm2 = g2_matrix(g, motif, ps, lo, hi, _census=self.census, _rows=rows)
            g1_i, grho1_i = ps.g1[..., lo:hi, None], ps.grho1[..., lo:hi, None]

            acc = np.multiply(g1_i, gm2)
            acc *= 2.0 * r * r * (r - 1) * rp[2 * s]
            term = np.multiply(grho1_i, grm2)
            term *= 8.0 * s * s * rp[2 * s + 2] * u_hat * u_hat
            acc += term
            np.multiply(grho1_i, gm2, out=term)
            term *= 4.0 * r * (r - 1) * s * rp[2 * s + 1] * u_hat
            acc -= term
            np.multiply(g1_i, grm2, out=term)
            term *= 4.0 * r * s * rp[2 * s + 1] * u_hat
            acc -= term
            _zero_diagonal(acc, lo)  # acc = alpha4
            # numpy's sum over the row axis adds one row at a time, so
            # adding each new row in turn keeps its bits; a row shared
            # with the previous leaf is already in
            if self.colsum is None:
                self.colsum = np.add.reduce(acc, axis=-2)
            else:
                for row in range(self.done - lo, hi - lo):
                    self.colsum += acc[..., row, :]
            self.done = hi

            np.multiply(gm2, 0.5 * r * (r - 1) * rp[s], out=acc)
            np.multiply(grm2, s * rp[s + 1] * u_hat, out=term)
            acc -= term
            np.multiply(grho1_i, self.grho1, out=term)
            term *= 2.0 * s * (s + 1) * rp[s + 2] * u_hat
            acc += term
            np.multiply(grho1_i, self.g1, out=term)
            term *= 2.0 * r * s * rp[s + 1]
            acc -= term
            _zero_diagonal(acc, lo)  # acc = alpha2
            np.multiply(self.alpha1_col[..., lo:hi, None], self.alpha1, out=term)
            term *= acc
            if self.stacked:
                return np.add.reduce(term.reshape(len(term), -1)[:, cells], axis=-1)
            return np.add.reduce(term.reshape(-1)[cells])
        except (FloatingPointError, OverflowError) as exc:  # under _summaries' errstate
            raise self.too_extreme(exc) from exc

    def summaries(self, pair_sum, network_ids: list) -> list:
        """The motif's summaries, one per graph, from the sum of its leaf sums."""
        motif, ps, alpha1 = self.motif, self.ps, self.alpha1
        m = ps.m
        pairs = m * (m - 1)
        try:
            # a graph's sum as a Python float, as the leaves summed alone give it
            e_a1a1a2 = (pair_sum if self.stacked else float(pair_sum)) / pairs
            if self.stacked:  # one dot per graph: a stacked einsum does not keep its bits
                e_a4_a1 = [float(c @ a) / pairs for c, a in zip(self.colsum, alpha1[:, 0])]
            else:
                e_a4_a1 = [float(self.colsum @ alpha1) / pairs]

            e_a1_cubed = _mean(alpha1 ** 3)
            e_a1_a3 = _mean(alpha1 * self.alpha3)
            xi_alpha1_sq = _mean(alpha1 * alpha1)
            # alpha1 is a difference of two terms; when they cancel exactly
            # (edge motif: the scaled moment is the constant 1) the residual
            # variance is pure floating-point noise, so snap it to zero and
            # let the pairwise degeneracy gate reject the summary cleanly
            cancel_floor = 1e-26 * (_mean(self.a1_moment ** 2) + _mean(self.a1_density ** 2))
        except (FloatingPointError, OverflowError) as exc:  # under _summaries' errstate
            raise self.too_extreme(exc) from exc

        fields = (ps.rho_hat, ps.u_hat, self.alpha0, ps.xi_A1_sq, xi_alpha1_sq, cancel_floor,
                  e_a1_cubed, e_a1_a3, e_a1a1a2)
        # Python floats, one row per graph
        rows = zip(*(np.ravel(x).tolist() for x in fields)) if self.stacked else [fields]
        summaries = []
        for nid, row, a4a1 in zip(network_ids, rows, e_a4_a1):
            rho_b, u_b, a0, xg, xa, floor, cubed, a1a3, a1a1a2 = row
            summary = NetworkSummary(
                network_id=nid,
                n=m,
                motif_name=motif.name,
                motif_r=motif.r,
                motif_s=motif.s,
                rho_hat=rho_b,
                u_hat=u_b,
                alpha0_hat=a0,
                xi_g1_sq=xg,
                xi_alpha1_sq=0.0 if xa <= floor else xa,
                e_a1_cubed=cubed,
                e_a1_a3=a1a3,
                e_a4_a1=a4a1,
                e_a1a1a2=a1a1a2,
            )
            summary.validate()
            summaries.append(summary)
        return summaries


def combine(sa: NetworkSummary, sb: NetworkSummary) -> EdgeworthCoeffs:
    """Fold two summaries into the studentizer and correction coefficients."""
    if not sa.same_motif(sb):
        raise ValueError(
            f"motif mismatch: {sa.motif_descriptor()} vs {sb.motif_descriptor()}"
        )
    sizes = _pair_sizes(sa.n, sb.n)
    s_sq = _studentizer_sq(sa, sb, sizes)
    if not (s_sq > 0.0 and math.isfinite(s_sq)):
        raise DegenerateGraphError(
            f"degenerate variance: S^2={s_sq} (vertex-transitive or trivial input)"
        )
    coeffs = _expansion(sa, sb, s_sq, sizes)
    for name in ("S", "I0", "Q1", "Q2"):
        if not math.isfinite(getattr(coeffs, name)):
            raise DegenerateGraphError(f"non-finite expansion coefficient {name}")
    return coeffs


def _pair_sizes(m: int, n: int) -> tuple:
    """(m, n, m^2, n^2, m^3, n^3, m^2 n, m n^2): the sizes the pair formulas
    divide by, as Python ints; a float divided by an int is divided by the
    int's nearest double."""
    return (m, n, m**2, n**2, m**3, n**3, m**2 * n, m * n**2)


def _size_columns(m: int, ns) -> tuple:
    """`_pair_sizes(m, n)` for every n of ns (ints, or an integer array), as
    float64 columns.

    Each power is taken exactly and rounded once to its nearest double (inf
    if it has none), as a float divided by it would round it: int64 powers
    overflow at n = 1e9, and a float64 product rounds twice above n of about
    9.5e7. So the powers are int64 only below 2^21, where a cube is exact;
    other sizes take Python ints.
    """
    if (getattr(ns, "dtype", None) == np.int64 and len(ns)
            and -_EXACT_CUBE < min(m, ns.min()) and max(m, ns.max()) < _EXACT_CUBE):
        return tuple(size.astype(np.float64) for size in _pair_sizes(np.full_like(ns, m), ns))
    ns = np.asarray(ns, dtype=object).tolist()
    return tuple(map(_doubles, zip(*(_pair_sizes(m, n) for n in ns))))


_EXACT_CUBE = 1 << 21


def _doubles(ints) -> np.ndarray:
    try:
        return np.array(ints, dtype=np.float64)
    except OverflowError:
        return np.array([_nearest_double(k) for k in ints], dtype=np.float64)


def _nearest_double(k: int) -> float:
    try:
        return float(k)
    except OverflowError:
        return math.inf


def _studentizer_sq(sa, sb, sizes) -> float:
    """S^2 = xi_a^2 / m + xi_b^2 / n, for one pair or, with `sb` holding
    columns and `sizes` from `_size_columns`, for many."""
    m, n = sizes[:2]
    return sa.xi_alpha1_sq / m + sb.xi_alpha1_sq / n


def _expansion(sa, sb, s_sq, sizes) -> EdgeworthCoeffs:
    """S and the correction coefficients I0, Q1, Q2 from S^2, unchecked; for
    one pair, or for columns of pairs as in `_studentizer_sq`."""
    m, n, m2, n2, m3, n3, m2n, mn2 = sizes
    S = _sqrt(s_sq)
    inv3 = _pow(S, -3)
    inv5 = _pow(S, -5)
    a_side = sa.e_a1_a3 + sa.e_a4_a1
    b_side = sb.e_a1_a3 + sb.e_a4_a1

    i0 = (sa.alpha0_hat / m - sb.alpha0_hat / n) / S
    q1 = 0.5 * inv3 * (-a_side / m2 + b_side / n2)
    q2 = inv3 * (
        (sa.e_a1_cubed / 6.0 + sa.e_a1a1a2) / m2
        - (sb.e_a1_cubed / 6.0 + sb.e_a1a1a2) / n2
    ) + 0.5 * inv5 * (
        (-sa.xi_alpha1_sq / m3 - sb.xi_alpha1_sq / m2n) * a_side
        + (sa.xi_alpha1_sq / mn2 + sb.xi_alpha1_sq / n3) * b_side
    )
    return EdgeworthCoeffs(m=m, n=n, S=S, I0=i0, Q1=q1, Q2=q2, s_exp=sa.motif_s)


def cdf(c: EdgeworthCoeffs, u: float) -> float:
    """Expanded CDF value at u, clamped into [0, 1]."""
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    return _expanded_cdf(c, u)


def _expanded_cdf(c: EdgeworthCoeffs, u):
    """`cdf` without its check on u, for a float or for arrays of pairs."""
    value = norm_cdf(u) - norm_pdf(u) * c.correction(u)
    return _min(1.0, _max(0.0, value))


def cornish_fisher(c: EdgeworthCoeffs, level: float) -> float:
    """Corrected lower-`level` quantile of the studentized statistic."""
    return _cornish_fisher_at(c, norm_quantile(level))


def _cornish_fisher_at(c: EdgeworthCoeffs, z: float):
    """`cornish_fisher` at the standard normal quantile z of its level, for
    one pair or for arrays of pairs."""
    return z + c.I0 + c.Q1 + c.Q2 * (z * z - 1.0)


def smoothing_noise(m: int, n: int, c_delta: float, rng: np.random.Generator) -> float:
    """One draw of the artificial smoothing Gaussian.

    Variance is c_delta * (log m / m + log n / n) with natural logs. With
    c_delta == 0 the draw is exactly 0 and the rng stream is not consumed.
    """
    _check_smoothing(m, n, c_delta)
    if c_delta == 0.0:
        return 0.0
    return float(_smoothing_delta(m, n, c_delta, rng.standard_normal()))


def smoothing_deltas(m: int, n: int, c_delta: float, normals: np.ndarray):
    """`smoothing_noise` of every stream whose draw would be the standard
    normal z of `normals` (0.0 for them all when c_delta == 0)."""
    _check_smoothing(m, n, c_delta)
    return _smoothing_delta(m, n, c_delta, normals)


def _check_smoothing(m: int, n: int, c_delta: float) -> None:
    if m < 2 or n < 2:
        raise ValueError("smoothing noise needs m, n >= 2")
    if c_delta < 0:
        raise ValueError("c_delta must be >= 0")


def _smoothing_delta(m, n, c_delta: float, z):
    """Generator.normal(0, sd) of the draw whose standard normal is z, for
    sd = sqrt(c_delta * (log m / m + log n / n)): 0 + sd * z, bit for bit;
    0.0, whatever z is, when c_delta == 0. For ints or an array of n, and a
    float or an array of z."""
    if c_delta == 0.0:
        return 0.0
    return 0.0 + _sqrt(c_delta * (_log(m) / m + _log(n) / n)) * z


def rate_diagnostic(m: int, rho: float, motif: Motif) -> float:
    """Expansion-accuracy rate for one network; warns when it is vacuous.

    Acyclic motifs: (rho*m)^-1 log^(1/2) m + m^-1 log^(3/2) m.
    Cyclic motifs:  rho^(-r/2) m^-1 log^(1/2) m + m^-1 log^(3/2) m.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    if m < 2:
        raise ValueError("m must be >= 2")
    lg = math.log(m)
    tail = lg ** 1.5 / m
    if motif.cyclic:
        lead = rho ** (-motif.r / 2.0) * math.sqrt(lg) / m
    else:
        lead = math.sqrt(lg) / (rho * m)
    value = lead + tail
    if value >= 1.0:
        warnings.warn(
            f"expansion rate diagnostic {value:.3g} >= 1 for m={m}, rho={rho:.3g}, "
            f"motif={motif.name}: higher-order correction is vacuous at this scale",
            RuntimeWarning,
            stacklevel=2,
        )
    return value
