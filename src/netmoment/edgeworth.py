"""Per-network summary statistics and the pairwise Edgeworth machinery.

`summarize` reduces one network to the dozen scalars that every later
pairwise comparison needs: the sparsity-scaled moment ingredients, the
first-order influence values alpha1 and their bias/skewness-style companion
terms (alpha0, alpha3 per node, alpha2/alpha4 per pair), folded into the
empirical expectations that drive the expansion coefficients. The per-pair
terms are built a block of rows at a time and reduced at once, in numpy's
own summation order. All population
quantities are replaced by their plug-in estimates.

`summarize_many` runs the same kernel over a stack of same-size graphs, with
a leading batch axis on every array: 2^16 / m^2 graphs of m <= 90 nodes at a
time (40 at m = 40, 10 at m = 80); a larger graph goes alone, where a stack
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

No cross-network quantity is ever required: the two sides of every formula
are computed separately, which is what makes offline hashing possible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphStack, density
from .motif import Motif, _zero_diagonal, moment_census
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


def norm_cdf(u: float) -> float:
    """Standard normal CDF via erfc, accurate in both tails."""
    return 0.5 * math.erfc(-u / _SQRT2)


def norm_pdf(u: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * u * u)


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
    """Studentizer and expansion coefficients for one ordered network pair."""

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
# the subtree's slice gives the subtree's bits. 2^15 to 2^17 tie for the
# fastest triangle + vshape summary of a sparse (m = 1500) and a dense
# (m = 1000) graph, 2 vCPUs and one BLAS thread; 2^12 is twice as slow.
_LEAF = 1 << 16


def _pairwise_sum(start: int, n: int, leaf_sum) -> float:
    """numpy's pairwise sum of n elements from `start`, leaves by `leaf_sum`.

    numpy sums a contiguous array of n > 128 elements as the sum of its first
    n // 2 elements, rounded down to a multiple of 8, plus the sum of the
    rest. This descends that tree to subtrees of at most _LEAF elements,
    calls leaf_sum(start, stop) on each, left to right, and adds the results
    as numpy would.
    """
    if n <= _LEAF:
        return leaf_sum(start, start + n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(start, half, leaf_sum) + _pairwise_sum(start + half, n - half, leaf_sum)


def _group_size(m: int) -> int:
    """Graphs of m nodes that `summarize_many` summarizes as one stack.

    A stack pays only while numpy's per-call overhead outweighs its
    arithmetic. Graphs of at most _LEAF / 8 pairs (m <= 90) go in stacks of
    _LEAF // m^2, 8 or more, each stack one leaf; larger graphs go one at a
    time. Against one graph at a time, a cdf replicate in a stack took 0.6
    of the time at m = 40, 0.9 at m = 64, 0.75-1.0 at m = 80, about the same
    at m = 100 and 160, and 1.3-1.4 at m = 128 (2 vCPUs, one BLAS thread).
    """
    return _LEAF // (m * m) if 8 * m * m <= _LEAF else 1


def summarize(g: Graph, motif: Motif, network_id: str = "") -> NetworkSummary:
    """Hash one network into its motif summary vector.

    Every population symbol in the correction-term formulas is replaced by
    its plug-in estimate. Pairwise terms are built a block of rows at a time
    and reduced at once, so no m x m float array is ever alive; the blocks
    follow numpy's summation order, so the result has the bits of a sum over
    the full matrices. This is the kernel of `summarize_many`, run on a group
    of one graph.
    """
    return _summaries(g, motif, [network_id])[0]


def summarize_many(graphs, motif: Motif) -> list[NetworkSummary | DegenerateGraphError]:
    """Summaries of same-size graphs, in order, each as `summarize` gives it.

    Each entry is the graph's NetworkSummary, or the DegenerateGraphError
    that `summarize` raises for it. Graphs of m nodes go through the kernel
    in stacks of `_group_size(m)`, with a leading batch axis on every array;
    each reduction sums every graph's row as it sums that graph alone, so
    each summary has the bits of `summarize`. A stack whose arithmetic
    overflows is redone one graph at a time.
    """
    graphs = list(graphs)
    if any(g.m != graphs[0].m for g in graphs):
        raise ValueError("summarize_many needs graphs of one size")
    out = [None] * len(graphs)
    # graphs that fail the size, empty or complete gate go to summarize,
    # which raises them with its messages
    live = [i for i, g in enumerate(graphs) if g.m > motif.r and 0.0 < density(g) < 1.0]
    step = _group_size(graphs[0].m) if graphs else 1
    for lo in range(0, len(live), step):
        group = live[lo:lo + step]
        if len(group) > 1:
            try:
                stacked = _summaries(GraphStack([graphs[i] for i in group]), motif,
                                     [""] * len(group))
            except DegenerateGraphError:  # a member overflowed: one at a time
                continue
            for i, summary in zip(group, stacked):
                out[i] = summary
    for i, g in enumerate(graphs):
        if out[i] is None:
            try:
                out[i] = summarize(g, motif)
            except DegenerateGraphError as exc:
                out[i] = exc
    return out


def _summaries(g: Graph | GraphStack, motif: Motif, network_ids: list) -> list:
    """The summary kernel, for one graph or for each graph of a stack.

    A stack carries its scalars as (B, 1, 1) columns and its per-node values
    as (B, 1, m) rows, so each formula below broadcasts over the stack as
    written for one graph. One graph keeps Python floats for its scalars.
    """
    if g.m < motif.r + 1:
        raise DegenerateGraphError(f"m={g.m} too small for motif r={motif.r}")
    m = g.m
    stacked = isinstance(g, GraphStack)
    # a graph of one leaf gets its pair averages with the census
    census = moment_census(g, motif, want_pairs=m * m <= _LEAF)
    ps = project(g, motif, _census=census)
    rho = ps.rho_hat
    if _any(rho >= 1.0):
        raise DegenerateGraphError("degenerate sparsity: complete graph (rho_hat = 1)")

    r, s = motif.r, motif.s
    u_hat, xi_g, xi_rho, xi_x = ps.u_hat, ps.xi_A1_sq, ps.xi_rhoA1_sq, ps.xi_cross
    g1, grho1 = ps.g1, ps.grho1
    if stacked:
        u_hat, xi_g, xi_rho, xi_x = map(_cell, (u_hat, xi_g, xi_rho, xi_x))
        g1, grho1 = g1[:, None, :], grho1[:, None, :]

    with np.errstate(over="raise", invalid="raise"):
        try:
            # Python's float power, one graph at a time: numpy's vector power
            # can differ from it in the last bit
            powers = (s, s + 1, s + 2, 2 * s, 2 * s + 1, 2 * s + 2, 2 * s + 3)
            if stacked:
                rp = {k: _cell(np.array([x ** (-k) for x in rho.tolist()])) for k in powers}
            else:
                rp = {k: rho ** (-k) for k in powers}

            a1_moment = r * rp[s] * g1  # the two terms of alpha1
            a1_density = 2.0 * s * rp[s + 1] * u_hat * grho1
            alpha1 = a1_moment - a1_density
            alpha0 = (
                2.0 * s * (s + 1) * rp[s + 2] * u_hat * xi_rho
                - 2.0 * r * s * rp[s + 1] * xi_x
            )
            alpha3 = (
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
            alpha1_col = alpha1[:, 0] if stacked else alpha1  # the row index i, below

            # alpha4 and alpha2 are asymmetric (the row index is the first
            # argument of the pair function):
            #   alpha4_ij = 2 r^2 (r-1) rho^-2s g1_i g2_ij
            #             + 8 s^2 rho^-(2s+2) u^2 grho1_i grho2_ij
            #             - 4 r (r-1) s rho^-(2s+1) u grho1_i g2_ij
            #             - 4 r s rho^-(2s+1) u g1_i grho2_ij
            #   alpha2_ij = r (r-1)/2 rho^-s g2_ij - s rho^-(s+1) u grho2_ij
            #             + 2 s (s+1) rho^-(s+2) u grho1_i grho1_j
            #             - 2 r s rho^-(s+1) grho1_i g1_j
            # Each is summed term by term, in this order, into one buffer.
            # e_a4_a1 averages over ordered pairs with alpha1 attached to the
            # second argument, from the column sums of alpha4; e_a1a1a2 sums
            # alpha1_i alpha1_j alpha2_ij over all m^2 cells.
            colsum = None  # alpha4 column sums over rows 0..done-1
            done = 0

            def leaf_sum(start: int, stop: int):
                nonlocal colsum, done
                lo, hi = start // m, -(-stop // m)  # the rows the cells touch
                gm2 = g2_matrix(g, motif, ps, lo, hi, _census=census)
                grm2 = grho2_matrix(g, ps, lo, hi)
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
                if colsum is None:
                    colsum = np.add.reduce(acc, axis=-2)
                else:
                    for row in range(done - lo, hi - lo):
                        colsum += acc[..., row, :]
                done = hi

                np.multiply(gm2, 0.5 * r * (r - 1) * rp[s], out=acc)
                np.multiply(grm2, s * rp[s + 1] * u_hat, out=term)
                acc -= term
                np.multiply(grho1_i, grho1, out=term)
                term *= 2.0 * s * (s + 1) * rp[s + 2] * u_hat
                acc += term
                np.multiply(grho1_i, g1, out=term)
                term *= 2.0 * r * s * rp[s + 1]
                acc -= term
                _zero_diagonal(acc, lo)  # acc = alpha2
                np.multiply(alpha1_col[..., lo:hi, None], alpha1, out=term)
                term *= acc
                cells = slice(start - lo * m, stop - lo * m)
                if stacked:
                    return np.add.reduce(term.reshape(len(term), -1)[:, cells], axis=-1)
                return float(np.add.reduce(term.reshape(-1)[cells]))

            pairs = m * (m - 1)
            e_a1a1a2 = _pairwise_sum(0, m * m, leaf_sum) / pairs
            if stacked:  # one dot per graph: a stacked einsum does not keep its bits
                e_a4_a1 = [float(c @ a) / pairs for c, a in zip(colsum, alpha1[:, 0])]
            else:
                e_a4_a1 = [float(colsum @ alpha1) / pairs]

            e_a1_cubed = _mean(alpha1 ** 3)
            e_a1_a3 = _mean(alpha1 * alpha3)
            xi_alpha1_sq = _mean(alpha1 * alpha1)
            # alpha1 is a difference of two terms; when they cancel exactly
            # (edge motif: the scaled moment is the constant 1) the residual
            # variance is pure floating-point noise, so snap it to zero and
            # let the pairwise degeneracy gate reject the summary cleanly
            cancel_floor = 1e-26 * (_mean(a1_moment ** 2) + _mean(a1_density ** 2))
        except (FloatingPointError, OverflowError) as exc:
            raise DegenerateGraphError(
                f"sparsity too extreme for motif {motif.name}: {exc}"
            ) from exc

    fields = (rho, ps.u_hat, alpha0, xi_g, xi_alpha1_sq, cancel_floor, e_a1_cubed, e_a1_a3,
              e_a1a1a2)
    # Python floats, one row per graph
    rows = zip(*(np.ravel(x).tolist() for x in fields)) if stacked else [fields]
    summaries = []
    for nid, row, a4a1 in zip(network_ids, rows, e_a4_a1):
        rho_b, u_b, a0, xg, xa, floor, cubed, a1a3, a1a1a2 = row
        summary = NetworkSummary(
            network_id=nid,
            n=m,
            motif_name=motif.name,
            motif_r=r,
            motif_s=s,
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
    m, n = sa.n, sb.n
    s_sq = sa.xi_alpha1_sq / m + sb.xi_alpha1_sq / n
    if not (s_sq > 0.0 and math.isfinite(s_sq)):
        raise DegenerateGraphError(
            f"degenerate variance: S^2={s_sq} (vertex-transitive or trivial input)"
        )
    S = math.sqrt(s_sq)

    inv3 = S ** -3
    inv5 = S ** -5
    a_side = sa.e_a1_a3 + sa.e_a4_a1
    b_side = sb.e_a1_a3 + sb.e_a4_a1

    i0 = (sa.alpha0_hat / m - sb.alpha0_hat / n) / S
    q1 = 0.5 * inv3 * (-a_side / m**2 + b_side / n**2)
    q2 = inv3 * (
        (sa.e_a1_cubed / 6.0 + sa.e_a1a1a2) / m**2
        - (sb.e_a1_cubed / 6.0 + sb.e_a1a1a2) / n**2
    ) + 0.5 * inv5 * (
        (-sa.xi_alpha1_sq / m**3 - sb.xi_alpha1_sq / (m**2 * n)) * a_side
        + (sa.xi_alpha1_sq / (m * n**2) + sb.xi_alpha1_sq / n**3) * b_side
    )
    coeffs = EdgeworthCoeffs(m=m, n=n, S=S, I0=i0, Q1=q1, Q2=q2, s_exp=sa.motif_s)
    for name, value in (("S", S), ("I0", i0), ("Q1", q1), ("Q2", q2)):
        if not math.isfinite(value):
            raise DegenerateGraphError(f"non-finite expansion coefficient {name}")
    return coeffs


def cdf(c: EdgeworthCoeffs, u: float) -> float:
    """Expanded CDF value at u, clamped into [0, 1]."""
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    value = norm_cdf(u) - norm_pdf(u) * c.correction(u)
    return min(1.0, max(0.0, value))


def cornish_fisher(c: EdgeworthCoeffs, level: float) -> float:
    """Corrected lower-`level` quantile of the studentized statistic."""
    z = norm_quantile(level)
    return z + c.I0 + c.Q1 + c.Q2 * (z * z - 1.0)


def smoothing_noise(m: int, n: int, c_delta: float, rng: np.random.Generator) -> float:
    """One draw of the artificial smoothing Gaussian.

    Variance is c_delta * (log m / m + log n / n) with natural logs. With
    c_delta == 0 the draw is exactly 0 and the rng stream is not consumed.
    """
    if m < 2 or n < 2:
        raise ValueError("smoothing noise needs m, n >= 2")
    if c_delta < 0:
        raise ValueError("c_delta must be >= 0")
    if c_delta == 0.0:
        return 0.0
    var = c_delta * (math.log(m) / m + math.log(n) / n)
    return float(rng.normal(0.0, math.sqrt(var)))


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
