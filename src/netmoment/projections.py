"""First- and second-order empirical projections of the moment statistics.

For one network the first-order projections are

    g1[i]    = (restricted node average of h) - U_hat
    grho1[i] = degree_i / (m - 1) - rho_hat

with variance/covariance scalars taken as plain means of their products.
Second-order values subtract both first-order terms and the grand mean from
the pair-restricted averages; they are never stored per ProjectionSet. The
summary builder asks for them a few rows at a time and reduces each block
before it builds the next.

Every function here also takes a GraphStack: each array then gains a leading
batch axis, and each scalar becomes a (B,) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, GraphStack, density
from .motif import Motif, MomentCensus, _zero_diagonal, moment_census, pair_avg_rows


class DegenerateGraphError(ValueError):
    """Raised when a graph is too degenerate for the moment machinery."""


@dataclass(frozen=True)
class ProjectionSet:
    """First-order projections and their moment scalars for one network.

    For a GraphStack each field has a leading batch axis.
    """

    motif: Motif
    m: int
    u_hat: float
    rho_hat: float
    g1: np.ndarray = field(repr=False)
    grho1: np.ndarray = field(repr=False)
    xi_A1_sq: float
    xi_rhoA1_sq: float
    xi_cross: float


def _mean(x: np.ndarray):
    """np.mean over the last axis of a float64 array, bit for bit, without its
    overhead: a float for a 1-D array, else a mean per row, for numpy sums
    each row pairwise as it sums a 1-D array."""
    if x.ndim == 1:
        return float(np.add.reduce(x) / x.size)
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _per_node(x):
    """A graph's float as is; a stack's (B,) scalars as a (B, 1) column."""
    return x if isinstance(x, float) else x[:, None]


def _cell(x):
    """A graph's float as is; a stack's (B,) scalars shaped (B, 1, 1)."""
    return x if isinstance(x, float) else x[:, None, None]


def _any(flags) -> bool:
    """Whether a graph's flag, or any of a stack's (B,) flags, is set."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def project(g: Graph | GraphStack, motif: Motif,
            _census: MomentCensus | None = None) -> ProjectionSet:
    """Compute first-order projections g1, grho1 and their second moments."""
    if g.m < motif.r:
        raise DegenerateGraphError(f"m={g.m} < motif r={motif.r}")
    rho = density(g)
    if _any(rho == 0.0):
        raise DegenerateGraphError("degenerate sparsity: empty graph (rho_hat = 0)")

    census = _census if _census is not None else moment_census(g, motif)
    u_hat = census.u_hat
    g1 = census.node_avgs - _per_node(u_hat)
    grho1 = g.degrees / (g.m - 1.0) - _per_node(rho)

    g1.setflags(write=False)
    grho1.setflags(write=False)
    return ProjectionSet(
        motif=motif,
        m=g.m,
        u_hat=u_hat,
        rho_hat=rho,
        g1=g1,
        grho1=grho1,
        xi_A1_sq=_mean(g1 * g1),
        xi_rhoA1_sq=_mean(grho1 * grho1),
        xi_cross=_mean(g1 * grho1),
    )


def g2_matrix(
    g: Graph | GraphStack, motif: Motif, ps: ProjectionSet, lo: int = 0,
    hi: int | None = None, _census: MomentCensus | None = None,
) -> np.ndarray:
    """Rows lo:hi (default all) of the g2 values, diagonal zeroed.

    The pair averages are read from `_census` when it holds them, else built
    for these rows only.
    """
    hi = g.m if hi is None else hi
    if _census is not None and _census.pair_avgs is not None:
        pair_avgs = _census.pair_avgs[..., lo:hi, :]
    else:
        pair_avgs = pair_avg_rows(g, motif, lo, hi)
    # pair_avgs - (g1_i + g1_j) - u_hat, evaluated in one buffer
    out = np.add(ps.g1[..., lo:hi, None], ps.g1[..., None, :])
    np.subtract(pair_avgs, out, out=out)
    out -= _cell(ps.u_hat)
    _zero_diagonal(out, lo)
    return out


def grho2_matrix(g: Graph | GraphStack, ps: ProjectionSet, lo: int = 0,
                 hi: int | None = None) -> np.ndarray:
    """Rows lo:hi (default all) of the grho2 values, diagonal zeroed."""
    hi = g.m if hi is None else hi
    # A - (grho1_i + grho1_j) - rho_hat, with one temporary
    out = g.adj[..., lo:hi, :].astype(np.float64)
    out -= np.add(ps.grho1[..., lo:hi, None], ps.grho1[..., None, :])
    out -= _cell(ps.rho_hat)
    _zero_diagonal(out, lo)
    return out
