"""First- and second-order empirical projections of the moment statistics.

For one network the first-order projections are

    g1[i]    = (restricted node average of h) - U_hat
    grho1[i] = degree_i / (m - 1) - rho_hat

with variance/covariance scalars taken as plain means of their products.
Second-order values subtract both first-order terms and the grand mean from
the pair-restricted averages; they are never stored per ProjectionSet but
built as full matrices inside the summary builder, which reduces them at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, density
from .motif import Motif, MomentCensus, moment_census


class DegenerateGraphError(ValueError):
    """Raised when a graph is too degenerate for the moment machinery."""


@dataclass(frozen=True)
class ProjectionSet:
    """First-order projections and their moment scalars for one network."""

    motif: Motif
    m: int
    u_hat: float
    rho_hat: float
    g1: np.ndarray = field(repr=False)
    grho1: np.ndarray = field(repr=False)
    xi_A1_sq: float
    xi_rhoA1_sq: float
    xi_cross: float


def project(g: Graph, motif: Motif, _census: MomentCensus | None = None) -> ProjectionSet:
    """Compute first-order projections g1, grho1 and their second moments."""
    if g.m < motif.r:
        raise DegenerateGraphError(f"m={g.m} < motif r={motif.r}")
    rho = density(g)
    if rho == 0.0:
        raise DegenerateGraphError("degenerate sparsity: empty graph (rho_hat = 0)")

    census = _census if _census is not None else moment_census(g, motif)
    u_hat = census.u_hat
    g1 = census.node_avgs - u_hat
    grho1 = g.degrees / (g.m - 1.0) - rho

    g1.setflags(write=False)
    grho1.setflags(write=False)
    return ProjectionSet(
        motif=motif,
        m=g.m,
        u_hat=u_hat,
        rho_hat=rho,
        g1=g1,
        grho1=grho1,
        xi_A1_sq=float(np.mean(g1 * g1)),
        xi_rhoA1_sq=float(np.mean(grho1 * grho1)),
        xi_cross=float(np.mean(g1 * grho1)),
    )


def g2_matrix(
    g: Graph, motif: Motif, ps: ProjectionSet, _census: MomentCensus | None = None
) -> np.ndarray:
    """All-pairs g2 values (diagonal zeroed); transient consumer-side buffer."""
    census = _census
    if census is None or census.pair_avgs is None:
        census = moment_census(g, motif, want_pairs=True)
    out = census.pair_avgs - (ps.g1[:, None] + ps.g1[None, :]) - ps.u_hat
    np.fill_diagonal(out, 0.0)
    return out


def grho2_matrix(g: Graph, ps: ProjectionSet) -> np.ndarray:
    """All-pairs grho2 values (diagonal zeroed)."""
    out = (
        g.adj.astype(np.float64)
        - (ps.grho1[:, None] + ps.grho1[None, :])
        - ps.rho_hat
    )
    np.fill_diagonal(out, 0.0)
    return out
