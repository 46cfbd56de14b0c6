"""Per-network summary statistics and the pairwise Edgeworth machinery.

`summarize` reduces one network to the dozen scalars that every later
pairwise comparison needs: the sparsity-scaled moment ingredients, the
first-order influence values alpha1 and their bias/skewness-style companion
terms (alpha0, alpha3 per node, alpha2/alpha4 per pair), folded into the
empirical expectations that drive the expansion coefficients. All population
quantities are replaced by their plug-in estimates. `combine` then turns two
summaries into the studentizer S and the three correction coefficients
(I0, Q1, Q2) of the expanded CDF

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

from .graph import Graph
from .motif import Motif, moment_census
from .projections import (
    DegenerateGraphError,
    ProjectionSet,
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


def summarize(g: Graph, motif: Motif, network_id: str = "") -> NetworkSummary:
    """Hash one network into its motif summary vector.

    Every population symbol in the correction-term formulas is replaced by
    its plug-in estimate; pairwise terms are evaluated on full matrices and
    reduced immediately, so nothing quadratic in m is retained.
    """
    if g.m < motif.r + 1:
        raise DegenerateGraphError(f"m={g.m} too small for motif r={motif.r}")
    census = moment_census(g, motif, want_pairs=True)
    ps = project(g, motif, _census=census)
    rho = ps.rho_hat
    if rho >= 1.0:
        raise DegenerateGraphError("degenerate sparsity: complete graph (rho_hat = 1)")

    r, s = motif.r, motif.s
    u_hat = ps.u_hat
    g1 = ps.g1
    grho1 = ps.grho1
    xi_g = ps.xi_A1_sq
    xi_rho = ps.xi_rhoA1_sq
    xi_x = ps.xi_cross

    with np.errstate(over="raise", invalid="raise"):
        try:
            rp = {k: rho ** (-k) for k in (s, s + 1, s + 2, 2 * s, 2 * s + 1, 2 * s + 2, 2 * s + 3)}

            alpha1 = r * rp[s] * g1 - 2.0 * s * rp[s + 1] * u_hat * grho1
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

            gm2 = g2_matrix(g, motif, ps, _census=census)
            del census  # its pair_avgs are folded into gm2
            grm2 = grho2_matrix(g, ps)

            # alpha4 and alpha2 are asymmetric (the row index is the first
            # argument of the pair function):
            #   alpha4_ij = 2 r^2 (r-1) rho^-2s g1_i g2_ij
            #             + 8 s^2 rho^-(2s+2) u^2 grho1_i grho2_ij
            #             - 4 r (r-1) s rho^-(2s+1) u grho1_i g2_ij
            #             - 4 r s rho^-(2s+1) u g1_i grho2_ij
            #   alpha2_ij = r (r-1)/2 rho^-s g2_ij - s rho^-(s+1) u grho2_ij
            #             + 2 s (s+1) rho^-(s+2) u grho1_i grho1_j
            #             - 2 r s rho^-(s+1) grho1_i g1_j
            # Each is summed term by term, in this order, into one buffer and
            # reduced before the next is built, so at most four m x m arrays
            # are alive: gm2, grm2, acc and term.
            acc = np.empty_like(gm2)
            term = np.empty_like(gm2)

            np.multiply(g1[:, None], gm2, out=acc)
            acc *= 2.0 * r * r * (r - 1) * rp[2 * s]
            np.multiply(grho1[:, None], grm2, out=term)
            term *= 8.0 * s * s * rp[2 * s + 2] * u_hat * u_hat
            acc += term
            np.multiply(grho1[:, None], gm2, out=term)
            term *= 4.0 * r * (r - 1) * s * rp[2 * s + 1] * u_hat
            acc -= term
            np.multiply(g1[:, None], grm2, out=term)
            term *= 4.0 * r * s * rp[2 * s + 1] * u_hat
            acc -= term
            np.fill_diagonal(acc, 0.0)  # acc = alpha4
            m = g.m
            pairs = m * (m - 1)
            # average over ordered pairs with alpha1 attached to the second
            # argument
            e_a4_a1 = float(acc.sum(axis=0) @ alpha1) / pairs

            np.multiply(gm2, 0.5 * r * (r - 1) * rp[s], out=acc)
            np.multiply(grm2, s * rp[s + 1] * u_hat, out=term)
            acc -= term
            np.multiply(grho1[:, None], grho1[None, :], out=term)
            term *= 2.0 * s * (s + 1) * rp[s + 2] * u_hat
            acc += term
            np.multiply(grho1[:, None], g1[None, :], out=term)
            term *= 2.0 * r * s * rp[s + 1]
            acc -= term
            np.fill_diagonal(acc, 0.0)  # acc = alpha2
            np.multiply(alpha1[:, None], alpha1[None, :], out=term)
            term *= acc
            e_a1a1a2 = float(term.sum()) / pairs

            e_a1_cubed = float(np.mean(alpha1 ** 3))
            e_a1_a3 = float(np.mean(alpha1 * alpha3))
            xi_alpha1_sq = float(np.mean(alpha1 * alpha1))
            # alpha1 is a difference of two terms; when they cancel exactly
            # (edge motif: the scaled moment is the constant 1) the residual
            # variance is pure floating-point noise, so snap it to zero and
            # let the pairwise degeneracy gate reject the summary cleanly
            cancel_floor = 1e-26 * float(
                np.mean((r * rp[s] * g1) ** 2)
                + np.mean((2.0 * s * rp[s + 1] * u_hat * grho1) ** 2)
            )
            if xi_alpha1_sq <= cancel_floor:
                xi_alpha1_sq = 0.0
        except (FloatingPointError, OverflowError) as exc:
            raise DegenerateGraphError(
                f"sparsity too extreme for motif {motif.name}: {exc}"
            ) from exc

    summary = NetworkSummary(
        network_id=network_id,
        n=g.m,
        motif_name=motif.name,
        motif_r=r,
        motif_s=s,
        rho_hat=rho,
        u_hat=u_hat,
        alpha0_hat=alpha0,
        xi_g1_sq=xi_g,
        xi_alpha1_sq=xi_alpha1_sq,
        e_a1_cubed=e_a1_cubed,
        e_a1_a3=e_a1_a3,
        e_a4_a1=e_a4_a1,
        e_a1a1a2=e_a1a1a2,
    )
    summary.validate()
    return summary


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
