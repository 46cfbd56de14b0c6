"""Two-sample test and Cornish-Fisher confidence interval from summaries.

Both procedures consume only NetworkSummary pairs, never adjacency matrices.
The discrepancy statistic is the difference of sparsity-scaled moments,

    D = rho_a^-s * U - rho_b^-s * V,

studentized by the combined S and smoothed by one shared draw of the
artificial Gaussian. The p-value reads the expanded CDF twice; the interval
inverts the same expansion through the corrected quantiles. One smoothing
draw per invocation is recorded in the result for reproducibility audits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edgeworth import (
    EdgeworthCoeffs,
    NetworkSummary,
    cdf,
    combine,
    cornish_fisher,
    smoothing_noise,
)

DEFAULT_TEST_LEVEL = 0.05
DEFAULT_CI_LEVEL = 0.90
DEFAULT_C_DELTA = 0.01


@dataclass(frozen=True)
class TestResult:
    """Outcome of one two-sample moment test."""

    d_hat: float
    s_hat: float
    t_obs: float
    delta_t: float
    p_value: float
    reject: bool
    level: float
    coeffs: EdgeworthCoeffs

    def as_record(self, sa: NetworkSummary, sb: NetworkSummary, seed=None) -> dict:
        return {
            "motif": sa.motif_name,
            "m": sa.n,
            "n": sb.n,
            "d_hat": self.d_hat,
            "s_hat": self.s_hat,
            "t_obs": self.t_obs,
            "delta_t": self.delta_t,
            "p_value": self.p_value,
            "reject": self.reject,
            "level": self.level,
            "seed": seed,
        }


def scaled_discrepancy(sa: NetworkSummary, sb: NetworkSummary) -> float:
    """Plug-in discrepancy D between the two sparsity-scaled moments."""
    s = sa.motif_s
    return sa.rho_hat ** (-s) * sa.u_hat - sb.rho_hat ** (-s) * sb.u_hat


def two_sample_test(
    sa: NetworkSummary,
    sb: NetworkSummary,
    level: float = DEFAULT_TEST_LEVEL,
    c_delta: float = DEFAULT_C_DELTA,
    rng: np.random.Generator | None = None,
    delta_t: float | None = None,
) -> TestResult:
    """Test whether the two scaled moments differ, at the given level.

    `delta_t` overrides the smoothing draw (used to share one realization
    between a test and its interval); otherwise one draw is taken from rng.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    coeffs = combine(sa, sb)
    d_hat = scaled_discrepancy(sa, sb)
    if delta_t is None:
        if rng is None:
            rng = np.random.default_rng()
        delta_t = smoothing_noise(sa.n, sb.n, c_delta, rng)
    t_obs = d_hat / coeffs.S + delta_t
    g_val = cdf(coeffs, t_obs)
    p_value = 2.0 * min(g_val, 1.0 - g_val)
    return TestResult(
        d_hat=d_hat,
        s_hat=coeffs.S,
        t_obs=t_obs,
        delta_t=delta_t,
        p_value=p_value,
        reject=p_value < level,
        level=level,
        coeffs=coeffs,
    )


def confidence_interval(
    sa: NetworkSummary,
    sb: NetworkSummary,
    level: float = DEFAULT_CI_LEVEL,
    c_delta: float = DEFAULT_C_DELTA,
    rng: np.random.Generator | None = None,
    delta_t: float | None = None,
) -> tuple[float, float]:
    """Two-sided Cornish-Fisher interval for the scaled-moment discrepancy.

    Both endpoints use the same smoothing realization:
    (D - (q_{1-a/2} - delta) S, D - (q_{a/2} - delta) S) with a = 1 - level.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    coeffs = combine(sa, sb)
    d_hat = scaled_discrepancy(sa, sb)
    if delta_t is None:
        if rng is None:
            rng = np.random.default_rng()
        delta_t = smoothing_noise(sa.n, sb.n, c_delta, rng)
    alpha = 1.0 - level
    q_lo = cornish_fisher(coeffs, alpha / 2.0)
    q_hi = cornish_fisher(coeffs, 1.0 - alpha / 2.0)
    if q_lo >= q_hi:
        raise ValueError(
            f"quantile crossing: q({alpha/2:.4g})={q_lo:.6g} >= "
            f"q({1-alpha/2:.4g})={q_hi:.6g}; expansion coefficients too large"
        )
    return interval_from_quantiles(d_hat, coeffs.S, delta_t, q_lo, q_hi)


def interval_from_quantiles(
    d_hat: float, s_hat: float, delta_t: float, q_lo: float, q_hi: float
) -> tuple[float, float]:
    """Interval endpoints (D - (q_hi - delta) S, D - (q_lo - delta) S)."""
    return d_hat - (q_hi - delta_t) * s_hat, d_hat - (q_lo - delta_t) * s_hat
