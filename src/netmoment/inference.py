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

import math
import operator
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .edgeworth import (
    SUMMARY_FIELDS,
    EdgeworthCoeffs,
    NetworkSummary,
    _expanded_cdf,
    _expansion,
    _min,
    _pair_sizes,
    _size_columns,
    _pow,
    _smoothing_delta,
    _studentizer_sq,
    cdf,
    combine,
    cornish_fisher,
    smoothing_noise,
)
from .projections import DegenerateGraphError

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
    """Plug-in discrepancy D between the two sparsity-scaled moments (of
    every pair at once when `sb` holds columns)."""
    s = sa.motif_s
    return _pow(sa.rho_hat, -s) * sa.u_hat - _pow(sb.rho_hat, -s) * sb.u_hat


def _statistic(coeffs: EdgeworthCoeffs, d_hat, delta_t):
    """(t_obs, two-sided p-value) of one pair, or of arrays of pairs. One
    pair's t_obs goes through `cdf`, which refuses one that is not finite;
    an array's gives a nan p-value there."""
    t_obs = d_hat / coeffs.S + delta_t
    g_val = _expanded_cdf(coeffs, t_obs) if isinstance(t_obs, np.ndarray) else cdf(coeffs, t_obs)
    return t_obs, 2.0 * _min(g_val, 1.0 - g_val)


def _pair_statistics(
    sa: NetworkSummary,
    sb: NetworkSummary,
    level: float,
    c_delta: float,
    rng: np.random.Generator | None,
    delta_t: float | None,
) -> tuple[EdgeworthCoeffs, float, float]:
    """Check the level, then return (coeffs, D, delta_t) for one pair; the
    smoothing draw is taken from rng (a fresh one if None) unless given."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    coeffs = combine(sa, sb)
    d_hat = scaled_discrepancy(sa, sb)
    if delta_t is None:
        if rng is None:
            rng = np.random.default_rng()
        delta_t = smoothing_noise(sa.n, sb.n, c_delta, rng)
    return coeffs, d_hat, delta_t


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
    coeffs, d_hat, delta_t = _pair_statistics(sa, sb, level, c_delta, rng, delta_t)
    t_obs, p_value = _statistic(coeffs, d_hat, delta_t)
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


def two_sample_p_values(
    sa: NetworkSummary,
    sb,
    level: float,
    c_delta: float,
    normals,
) -> tuple[np.ndarray, np.ndarray]:
    """`two_sample_test(sa, entry, ...).p_value` for every entry of `sb` at
    once, and where that holds.

    `sb` holds the entries as columns, the shape of a NetworkSummary whose
    fields are arrays: each SUMMARY_FIELDS as float64, n, motif_r and
    motif_s as integer arrays, and motif_name a str (a store's
    `hashdb.Entries`). `normals[k]` is the standard normal that entry k's
    smoothing draw scales (unused when c_delta is 0). The pair formulas run
    once over the columns. Returns (p-values, ok): where ok is False the
    test of that pair raises, or may (a level outside (0, 1), a motif
    mismatch, a size below 2, a c_delta below 0 or nan, a size with no
    double, an S^2, coefficient or statistic that is not finite, or a
    keyword side whose own arithmetic fails, which flags every pair), and
    its p-value is meaningless; the caller runs `two_sample_test` on it
    instead.
    """
    k = len(sb.n)
    flagged = (np.full(k, math.nan), np.zeros(k, dtype=bool))
    if not (0.0 < level < 1.0 and c_delta >= 0.0 and sa.n >= 2):
        return flagged
    sizes = _size_columns(sa.n, sb.n)
    try:
        with np.errstate(all="ignore"):
            s_sq = _studentizer_sq(sa, sb, sizes)
            coeffs = _expansion(sa, sb, s_sq, sizes)
            d_hat = scaled_discrepancy(sa, sb)
            delta_t = _smoothing_delta(sa.n, sizes[1], c_delta, normals)
            t_obs, p_values = _statistic(coeffs, d_hat, delta_t)
            total = coeffs.S + coeffs.I0 + coeffs.Q1 + coeffs.Q2 + t_obs + sum(sizes)
    except (ArithmeticError, ValueError):
        # the keyword's own terms (rho^-s, log m) failed: every pair goes
        # alone, so the first raises what its one-pair test raises
        return flagged
    ok = (np.isfinite(total) & (coeffs.S > 0.0) & (sizes[1] >= 2.0)
          & (sb.motif_name == sa.motif_name) & (sb.motif_r == sa.motif_r)
          & (sb.motif_s == sa.motif_s))
    return p_values, ok


def _summary_columns(summaries: list) -> SimpleNamespace:
    """The SUMMARY_FIELDS of the summaries, as float64 columns."""
    k, width = len(summaries), len(SUMMARY_FIELDS)
    table = np.fromiter(chain.from_iterable(map(operator.attrgetter(*SUMMARY_FIELDS), summaries)),
                        np.float64, k * width).reshape(k, width)
    return SimpleNamespace(**dict(zip(SUMMARY_FIELDS, np.ascontiguousarray(table.T))))


def combined_pairs(sas: list, sbs: list) -> tuple[np.ndarray, EdgeworthCoeffs, np.ndarray]:
    """The pairs (sas[k], sbs[k]) that `combine` accepts, with their
    coefficients and discrepancies, at once.

    The summaries share one motif, and each side one size; there is at
    least one pair. Returns (the k kept, their coefficients, their D) as
    arrays, each element with the bits of `combine(sa, sb)` and
    `scaled_discrepancy(sa, sb)`. The pair formulas run once over float64
    columns of both sides; a pair whose S^2 or coefficients are not finite
    there goes through `combine` alone, so it is dropped where `combine`
    raises DegenerateGraphError, and any other error propagates.
    """
    cols_a, cols_b = _summary_columns(sas), _summary_columns(sbs)
    cols_a.motif_s = sas[0].motif_s
    sizes = _pair_sizes(sas[0].n, sbs[0].n)
    with np.errstate(all="ignore"):
        s_sq = _studentizer_sq(cols_a, cols_b, sizes)
        coeffs = _expansion(cols_a, cols_b, s_sq, sizes)
        d_hat = scaled_discrepancy(cols_a, cols_b)
    columns = (coeffs.S, coeffs.I0, coeffs.Q1, coeffs.Q2)
    ok = (s_sq > 0.0) & np.isfinite(s_sq)
    for column in columns:
        ok &= np.isfinite(column)
    for k in np.flatnonzero(~ok).tolist():
        try:
            alone = combine(sas[k], sbs[k])
        except DegenerateGraphError:
            continue
        for column, value in zip(columns, (alone.S, alone.I0, alone.Q1, alone.Q2)):
            column[k] = value
        ok[k] = True
    kept = np.flatnonzero(ok)
    S, I0, Q1, Q2 = (column[kept] for column in columns)
    return kept, EdgeworthCoeffs(coeffs.m, coeffs.n, S, I0, Q1, Q2, coeffs.s_exp), d_hat[kept]


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
    coeffs, d_hat, delta_t = _pair_statistics(sa, sb, level, c_delta, rng, delta_t)
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
