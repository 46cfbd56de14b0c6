import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment.edgeworth import EdgeworthCoeffs, norm_cdf, norm_quantile
from netmoment.motif import motif_by_name
from netmoment.rng import spawn_rng

from conftest import random_graph
from oracles import brute_summary


def coeffs(i0=0.0, q1=0.0, q2=0.0, s_val=1.0, m=100, n=100):
    return EdgeworthCoeffs(m=m, n=n, S=s_val, I0=i0, Q1=q1, Q2=q2, s_exp=3)


# --- summarize -------------------------------------------------------------


def test_summarize_complete_graph_fails(k4):
    with pytest.raises(nm.DegenerateGraphError):
        nm.summarize(k4, nm.TRIANGLE)


def test_summarize_memory_is_linear_in_m():
    # m = 3000, mean degree about 30; one m x m float64 array would be 69 MiB
    m = 3000
    g = nm.Graph.from_edges(m, spawn_rng(3, "sparse-3000").integers(0, m, size=(45_000, 2)))
    tracemalloc.start()
    try:
        for motif in (nm.TRIANGLE, nm.VSHAPE):
            nm.summarize(g, motif)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_summarize_empty_fails(empty5):
    with pytest.raises(nm.DegenerateGraphError):
        nm.summarize(empty5, nm.EDGE)


def test_summarize_edge_motif_alpha_collapses(p3):
    # with the edge motif the scaled moment is identically 1, so the
    # first-order influence values cancel to zero and no test is possible
    s = nm.summarize(p3, nm.EDGE, "p3")
    assert s.xi_alpha1_sq <= 1e-30
    assert abs(s.alpha0_hat) <= 1e-12
    with pytest.raises(nm.DegenerateGraphError):
        nm.combine(s, s)


def test_summarize_matches_bruteforce_oracle():
    rng = spawn_rng(77, "sum-brute")
    checked = 0
    while checked < 25:
        g = random_graph(int(rng.integers(5, 11)), float(rng.uniform(0.3, 0.7)), rng)
        for name in ("vshape", "triangle"):
            try:
                fast = nm.summarize(g, motif_by_name(name), "x")
            except nm.DegenerateGraphError:
                continue
            slow = brute_summary(g, name)
            for key, val in slow.items():
                assert getattr(fast, key) == pytest.approx(val, rel=1e-9, abs=1e-9), (
                    name, key)
            checked += 1


def test_summarize_permutation_invariant():
    rng = spawn_rng(78, "sum-perm")
    g = random_graph(30, 0.3, rng)
    pi = rng.permutation(30)
    a = nm.summarize(g, nm.TRIANGLE, "a")
    b = nm.summarize(nm.permute(g, pi), nm.TRIANGLE, "a")
    for f in dataclasses.fields(nm.NetworkSummary):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, float):
            assert vb == pytest.approx(va, abs=1e-10 * max(1.0, abs(va))), f.name
        else:
            assert va == vb


def test_summarize_too_small():
    with pytest.raises(nm.DegenerateGraphError):
        nm.summarize(nm.Graph.from_edges(3, [(0, 1)]), nm.TRIANGLE)


# --- combine ---------------------------------------------------------------


def summary_pair(seed=7, m=60):
    rng = spawn_rng(seed, "pair")
    ga = random_graph(m, 0.3, rng)
    gb = random_graph(m, 0.35, rng)
    return nm.summarize(ga, nm.TRIANGLE, "a"), nm.summarize(gb, nm.TRIANGLE, "b")


def test_combine_s_arithmetic():
    sa, sb = summary_pair()
    sa = dataclasses.replace(sa, xi_alpha1_sq=0.5, n=100)
    sb = dataclasses.replace(sb, xi_alpha1_sq=0.2, n=50)
    c = nm.combine(sa, sb)
    assert c.S**2 == pytest.approx(0.009, abs=1e-15)
    assert c.S == pytest.approx(0.0948683, abs=1e-6)


def test_combine_symmetric_null_exact():
    sa, _ = summary_pair()
    c = nm.combine(sa, sa)
    assert c.I0 == 0.0 and c.Q1 == 0.0 and c.Q2 == 0.0


def test_combine_swap_antisymmetry():
    sa, sb = summary_pair()
    sb = dataclasses.replace(sb, n=80)
    ab, ba = nm.combine(sa, sb), nm.combine(sb, sa)
    assert ab.S == ba.S
    assert ab.I0 == pytest.approx(-ba.I0, abs=0)
    assert ab.Q1 == pytest.approx(-ba.Q1, abs=0)
    assert ab.Q2 == pytest.approx(-ba.Q2, rel=1e-12)
    assert (ab.m, ab.n) == (ba.n, ba.m)


def test_combine_scaling_with_node_count():
    sa, sb = summary_pair()
    c1 = nm.combine(dataclasses.replace(sa, n=60), dataclasses.replace(sb, n=60))
    c4 = nm.combine(dataclasses.replace(sa, n=240), dataclasses.replace(sb, n=240))
    for name in ("I0", "Q1", "Q2"):
        assert getattr(c4, name) == pytest.approx(0.5 * getattr(c1, name), rel=1e-12)


def test_combine_motif_mismatch():
    sa, _ = summary_pair()
    sb = dataclasses.replace(sa, motif_name="vshape", motif_s=2)
    with pytest.raises(ValueError):
        nm.combine(sa, sb)


def test_combine_degenerate_variance():
    sa, sb = summary_pair()
    with pytest.raises(nm.DegenerateGraphError):
        nm.combine(dataclasses.replace(sa, xi_alpha1_sq=0.0),
                   dataclasses.replace(sb, xi_alpha1_sq=0.0))


# --- cdf / quantiles --------------------------------------------------------


def test_cdf_anchors():
    assert nm.cdf(coeffs(), 0.0) == 0.5
    assert nm.cdf(coeffs(), 1.959964) == pytest.approx(0.975, abs=1e-6)
    assert nm.cdf(coeffs(i0=0.1), 0.0) == pytest.approx(0.4601058, abs=1e-7)


def test_cdf_zero_coefficient_reduction():
    grid = np.linspace(-8, 8, 1601)
    c = coeffs()
    assert max(abs(nm.cdf(c, u) - norm_cdf(u)) for u in grid) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    i0=st.floats(-0.5, 0.5),
    q1=st.floats(-0.5, 0.5),
    q2=st.floats(-0.5, 0.5),
    u=st.floats(-12, 12),
)
def test_cdf_bounds_and_tails(i0, q1, q2, u):
    c = coeffs(i0, q1, q2)
    val = nm.cdf(c, u)
    assert 0.0 <= val <= 1.0
    assert nm.cdf(c, -8.0) <= 1e-6
    assert nm.cdf(c, 8.0) >= 1.0 - 1e-6


def test_cornish_fisher_anchors():
    assert nm.cornish_fisher(coeffs(), 0.975) == pytest.approx(1.959964, abs=1e-6)
    assert nm.cornish_fisher(coeffs(i0=0.3, q1=-0.1, q2=0.9), 0.5) == pytest.approx(
        0.3 - 0.1 - 0.9, abs=1e-12
    )
    assert nm.cornish_fisher(coeffs(i0=0.1, q1=0.02, q2=0.01), 0.95) == pytest.approx(
        1.781909, abs=1e-5
    )
    with pytest.raises(ValueError):
        nm.cornish_fisher(coeffs(), 0.0)


def test_cornish_fisher_inverts_zero_coeff_cdf():
    c = coeffs()
    for alpha in np.arange(0.01, 0.995, 0.01):
        q = nm.cornish_fisher(c, float(alpha))
        assert nm.cdf(c, q) == pytest.approx(float(alpha), abs=1e-9)


def test_norm_quantile_accuracy():
    for alpha in (1e-8, 0.025, 0.5, 0.975, 1 - 1e-8):
        z = norm_quantile(alpha)
        assert norm_cdf(z) == pytest.approx(alpha, rel=1e-9, abs=1e-12)


def test_norm_quantile_is_scipy_ndtri():
    from scipy.special import ndtri

    levels = [*np.linspace(0.0005, 0.9995, 1999), 1e-300, 1e-12, 1 - 1e-12, 0.05, 0.95]
    for alpha in levels:
        assert norm_quantile(float(alpha)) == float(ndtri(alpha))


# --- smoothing noise / rate diagnostic ---------------------------------------


def test_smoothing_noise_disabled_is_exact_zero():
    rng = spawn_rng(0, "delta")
    assert nm.smoothing_noise(100, 100, 0.0, rng) == 0.0


def test_smoothing_noise_deterministic_and_scaled():
    a = nm.smoothing_noise(100, 100, 0.01, spawn_rng(5, "d"))
    b = nm.smoothing_noise(100, 100, 0.01, spawn_rng(5, "d"))
    assert a == b
    draws = np.array([
        nm.smoothing_noise(100, 100, 0.01, spawn_rng(i, "var")) for i in range(4000)
    ])
    target_var = 0.01 * (2 * math.log(100) / 100)
    assert target_var == pytest.approx(9.21034e-4, abs=1e-9)
    assert draws.var() == pytest.approx(target_var, rel=0.15)
    with pytest.raises(ValueError):
        nm.smoothing_noise(100, 100, -1.0, spawn_rng(0))


def test_rate_diagnostic_values_and_warning():
    val = nm.rate_diagnostic(100, 0.5, nm.EDGE)
    assert val == pytest.approx(0.14174, abs=1e-4)
    # cyclic formula, rho -> 1 limit: first term becomes sqrt(log m)/m
    lim = nm.rate_diagnostic(100, 0.999999, nm.TRIANGLE)
    expect = math.sqrt(math.log(100)) / 100 + math.log(100) ** 1.5 / 100
    assert lim == pytest.approx(expect, rel=1e-4)
    with pytest.warns(RuntimeWarning):
        nm.rate_diagnostic(5, 0.02, nm.TRIANGLE)
