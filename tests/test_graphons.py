import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import netmoment as nm
from netmoment.motif import TRIANGLE, VSHAPE, EDGE
from netmoment.rng import spawn_rng
from netmoment.sim import (
    BUILTIN_GRAPHON_NAMES,
    builtin_graphon,
    population_scaled_moment,
    population_scaled_moment_exact,
    sample_network,
)
from netmoment.sim.graphons import normalization_integral
from netmoment.sim.oracle import _containment_terms

from oracles import frozen_population_moment_exact, frozen_sample_network

PAPER_TAUS = {
    "SmoothGraphon-1": 1.0,
    "SmoothGraphon-2": 1.71,
    "SmoothGraphon-3": 1.61,
    "SmoothGraphon-4": 1.38,
    "SmoothGraphon-5": 1.16,
    "SmoothGraphon-6": 4.57,
    "BlockModel-1": 3.33,
    "BlockModel-2": 5.71,
    "BlockModel-3": 2.35,
    "BlockModel-4": 2.81,
    "BlockModel-5": 2.14,
}


def test_builtin_names():
    assert len(BUILTIN_GRAPHON_NAMES) == 11
    assert "BlockModel-1" in BUILTIN_GRAPHON_NAMES
    with pytest.raises(ValueError):
        builtin_graphon("nope")
    assert builtin_graphon("blockmodel-1") is builtin_graphon("BlockModel-1")


@pytest.mark.parametrize("name", PAPER_TAUS)
def test_normalization_within_1e6(name):
    g = builtin_graphon(name)
    assert abs(normalization_integral(g) - 1.0) <= 1e-6


@pytest.mark.parametrize("name,rounded", sorted(PAPER_TAUS.items()))
def test_tau_matches_rounded_literature_values(name, rounded):
    tau = builtin_graphon(name).tau
    assert tau == pytest.approx(rounded, abs=0.005)


def test_exact_taus():
    assert builtin_graphon("SmoothGraphon-2").tau == pytest.approx(12 / 7, abs=0)
    assert builtin_graphon("BlockModel-1").tau == pytest.approx(10 / 3, abs=1e-15)
    assert builtin_graphon("BlockModel-4").tau == pytest.approx(45 / 16, abs=1e-15)


def test_blockmodel1_edge_probability():
    # within-block-1 probability at rho = 0.4: 0.6 * (10/3) * 0.4 = 0.8
    g = builtin_graphon("BlockModel-1")
    assert float(g.f(0.1, 0.2)) * 0.4 == pytest.approx(0.8, abs=1e-12)
    assert float(g.f(0.1, 0.9)) * 0.4 == pytest.approx(0.2 * (10 / 3) * 0.4, abs=1e-12)


def test_sample_network_basic():
    rng = spawn_rng(0, "samp")
    net = sample_network(builtin_graphon("SmoothGraphon-1"), 0.3, 50, rng)
    assert net.graph.m == 50
    assert net.latents.shape == (50,)
    assert np.all((net.latents >= 0) & (net.latents <= 1))
    assert net.clamp_count == 0  # rho * max f = 0.6 < 1
    with pytest.raises(ValueError):
        sample_network(builtin_graphon("SmoothGraphon-1"), 0.0, 50, rng)
    with pytest.raises(ValueError):
        sample_network(builtin_graphon("SmoothGraphon-1"), 0.5, 1, rng)


def test_sample_network_deterministic():
    a = sample_network(builtin_graphon("BlockModel-2"), 0.4, 40, spawn_rng(5, "d"))
    b = sample_network(builtin_graphon("BlockModel-2"), 0.4, 40, spawn_rng(5, "d"))
    assert np.array_equal(a.graph.adj, b.graph.adj)
    assert np.array_equal(a.latents, b.latents)


def test_sample_network_clamping_counted():
    # rho = 0.4 pushes SmoothGraphon-2 over 1 near (1,1)
    rng = spawn_rng(1, "clamp")
    total = sum(
        sample_network(builtin_graphon("SmoothGraphon-2"), 0.4, 60, rng).clamp_count
        for _ in range(20)
    )
    assert total > 0


class _FixedLatents:
    """Generator stub: first uniform call returns preset latents."""

    def __init__(self, latents, seed):
        self._latents = np.asarray(latents)
        self._first = True
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        if self._first:
            self._first = False
            assert size == len(self._latents)
            return self._latents.copy()
        return self._rng.random(size)


def test_sampler_edge_probability_unbiased():
    # fix the latent pair, flip the single edge 10^4 times, compare to rho*f
    g = builtin_graphon("SmoothGraphon-2")
    rho, x = 0.3, (0.25, 0.9)
    p_target = min(1.0, rho * float(g.f(x[0], x[1])))
    hits = 0
    draws = 10_000
    rng = _FixedLatents(x, seed=33)
    for _ in range(draws):
        rng._first = True
        net = sample_network(g, rho, 2, rng)
        hits += int(net.graph.adj[0, 1])
    se = math.sqrt(p_target * (1 - p_target) / draws)
    assert abs(hits / draws - p_target) <= 3 * se


def test_mc_density_matches_rho():
    # clamp-free graphon integrates to 1, so E[density] = rho
    rng = spawn_rng(2, "dens")
    dens = [
        nm.density(sample_network(builtin_graphon("SmoothGraphon-1"), 0.3, 40, rng).graph)
        for _ in range(200)
    ]
    dens = np.array(dens)
    se = dens.std(ddof=1) / math.sqrt(len(dens))
    assert abs(dens.mean() - 0.3) <= 3 * se + 1e-12


def test_population_moment_edge_is_one():
    est = population_scaled_moment(
        builtin_graphon("SmoothGraphon-3"), EDGE, 0.2,
        n_mc=50_000, rng=spawn_rng(3, "edge1"),
    )
    assert abs(est.value - 1.0) <= 3 * est.std_error + 1e-9


def test_population_moment_blockmodel_exact_value():
    # 8-term community sum for the triangle at clamp-free sparsity
    val = population_scaled_moment_exact(builtin_graphon("BlockModel-1"), TRIANGLE, 0.2)
    assert val == pytest.approx(40 / 27, abs=1e-12)


def test_population_moment_mc_agrees_with_exact():
    g = builtin_graphon("SmoothGraphon-2")
    exact = population_scaled_moment_exact(g, TRIANGLE, 0.25)
    est = population_scaled_moment(g, TRIANGLE, 0.25, n_mc=200_000,
                                   rng=spawn_rng(4, "agree"))
    assert abs(est.value - exact) <= 4 * est.std_error
    est_v = population_scaled_moment(g, VSHAPE, 0.25, n_mc=200_000,
                                     rng=spawn_rng(5, "agree-v"))
    exact_v = population_scaled_moment_exact(g, VSHAPE, 0.25)
    assert abs(est_v.value - exact_v) <= 4 * est_v.std_error


def test_population_moment_exact_quadrature_known_integral():
    # SmoothGraphon-2 triangle: (6/7)^3 * 3181/1080, checked symbolically
    val = population_scaled_moment_exact(builtin_graphon("SmoothGraphon-2"), TRIANGLE, 0.25)
    assert val == pytest.approx((6 / 7) ** 3 * 3181 / 1080, rel=1e-12)


def test_population_moment_requires_enough_samples():
    with pytest.raises(ValueError):
        population_scaled_moment(builtin_graphon("SmoothGraphon-1"), EDGE, 0.3,
                                 n_mc=100, rng=spawn_rng(0))


def test_population_moment_quadrature_warns_on_clamp():
    with pytest.warns(RuntimeWarning):
        population_scaled_moment_exact(builtin_graphon("SmoothGraphon-2"), TRIANGLE, 0.4)


@pytest.mark.parametrize("name", BUILTIN_GRAPHON_NAMES)
def test_sample_network_matches_frozen_sampler_bit_for_bit(name):
    graphon = builtin_graphon(name)
    for rho in (0.05, 0.25, 0.6, 1.0):
        for m in (2, 3, 5, 33, 100, 257):
            rng, frozen_rng = (spawn_rng(m, "frozen-sampler", name, str(rho)) for _ in range(2))
            got = sample_network(graphon, rho, m, rng)
            want = frozen_sample_network(graphon, rho, m, frozen_rng)
            assert np.array_equal(got.graph.adj, want.graph.adj), (rho, m)
            assert got.latents.tobytes() == want.latents.tobytes(), (rho, m)
            assert got.clamp_count == want.clamp_count, (rho, m)
            assert rng.random() == frozen_rng.random()  # the same draws were taken


@pytest.mark.parametrize("name,rho", [("SmoothGraphon-3", 0.02), ("BlockModel-3", 0.016)])
def test_sample_network_peak_memory(name, rho):
    # the graphon grid is the one m x m float64 transient: 8 bytes per node
    # pair, plus the boolean adjacency and the kept pairs' probabilities
    m = 1500
    graphon = builtin_graphon(name)
    tracemalloc.start()
    try:
        net = sample_network(graphon, rho, m, spawn_rng(3, "sampler-peak", name))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.graph.m == m
    assert peak < 20 * m * m, peak / (m * m)


@pytest.mark.parametrize("name", BUILTIN_GRAPHON_NAMES)
def test_population_moment_exact_matches_frozen_oracle_bit_for_bit(name):
    # rho = 0.4 clamps several smooth graphons: the quadrature warns, and
    # still integrates the clamped kernel
    graphon = builtin_graphon(name)
    for motif in (EDGE, VSHAPE, TRIANGLE):
        for rho in (0.05, 0.25, 0.4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = population_scaled_moment_exact(graphon, motif, rho)
                want = frozen_population_moment_exact(graphon, motif, rho)
            assert got.hex() == want.hex(), (motif.name, rho)


@pytest.mark.parametrize("motif", [
    EDGE, VSHAPE, TRIANGLE,
    nm.Motif("four-cycle", np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])),
    nm.Motif("five-path", np.eye(5, k=1, dtype=bool) | np.eye(5, k=-1, dtype=bool)),
], ids=lambda motif: motif.name)
def test_containment_terms_match_the_containment_indicator(motif):
    # every edge set of the r nodes, in pair-bit order, through contains_motif
    pairs = list(itertools.combinations(range(motif.r), 2))
    want = []
    for mask in range(1 << len(pairs)):
        flags = tuple(mask >> bit & 1 for bit in range(len(pairs)))
        sub = np.zeros((motif.r, motif.r), dtype=bool)
        for flag, (a, b) in zip(flags, pairs):
            sub[a, b] = sub[b, a] = bool(flag)
        if nm.contains_motif(sub, motif):
            want.append(flags)
    assert _containment_terms(motif) == want
