import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment.motif import motif_by_name
from netmoment.projections import g2_matrix, grho2_matrix
from netmoment.rng import spawn_rng

from conftest import random_graph
from oracles import brute_moments


def test_project_k3_triangle(k3):
    ps = nm.project(k3, nm.TRIANGLE)
    assert np.array_equal(ps.g1, np.zeros(3))
    assert ps.xi_A1_sq == 0.0
    assert ps.u_hat == 1.0


def test_project_p3_density_side(p3):
    ps = nm.project(p3, nm.VSHAPE)
    assert ps.grho1 == pytest.approx([-1 / 6, 1 / 3, -1 / 6], abs=1e-15)
    assert ps.xi_rhoA1_sq == pytest.approx(1 / 18, abs=1e-15)


def test_project_k13_vshape(k13):
    ps = nm.project(k13, nm.VSHAPE)
    assert ps.g1 == pytest.approx([1 / 4, -1 / 12, -1 / 12, -1 / 12], abs=1e-15)


def test_project_empty_graph_fails(empty5):
    with pytest.raises(nm.DegenerateGraphError):
        nm.project(empty5, nm.EDGE)


def test_g2_examples(k3, p3, k13):
    assert g2_matrix(k3, nm.TRIANGLE, nm.project(k3, nm.TRIANGLE))[0, 1] == 0.0
    assert g2_matrix(p3, nm.VSHAPE, nm.project(p3, nm.VSHAPE))[0, 2] == pytest.approx(0.0, abs=1e-15)
    gm = g2_matrix(k13, nm.VSHAPE, nm.project(k13, nm.VSHAPE))
    assert gm[1, 2] == pytest.approx(-1 / 12, abs=1e-12)


def test_grho2_examples(p3):
    grm = grho2_matrix(p3, nm.project(p3, nm.EDGE))
    assert grm[0, 1] == pytest.approx(1 / 6, abs=1e-15)
    assert grm[0, 2] == pytest.approx(-1 / 3, abs=1e-15)
    assert grm[1, 0] == grm[0, 1]


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(4, 11),
    p=st.floats(0.15, 0.85),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
)
def test_zero_sums_and_symmetry(m, p, seed, motif_name):
    g = random_graph(m, p, spawn_rng(seed, "proj"))
    if nm.density(g) == 0.0:
        return
    motif = motif_by_name(motif_name)
    ps = nm.project(g, motif)
    assert abs(ps.g1.sum()) <= 1e-10 * m
    assert abs(ps.grho1.sum()) <= 1e-10 * m
    assert abs(ps.xi_cross) <= np.sqrt(ps.xi_A1_sq * ps.xi_rhoA1_sq) + 1e-12
    gm = g2_matrix(g, motif, ps)
    grm = grho2_matrix(g, ps)
    assert np.array_equal(gm, gm.T)
    assert np.array_equal(grm, grm.T)
    iu, ju = np.triu_indices(m, 1)
    assert abs(gm[iu, ju].sum()) <= 1e-8 * m * m


def test_pair_projection_matches_scalar_api(k13):
    # each entry against the per-pair definition, from brute-force moments
    u, node_avgs, pair_avgs = brute_moments(k13, "vshape")
    g1 = [a - u for a in node_avgs]
    rows = k13.adj.tolist()
    rho = sum(map(sum, rows)) / 12
    grho1 = [sum(row) / 3 - rho for row in rows]
    ps = nm.project(k13, nm.VSHAPE)
    gm = g2_matrix(k13, nm.VSHAPE, ps)
    grm = grho2_matrix(k13, ps)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            pm = pair_avgs[(min(i, j), max(i, j))]
            assert gm[i, j] == pytest.approx(pm - (g1[i] + g1[j]) - u, abs=1e-14)
            want = float(rows[i][j]) - (grho1[i] + grho1[j]) - rho
            assert grm[i, j] == pytest.approx(want, abs=1e-14)


def test_edge_motif_degeneracy_exact():
    rng = spawn_rng(21, "edge-deg")
    for _ in range(10):
        g = random_graph(int(rng.integers(4, 12)), float(rng.uniform(0.2, 0.8)), rng)
        if nm.density(g) == 0.0:
            continue
        ps = nm.project(g, nm.EDGE)
        assert np.array_equal(ps.g1, ps.grho1)


def test_permutation_equivariance():
    rng = spawn_rng(8, "equiv")
    g = random_graph(9, 0.5, rng)
    pi = rng.permutation(9)
    ps = nm.project(g, nm.TRIANGLE)
    psp = nm.project(nm.permute(g, pi), nm.TRIANGLE)
    assert psp.g1[pi] == pytest.approx(ps.g1, abs=1e-14)
    assert psp.grho1[pi] == pytest.approx(ps.grho1, abs=1e-14)


def test_project_agrees_with_bruteforce_moments():
    rng = spawn_rng(31, "proj-brute")
    for _ in range(8):
        g = random_graph(int(rng.integers(5, 10)), float(rng.uniform(0.3, 0.7)), rng)
        for name in ("vshape", "triangle"):
            u, node_avgs, _ = brute_moments(g, name)
            ps = nm.project(g, motif_by_name(name))
            assert ps.u_hat == pytest.approx(u, abs=1e-12)
            assert ps.g1 == pytest.approx(np.array(node_avgs) - u, abs=1e-12)
