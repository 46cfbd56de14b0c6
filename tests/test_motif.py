import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment.edgeworth import SUMMARY_FIELDS
from netmoment.motif import moment_census, motif_by_name, motif_from_spec
from netmoment.rng import spawn_rng

from conftest import random_graph
from oracles import brute_moments, frozen_summary


def test_builtin_shapes():
    assert (nm.EDGE.r, nm.EDGE.s, nm.EDGE.cyclic) == (2, 1, False)
    assert (nm.VSHAPE.r, nm.VSHAPE.s, nm.VSHAPE.cyclic) == (3, 2, False)
    assert (nm.TRIANGLE.r, nm.TRIANGLE.s, nm.TRIANGLE.cyclic) == (3, 3, True)


def test_motif_by_name_aliases():
    assert motif_by_name("Triangle") is nm.TRIANGLE
    assert motif_by_name("2-star") is nm.VSHAPE
    with pytest.raises(ValueError):
        motif_by_name("pentagon")


def test_motif_pattern_validation():
    with pytest.raises(ValueError):  # disconnected
        nm.Motif("two-edges", np.array([
            [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=bool))
    with pytest.raises(ValueError):  # asymmetric
        nm.Motif("bad", np.array([[0, 1], [0, 0]], dtype=bool))
    with pytest.raises(ValueError):  # too large
        nm.Motif("big", ~np.eye(6, dtype=bool))


def test_contains_motif_examples():
    tri = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    assert nm.contains_motif(tri, nm.TRIANGLE) == 1
    assert nm.contains_motif(path, nm.TRIANGLE) == 0
    # containment semantics: a triangle contains a 2-star
    assert nm.contains_motif(tri, nm.VSHAPE) == 1
    with pytest.raises(ValueError):
        nm.contains_motif(tri, nm.EDGE)


def test_moment_examples(p3, k3, k13, c4):
    assert nm.moment_u(k3, nm.TRIANGLE) == 1.0
    assert nm.moment_u(p3, nm.VSHAPE) == 1.0
    assert nm.moment_u(k13, nm.VSHAPE) == 0.75
    assert nm.moment_u_bruteforce(p3, nm.TRIANGLE) == 0.0
    assert nm.moment_u_bruteforce(c4, nm.VSHAPE) == 1.0


def test_edge_moment_is_density():
    rng = spawn_rng(3, "edge-density")
    for _ in range(20):
        g = random_graph(int(rng.integers(3, 12)), float(rng.uniform(0.1, 0.9)), rng)
        assert nm.moment_u(g, nm.EDGE) == nm.density(g)


def test_node_moment_examples(k3, k13):
    node_avgs = moment_census(k3, nm.TRIANGLE).node_avgs
    for i in range(3):
        assert node_avgs[i] == 1.0
    node_avgs = moment_census(k13, nm.VSHAPE).node_avgs
    assert node_avgs[0] == 1.0
    assert node_avgs[1] == pytest.approx(2 / 3, abs=1e-15)


def test_pair_moment_examples(k3, p3, k13):
    assert moment_census(k3, nm.TRIANGLE, want_pairs=True).pair_avgs[0, 1] == 1.0
    assert moment_census(p3, nm.VSHAPE, want_pairs=True).pair_avgs[0, 2] == 1.0
    assert moment_census(k13, nm.VSHAPE, want_pairs=True).pair_avgs[1, 2] == 0.5


def test_moment_requires_enough_nodes(p3):
    with pytest.raises(ValueError):
        nm.moment_u(nm.Graph.from_edges(2, [(0, 1)]), nm.TRIANGLE)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(4, 12),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
)
def test_oracle_equivalence(m, p, seed, motif_name):
    g = random_graph(m, p, spawn_rng(seed, "oracle"))
    motif = motif_by_name(motif_name)
    assert nm.moment_u(g, motif) == pytest.approx(
        nm.moment_u_bruteforce(g, motif), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(4, 10),
    p=st.floats(0.1, 0.9),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
)
def test_averaging_identities(m, p, seed, motif_name):
    g = random_graph(m, p, spawn_rng(seed, "avg"))
    motif = motif_by_name(motif_name)
    census = moment_census(g, motif, want_pairs=True)
    u = nm.moment_u(g, motif)
    assert np.mean(census.node_avgs) == pytest.approx(u, abs=1e-10)
    iu, ju = np.triu_indices(m, 1)
    assert np.mean(census.pair_avgs[iu, ju]) == pytest.approx(u, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(4, 10),
    p=st.floats(0.1, 0.9),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
)
def test_pair_avgs_match_oracle(m, p, seed, motif_name):
    g = random_graph(m, p, spawn_rng(seed, "pair-oracle"))
    census = moment_census(g, motif_by_name(motif_name), want_pairs=True)
    _, _, pair_avgs = brute_moments(g, motif_name)
    for (i, j), want in pair_avgs.items():
        assert census.pair_avgs[i, j] == pytest.approx(want, abs=1e-12)
        assert census.pair_avgs[j, i] == census.pair_avgs[i, j]
    assert not np.any(np.diagonal(census.pair_avgs))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(4, 40),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
)
def test_summarize_matches_frozen_dense_summary_bit_for_bit(m, p, seed, motif_name):
    g = random_graph(m, p, spawn_rng(seed, "frozen-summary"))
    assume(0 < g.edge_count < m * (m - 1) // 2)
    got = nm.summarize(g, motif_by_name(motif_name))
    want = frozen_summary(g, motif_name)
    assert {f: float(getattr(got, f)).hex() for f in SUMMARY_FIELDS} == {
        f: float(want[f]).hex() for f in SUMMARY_FIELDS}


@settings(max_examples=30, deadline=None)
@given(m=st.integers(4, 10), p=st.floats(0.1, 0.9), seed=st.integers(0, 10_000))
def test_permutation_invariance(m, p, seed):
    rng = spawn_rng(seed, "perm-mom")
    g = random_graph(m, p, rng)
    pi = rng.permutation(m)
    for motif in (nm.EDGE, nm.VSHAPE, nm.TRIANGLE):
        assert nm.moment_u(nm.permute(g, pi), motif) == nm.moment_u(g, motif)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(4, 9), p=st.floats(0.05, 0.7), seed=st.integers(0, 10_000))
def test_monotone_under_edge_addition(m, p, seed):
    rng = spawn_rng(seed, "mono")
    g = random_graph(m, p, rng)
    missing = [(i, j) for i, j in zip(*np.triu_indices(m, 1)) if not g.adj[i, j]]
    if not missing:
        return
    i, j = missing[int(rng.integers(len(missing)))]
    adj = g.adj.copy()
    adj[i, j] = adj[j, i] = True
    g_plus = nm.Graph(adj)
    for motif in (nm.EDGE, nm.VSHAPE, nm.TRIANGLE):
        assert nm.moment_u(g_plus, motif) >= nm.moment_u(g, motif)


def test_bruteforce_guard_large():
    g = random_graph(300, 0.05, spawn_rng(0, "guard2"))
    with pytest.raises(ValueError):
        nm.moment_u_bruteforce(g, nm.TRIANGLE)  # C(300,3) = 4.46e6 > cap


def test_custom_motif_generic_path():
    # 4-cycle motif via the generic subset path, checked against brute force
    pat = np.zeros((4, 4), dtype=bool)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        pat[a, b] = pat[b, a] = True
    c4_motif = nm.Motif("four-cycle", pat)
    assert c4_motif.cyclic and c4_motif.s == 4
    g = random_graph(8, 0.5, spawn_rng(9, "c4"))
    assert nm.moment_u(g, c4_motif) == pytest.approx(
        nm.moment_u_bruteforce(g, c4_motif), abs=1e-12
    )
    vec = moment_census(g, c4_motif).node_avgs
    assert np.mean(vec) == pytest.approx(nm.moment_u(g, c4_motif), abs=1e-10)


def test_closed_form_chosen_by_shape_not_name():
    # a 4-cycle that calls itself "triangle" must take the generic path
    pat = np.zeros((4, 4), dtype=bool)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        pat[a, b] = pat[b, a] = True
    fake = motif_from_spec({"name": "triangle", "pattern": pat.astype(int).tolist()})
    g = random_graph(6, 0.5, spawn_rng(3, "fake-triangle"))
    assert nm.moment_u(g, fake) == pytest.approx(nm.moment_u_bruteforce(g, fake), abs=1e-12)
    # a 3-node path under another name gets the vshape closed form, bit for bit
    cherry = motif_from_spec({"name": "cherry", "pattern": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]})
    g = random_graph(20, 0.3, spawn_rng(3, "cherry"))
    got = moment_census(g, cherry, want_pairs=True)
    want = moment_census(g, nm.VSHAPE, want_pairs=True)
    assert got.u_hat == want.u_hat
    assert np.array_equal(got.node_avgs, want.node_avgs)
    assert np.array_equal(got.pair_avgs, want.pair_avgs)
