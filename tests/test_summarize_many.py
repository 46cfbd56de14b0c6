"""Grouped summaries and replicate groups against the frozen oracles, bit for bit."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment import edgeworth
from netmoment import motif as nm_motif
from netmoment.edgeworth import SUMMARY_FIELDS, _group_size, norm_cdf, summarize_many
from netmoment.graph import GraphStack
from netmoment.motif import moment_census, motif_by_name, motif_from_spec
from netmoment.projections import g2_matrix, grho2_matrix
from netmoment.rng import spawn_rng
from netmoment.sim import BUILTIN_GRAPHON_NAMES, experiments
from netmoment.sim.experiments import CdfConfig, CoverageConfig, PairConfig

from conftest import random_graph
from oracles import frozen_cdf_chunk, frozen_coverage_chunk, frozen_summary


def field_hex(values):
    return {name: float(values[name]).hex() for name in SUMMARY_FIELDS}


def summary_hex(summary):
    return field_hex({name: getattr(summary, name) for name in SUMMARY_FIELDS})


def solo(g, motif):
    """What `summarize` gives for g: its summary, or the error it raises."""
    try:
        return nm.summarize(g, motif)
    except nm.DegenerateGraphError as exc:
        return exc


def assert_matches_oracle(graphs, motif):
    got, = summarize_many(graphs, [motif])
    assert len(got) == len(graphs)
    for g, out in zip(graphs, got):
        want = solo(g, motif)
        if isinstance(want, nm.DegenerateGraphError):
            assert isinstance(out, nm.DegenerateGraphError)
            assert str(out) == str(want)
        else:
            assert isinstance(out, nm.NetworkSummary)
            assert summary_hex(out) == field_hex(frozen_summary(g, motif.name))
            assert out == want


def mixed_group(m, kinds, seed):
    rng = spawn_rng(seed, "mixed-group", m)
    graphs = []
    for kind in kinds:
        if kind == "empty":
            graphs.append(nm.Graph(np.zeros((m, m), dtype=bool)))
        elif kind == "complete":
            graphs.append(nm.Graph(~np.eye(m, dtype=bool)))
        else:
            graphs.append(random_graph(m, float(rng.uniform(0.03, 0.95)), rng))
    return graphs


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(4, 60),
    kinds=st.lists(st.sampled_from(["random", "random", "random", "empty", "complete"]),
                   min_size=1, max_size=8),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
)
def test_grouped_summaries_match_frozen_summary_bit_for_bit(m, kinds, seed, motif_name):
    assert_matches_oracle(mixed_group(m, kinds, seed), motif_by_name(motif_name))


@pytest.mark.parametrize("m", [64, 80, 90])
def test_grouped_summaries_at_the_group_rule_sizes(m):
    kinds = ["random"] * (2 * _group_size(m) + 1) + ["empty"]  # 16, 10 and 8 a stack
    graphs = mixed_group(m, kinds, seed=m)
    for name in ("edge", "vshape", "triangle"):
        assert_matches_oracle(graphs, motif_by_name(name))


@pytest.mark.parametrize("m", [100, 128, 160, 256, 300])
def test_grouped_summaries_of_larger_graphs(m, monkeypatch):
    # the rule sends m > 90 one at a time, but the kernel takes a stack of
    # any size: fill one leaf per stack, so groups of 6, 4, 2 and 1 graphs;
    # m = 300 spans several leaves
    monkeypatch.setattr(edgeworth, "_group_size", lambda m: max(1, edgeworth._LEAF // (m * m)))
    kinds = ["random"] * (2 * edgeworth._group_size(m) + 1) + ["empty"]
    graphs = mixed_group(m, kinds, seed=m)
    for name in ("edge", "vshape", "triangle"):
        assert_matches_oracle(graphs, motif_by_name(name))


def test_group_size_rule():
    assert [_group_size(m) for m in (4, 20, 40, 80, 90, 91, 160, 2000)] == [
        4096, 163, 40, 10, 8, 1, 1, 1]
    assert summarize_many([], [nm.TRIANGLE]) == [[]]
    with pytest.raises(ValueError, match="one size"):
        summarize_many(mixed_group(30, ["random"], 1) + mixed_group(31, ["random"], 1),
                       [nm.TRIANGLE])


def test_grouped_custom_motif_matches_summarize():
    # a four-cycle takes the subset census, which a stack runs per member
    c4 = motif_from_spec({"name": "c4", "pattern": [[0, 1, 0, 1], [1, 0, 1, 0],
                                                    [0, 1, 0, 1], [1, 0, 1, 0]]})
    graphs = mixed_group(9, ["random"] * 5 + ["empty"], seed=4)
    for g, out in zip(graphs, summarize_many(graphs, [c4])[0]):
        want = solo(g, c4)
        assert type(out) is type(want) and str(out) == str(want)
        if isinstance(want, nm.NetworkSummary):
            assert summary_hex(out) == summary_hex(want)


def test_motifs_share_one_stack_pass(monkeypatch):
    graphs = mixed_group(40, ["random"] * 6, seed=12)
    motifs = [nm.EDGE, nm.TRIANGLE, nm.VSHAPE]
    passes = []
    init = nm_motif._TwoWalks.__init__

    def counted(self, g, sparse):
        passes.append(type(g).__name__)
        init(self, g, sparse)

    monkeypatch.setattr(nm_motif._TwoWalks, "__init__", counted)
    got = summarize_many(graphs, motifs)
    assert passes == ["GraphStack"]  # triangle and vshape read one batched product
    for motif, summaries in zip(motifs, got):
        assert [summary_hex(s) for s in summaries] == [
            field_hex(frozen_summary(g, motif.name)) for g in graphs]


def test_stack_rows_carry_a_batch_axis():
    graphs = mixed_group(30, ["random"] * 3, seed=5)
    stack = GraphStack(graphs)
    for motif in (nm.EDGE, nm.VSHAPE, nm.TRIANGLE):
        census = moment_census(stack, motif, want_pairs=True)
        ps = nm.project(stack, motif)
        for b, g in enumerate(graphs):
            one = moment_census(g, motif, want_pairs=True)
            assert census.u_hat[b] == one.u_hat
            assert np.array_equal(census.node_avgs[b], one.node_avgs)
            assert np.array_equal(census.pair_avgs[b], one.pair_avgs)
            ps_one = nm.project(g, motif)
            assert np.array_equal(ps.g1[b], ps_one.g1)
            assert ps.xi_cross[b] == ps_one.xi_cross
            assert np.array_equal(g2_matrix(stack, motif, ps, 3, 11)[b],
                                  g2_matrix(g, motif, ps_one, 3, 11))
            assert np.array_equal(grho2_matrix(stack, ps, 3, 11)[b],
                                  grho2_matrix(g, ps_one, 3, 11))
    with pytest.raises(ValueError):
        GraphStack(mixed_group(30, ["random"], 1) + mixed_group(31, ["random"], 1))


def test_overflowing_member_is_redone_alone(monkeypatch):
    # one member's first-order projection is scaled until its arithmetic
    # overflows: the stack raises, and each member is then summarized alone
    graphs = mixed_group(40, ["random"] * 5, seed=9)
    want = [nm.summarize(g, nm.TRIANGLE) for g in graphs]
    bad = graphs[2]
    real_project = edgeworth.project
    seen = []

    def poisoned(g, motif, _census=None):
        ps = real_project(g, motif, _census=_census)
        members = g.graphs if isinstance(g, GraphStack) else [g]
        seen.append(len(members))
        scale = np.array([1e200 if x is bad else 1.0 for x in members])
        return dataclasses.replace(ps, g1=ps.g1 * scale.reshape(ps.g1.shape[:-1] + (1,)))

    monkeypatch.setattr(edgeworth, "project", poisoned)
    with pytest.raises(nm.DegenerateGraphError) as alone:
        nm.summarize(bad, nm.TRIANGLE)
    seen.clear()
    got, = summarize_many(graphs, [nm.TRIANGLE])
    assert seen == [5, 1, 1, 1, 1, 1]  # the stack, then one graph at a time
    assert isinstance(got[2], nm.DegenerateGraphError)
    assert str(got[2]) == str(alone.value)
    assert "overflow" in str(got[2])
    for i in (0, 1, 3, 4):
        assert summary_hex(got[i]) == summary_hex(want[i])


@pytest.mark.parametrize("m, n, rho, reps", [
    (40, 40, 0.25, 96),
    (30, 50, 0.25, 60),
    (20, 20, 0.05, 200),  # most replicates are degenerate
    (160, 160, 0.25, 5),
])
def test_cdf_chunk_matches_frozen_chunk_byte_for_byte(m, n, rho, reps):
    cfg = CdfConfig(sizes=((m, n),), reps=1000, rho_a=rho, rho_b=rho, seed=17)
    grid = np.linspace(-2.0, 2.0, 41)
    cap_phi = np.array([norm_cdf(u) for u in grid])
    args = (cfg, m, n, 0.01, grid, cap_phi, 3, 3 + reps)
    got = experiments._cdf_chunk(*args)
    want = frozen_cdf_chunk(*args)
    assert pickle.dumps(got) == pickle.dumps(want)
    if rho == 0.05:
        assert 0 < got[2] < reps  # skipped, and some replicates used


@pytest.mark.parametrize("name", BUILTIN_GRAPHON_NAMES)
def test_replicate_groups_draw_what_each_replicate_draws(name):
    # the graphon grid of a group, (B, m, m), against one network's (m, m):
    # every shape here puts the cells at other offsets of numpy's vector loops
    for (m, n), rho in [((40, 40), 0.25), ((33, 17), 0.6), ((2, 3), 1.0)]:
        cfg = PairConfig(graphon_a=name, graphon_b="SmoothGraphon-6", rho_a=rho, rho_b=rho,
                         seed=31)
        for reps, stack_a, stack_b, clamps, normals in experiments._replicate_groups(
                cfg, "cov", m, n, 3, 53, 2):
            want_clamps = 0
            for k, rep in enumerate(reps):
                rng = spawn_rng(cfg.seed, "cov", m, n, rep)
                net_a, net_b = experiments._sample_pair(cfg, m, n, rng)
                assert np.array_equal(stack_a.adj[k], net_a.graph.adj), (m, n, rep)
                assert np.array_equal(stack_b.adj[k], net_b.graph.adj), (m, n, rep)
                assert normals[k].tobytes() == rng.standard_normal(2).tobytes()
                want_clamps += net_a.clamp_count + net_b.clamp_count
            assert clamps == want_clamps


def coverage_case(c_delta, methods=("edgeworth", "normal"), reps=120, n_boot=200):
    """Triangle and vshape at a sparsity where the triangle is degenerate in
    about one replicate of ten: the vshape then takes the replicate's first
    smoothing draw, not its second. A large c_delta makes coverage turn on
    the draws."""
    cfg = CoverageConfig(motifs=("triangle", "vshape"), sizes=((20, 20),), rho_a=0.1,
                         rho_b=0.1, reps=1000, seed=23, c_delta=c_delta, methods=methods,
                         n_boot=n_boot)
    d_true = {name: experiments._d_true(cfg, motif_by_name(name)) for name in cfg.motifs}
    return cfg, 20, 20, d_true, 5, 5 + reps


@pytest.mark.parametrize("c_delta", [0.0, 0.01, 20.0])
def test_coverage_chunk_matches_frozen_chunk_byte_for_byte(c_delta):
    args = coverage_case(c_delta)
    got = experiments._coverage_chunk(*args)
    assert pickle.dumps(got) == pickle.dumps(frozen_coverage_chunk(*args))
    used, skipped = got[2], got[3]
    assert skipped["vshape"] < skipped["triangle"] < used["triangle"]


def test_coverage_chunk_bootstrap_matches_frozen_chunk():
    # the one-replicate chunk adds numpy floats into a bootstrap method's
    # length, the grouped chunk Python floats of the same value
    args = coverage_case(20.0, methods=("edgeworth", "subsample"), reps=12, n_boot=40)
    got = experiments._coverage_chunk(*args)
    want = frozen_coverage_chunk(*args)
    assert got[0] == want[0] and got[2:] == want[2:]
    assert {k: float(v).hex() for k, v in got[1].items()} == {
        k: float(v).hex() for k, v in want[1].items()}


C4 = motif_from_spec({"name": "c4", "pattern": [[0, 1, 0, 1], [1, 0, 1, 0],
                                                [0, 1, 0, 1], [1, 0, 1, 0]]})


def reference_hex(g, motif):
    """The frozen oracle's bits for a built-in motif, `summarize`'s for c4,
    or the message of the error `summarize` raises."""
    if motif.name in ("edge", "vshape", "triangle") and 0 < g.edge_count < g.m * (g.m - 1) // 2:
        return field_hex(frozen_summary(g, motif.name))
    want = solo(g, motif)
    return str(want) if isinstance(want, Exception) else summary_hex(want)


def result_hex(result):
    return str(result) if isinstance(result, Exception) else summary_hex(result)


@pytest.mark.parametrize("m, rho", [(100, 0.25), (256, 0.25), (256, 0.02), (300, 0.25),
                                    (700, 0.25), (1200, 0.25), (700, 0.02)])
def test_one_leaf_walk_for_every_motif_matches_frozen_summary(m, rho):
    # the dense graphs read one, two and six blocks of the half product's
    # store; the sparse one builds each leaf's CSR rows once for all motifs
    g = random_graph(m, rho, spawn_rng(m, "multi-motif", str(rho)))
    motifs = [nm.VSHAPE, nm.EDGE, nm.TRIANGLE]
    results = edgeworth._summaries(g, motifs, ["g"])
    for motif, result in zip(motifs, results):
        assert result[0].network_id == "g"
        assert summary_hex(result[0]) == field_hex(frozen_summary(g, motif.name)), motif.name
    assert nm_motif._two_walks(g)._sparse == (rho < 0.1)


@pytest.mark.parametrize("leaf", [128, 1 << 16])
@pytest.mark.parametrize("m", [4, 9, 12])
def test_one_call_with_a_custom_motif_matches_each_motif_alone(m, leaf, monkeypatch):
    # c4 takes the subset census; leaves of 128 cells split these graphs
    # as 2^16 splits large ones
    monkeypatch.setattr(edgeworth, "_LEAF", leaf)
    for seed in range(3):
        g = random_graph(m, 0.5, spawn_rng(seed, "multi-custom", m))
        for motifs in ([C4, nm.EDGE, nm.VSHAPE, nm.TRIANGLE], [nm.TRIANGLE, C4, nm.EDGE]):
            results = edgeworth._summaries(g, motifs, [""])
            for motif, result in zip(motifs, results):
                got = result if isinstance(result, Exception) else result[0]
                assert result_hex(got) == reference_hex(g, motif), (seed, motif.name)


def test_stacks_take_every_motif_in_one_call(monkeypatch):
    # stacks of mixed members (empty and complete ones go alone) and a
    # custom motif beside the closed forms
    graphs = mixed_group(9, ["random"] * 5 + ["empty", "random", "complete"], seed=7)
    motifs = [nm.TRIANGLE, C4, nm.EDGE, nm.VSHAPE]
    calls = []
    kernel = edgeworth._summaries

    def counted(g, motifs, network_ids):
        calls.append((type(g).__name__, [mo.name for mo in motifs]))
        return kernel(g, motifs, network_ids)

    monkeypatch.setattr(edgeworth, "_summaries", counted)
    got = summarize_many(graphs, motifs)
    assert calls[0] == ("GraphStack", ["triangle", "c4", "edge", "vshape"])
    assert calls[1:] == [("Graph", ["triangle", "c4", "edge", "vshape"])] * 2
    for motif, results in zip(motifs, got):
        assert [result_hex(r) for r in results] == [reference_hex(g, motif) for g in graphs]
