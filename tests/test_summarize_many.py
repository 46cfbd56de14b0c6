"""Grouped summaries: `summarize_many` against the frozen oracles, bit for bit."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment import edgeworth
from netmoment.edgeworth import SUMMARY_FIELDS, _group_size, norm_cdf, summarize_many
from netmoment.graph import GraphStack
from netmoment.motif import moment_census, motif_by_name, motif_from_spec
from netmoment.projections import g2_matrix, grho2_matrix
from netmoment.rng import spawn_rng
from netmoment.sim import experiments
from netmoment.sim.experiments import CdfConfig

from conftest import random_graph
from oracles import frozen_cdf_chunk, frozen_summary


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
    got = summarize_many(graphs, motif)
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
    assert summarize_many([], nm.TRIANGLE) == []
    with pytest.raises(ValueError, match="one size"):
        summarize_many(mixed_group(30, ["random"], 1) + mixed_group(31, ["random"], 1),
                       nm.TRIANGLE)


def test_grouped_custom_motif_matches_summarize():
    # a four-cycle takes the subset census, which a stack runs per member
    c4 = motif_from_spec({"name": "c4", "pattern": [[0, 1, 0, 1], [1, 0, 1, 0],
                                                    [0, 1, 0, 1], [1, 0, 1, 0]]})
    graphs = mixed_group(9, ["random"] * 5 + ["empty"], seed=4)
    for g, out in zip(graphs, summarize_many(graphs, c4)):
        want = solo(g, c4)
        assert type(out) is type(want) and str(out) == str(want)
        if isinstance(want, nm.NetworkSummary):
            assert summary_hex(out) == summary_hex(want)


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
    got = summarize_many(graphs, nm.TRIANGLE)
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
