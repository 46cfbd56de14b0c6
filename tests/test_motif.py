import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment import edgeworth
from netmoment import motif as nm_motif
from netmoment.edgeworth import SUMMARY_FIELDS
from netmoment.graph import GraphStack
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


def field_hex(values):
    return {f: float(values[f]).hex() for f in SUMMARY_FIELDS}


def summary_hex(summary):
    return field_hex({f: getattr(summary, f) for f in SUMMARY_FIELDS})


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(4, 40),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 10_000),
    motif_name=st.sampled_from(["edge", "vshape", "triangle"]),
    leaf=st.sampled_from([128, 256]),
)
def test_summarize_leaf_by_leaf_matches_frozen_summary_bit_for_bit(m, p, seed, motif_name,
                                                                   leaf):
    # leaves of 128 or 256 pairs split these graphs as 2^16 splits large ones
    g = random_graph(m, p, spawn_rng(seed, "frozen-leaves"))
    assume(0 < g.edge_count < m * (m - 1) // 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edgeworth, "_LEAF", leaf)
        got = nm.summarize(g, motif_by_name(motif_name))
    assert summary_hex(got) == field_hex(frozen_summary(g, motif_name))


@pytest.mark.parametrize("rho", [0.02, 0.25])
@pytest.mark.parametrize("m", [100, 256, 300, 700, 1200])
def test_streamed_summary_matches_frozen_summary_bit_for_bit(m, rho):
    g = random_graph(m, rho, spawn_rng(m, "streamed-summary", str(rho)))
    for name in ("edge", "vshape", "triangle"):
        got = nm.summarize(g, motif_by_name(name))
        assert summary_hex(got) == field_hex(frozen_summary(g, name)), name
    # the sparse graphs take the CSR product, the dense ones float32 BLAS
    assert nm_motif._two_walks(g)._sparse == (rho < 0.1)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("m", [2, 3, 50, 300])
def test_two_walk_rows_are_exact(m, sparse, monkeypatch):
    rng = spawn_rng(m, "two-walks")
    adj = random_graph(m, 0.3, rng).adj.copy()
    lone = rng.random(m) < 0.2  # isolated nodes have empty CSR rows
    adj[lone] = False
    adj[:, lone] = False
    g = nm.Graph(adj)
    want = adj.astype(np.int64) @ adj
    ranges = [(0, m), (m - 1, m)] + [
        tuple(sorted(rng.choice(m + 1, size=2, replace=False))) for _ in range(5)]
    one_block = nm_motif._TwoWalks(g, sparse)
    # one row per block: no one-block CSR store, a half product of m blocks
    monkeypatch.setattr(nm_motif, "_BLOCK", 1)
    monkeypatch.setattr(nm_motif, "_HALF_BLOCK", 1)
    for walks in (one_block, nm_motif._TwoWalks(g, sparse)):
        assert np.array_equal(walks.tri_per_node * 2, (want * adj).sum(axis=1))
        assert np.array_equal(walks.cherry_ends, adj @ (g.degrees - 1))
        for lo, hi in ranges:
            rows = walks.counts(lo, hi)
            assert rows.dtype == (np.float64 if sparse else np.float32)
            assert np.array_equal(rows, want[lo:hi])


@pytest.mark.parametrize("half_block", [None, 1 << 12])
@pytest.mark.parametrize("m", [700, 701])
def test_half_product_store_holds_exact_counts(m, half_block, monkeypatch):
    # 2 blocks (374 and 373 rows at m = 700 and 701), or 140 of 5 rows; the
    # store is read as the summaries' leaf walk reads it
    if half_block is not None:
        monkeypatch.setattr(nm_motif, "_HALF_BLOCK", half_block)
    rng = spawn_rng(m, "half-product")
    adj = random_graph(m, 0.3, rng).adj.copy()
    lone = rng.random(m) < 0.1  # isolated nodes give empty rows and columns
    adj[lone] = False
    adj[:, lone] = False
    g = nm.Graph(adj)
    want = adj.astype(np.int64) @ adj
    walks = nm_motif._TwoWalks(g, sparse=False)
    assert nm_motif._HALF_BLOCK // m < m  # more than one block
    assert np.array_equal(walks.tri_per_node * 2, (want * adj).sum(axis=1))
    assert np.array_equal(walks.cherry_ends, adj @ (g.degrees - 1))
    leaves = []
    edgeworth._pairwise_sum(0, m * m, lambda a, b: leaves.append((a // m, -(-b // m))) or 0.0)
    assert len(leaves) > 4 and leaves[-1][1] == m
    for lo, hi in leaves:
        counts = walks.counts(lo, hi)
        assert counts.dtype == np.float32
        assert np.array_equal(counts, want[lo:hi])


def holds_a_pass(obj) -> bool:
    """Whether any attribute of a Graph or GraphStack holds a node pass."""
    return any(isinstance(x, nm_motif._TwoWalks) for x in gc.get_referents(obj))


@pytest.mark.parametrize("b", [1, 3, 40])
@pytest.mark.parametrize("m", [4, 20, 90])
def test_stacked_node_pass_matches_each_members_own(m, b, monkeypatch):
    rng = spawn_rng(m, "stacked-walks", b)
    # every other member is sparse enough to take the CSR rows alone
    graphs = [random_graph(m, 0.02 if k % 2 else rng.uniform(0.2, 0.8), rng)
              for k in range(b)]
    csr_alone = [int(g.degrees @ g.degrees) * nm_motif._SPARSE_RATIO < m ** 3 for g in graphs]
    assert any(csr_alone) == (b > 1) and not all(csr_alone)
    ranges = [(0, m), (m - 1, m)] + [
        tuple(sorted(rng.choice(m + 1, size=2, replace=False))) for _ in range(3)]
    stack = GraphStack(graphs)
    one_block = nm_motif._two_walks(stack)
    # one row per block of the members' CSR rows and of the half products
    monkeypatch.setattr(nm_motif, "_BLOCK", 1)
    monkeypatch.setattr(nm_motif, "_HALF_BLOCK", 1)
    blocked = nm_motif._TwoWalks(stack, sparse=False)
    for k, g in enumerate(graphs):
        for own in (nm_motif._TwoWalks(g, sparse=True), nm_motif._TwoWalks(g, sparse=False)):
            for walks in (one_block, blocked):
                assert np.array_equal(walks.tri_per_node[k], own.tri_per_node)
                assert np.array_equal(walks.cherry_ends[k], own.cherry_ends)
                for lo, hi in ranges:
                    rows = walks.counts(lo, hi)
                    assert rows.dtype == np.float32
                    assert np.array_equal(rows[k], own.counts(lo, hi))
        assert not holds_a_pass(g)  # the stack's pass is its own
    assert not holds_a_pass(stack)


def captured_passes(monkeypatch) -> list:
    """(weakref, sparse) of every `_TwoWalks` built from here on."""
    passes = []
    init = nm_motif._TwoWalks.__init__

    def captured(self, g, sparse):
        passes.append((weakref.ref(self), sparse))
        init(self, g, sparse)

    monkeypatch.setattr(nm_motif._TwoWalks, "__init__", captured)
    return passes


def counted_half_products(monkeypatch) -> list:
    """The shapes of the adjacencies `_TwoWalks._half_product` builds for."""
    builds = []
    half_product = nm_motif._TwoWalks._half_product

    def counted(self):
        builds.append(self._adj.shape)
        return half_product(self)

    monkeypatch.setattr(nm_motif._TwoWalks, "_half_product", counted)
    return builds


@pytest.mark.parametrize("rho", [0.03, 0.25])
@pytest.mark.parametrize("m", [60, 256])
def test_node_pass_is_freed_after_a_call(m, rho, monkeypatch):
    # graphs of one leaf: the leaf reads the store the node pass left, a
    # dense graph's half product or a CSR graph's one block, so the product
    # is built once
    builds = counted_half_products(monkeypatch)
    passes = captured_passes(monkeypatch)
    g = random_graph(m, rho, spawn_rng(m, "node-pass-holds", str(rho)))
    record = nm.hash_network(g, [nm.TRIANGLE, nm.VSHAPE], "x")
    assert sorted(record.summaries) == ["triangle", "vshape"]
    (walks, sparse), = passes
    assert sparse == (rho < 0.1)
    assert builds == ([] if sparse else [(m, m)])
    assert walks() is None and not holds_a_pass(g)


def test_stack_pass_is_freed_after_a_call(monkeypatch):
    builds = counted_half_products(monkeypatch)
    passes = captured_passes(monkeypatch)
    stack = GraphStack([random_graph(40, 0.25, spawn_rng(k, "node-pass-holds"))
                        for k in range(edgeworth._group_size(40))])
    got = edgeworth.summarize_many(stack, [nm.TRIANGLE, nm.VSHAPE])
    assert not any(isinstance(s, Exception) for summaries in got for s in summaries)
    assert builds == [stack.adj.shape]  # one batched product for both motifs
    (walks, sparse), = passes
    assert not sparse and walks() is None
    assert not holds_a_pass(stack)


def test_a_failed_motif_frees_its_pass(monkeypatch):
    # the returned error holds no frame of the kernel, so the pass goes with
    # the call, with no cyclic collection
    passes = captured_passes(monkeypatch)
    g = nm.Graph(~np.eye(40, dtype=bool))
    enabled = gc.isenabled()
    gc.disable()
    try:
        (got,), = edgeworth.summarize_many([g], [nm.TRIANGLE])
        (walks, _), = passes
        assert walks() is None
    finally:
        if enabled:
            gc.enable()
    assert isinstance(got, nm.DegenerateGraphError)
    assert str(got) == "degenerate sparsity: complete graph (rho_hat = 1)"


@pytest.mark.parametrize("rho", [0.03, 0.25])
def test_a_public_census_frees_its_own_pass(rho, monkeypatch):
    passes = captured_passes(monkeypatch)
    g = random_graph(200, rho, spawn_rng(200, "public-census", str(rho)))
    assert 0.0 < nm.moment_u(g, nm.TRIANGLE) < 1.0
    (walks, sparse), = passes
    assert sparse == (rho < 0.1)
    assert walks() is None and not holds_a_pass(g)


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


def connected_shapes(r):
    """One pattern per connected graph on r nodes, up to isomorphism."""
    pairs = list(itertools.combinations(range(r), 2))
    relabel = [[pairs.index(tuple(sorted((p[a], p[b])))) for a, b in pairs]
               for p in itertools.permutations(range(r))]
    seen, shapes = set(), []
    for bits in range(1, 1 << len(pairs)):
        canon = min(sum(1 << k2 for k, k2 in enumerate(to) if bits >> k & 1) for to in relabel)
        if canon in seen:
            continue
        seen.add(canon)
        pattern = np.zeros((r, r), dtype=bool)
        for k, (a, b) in enumerate(pairs):
            pattern[a, b] = pattern[b, a] = bool(bits >> k & 1)
        try:
            shapes.append(nm.Motif(f"shape-{r}-{bits}", pattern))
        except ValueError:  # not connected
            continue
    return shapes


def loop_census(adj, motif):
    """(total, per node, per pair) of the r-subsets that contain the motif,
    one `contains_motif` call per subset."""
    m = adj.shape[0]
    total, nodes, pairs = 0.0, np.zeros(m), np.zeros((m, m))
    for combo in itertools.combinations(range(m), motif.r):
        if nm.contains_motif(adj[np.ix_(combo, combo)], motif):
            total += 1.0
            nodes[list(combo)] += 1.0
            for i, j in itertools.combinations(combo, 2):
                pairs[i, j] += 1.0
                pairs[j, i] += 1.0
    return total, nodes, pairs


SHAPES = [motif for r in range(2, 6) for motif in connected_shapes(r)]


def test_connected_shapes_are_every_one():
    assert [sum(motif.r == r for motif in SHAPES) for r in range(2, 6)] == [1, 2, 6, 21]


@pytest.mark.parametrize("motif", SHAPES, ids=lambda motif: motif.name)
def test_array_census_matches_contains_motif(motif, monkeypatch):
    rng = spawn_rng(motif.r, "array-census", motif.name)
    graphs = [random_graph(m, p, rng) for m, p in ((motif.r, 0.8), (7, 0.3), (7, 0.7))]
    for g in graphs:
        total, nodes, pairs = nm_motif._subset_census(g, motif)
        want = loop_census(g.adj, motif)
        assert type(total) is float and total == want[0]
        assert nodes.dtype == pairs.dtype == np.float64
        assert np.array_equal(nodes, want[1]) and np.array_equal(pairs, want[2])
    stack = [random_graph(6, p, rng) for p in (0.2, 0.5, 0.9)]
    monkeypatch.setattr(nm_motif, "_SUBSETS", 7)  # several blocks, one a part block
    total, nodes, pairs = nm_motif._subset_census(GraphStack(stack), motif)
    for k, g in enumerate(stack):
        want = loop_census(g.adj, motif)
        assert total[k] == want[0]
        assert np.array_equal(nodes[k], want[1]) and np.array_equal(pairs[k], want[2])
