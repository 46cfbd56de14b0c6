import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import netmoment as nm
from netmoment import graph
from netmoment.graph import EdgeListError
from netmoment.rng import spawn_rng

from conftest import random_graph
from oracles import frozen_load_edge_list


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_zero_based(tmp_path):
    g = nm.load_edge_list(write(tmp_path, "0 1\n1 2\n"))
    assert g.m == 3
    assert g.edge_count == 2
    assert g.adj[0, 1] and g.adj[1, 2] and not g.adj[0, 2]


def test_load_one_based_matches_zero_based(tmp_path):
    g0 = nm.load_edge_list(write(tmp_path, "0 1\n1 2\n", "a.txt"))
    g1 = nm.load_edge_list(write(tmp_path, "1 2\n2 3\n", "b.txt"), indexing="one-based")
    assert np.array_equal(g0.adj, g1.adj)


def test_load_dedup_and_self_loops(tmp_path):
    g = nm.load_edge_list(write(tmp_path, "0 1\n1 0\n0 0\n"))
    assert g.m == 2
    assert g.edge_count == 1
    assert g.load_report.self_loops_dropped == 1
    assert g.load_report.duplicates_merged == 1
    assert g.load_report.edges_kept == 1


def test_load_comments_blank_lines_and_header(tmp_path):
    g = nm.load_edge_list(write(tmp_path, "# a comment\n%nodes 5\n\n0 1 # trailing\n"))
    assert g.m == 5
    assert g.edge_count == 1


def test_load_header_conflict(tmp_path):
    with pytest.raises(EdgeListError):
        nm.load_edge_list(write(tmp_path, "%nodes 2\n0 5\n"))


@pytest.mark.parametrize(
    "content",
    ["0 1 0.5\n", "a b\n", "0 -2\n", "0 0\n", ""],
)
def test_load_rejects_bad_input(tmp_path, content):
    with pytest.raises(EdgeListError):
        nm.load_edge_list(write(tmp_path, content))


@pytest.mark.parametrize("content", ["0 1\n1 100000000\n", "%nodes 100000000\n0 1\n"])
def test_load_oversized_node_count(tmp_path, content):
    # 10**16 bytes exceed any 64-bit user address space, so allocation fails at once
    with pytest.raises(EdgeListError, match=r"m=1000000\d\d .*\d+ bytes"):
        nm.load_edge_list(write(tmp_path, content))


_ID = st.integers(0, 60)
_BLANK = st.sampled_from([" ", "\t", "\v", "\f", "  ", " \t"])
_EDGE = st.builds("{}{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), _ID, _BLANK, _ID,
                  st.sampled_from(["", " ", "\f"]))
_ODD_ID = _ID.map(str) | st.sampled_from(
    ["+5", "1_0", "007", "-3", "\u0663", "\ufeff4", "0" * 20 + "7"])
# plain pairs are weighted up so that about a third of the files load without error
_LINE_KINDS = [_EDGE] * 10 + [
    st.builds("{}{}{}".format, _ODD_ID, st.sampled_from([" ", "\xa0", "\x1c"]), _ODD_ID),
    st.builds("{} {} # trailing {}".format, _ID, _ID, _ID),
    st.sampled_from(["# comment 1 2", "#", "", "   ", "\t"]),
    st.sampled_from(["%nodes 61", "%NODES 45", "% nodes 61", "%nodes 30"]),
    st.sampled_from(["%nodes x", "%nodes", "%nodes 1", "%edges 3", "%"]),
    st.sampled_from(["5", "1 2 3", "0 1 0.5"]),
    _ID.map(lambda a: f"{a} {a}"),
]


@st.composite
def edge_list_text(draw):
    lines = draw(st.lists(st.one_of(*_LINE_KINDS), max_size=16))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _outcome(load, path, indexing):
    try:
        g = load(path, indexing=indexing)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.m, g.adj.tobytes(), g.load_report


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=edge_list_text())
def test_load_matches_frozen_line_by_line_loader(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    for indexing in ("zero-based", "one-based"):
        assert _outcome(nm.load_edge_list, path, indexing) == \
            _outcome(frozen_load_edge_list, path, indexing)


def test_crlf_list_loads_like_its_lf_twin(tmp_path):
    lf = tmp_path / "lf.txt"
    nm.save_edge_list(random_graph(1000, 0.05, spawn_rng(8, "crlf")), lf)
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert _outcome(nm.load_edge_list, crlf, "zero-based") == \
        _outcome(nm.load_edge_list, lf, "zero-based")
    # every line but the %nodes header is parsed as arrays
    assert graph._split_plain_lines(crlf.read_bytes())[4].tolist() == [0]


def test_load_missing_file(tmp_path):
    with pytest.raises(EdgeListError):
        nm.load_edge_list(tmp_path / "no-such-file.txt")


def test_load_idempotent_on_own_output(tmp_path):
    rng = spawn_rng(5, "idem")
    g = random_graph(9, 0.4, rng)
    path = tmp_path / "roundtrip.txt"
    nm.save_edge_list(g, path)
    g2 = nm.load_edge_list(path)
    assert np.array_equal(g.adj, g2.adj)
    nm.save_edge_list(g2, path)
    g3 = nm.load_edge_list(path)
    assert np.array_equal(g2.adj, g3.adj)


def test_density_examples(p3, k4, empty5):
    assert nm.density(p3) == pytest.approx(2 / 3, abs=0)
    assert nm.density(empty5) == 0.0
    assert nm.density(k4) == 1.0


def test_permute_identity_and_swap(p3, k4):
    same = nm.permute(p3, [0, 1, 2])
    assert np.array_equal(same.adj, p3.adj)
    swapped = nm.permute(p3, [2, 1, 0])
    assert np.array_equal(swapped.adj, p3.adj)  # P3 symmetric under 0<->2
    assert np.array_equal(nm.permute(k4, [3, 1, 0, 2]).adj, k4.adj)


def test_permute_rejects_non_bijection(p3):
    with pytest.raises(ValueError):
        nm.permute(p3, [0, 0, 1])
    with pytest.raises(ValueError):
        nm.permute(p3, [0, 1])


def test_density_permutation_invariant():
    rng = spawn_rng(11, "perm")
    for m, p in [(6, 0.3), (9, 0.6)]:
        g = random_graph(m, p, rng)
        for _ in range(100):
            pi = rng.permutation(m)
            assert nm.density(nm.permute(g, pi)) == nm.density(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        nm.Graph(np.zeros((1, 1), dtype=bool))
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True  # asymmetric
    with pytest.raises(ValueError):
        nm.Graph(bad)
    loops = np.eye(3, dtype=bool)
    with pytest.raises(ValueError):
        nm.Graph(loops)
    # ids outside 0..m-1 must not wrap around through negative indexing
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        nm.Graph.from_edges(3, [(-1, 0)])
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        nm.Graph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("cell", [(0, 1), (450, 3), (599, 598)])
def test_symmetry_check_covers_every_block(cell):
    # 109 rows per block at m = 600, so the cells fall in the first, a middle
    # and the last block; a self-loop is caught as well
    adj = random_graph(600, 0.1, spawn_rng(8, "blocks")).adj.copy()
    adj[cell] = not adj[cell]
    with pytest.raises(ValueError, match="not symmetric"):
        nm.Graph(adj)
    adj[cell] = not adj[cell]
    adj[cell[0], cell[0]] = True
    with pytest.raises(ValueError, match="diagonal"):
        nm.Graph(adj)


def test_graph_owns_a_copy_of_a_public_adjacency():
    adj = random_graph(20, 0.3, spawn_rng(2, "copy")).adj.copy()
    g = nm.Graph(adj)
    adj[0, 1] = adj[1, 0] = not adj[0, 1]
    assert g.adj[0, 1] != adj[0, 1]
    assert nm.Graph(adj.astype(np.int8)).adj.dtype == bool


def test_load_holds_one_adjacency(tmp_path):
    # m = 5000 and 75 k edges: the adjacency alone is 23.8 MiB, and the loader
    # used to hold a second copy of it while the graph was built
    m = 5000
    uv = spawn_rng(5, "load-peak").integers(0, m, size=(75_000, 2))
    path = tmp_path / "big.txt"
    path.write_text(f"%nodes {m}\n" + "".join(f"{u} {v}\n" for u, v in uv.tolist()))
    tracemalloc.start()
    try:
        g = nm.load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == m and not g.adj.flags.writeable
    assert peak < 32 * 2**20


def test_adjacency_frozen(p3):
    with pytest.raises(ValueError):
        p3.adj[0, 1] = False
