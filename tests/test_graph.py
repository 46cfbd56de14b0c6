import numpy as np
import pytest

import netmoment as nm
from netmoment.graph import EdgeListError
from netmoment.rng import spawn_rng

from conftest import random_graph


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


def test_adjacency_frozen(p3):
    with pytest.raises(ValueError):
        p3.adj[0, 1] = False
