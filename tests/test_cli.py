import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netmoment as nm
import netmoment.cli as cli
from netmoment.rng import spawn_rng

from conftest import random_graph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    nm.save_edge_list(g, path)
    return str(path)


@pytest.fixture
def two_files(tmp_path):
    rng = spawn_rng(17, "cli")
    g = random_graph(30, 0.4, rng)
    a = write_graph(tmp_path, "a.txt", g)
    b = write_graph(tmp_path, "b.txt", g)
    return a, b


def test_test_identical_files_p_one(capsys, two_files):
    a, b = two_files
    code, out, err = run_cli(
        capsys, "test", "--a", a, "--b", b, "--motif", "triangle",
        "--alpha", "0.05", "--c-delta", "0", "--seed", "4",
    )
    assert code == 0
    record = json.loads(out)
    assert record["p_value"] == 1.0
    assert record["reject"] is False
    assert record["seed"] == 4
    assert "seed: 4" in err


def test_hash_then_query_self_passes_screening(capsys, tmp_path, two_files):
    a, _ = two_files
    db = str(tmp_path / "db.ndjson")
    code, out, _ = run_cli(
        capsys, "hash", "--input", a, "--motifs", "triangle,vshape",
        "--id", "selfnet", "--out", db, "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["motifs"] == ["triangle", "vshape"]
    code, out, _ = run_cli(
        capsys, "query", "--keyword", a, "--db", db, "--motif", "triangle",
        "--alpha", "0.05", "--seed", "2", "--c-delta", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["hits"][0]["network_id"] == "selfnet"
    assert payload["hits"][0]["p_value"] == 1.0
    assert "selfnet" in payload["screened"]


def test_query_empty_db_not_found(capsys, tmp_path, two_files):
    a, _ = two_files
    db = tmp_path / "empty.ndjson"
    db.write_text("")
    code, out, _ = run_cli(
        capsys, "query", "--keyword", a, "--db", str(db), "--motif", "triangle",
        "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "not found"
    assert payload["hits"] == []


def test_query_bonferroni_combination(capsys, tmp_path, two_files):
    a, _ = two_files
    db = str(tmp_path / "db.ndjson")
    run_cli(capsys, "hash", "--input", a, "--motifs", "triangle,vshape",
            "--id", "x", "--out", db, "--seed", "1")
    code, out, _ = run_cli(
        capsys, "query", "--keyword", a, "--db", db, "--motif", "triangle,vshape",
        "--combine", "bonferroni", "--seed", "2", "--c-delta", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hits"][0]["motif"] == "triangle+vshape"
    assert payload["hits"][0]["p_value"] == 1.0  # min(1,1)*2 capped at 1


def test_ci_output(capsys, two_files, tmp_path):
    a, b = two_files
    code, out, _ = run_cli(
        capsys, "ci", "--a", a, "--b", b, "--motif", "vshape",
        "--level", "0.9", "--seed", "6", "--c-delta", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] < 0 < payload["hi"]  # identical graphs, d_hat = 0
    assert payload["level"] == 0.9


def test_deterministic_stdout(capsys, two_files):
    a, b = two_files
    args = ("test", "--a", a, "--b", b, "--motif", "triangle", "--seed", "99")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_env_seed_fallback(capsys, two_files, monkeypatch):
    a, b = two_files
    monkeypatch.setenv("NETMOMENT_SEED", "555")
    code, out, err = run_cli(capsys, "test", "--a", a, "--b", b, "--motif", "triangle")
    assert code == 0
    assert json.loads(out)["seed"] == 555
    monkeypatch.setenv("NETMOMENT_SEED", "not-an-int")
    code, _, err = run_cli(capsys, "test", "--a", a, "--b", b, "--motif", "triangle")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["kind"] == "usage"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_out_of_range_is_a_usage_error(capsys, two_files, monkeypatch, seed):
    # the streams read a seed modulo 2^64, so -1 would replay 2^64 - 1 under
    # another name
    a, b = two_files
    args = ("test", "--a", a, "--b", b, "--motif", "triangle")
    monkeypatch.delenv("NETMOMENT_SEED", raising=False)
    for source, argv in (("--seed", ["--seed", seed]), ("NETMOMENT_SEED", [])):
        if not argv:
            monkeypatch.setenv("NETMOMENT_SEED", seed)
        code, out, err = run_cli(capsys, *args, *argv)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": f"{source} must lie in 0 <= seed < 2**64, got {seed}", "kind": "usage"}
    code, out, _ = run_cli(capsys, *args, "--seed", str(2**64 - 1))
    assert code == 0 and json.loads(out)["seed"] == 2**64 - 1


def test_usage_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "test", "--a")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_simulate_takes_no_indexing(capsys, tmp_path):
    # simulate reads no edge list, so it has no --indexing to honour
    config = tmp_path / "cdf.json"
    config.write_text("{}")
    code, out, err = run_cli(capsys, "simulate", "cdf", "--config", str(config),
                             "--indexing", "one-based")
    assert code == 2 and out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["kind"] == "usage" and "--indexing" in payload["error"]


@pytest.mark.parametrize("argv", [
    ("test", "--motif", "triangle", "--alpha", "1.5"),
    ("test", "--motif", "triangle", "--alpha", "0"),
    ("test", "--motif", "triangle", "--c-delta", "-1"),
    ("test", "--motif", "triangle", "--c-delta", "nan"),
    ("ci", "--motif", "triangle", "--level", "2"),
    ("ci", "--motif", "triangle", "--level", "1"),
    ("query", "--motif", "triangle", "--alpha", "-0.1"),
])
def test_bad_level_or_c_delta_is_usage_error(capsys, two_files, argv):
    a, b = two_files
    sources = ("--keyword", a, "--db", b) if argv[0] == "query" else ("--a", a, "--b", b)
    code, out, err = run_cli(capsys, *argv, *sources, "--seed", "1")
    assert code == 2
    assert out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["kind"] == "usage"
    assert argv[-2] in payload["error"]


@pytest.mark.parametrize("command", ["hash", "query"])
def test_duplicate_motifs_are_usage_error(capsys, tmp_path, two_files, command):
    a, _ = two_files
    db = tmp_path / "db.ndjson"
    nm.db_append(db, nm.hash_network(nm.load_edge_list(a), [nm.TRIANGLE], "x"))
    before = db.read_bytes()
    if command == "hash":  # the alias names the same motif
        argv = ("hash", "--input", a, "--motifs", "vshape,2-star", "--id", "y",
                "--out", str(db))
    else:
        argv = ("query", "--keyword", a, "--db", str(db), "--motif", "triangle,triangle")
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["kind"] == "usage"
    assert "duplicate" in payload["error"]
    assert db.read_bytes() == before


def test_data_error_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "test", "--a", str(tmp_path / "missing.txt"),
        "--b", str(tmp_path / "missing.txt"), "--motif", "triangle", "--seed", "1",
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["kind"] == "data"


@pytest.mark.parametrize("content", ["0 1\n1 100000000\n", "%nodes 100000000\n0 1\n"])
def test_oversized_node_count_is_data_error(capsys, tmp_path, content):
    # 10**16 bytes exceed any 64-bit user address space, so allocation fails at once
    edges = tmp_path / "edges.txt"
    edges.write_text(content)
    code, out, err = run_cli(
        capsys, "hash", "--input", str(edges), "--motifs", "triangle", "--id", "a",
        "--out", str(tmp_path / "db.ndjson"), "--seed", "1",
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["kind"] == "data"
    assert "bytes" in payload["error"]
    assert not (tmp_path / "db.ndjson").exists()


def test_corrupt_db_exit_1(capsys, tmp_path, two_files):
    a, _ = two_files
    db = tmp_path / "bad.ndjson"
    db.write_text("{broken\n")
    code, _, err = run_cli(
        capsys, "query", "--keyword", a, "--db", str(db), "--motif", "triangle",
        "--seed", "1",
    )
    assert code == 1
    assert "line 1" in json.loads(err.splitlines()[-1])["error"]


def test_csv_format(capsys, two_files):
    a, b = two_files
    code, out, _ = run_cli(
        capsys, "test", "--a", a, "--b", b, "--motif", "triangle",
        "--seed", "7", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert "p_value" in header.split(",")


def test_simulate_cdf_with_config(capsys, tmp_path):
    cfg = {"sizes": [[20, 20]], "reps": 1000, "seed": 31, "n_jobs": 1}
    cfg_path = tmp_path / "cdf.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "cdf.csv"
    code, out, err = run_cli(
        capsys, "simulate", "cdf", "--config", str(cfg_path), "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert {r["approximant"] for r in payload["rows"]} == {"edgeworth", "normal"}
    assert payload["meta"]["seed"] == 31
    assert out_path.exists()
    assert (tmp_path / "cdf.csv.meta.json").exists()
    assert "seed: 31" in err


def test_simulate_no_rows_csv(capsys, tmp_path):
    # no rows: stdout gets the empty header line, the --out file stays empty
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"keywords": [], "entries_per_graphon": 1, "n": 30,
                                    "seed": 2, "n_jobs": 1}))
    out_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(capsys, "simulate", "query-bench", "--config", str(cfg_path),
                           "--out", str(out_path), "--format", "csv")
    assert code == 0
    assert out == "\r\n"
    assert out_path.read_bytes() == b""


def test_simulate_seed_flag_overrides_config(capsys, tmp_path):
    cfg_path = tmp_path / "cdf.json"
    cfg_path.write_text(json.dumps({"sizes": [[20, 20]], "reps": 1000, "seed": 1,
                                    "n_jobs": 1}))
    code, out, _ = run_cli(
        capsys, "simulate", "cdf", "--config", str(cfg_path), "--seed", "77",
    )
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 77


def run_simulate(capsys, monkeypatch, tmp_path, kind, payload, *argv):
    monkeypatch.delenv("NETMOMENT_SEED", raising=False)
    cfg_path = tmp_path / f"{kind}.json"
    cfg_path.write_text(json.dumps(payload))
    return run_cli(capsys, "simulate", kind, "--config", str(cfg_path), *argv)


@pytest.mark.parametrize("edit", [
    {"seed": 1.5}, {"seed": True}, {"n_jobs": 1.5}, {"reps": "2000"}, {"reps": 1000.5},
    {"rho_a": "0.3"}, {"grid_points": 2.5}, {"sizes": [[20.5, 20]]}, [1, 2],
], ids=json.dumps)
def test_simulate_refuses_a_config_value_of_the_wrong_type(capsys, monkeypatch, tmp_path,
                                                           edit):
    # a value of another JSON type is a data error, neither truncated nor a
    # crash; a top-level list also meets the --seed override
    payload, argv = edit, ("--seed", "3")
    if isinstance(edit, dict):
        payload, argv = {"sizes": [[20, 20]], "reps": 1000, "seed": 1, "n_jobs": 1, **edit}, ()
    code, out, err = run_simulate(capsys, monkeypatch, tmp_path, "cdf", payload, *argv)
    assert code == 1 and out == ""
    error = json.loads(err.splitlines()[-1])
    assert error["kind"] == "data"
    if isinstance(edit, dict):
        (key, value), = edit.items()
        assert f"{key!r}" in error["error"] and json.dumps(value) in error["error"]
    else:
        assert "[1, 2]" in error["error"]


@pytest.mark.parametrize("edit", [
    {"seed": -1}, {"grid_points": 0}, {"grid_lo": -math.inf}, {"grid_hi": math.inf},
    {"c_delta": math.nan},
], ids=lambda edit: "{}={}".format(*next(iter(edit.items()))))
def test_simulate_cdf_refuses_a_config_value_out_of_range(capsys, monkeypatch, tmp_path,
                                                         edit):
    # -1 would replay seed 2^64 - 1, no grid point gives numpy's message,
    # an infinite grid prints Infinity into JSON, and a nan c_delta makes
    # every t-value nan
    payload = {"sizes": [[20, 20]], "reps": 1000, "seed": 1, "n_jobs": 1, **edit}
    code, out, err = run_simulate(capsys, monkeypatch, tmp_path, "cdf", payload)
    assert code == 1 and out == ""
    error = json.loads(err.splitlines()[-1])
    (key, value), = edit.items()
    assert error["kind"] == "data"
    assert f"config key {key!r}" in error["error"] and error["error"].endswith(f"got {value}")


@pytest.mark.filterwarnings("ignore:rho=1 clamps:RuntimeWarning")
@pytest.mark.parametrize("edit", [
    {"rho_a": 1},
    {"motif": {"name": "four-cycle",
               "pattern": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]},
     "sizes": [[10, 10]], "n_mc_centering": 20_000},
], ids=["int-rho", "four-cycle"])
def test_simulate_runs_a_config_value_of_its_type(capsys, monkeypatch, tmp_path, edit):
    payload = {"sizes": [[20, 20]], "reps": 1000, "seed": 1, "n_jobs": 1, **edit}
    code, out, _ = run_simulate(capsys, monkeypatch, tmp_path, "cdf", payload)
    assert code == 0
    assert json.loads(out)["meta"]["config"]["motif"] == edit.get("motif", "triangle")


@pytest.mark.parametrize("edit", [
    {"methods": ["normal", "normal"]},
    {"motifs": ["triangle", "triangle"]},
    {"motifs": ["vshape", "2-star"]},
], ids=["method", "motif", "motif-alias"])
def test_simulate_coverage_refuses_a_repeated_method_or_motif(capsys, monkeypatch, tmp_path,
                                                             edit):
    # a repeat would count each replicate twice
    payload = {"sizes": [[25, 25]], "reps": 200, "seed": 3, "n_jobs": 1, **edit}
    code, out, err = run_simulate(capsys, monkeypatch, tmp_path, "coverage", payload)
    assert code == 1 and out == ""
    assert json.loads(err.splitlines()[-1])["kind"] == "data"


def test_query_never_touches_adjacency_after_hashing(capsys, tmp_path, two_files,
                                                     monkeypatch):
    """After the keyword is hashed, no moment computation may see a Graph."""
    a, _ = two_files
    db = str(tmp_path / "db.ndjson")
    run_cli(capsys, "hash", "--input", a, "--motifs", "triangle", "--id", "x",
            "--out", db, "--seed", "1")

    import netmoment.edgeworth as edgeworth
    import netmoment.hashdb as hashdb
    import netmoment.projections as projections

    state = {"hashing_done": False, "loads": 0}
    real_summaries = hashdb._summaries
    real_census = edgeworth.moment_census
    real_load = cli.load_edge_list

    def counting_load(path, indexing="zero-based"):
        state["loads"] += 1
        return real_load(path, indexing=indexing)

    def traced_summaries(g, motifs, network_ids):
        if state["hashing_done"]:
            raise AssertionError("summary kernel called after hashing finished")
        return real_summaries(g, motifs, network_ids)

    def traced_census(g, motif, want_pairs=False, **kwargs):
        if state["hashing_done"]:
            raise AssertionError("adjacency census touched during query")
        return real_census(g, motif, want_pairs=want_pairs, **kwargs)

    real_hash_network = hashdb.hash_network

    def traced_hash(g, motifs, network_id):
        rec = real_hash_network(g, motifs, network_id)
        state["hashing_done"] = True
        return rec

    monkeypatch.setattr(cli, "load_edge_list", counting_load)
    monkeypatch.setattr(cli, "hash_network", traced_hash)
    monkeypatch.setattr(hashdb, "_summaries", traced_summaries)
    monkeypatch.setattr(edgeworth, "moment_census", traced_census)
    monkeypatch.setattr(projections, "moment_census", traced_census)

    code, out, _ = run_cli(
        capsys, "query", "--keyword", a, "--db", db, "--motif", "triangle",
        "--seed", "5",
    )
    assert code == 0
    assert state["loads"] == 1  # keyword file read exactly once
    assert json.loads(out)["hits"]


HASH_CSV = "netmoment.cli; assert netmoment.cli.main(sys.argv[1:]) == 0"


@pytest.mark.parametrize(
    "module", ["netmoment", "netmoment.cli", pytest.param(HASH_CSV, id="hash-csv")],
)
def test_import_leaves_scipy_and_harness_unloaded(module, tmp_path):
    # only `ci` and `simulate` need scipy, and only `simulate` needs the
    # harness; the hash-csv case also runs `hash --format csv`
    edges = tmp_path / "edges.txt"
    nm.save_edge_list(random_graph(12, 0.5, spawn_rng(3, "csv-import")), edges)
    argv = ["hash", "--input", str(edges), "--motifs", "triangle", "--id", "a",
            "--out", str(tmp_path / "db.ndjson"), "--seed", "1", "--format", "csv"]
    src = str(Path(nm.__file__).resolve().parent.parent)
    code = (f"import sys, {module}; "
            "print([m for m in ('scipy.special', 'scipy.stats', 'scipy.sparse', "
            "'netmoment.sim.experiments', 'concurrent.futures.process') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"
    assert ("network_id" in out) == (module == HASH_CSV)
