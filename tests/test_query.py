"""The array store query against `frozen_query`, bit for bit: hits, CLI
stdout and errors."""

import dataclasses
import json
import math

import numpy as np
import pytest

import netmoment as nm
import netmoment.cli as cli
from netmoment.edgeworth import _pair_sizes, _size_columns
from netmoment.hashdb import HashDb, HashRecord
from netmoment.inference import two_sample_p_values
from netmoment.projections import DegenerateGraphError
from netmoment.rng import spawn_rng

from conftest import random_graph
from oracles import frozen_query
from test_inference import synthetic_summary


def record(summary, network_id):
    summary = dataclasses.replace(summary, network_id=network_id)
    return HashRecord(network_id=network_id, n=summary.n, created_at="",
                      summaries={summary.motif_name: summary})


def hashed(m, rho, rng, network_id):
    return nm.hash_network(random_graph(m, rho, rng), [nm.TRIANGLE], network_id)


def make_store(seed):
    """Hashed graphs of 30-60 and 400 nodes, and synthetic summaries of 10^6
    and 10^9 nodes, where int64 powers of n overflow, and of about 1.1e8 and
    7.8e8 nodes, where the float64 product n * n * n rounds twice (its last
    bit seldom reaches a p-value; `test_size_columns_round_each_power_once`
    pins it)."""
    rng = spawn_rng(seed, "query-store")
    records = [hashed(int(rng.integers(30, 61)), float(rng.uniform(0.2, 0.7)), rng,
                      f"small-{k:03d}") for k in range(40)]
    records += [hashed(400, 0.3, rng, f"mid-{k}") for k in range(2)]
    records += [record(synthetic_summary(rng, n=n), f"big-{n}-{k:02d}")
                for k in range(10) for n in (10**6, 10**9, 109_139_017, 776_676_447)]
    order = rng.permutation(len(records))  # insertion order is not id order
    return HashDb(records={records[i].network_id: records[i] for i in order})


def outcome(fn, *args, **kwargs):
    """The hits, by bits, or the type and message of what fn raises."""
    try:
        hits = fn(*args, **kwargs)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)
    return [(h.network_id, h.motif, h.p_value.hex(), h.passed_screen) for h in hits]


def test_size_columns_round_each_power_once():
    # n^3 = 10^360 and m n^2 have no double; n * n * n in float64 rounds twice
    ns = [30, 400, 10**6, 10**9, 109_139_017, 776_676_447, 10**120]
    for m in (40, 776_676_447):
        columns = _size_columns(m, ns)
        for k, n in enumerate(ns):
            exact = [float(v) if v < 2**1024 else math.inf for v in _pair_sizes(m, n)]
            assert [column[k] for column in columns] == exact


@pytest.fixture(scope="module")
def store():
    return make_store(5)


@pytest.mark.parametrize("keyword_id", ["small-007", "mid-1", "big-1000000000-03"])
@pytest.mark.parametrize("seed", [0, 2**32 + 5])
@pytest.mark.parametrize("level", [0.05, 0.5])
@pytest.mark.parametrize("c_delta", [0.0, 0.01])
def test_query_matches_frozen_query_bit_for_bit(store, keyword_id, seed, level, c_delta):
    keyword = store.records[keyword_id]
    got = outcome(nm.query, keyword, store, "triangle", level=level, c_delta=c_delta, seed=seed)
    assert isinstance(got, list) and len(got) == len(store)
    assert got == outcome(frozen_query, keyword, store, "triangle", level=level,
                          c_delta=c_delta, seed=seed)


def test_query_matches_frozen_query_on_a_fresh_keyword(store):
    keyword = hashed(50, 0.4, spawn_rng(8, "fresh"), "keyword")
    for seed in (1, 2):
        assert (outcome(nm.query, keyword, store, "triangle", seed=seed)
                == outcome(frozen_query, keyword, store, "triangle", seed=seed))


# each spoils a good entry summary s, given the keyword summary k, and names
# what the entry's test then raises (None: it gives a p-value)
SPOILS = {
    "motif shape": (lambda s, k: dataclasses.replace(s, motif_s=2), ValueError),
    "S^2 < 0": (lambda s, k: dataclasses.replace(s, xi_alpha1_sq=-1e6), DegenerateGraphError),
    "S^2 = 0": (lambda s, k: dataclasses.replace(s, n=k.n, xi_alpha1_sq=-k.xi_alpha1_sq),
                DegenerateGraphError),
    "non-finite I0": (lambda s, k: dataclasses.replace(s, alpha0_hat=math.nan),
                      DegenerateGraphError),
    "non-finite Q1": (lambda s, k: dataclasses.replace(s, e_a1_a3=math.inf), DegenerateGraphError),
    "non-finite statistic": (lambda s, k: dataclasses.replace(s, u_hat=math.inf), ValueError),
    "rho^-s overflows": (lambda s, k: dataclasses.replace(s, rho_hat=1e-120), OverflowError),
    "rho = 0": (lambda s, k: dataclasses.replace(s, rho_hat=0.0), ZeroDivisionError),
    "n < 2": (lambda s, k: dataclasses.replace(s, n=1), ValueError),
    "n past the doubles": (lambda s, k: dataclasses.replace(s, n=10**120), OverflowError),
    # u^2 overflows in the CDF, and the clamps meet a nan
    "huge statistic": (lambda s, k: dataclasses.replace(
        s, n=2, xi_alpha1_sq=2.0, e_a1_a3=-1.2e308, e_a4_a1=0.0, u_hat=1e307, rho_hat=0.5),
        None),
    # the coefficients and the statistic sum past the largest double: the
    # array pass flags the entry, which then gives its p-value alone
    "flagged, no error": (lambda s, k: dataclasses.replace(
        s, n=2, xi_alpha1_sq=2.0, e_a1_a3=-1.2e308, e_a4_a1=0.0, u_hat=1.5e307, rho_hat=0.45),
        None),
}


def with_spoiled(db, kinds, keyword):
    """db with the entries small-010, small-018, ... spoiled in turn by kinds."""
    records = dict(db.records)
    for k, kind in enumerate(kinds):
        nid = f"small-{10 + 8 * k:03d}"
        spoil, _ = SPOILS[kind]
        records[nid] = record(spoil(records[nid].summaries["triangle"],
                                    keyword.summaries["triangle"]), nid)
    return HashDb(records=records)


@pytest.mark.parametrize("kind", sorted(SPOILS))
@pytest.mark.parametrize("c_delta", [0.0, 0.01])
def test_spoiled_entry_raises_what_the_entry_loop_raises(store, kind, c_delta):
    keyword = store.records["small-003"]
    db = with_spoiled(store, [kind], keyword)
    got = outcome(nm.query, keyword, db, "triangle", c_delta=c_delta, seed=4)
    assert got == outcome(frozen_query, keyword, db, "triangle", c_delta=c_delta, seed=4)
    raises = SPOILS[kind][1]
    if raises is None:
        assert isinstance(got, list) and len(got) == len(db)
    else:
        assert got[0] is raises
    if kind == "flagged, no error":
        entry = HashDb(records={"small-010": db.records["small-010"]})._entries("triangle")
        _, ok = two_sample_p_values(keyword.summaries["triangle"], entry, 0.05, c_delta,
                                    np.zeros(1))
        assert not ok[0]


# each spoils the keyword summary k, whose own terms then fail in every test
KEYWORD_SPOILS = {
    "rho^-s overflows": lambda k: dataclasses.replace(k, rho_hat=1e-120),
    "rho = 0": lambda k: dataclasses.replace(k, rho_hat=0.0),
    "n = 1": lambda k: dataclasses.replace(k, n=1),
    "n = 0": lambda k: dataclasses.replace(k, n=0),
}


@pytest.mark.parametrize("spoil", sorted(KEYWORD_SPOILS))
@pytest.mark.parametrize("first_entry_mismatch, level", [(False, 0.05), (True, 0.05),
                                                         (False, 1.5)])
@pytest.mark.parametrize("c_delta", [0.0, 0.01])
def test_spoiled_keyword_raises_what_the_entry_loop_raises(store, spoil, first_entry_mismatch,
                                                           level, c_delta):
    summary = KEYWORD_SPOILS[spoil](store.records["small-003"].summaries["triangle"])
    keyword = record(summary, "keyword")
    records = dict(store.records)
    if first_entry_mismatch:
        first = min(records)
        records[first] = record(SPOILS["motif shape"][0](
            records[first].summaries["triangle"], summary), first)
    db = HashDb(records=records)
    got = outcome(nm.query, keyword, db, "triangle", level=level, c_delta=c_delta, seed=6)
    assert got == outcome(frozen_query, keyword, db, "triangle", level=level,
                          c_delta=c_delta, seed=6)
    assert isinstance(got, tuple)


@pytest.mark.parametrize("kinds", [
    ["non-finite statistic", "motif shape", "S^2 < 0"],
    ["rho^-s overflows", "non-finite Q1"],
    ["huge statistic", "S^2 = 0", "n < 2", "non-finite I0"],
])
def test_first_bad_entry_in_id_order_raises(store, kinds):
    keyword = store.records["mid-0"]
    db = with_spoiled(store, kinds, keyword)
    got = outcome(nm.query, keyword, db, "triangle", seed=9)
    assert got == outcome(frozen_query, keyword, db, "triangle", seed=9)
    assert isinstance(got, tuple)


@pytest.mark.parametrize("level, c_delta", [
    (0.0, 0.01), (1.0, 0.01), (-0.5, 0.01), (1.5, 0.0), (math.nan, 0.01), (0.05, -1.0),
    (0.05, math.nan), (0.05, math.inf),
])
def test_bad_level_or_c_delta_raises_on_a_store_only(store, level, c_delta):
    keyword = store.records["small-001"]
    got = outcome(nm.query, keyword, store, "triangle", level=level, c_delta=c_delta, seed=1)
    assert got == outcome(frozen_query, keyword, store, "triangle", level=level,
                          c_delta=c_delta, seed=1)
    assert got[0] is ValueError
    assert nm.query(keyword, HashDb(records={}), "triangle", level=level, c_delta=c_delta) == []


# ---------------------------------------------------------------------------
# A loaded store: the query reads its columns
# ---------------------------------------------------------------------------


def loaded(db, path):
    """db appended to a store at path and loaded again."""
    for rec in db.records.values():
        nm.db_append(path, rec)
    return nm.db_load(path)


# a valid entry whose test the array pass flags (its coefficients and
# statistic sum past the largest double) but which gives a p-value alone
def flagged_valid(s, k):
    return dataclasses.replace(s, n=4, xi_alpha1_sq=0.5, e_a1_a3=-1.7e308, e_a4_a1=0.0,
                               rho_hat=0.45, u_hat=0.5)


@pytest.fixture(scope="module")
def stored(store, tmp_path_factory):
    """`store` with sizes about the int64 and exact-cube bounds, held as
    records and loaded from a file."""
    sizes = (2**21 - 1, 2**21, 2**63 - 1, 2**63 + 5, 10**30)
    extra = [record(synthetic_summary(spawn_rng(k, "sizes"), n=n), f"size-{k}")
             for k, n in enumerate(sizes)]
    db = HashDb(records={**store.records, **{rec.network_id: rec for rec in extra}})
    return db, loaded(db, tmp_path_factory.mktemp("stored") / "db.ndjson")


@pytest.mark.parametrize("keyword_id", ["small-007", "mid-1", "big-1000000000-03", "size-4"])
@pytest.mark.parametrize("c_delta", [0.0, 0.01])
def test_loaded_store_query_matches_frozen_query(stored, keyword_id, c_delta):
    db, got_db = stored
    keyword = db.records[keyword_id]
    assert got_db.records == db.records
    for seed in (0, 2**32 + 5):
        got = outcome(nm.query, keyword, got_db, "triangle", c_delta=c_delta, seed=seed)
        assert isinstance(got, list) and len(got) == len(db)
        assert got == outcome(frozen_query, keyword, db, "triangle", c_delta=c_delta, seed=seed)


@pytest.mark.parametrize("kinds", [["motif shape"], ["rho^-s overflows", "motif shape"],
                                   ["n past the doubles"], [None]])
def test_loaded_store_with_a_flagged_entry_matches_frozen_query(store, tmp_path, kinds):
    keyword = store.records["small-003"]
    if kinds == [None]:
        records = dict(store.records)
        records["small-010"] = record(flagged_valid(records["small-010"].summaries["triangle"],
                                                    None), "small-010")
        db = HashDb(records=records)
    else:
        db = with_spoiled(store, kinds, keyword)
    got = outcome(nm.query, keyword, loaded(db, tmp_path / "db.ndjson"), "triangle", seed=4)
    assert got == outcome(frozen_query, keyword, db, "triangle", seed=4)
    assert isinstance(got, list) == (kinds == [None])


def test_query_of_a_loaded_store_builds_only_its_flagged_entries(store, tmp_path, monkeypatch):
    keyword = store.records["small-003"]
    records = dict(store.records)
    records["small-010"] = record(flagged_valid(records["small-010"].summaries["triangle"], None),
                                  "small-010")
    path = tmp_path / "db.ndjson"
    for rec in records.values():
        nm.db_append(path, rec)
    built = []
    for cls in (HashRecord, nm.NetworkSummary):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    db = nm.db_load(path)
    hits = nm.query(keyword, db, "triangle", seed=4)
    assert built == ["NetworkSummary"]  # small-010's, for two_sample_test
    assert len(hits) == len(records)
    assert len(db.records) == len(records)
    assert built.count("HashRecord") == built.count("NetworkSummary") - 1 == len(records)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_query(capsys, monkeypatch, frozen, *argv):
    with monkeypatch.context() as patch:
        if frozen:
            patch.setattr(cli, "query", frozen_query)
        code = cli.main(["query", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    """A store hashed by the CLI (triangle, vshape and edge), and a keyword."""
    tmp = tmp_path_factory.mktemp("cli-store")
    rng = spawn_rng(21, "cli-store")
    db = tmp / "db.ndjson"
    for k in range(25):
        g = random_graph(int(rng.integers(30, 61)), float(rng.uniform(0.2, 0.7)), rng)
        path = tmp / f"g{k}.txt"
        nm.save_edge_list(g, path)
        assert cli.main(["hash", "--input", str(path), "--motifs", "triangle,vshape,edge",
                         "--id", f"net-{k:02d}", "--out", str(db), "--seed", "1"]) == 0
    keyword = tmp / "keyword.txt"
    nm.save_edge_list(random_graph(60, 0.45, rng), keyword)
    return str(keyword), str(db)


@pytest.mark.parametrize("extra", [
    ["--motif", "triangle"],
    ["--motif", "triangle", "--format", "csv"],
    ["--motif", "vshape", "--alpha", "0.5", "--c-delta", "0"],
    ["--motif", "triangle,vshape", "--combine", "bonferroni"],
    ["--motif", "triangle,vshape", "--combine", "bonferroni", "--format", "csv"],
    ["--motif", "triangle,vshape"],
])
def test_cli_query_stdout_matches_frozen_query(capsys, monkeypatch, cli_store, extra):
    keyword, db = cli_store
    argv = ["--keyword", keyword, "--db", db, "--seed", "13", *extra]
    got = run_query(capsys, monkeypatch, False, *argv)
    assert got[0] == 0 and got[1]
    assert got == run_query(capsys, monkeypatch, True, *argv)


def test_cli_degenerate_query_exits_1_as_before(capsys, monkeypatch, cli_store):
    # the edge motif's alpha1 is the constant 0, so every S^2 is 0
    keyword, db = cli_store
    argv = ["--keyword", keyword, "--db", db, "--motif", "edge", "--seed", "2"]
    got = run_query(capsys, monkeypatch, False, *argv)
    assert got[0] == 1 and got[1] == ""
    assert "degenerate variance" in json.loads(got[2].splitlines()[-1])["error"]
    assert got == run_query(capsys, monkeypatch, True, *argv)


# ---------------------------------------------------------------------------
# One pair: the values and errors of each one-pair call, pinned, since
# `frozen_query` compares `two_sample_test` only with itself
# ---------------------------------------------------------------------------


def pinned(fn):
    """What fn() raises, as "type: message", or the float.hex of each float it
    returns; every number it returns must be a Python float."""
    try:
        value = fn()
    except Exception as exc:  # every error must match, whatever its type
        return f"{type(exc).__name__}: {exc}"
    values = value if isinstance(value, tuple) else (value,)
    assert [type(v) for v in values] == [float] * len(values)
    return " ".join(v.hex() for v in values)


def one_pair_outcomes(ka, sb, c_delta):
    def tested():
        r = nm.two_sample_test(ka, sb, c_delta=c_delta, rng=spawn_rng(3, "pin"))
        return r.d_hat, r.s_hat, r.t_obs, r.delta_t, r.p_value

    def coeffs():
        c = nm.combine(ka, sb)
        return c.S, c.I0, c.Q1, c.Q2

    return {
        "combine": pinned(coeffs),
        "scaled_discrepancy": pinned(lambda: nm.scaled_discrepancy(ka, sb)),
        "cdf": pinned(lambda: (nm.cdf(nm.combine(ka, sb), 0.75), nm.cdf(nm.combine(ka, sb), -2.0))),
        "two_sample_test": pinned(tested),
        "confidence_interval": pinned(lambda: nm.confidence_interval(
            ka, sb, c_delta=c_delta, rng=spawn_rng(3, "pin"))),
        "smoothing_noise": pinned(lambda: nm.smoothing_noise(ka.n, sb.n, c_delta,
                                                             spawn_rng(3, "pin"))),
    }


def one_pair_table():
    """The outcomes of an ordinary pair, of each SPOILS entry and each
    KEYWORD_SPOILS keyword against it, at c_delta 0.01, and of the ordinary
    pair at c_delta 0, inf and nan."""
    k = synthetic_summary(spawn_rng(11, "pin-keyword"), n=60)
    s = synthetic_summary(spawn_rng(12, "pin-entry"), n=90)
    pairs = {"ordinary": (k, s, 0.01)}
    pairs.update({f"ordinary, c_delta {c}": (k, s, c) for c in (0.0, math.inf, math.nan)})
    pairs.update({f"entry {kind}": (k, spoil(s, k), 0.01) for kind, (spoil, _) in SPOILS.items()})
    pairs.update({f"keyword {kind}": (spoil(k), s, 0.01) for kind, spoil in KEYWORD_SPOILS.items()})
    return {name: one_pair_outcomes(*pair) for name, pair in pairs.items()}


# recorded while each pair formula still had a float form of its own
PINNED = {
    "ordinary": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test":
            ("-0x1.09629f7e7a2c2p-1 0x1.9777d4b6c4dfbp-2 -0x1.52f18b259d4b3p+0 "
             "-0x1.5e7c0e2679c04p-6 0x1.5a73a539ebd31p-4"),
        "confidence_interval": "-0x1.4f0e572f90c6dp+0 0x1.d03245ae4a000p-13",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "ordinary, c_delta 0.0": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test":
            ("-0x1.09629f7e7a2c2p-1 0x1.9777d4b6c4dfbp-2 -0x1.4d779aed03643p+0 0x0.0p+0 "
             "0x1.6af47a9101667p-4"),
        "confidence_interval": "-0x1.4ce07be62e11ep+0 0x1.1e2e6dc813980p-7",
        "smoothing_noise": "0x0.0p+0",
    },
    "ordinary, c_delta inf": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "ValueError: u must be finite",
        "confidence_interval": "-inf -inf",
        "smoothing_noise": "-inf",
    },
    "ordinary, c_delta nan": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "ValueError: u must be finite",
        "confidence_interval": "nan nan",
        "smoothing_noise": "nan",
    },
    "entry motif shape": {
        "combine":
            ("ValueError: motif mismatch: {'name': 'triangle', 'r': 3, 's': 3} vs {'name': "
             "'triangle', 'r': 3, 's': 2}"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf":
            ("ValueError: motif mismatch: {'name': 'triangle', 'r': 3, 's': 3} vs {'name': "
             "'triangle', 'r': 3, 's': 2}"),
        "two_sample_test":
            ("ValueError: motif mismatch: {'name': 'triangle', 'r': 3, 's': 3} vs {'name': "
             "'triangle', 'r': 3, 's': 2}"),
        "confidence_interval":
            ("ValueError: motif mismatch: {'name': 'triangle', 'r': 3, 's': 3} vs {'name': "
             "'triangle', 'r': 3, 's': 2}"),
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry S^2 < 0": {
        "combine":
            ("DegenerateGraphError: degenerate variance: S^2=-11111.051441475358 "
             "(vertex-transitive or trivial input)"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf":
            ("DegenerateGraphError: degenerate variance: S^2=-11111.051441475358 "
             "(vertex-transitive or trivial input)"),
        "two_sample_test":
            ("DegenerateGraphError: degenerate variance: S^2=-11111.051441475358 "
             "(vertex-transitive or trivial input)"),
        "confidence_interval":
            ("DegenerateGraphError: degenerate variance: S^2=-11111.051441475358 "
             "(vertex-transitive or trivial input)"),
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry S^2 = 0": {
        "combine":
            ("DegenerateGraphError: degenerate variance: S^2=0.0 (vertex-transitive or trivial "
             "input)"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf":
            ("DegenerateGraphError: degenerate variance: S^2=0.0 (vertex-transitive or trivial "
             "input)"),
        "two_sample_test":
            ("DegenerateGraphError: degenerate variance: S^2=0.0 (vertex-transitive or trivial "
             "input)"),
        "confidence_interval":
            ("DegenerateGraphError: degenerate variance: S^2=0.0 (vertex-transitive or trivial "
             "input)"),
        "smoothing_noise": "-0x1.788d11c6e44b7p-6",
    },
    "entry non-finite I0": {
        "combine": "DegenerateGraphError: non-finite expansion coefficient I0",
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "DegenerateGraphError: non-finite expansion coefficient I0",
        "two_sample_test": "DegenerateGraphError: non-finite expansion coefficient I0",
        "confidence_interval": "DegenerateGraphError: non-finite expansion coefficient I0",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry non-finite Q1": {
        "combine": "DegenerateGraphError: non-finite expansion coefficient Q1",
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "DegenerateGraphError: non-finite expansion coefficient Q1",
        "two_sample_test": "DegenerateGraphError: non-finite expansion coefficient Q1",
        "confidence_interval": "DegenerateGraphError: non-finite expansion coefficient Q1",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry non-finite statistic": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "-inf",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "ValueError: u must be finite",
        "confidence_interval": "-inf -inf",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry rho^-s overflows": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "OverflowError: (34, 'Numerical result out of range')",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "OverflowError: (34, 'Numerical result out of range')",
        "confidence_interval": "OverflowError: (34, 'Numerical result out of range')",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry rho = 0": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        "confidence_interval": "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "entry n < 2": {
        "combine":
            ("0x1.7eb72eef16517p+1 0x1.20b40aadd324fp+1 -0x1.44907a9920ed5p-1 "
             "-0x1.6f8b1166e1ad4p-1"),
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "0x1.3ee30cb06e9bbp-1 0x1.082b37f7f9f18p-3",
        "two_sample_test": "ValueError: smoothing noise needs m, n >= 2",
        "confidence_interval": "ValueError: smoothing noise needs m, n >= 2",
        "smoothing_noise": "ValueError: smoothing noise needs m, n >= 2",
    },
    "entry n past the doubles": {
        "combine": "OverflowError: int too large to convert to float",
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "OverflowError: int too large to convert to float",
        "two_sample_test": "OverflowError: int too large to convert to float",
        "confidence_interval": "OverflowError: int too large to convert to float",
        "smoothing_noise": "-0x1.0a43058042079p-6",
    },
    "entry huge statistic": {
        "combine":
            ("0x1.0786ed2481a2ep+0 0x1.a7f6cbf577a2ap+1 -0x1.3950678bd9b8ap+1020 "
             "-0x1.3950678bd9b8ap+1020"),
        "scaled_discrepancy": "-0x1.c7b1f3cac7433p+1022",
        "cdf": "0x1.0000000000000p+0 0x1.0000000000000p+0",
        "two_sample_test":
            ("-0x1.c7b1f3cac7433p+1022 0x1.0786ed2481a2ep+0 -0x1.baade189d9bb8p+1022 "
             "-0x1.483cd25675c3bp-5 0x0.0p+0"),
        "confidence_interval": "-0x1.db15f502ccce1p+1021 -0x1.db15f502cccdbp+1021",
        "smoothing_noise": "-0x1.483cd25675c3bp-5",
    },
    "entry flagged, no error": {
        "combine":
            ("0x1.0786ed2481a2ep+0 0x1.a7f6cbf577a2ap+1 -0x1.3950678bd9b8ap+1020 "
             "-0x1.3950678bd9b8ap+1020"),
        "scaled_discrepancy": "-0x1.d4d2782e618bap+1023",
        "cdf": "0x1.0000000000000p+0 0x1.0000000000000p+0",
        "two_sample_test":
            ("-0x1.d4d2782e618bap+1023 0x1.0786ed2481a2ep+0 -0x1.c76e699d9fbdap+1023 "
             "-0x1.483cd25675c3bp-5 0x0.0p+0"),
        "confidence_interval": "-0x1.67befb89b11d9p+1023 -0x1.67befb89b11d7p+1023",
        "smoothing_noise": "-0x1.483cd25675c3bp-5",
    },
    "keyword rho^-s overflows": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "OverflowError: (34, 'Numerical result out of range')",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "OverflowError: (34, 'Numerical result out of range')",
        "confidence_interval": "OverflowError: (34, 'Numerical result out of range')",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "keyword rho = 0": {
        "combine":
            ("0x1.9777d4b6c4dfbp-2 0x1.809d355c47d39p-2 -0x1.d3d675db46f85p-6 "
             "-0x1.00ee21bcc297ep-6"),
        "scaled_discrepancy": "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        "cdf": "0x1.5a3c87e4b6992p-1 0x1.0e3622ea2c7c8p-7",
        "two_sample_test": "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        "confidence_interval": "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        "smoothing_noise": "-0x1.5e7c0e2679c04p-6",
    },
    "keyword n = 1": {
        "combine":
            "0x1.eb042780a457dp+0 0x1.32b55a4b9b012p+1 0x1.31622137688e7p-3 0x1.6896011b90154p-1",
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "0x0.0p+0 0x0.0p+0",
        "two_sample_test": "ValueError: smoothing noise needs m, n >= 2",
        "confidence_interval": "ValueError: smoothing noise needs m, n >= 2",
        "smoothing_noise": "ValueError: smoothing noise needs m, n >= 2",
    },
    "keyword n = 0": {
        "combine": "ZeroDivisionError: float division by zero",
        "scaled_discrepancy": "-0x1.09629f7e7a2c2p-1",
        "cdf": "ZeroDivisionError: float division by zero",
        "two_sample_test": "ZeroDivisionError: float division by zero",
        "confidence_interval": "ZeroDivisionError: float division by zero",
        "smoothing_noise": "ValueError: smoothing noise needs m, n >= 2",
    },
}


def test_one_pair_calls_return_and_raise_as_pinned():
    assert one_pair_table() == PINNED
