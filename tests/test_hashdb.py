import dataclasses
import json
import logging
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmoment as nm
import netmoment.cli as cli
from netmoment import edgeworth
from netmoment import motif as nm_motif
from netmoment.edgeworth import SUMMARY_FIELDS
from netmoment.hashdb import (
    DbFormatError,
    HashDb,
    HashRecord,
    record_from_json,
    record_to_json,
)
from netmoment.rng import spawn_rng
from netmoment.sim.graphons import builtin_graphon, sample_network

from conftest import random_graph
from oracles import frozen_summary
from test_inference import synthetic_summary
from test_motif import captured_passes, holds_a_pass


def test_hash_p3_edge(p3):
    rec = nm.hash_network(p3, [nm.EDGE], "p3")
    assert rec.n == 3
    assert rec.motifs() == ["edge"]
    assert rec.summaries["edge"].rho_hat == pytest.approx(2 / 3)


def assert_one_node_pass(rho, monkeypatch):
    """hash_network runs the node pass once, builds each leaf's rows of
    A @ A once for all its motifs, and frees the pass on return. m * m >
    2^16, so the summaries' walk has two leaves and each reads its own rows."""
    m = 300
    adj = random_graph(m, rho, spawn_rng(4, "node-pass")).adj
    leaves = []
    edgeworth._pairwise_sum(0, m * m, lambda a, b: leaves.append((a // m, -(-b // m))) or 0.0)
    assert len(leaves) == 2
    passes = captured_passes(monkeypatch)
    calls = []
    counts = nm_motif._TwoWalks.counts

    def counted_counts(self, lo, hi):
        calls.append((lo, hi))
        return counts(self, lo, hi)

    monkeypatch.setattr(nm_motif._TwoWalks, "counts", counted_counts)
    g = nm.Graph(adj)
    nm.hash_network(g, [nm.TRIANGLE, nm.EDGE, nm.VSHAPE], "x")
    (walks, sparse), = passes
    assert sparse == (rho < 0.03)
    step = (nm_motif._BLOCK if sparse else nm_motif._HALF_BLOCK) // m
    blocks = [(lo, min(lo + step, m)) for lo in range(0, m, step)]
    assert calls == [*blocks, *leaves]  # the node pass's blocks, then the leaves
    assert walks() is None and not holds_a_pass(g)


def test_hash_network_runs_the_node_pass_once(monkeypatch):
    assert_one_node_pass(0.05, monkeypatch)  # the half product's store


def test_hash_network_builds_each_leafs_csr_rows_once(monkeypatch):
    assert_one_node_pass(0.02, monkeypatch)


def test_hash_multi_motif_and_partial_failure(p3):
    # P3 has no triangle subsets with positive variance ingredients but the
    # summary itself still fails only on size (m == r for triangle)
    rec = nm.hash_network(p3, [nm.EDGE, nm.TRIANGLE], "p3")
    assert rec.motifs() == ["edge"]  # triangle skipped: m < r + 1
    with pytest.raises(ValueError):
        nm.hash_network(p3, [nm.TRIANGLE], "p3")  # all motifs failed
    with pytest.raises(ValueError):
        nm.hash_network(p3, [], "p3")
    with pytest.raises(ValueError):
        nm.hash_network(p3, [nm.EDGE, nm.EDGE], "p3")


def hash_warnings(caplog, g, motifs, network_id):
    """hash_network's record and the texts of the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="netmoment.hashdb"):
        rec = nm.hash_network(g, motifs, network_id)
    return rec, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("scale", [1e150, 1e200])  # overflows in the leaf walk, in the node terms
def test_a_failing_motif_is_dropped_alone(scale, caplog, monkeypatch):
    # m = 300 spans two leaves, so the other motifs go on through the second
    g = random_graph(300, 0.3, spawn_rng(5, "poison"))
    want = {name: {f: float(v).hex() for f, v in frozen_summary(g, name).items()}
            for name in ("edge", "vshape")}
    real_project = edgeworth.project

    def poisoned(g, motif, _census=None):
        ps = real_project(g, motif, _census=_census)
        return dataclasses.replace(ps, g1=ps.g1 * scale) if motif is nm.TRIANGLE else ps

    monkeypatch.setattr(edgeworth, "project", poisoned)
    with pytest.raises(nm.DegenerateGraphError) as alone:
        nm.summarize(g, nm.TRIANGLE)
    assert str(alone.value) == ("sparsity too extreme for motif triangle: "
                                "overflow encountered in multiply")
    for motifs in ([nm.EDGE, nm.TRIANGLE, nm.VSHAPE], [nm.TRIANGLE, nm.VSHAPE, nm.EDGE]):
        rec, logged = hash_warnings(caplog, g, motifs, "x")
        assert logged == [f"hash x: motif triangle skipped: {alone.value}"]
        assert rec.motifs() == ["edge", "vshape"]
        for name, summary in rec.summaries.items():
            assert {f: float(getattr(summary, f)).hex() for f in SUMMARY_FIELDS} == want[name]


def test_motifs_fail_and_warn_in_motif_order(p3, k4, empty5, caplog):
    small = "m=3 too small for motif r=3"
    rec, logged = hash_warnings(caplog, p3, [nm.TRIANGLE, nm.EDGE, nm.VSHAPE], "p3")
    assert rec.motifs() == ["edge"]
    assert logged == [f"hash p3: motif triangle skipped: {small}",
                      f"hash p3: motif vshape skipped: {small}"]
    complete = "degenerate sparsity: complete graph (rho_hat = 1)"
    empty = "degenerate sparsity: empty graph (rho_hat = 0)"
    for g, motifs, failures in [
        (k4, [nm.VSHAPE, nm.EDGE], {"vshape": complete, "edge": complete}),
        (k4, [nm.EDGE, nm.VSHAPE], {"edge": complete, "vshape": complete}),
        (empty5, [nm.TRIANGLE, nm.EDGE], {"triangle": empty, "edge": empty}),
        (p3, [nm.VSHAPE, nm.TRIANGLE], {"vshape": small, "triangle": small}),
    ]:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="netmoment.hashdb"):
            with pytest.raises(ValueError) as refused:
                nm.hash_network(g, motifs, "g")
        assert str(refused.value) == f"all motifs failed for 'g': {failures}"
        assert [r.getMessage() for r in caplog.records] == [
            f"hash g: motif {name} skipped: {why}" for name, why in failures.items()]


@pytest.mark.parametrize("key, graphon, rho, m, parent_peak_mib", [
    ("hash-dense", "SmoothGraphon-1", 0.25, 1000, 5.95),  # the half product's store
    ("hash-sparse", "SmoothGraphon-3", 0.02, 1500, 3.18),  # CSR rows
])
def test_hash_network_traced_peak(key, graphon, rho, m, parent_peak_mib):
    # the first graph of each hash benchmark at seed 1; before one leaf walk
    # served every motif, triangle and vshape peaked at the given figures
    # (numpy 2.4), and the shared walk may add at most 1 MiB
    rng = spawn_rng(1, "perfbench", key, 0)
    g = sample_network(builtin_graphon(graphon), rho, m, rng).graph
    tracemalloc.start()
    try:
        nm.hash_network(g, [nm.TRIANGLE, nm.VSHAPE], "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (parent_peak_mib + 1.0) * 2**20


def test_hash_permutation_invariant():
    rng = spawn_rng(1, "hash-perm")
    g = random_graph(25, 0.4, rng)
    pi = rng.permutation(25)
    a = nm.hash_network(g, [nm.TRIANGLE, nm.VSHAPE], "net")
    b = nm.hash_network(nm.permute(g, pi), [nm.TRIANGLE, nm.VSHAPE], "net")
    for name in a.motifs():
        for f in dataclasses.fields(nm.NetworkSummary):
            va = getattr(a.summaries[name], f.name)
            vb = getattr(b.summaries[name], f.name)
            if isinstance(va, float):
                assert vb == pytest.approx(va, abs=1e-10 * max(1.0, abs(va)))
            else:
                assert va == vb


def test_record_roundtrip_field_exact():
    g = random_graph(20, 0.5, spawn_rng(2, "rt"))
    rec = nm.hash_network(g, [nm.TRIANGLE, nm.VSHAPE], "roundtrip")
    back = record_from_json(record_to_json(rec))
    assert back == rec  # dataclass equality: every float bit-identical


def test_db_append_load(tmp_path):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(3, "db")
    recs = [
        nm.hash_network(random_graph(18, 0.4, rng), [nm.TRIANGLE], f"net{i}")
        for i in range(3)
    ]
    for rec in recs:
        nm.db_append(path, rec)
    db = nm.db_load(path)
    assert len(db) == 3
    for rec in recs:
        assert db.records[rec.network_id] == rec


def test_db_load_empty(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    assert len(nm.db_load(path)) == 0


def test_db_load_corrupt_line_reports_lineno(tmp_path):
    path = tmp_path / "db.ndjson"
    rec = nm.hash_network(random_graph(15, 0.5, spawn_rng(4, "c")), [nm.TRIANGLE], "ok")
    path.write_text(record_to_json(rec) + "\n{not json}\n" + record_to_json(rec) + "\n")
    with pytest.raises(DbFormatError, match="line 2"):
        nm.db_load(path)


def test_db_load_skips_torn_final_record(tmp_path, caplog):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(4, "torn")
    for i in range(3):
        nm.db_append(path, nm.hash_network(random_graph(15, 0.5, rng), [nm.TRIANGLE], f"r{i}"))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    with caplog.at_level(logging.WARNING):
        db = nm.db_load(path)
    assert sorted(db.records) == ["r0", "r1"]
    assert any("line 3" in r.message and str(path) in r.message for r in caplog.records)



def test_db_append_after_torn_record_cuts_the_fragment(tmp_path, caplog):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(5, "torn-append")
    records = [nm.hash_network(random_graph(15, 0.5, rng), [nm.TRIANGLE], f"r{i}")
               for i in range(4)]
    for rec in records[:3]:
        nm.db_append(path, rec)
    torn = path.read_bytes()[:-40]
    path.write_bytes(torn)
    with caplog.at_level(logging.WARNING):
        nm.db_append(path, records[3])
    dropped = len(torn) - torn.rindex(b"\n") - 1
    assert any(str(path) in r.message and f"{dropped} bytes" in r.message
               for r in caplog.records)
    assert sorted(nm.db_load(path).records) == ["r0", "r1", "r3"]


def test_db_append_keeps_a_whole_record_that_lost_its_newline(tmp_path, caplog):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(6, "lost-newline")
    records = [nm.hash_network(random_graph(15, 0.5, rng), [nm.TRIANGLE], f"n{i}")
               for i in range(4)]
    for rec in records[:3]:
        nm.db_append(path, rec)
    path.write_bytes(path.read_bytes()[:-1])
    assert sorted(nm.db_load(path).records) == ["n0", "n1", "n2"]
    with caplog.at_level(logging.WARNING):
        nm.db_append(path, records[3])
    assert any(str(path) in r.message and "newline" in r.message for r in caplog.records)
    db = nm.db_load(path)
    assert sorted(db.records) == ["n0", "n1", "n2", "n3"]
    assert db.records["n2"] == records[2]
    assert path.read_bytes().endswith(b"\n")


def test_concurrent_appends_past_a_torn_tail_keep_every_record(tmp_path, monkeypatch):
    # appender B starts while A is cutting a torn tail off: B must wait for
    # A's whole append, or A's cut (to the length it read) drops B's record
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(7, "concurrent-append")
    r1, a, b = (nm.hash_network(random_graph(15, 0.5, rng), [nm.TRIANGLE], name)
                for name in ("r1", "A", "B"))
    nm.db_append(path, r1)
    path.write_bytes(path.read_bytes() + b'{"network_id":"to')
    ftruncate = os.ftruncate
    appenders = []

    def racing_ftruncate(fd, length):
        if not appenders:
            appenders.append(threading.Thread(target=nm.db_append, args=(path, b)))
            appenders[0].start()
            appenders[0].join(timeout=0.5)
        ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", racing_ftruncate)
    nm.db_append(path, a)
    appenders[0].join(timeout=30)
    assert not appenders[0].is_alive()
    db = nm.db_load(path)
    assert list(db.records) == ["r1", "A", "B"]
    assert db.records["B"] == b and db.records["A"] == a


def test_db_load_bad_schema_version(tmp_path):
    rec = nm.hash_network(random_graph(15, 0.5, spawn_rng(5, "s")), [nm.TRIANGLE], "x")
    payload = json.loads(record_to_json(rec))
    payload["schema_version"] = 99
    path = tmp_path / "db.ndjson"
    path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(DbFormatError, match="schema_version"):
        nm.db_load(path)


def test_db_duplicate_latest_wins(tmp_path, caplog):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(6, "dup")
    first = nm.hash_network(random_graph(15, 0.4, rng), [nm.TRIANGLE], "same")
    second = nm.hash_network(random_graph(15, 0.6, rng), [nm.TRIANGLE], "same")
    nm.db_append(path, first)
    nm.db_append(path, second)
    with caplog.at_level(logging.WARNING):
        db = nm.db_load(path)
    assert len(db) == 1
    assert db.records["same"] == second
    assert any("duplicate" in r.message for r in caplog.records)


def make_db(n_entries=6, m=30, seed=7):
    rng = spawn_rng(seed, "mkdb")
    records = {}
    for i in range(n_entries):
        g = random_graph(m, float(rng.uniform(0.25, 0.6)), rng)
        rec = nm.hash_network(g, [nm.TRIANGLE], f"entry{i:02d}")
        records[rec.network_id] = rec
    return HashDb(records=records)


def test_query_self_match_passes_screening():
    db = make_db()
    some_id = sorted(db.records)[0]
    keyword = db.records[some_id]
    hits = nm.query(keyword, db, "triangle", level=0.05, c_delta=0.0, seed=1)
    assert hits[0].network_id == some_id  # own record ranks first with p = 1
    assert hits[0].p_value == 1.0
    assert hits[0].passed_screen
    for h in hits:
        assert h.passed_screen == (h.p_value >= 0.05)


def test_query_empty_db(p3):
    keyword = nm.hash_network(p3, [nm.EDGE], "kw")
    assert nm.query(keyword, HashDb(records={}), "edge", seed=0) == []


def test_query_requires_motif_in_keyword(p3):
    keyword = nm.hash_network(p3, [nm.EDGE], "kw")
    with pytest.raises(ValueError):
        nm.query(keyword, make_db(), "triangle", seed=0)


def test_query_deterministic_and_order_free():
    db = make_db(n_entries=5)
    keyword = db.records[sorted(db.records)[2]]
    a = nm.query(keyword, db, "triangle", seed=42)
    b = nm.query(keyword, db, "triangle", seed=42)
    assert a == b
    # reordering the store must not change any per-entry p-value
    shuffled = HashDb(records=dict(reversed(list(db.records.items()))))
    c = nm.query(keyword, shuffled, "triangle", seed=42)
    assert a == c
    d = nm.query(keyword, db, "triangle", seed=43)
    assert any(x.p_value != y.p_value for x, y in zip(a, d))


def test_query_sorted_by_p_descending():
    db = make_db(n_entries=8)
    keyword = db.records[sorted(db.records)[0]]
    hits = nm.query(keyword, db, "triangle", seed=9)
    ps = [h.p_value for h in hits]
    assert ps == sorted(ps, reverse=True)


def test_record_types_carry_no_adjacency():
    fields = {f.name for f in dataclasses.fields(HashRecord)}
    assert fields == {"network_id", "n", "created_at", "summaries", "schema_version"}
    sfields = {f.name for f in dataclasses.fields(nm.NetworkSummary)}
    assert "adj" not in sfields and "graph" not in sfields


def test_summary_validation_rejects_bad_wire_data():
    g = random_graph(15, 0.5, spawn_rng(8, "val"))
    rec = nm.hash_network(g, [nm.TRIANGLE], "v")
    s = rec.summaries["triangle"]
    bad = dataclasses.replace(s, rho_hat=1.5)
    with pytest.raises(ValueError):
        bad.validate()
    bad = dataclasses.replace(s, e_a1_a3=float("nan"))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", SUMMARY_FIELDS)
def test_summary_validation_rejects_non_finite(name, value):
    g = random_graph(15, 0.5, spawn_rng(8, "val"))
    s = nm.hash_network(g, [nm.TRIANGLE], "v").summaries["triangle"]
    with pytest.raises(ValueError):
        dataclasses.replace(s, **{name: value}).validate()


def _good_record():
    return nm.hash_network(random_graph(15, 0.5, spawn_rng(4, "c")), [nm.TRIANGLE], "ok")


def _edit(key, value, where="record"):
    """A line edit that sets (or, for value None, deletes) one key of the
    record, of its first summary, or of that summary's motif."""
    def edit(payload):
        target = {"record": payload, "summary": payload["summaries"][0],
                  "motif": payload["summaries"][0]["motif"]}[where]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return edit


def _edits(*edits):
    """The line edits made in turn."""
    def edit(payload):
        for one in edits:
            one(payload)
    return edit


def _write_store(path, *lines, newline="\n"):
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))


def _edited_line(edit):
    """The good record's line after one edit: a function of the decoded
    payload, or a (old, new) replacement in the line's text."""
    line = record_to_json(_good_record())
    if isinstance(edit, tuple):
        assert edit[0] in line
        return line.replace(*edit)
    payload = json.loads(line)
    edit(payload)
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


# The loader's answer to each malformed line, as the second line of a store:
# a DbFormatError that names the path and line. A value of the wrong JSON
# type is refused, not converted, and a value that decodes but is out of
# range raises with the summary's own message.
MALFORMED_LINES = [
    pytest.param(_edit("n", None), DbFormatError, "bad record object: 'n'", id="missing-n"),
    pytest.param(_edit("summaries", None), DbFormatError, "bad record object: 'summaries'",
                 id="missing-summaries"),
    pytest.param(_edit("rho_hat", None, "summary"), DbFormatError,
                 "bad record object: bad summary object: 'rho_hat'", id="missing-rho_hat"),
    pytest.param(_edit("r", None, "motif"), DbFormatError,
                 "bad record object: bad summary object: 'r'", id="missing-motif-r"),
    pytest.param(_edit("rho_hat", True, "summary"), DbFormatError,
                 "bad record object: bad summary object: rho_hat must be a number, got true",
                 id="true-rho_hat"),
    pytest.param(_edit("n", True), DbFormatError,
                 "bad record object: n must be an integer, got true", id="true-n"),
    pytest.param(_edit("u_hat", [0.5], "summary"), DbFormatError,
                 "bad record object: bad summary object: u_hat must be a number, got [0.5]",
                 id="list-u_hat"),
    pytest.param(_edit("e_a1_a3", "x", "summary"), DbFormatError,
                 'bad record object: bad summary object: e_a1_a3 must be a number, got "x"',
                 id="text-e_a1_a3"),
    # two faults in one summary: the values are read and checked in
    # SUMMARY_FIELDS order, all before the motif's name, r and s
    pytest.param(_edits(_edit("r", None, "motif"), _edit("e_a1_a3", "x", "summary")),
                 DbFormatError,
                 'bad record object: bad summary object: e_a1_a3 must be a number, got "x"',
                 id="text-e_a1_a3-and-missing-motif-r"),
    pytest.param(_edits(_edit("e_a1a1a2", None, "summary"), _edit("u_hat", [0.5], "summary")),
                 DbFormatError,
                 "bad record object: bad summary object: u_hat must be a number, got [0.5]",
                 id="list-u_hat-and-missing-e_a1a1a2"),
    pytest.param(_edits(_edit("u_hat", 10**400, "summary"), _edit("e_a1a1a2", None, "summary")),
                 DbFormatError,
                 "bad record object: bad summary object: int too large to convert to float",
                 id="huge-int-u_hat-and-missing-e_a1a1a2"),
    pytest.param(('"e_a1_a3":', '"e_a1_a3":NaN,"was":'), DbFormatError,
                 "non-finite summary field e_a1_a3", id="nan-token"),
    pytest.param(_edit("schema_version", 2), DbFormatError, "unsupported schema_version 2",
                 id="schema-2"),
    pytest.param(_edit("summaries", []), DbFormatError, "record 'ok' has no summaries",
                 id="empty-summaries"),
    pytest.param(_edit("name", 3, "motif"), DbFormatError,
                 "bad record object: bad summary object: name must be a string, got 3",
                 id="motif-key-mismatch"),
    pytest.param(_edit("rho_hat", 1.5, "summary"), DbFormatError,
                 "rho_hat must be in (0,1), got 1.5", id="rho_hat-above-1"),
    pytest.param(_edit("u_hat", -0.25, "summary"), DbFormatError,
                 "u_hat must be in [0,1], got -0.25", id="u_hat-below-0"),
    pytest.param(_edit("rho_hat", "0.5", "summary"), DbFormatError,
                 'bad record object: bad summary object: rho_hat must be a number, got "0.5"',
                 id="text-rho_hat"),
    pytest.param(_edit("n", 43.0), DbFormatError,
                 "bad record object: n must be an integer, got 43.0", id="float-n"),
    pytest.param(_edit("n", 15.5), DbFormatError,
                 "bad record object: n must be an integer, got 15.5", id="fractional-n"),
    pytest.param(_edit("e_a1_a3", True, "summary"), DbFormatError,
                 "bad record object: bad summary object: e_a1_a3 must be a number, got true",
                 id="true-e_a1_a3"),
    pytest.param(_edit("r", 3.0, "motif"), DbFormatError,
                 "bad record object: bad summary object: r must be an integer, got 3.0",
                 id="float-motif-r"),
    pytest.param(_edit("network_id", 7), DbFormatError,
                 "bad record object: network_id must be a string, got 7", id="int-network_id"),
    pytest.param(lambda payload: payload.update(created_at=None), DbFormatError,
                 "bad record object: created_at must be a string, got null",
                 id="null-created_at"),
    pytest.param(("{", "{{"), DbFormatError,
                 "invalid JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)", id="bad-json"),
]


@pytest.mark.parametrize(("edit", "error", "message"), MALFORMED_LINES)
def test_db_load_malformed_line_table(tmp_path, edit, error, message):
    path = tmp_path / "db.ndjson"
    good = record_to_json(_good_record())
    _write_store(path, good, _edited_line(edit), good)
    with pytest.raises(error) as info:
        nm.db_load(path)
    assert type(info.value) is error
    want = f"{path}: line 2: {message}" if error is DbFormatError else message
    assert str(info.value) == want


# Lines that the loader takes: a JSON integer in a float field becomes its
# float, a missing created_at is empty, and unknown keys are ignored; each
# row gives the fields that differ from the good record.
COERCED_LINES = [
    pytest.param(_edit("e_a1_a3", 0, "summary"), {"e_a1_a3": 0.0}, id="int-e_a1_a3"),
    pytest.param(_edit("created_at", None), {"created_at": ""}, id="missing-created_at"),
    pytest.param(_edit("extra", {"any": [1]}), {}, id="unknown-record-key"),
    pytest.param(_edit("extra", 1, "summary"), {}, id="unknown-summary-key"),
]


@pytest.mark.parametrize(("edit", "changes"), COERCED_LINES)
def test_db_load_coerced_line_table(tmp_path, edit, changes):
    path = tmp_path / "db.ndjson"
    _write_store(path, _edited_line(edit))
    got = nm.db_load(path).records["ok"]
    want = _good_record()
    summary = want.summaries["triangle"]
    summary = dataclasses.replace(summary, **{k: v for k, v in changes.items()
                                              if hasattr(summary, k)})
    want = dataclasses.replace(want, summaries={"triangle": summary},
                               **{k: v for k, v in changes.items() if hasattr(want, k)})
    assert got == dataclasses.replace(want, created_at=got.created_at)
    assert (got.created_at == "") == ("created_at" in changes)
    summary = got.summaries["triangle"]
    assert type(got.n) is type(summary.motif_r) is int
    assert type(summary.rho_hat) is type(summary.e_a1_a3) is float


def test_db_load_crlf_store(tmp_path):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(9, "crlf")
    records = [nm.hash_network(random_graph(15, 0.5, rng), [nm.TRIANGLE], f"c{i}")
               for i in range(3)]
    _write_store(path, *map(record_to_json, records), newline="\r\n")
    assert nm.db_load(path).records == {rec.network_id: rec for rec in records}


def test_db_load_raises_for_the_first_bad_line(tmp_path):
    path = tmp_path / "db.ndjson"
    good = record_to_json(_good_record())
    _write_store(path, good, _edited_line(_edit("schema_version", 2)),
                 _edited_line(_edit("n", None)), good)
    with pytest.raises(DbFormatError) as info:
        nm.db_load(path)
    assert str(info.value) == f"{path}: line 2: unsupported schema_version 2"
    _write_store(path, good, _edited_line(_edit("n", None)),
                 _edited_line(_edit("rho_hat", 1.5, "summary")))
    with pytest.raises(DbFormatError) as info:
        nm.db_load(path)
    assert str(info.value) == f"{path}: line 2: bad record object: 'n'"
    # a value out of range raises before a later line that does not decode
    _write_store(path, good, _edited_line(_edit("rho_hat", 1.5, "summary")),
                 _edited_line(("{", "{{")), good)
    with pytest.raises(DbFormatError) as info:
        nm.db_load(path)
    assert str(info.value) == f"{path}: line 2: rho_hat must be in (0,1), got 1.5"


def test_db_load_skips_a_torn_final_line_out_of_range(tmp_path, caplog):
    path = tmp_path / "db.ndjson"
    good = record_to_json(_good_record())
    path.write_text(good + "\n" + _edited_line(_edit("rho_hat", 1.5, "summary")))
    with caplog.at_level(logging.WARNING):
        db = nm.db_load(path)
    assert db.records == {"ok": record_from_json(good)}
    assert any(f"{path}: line 2: skipping torn final record: rho_hat must be in (0,1)"
               in r.message for r in caplog.records)


# Values that decode with their stored types but fail NetworkSummary.validate:
# the loader checks them as columns, then raises the line's own error.
RANGE_FAULTS = [
    *((name, value) for name in SUMMARY_FIELDS for value in (math.nan, math.inf, -math.inf)),
    ("rho_hat", 0.0), ("rho_hat", 1.0), ("rho_hat", -0.5), ("u_hat", 1.5), ("u_hat", -1e-300),
    ("xi_g1_sq", -1e-300), ("xi_alpha1_sq", -2.0), ("n", 3), ("n", -5), ("n", 10**30),
    ("r", 15), ("r", 2**63 - 1), ("r", 10**30),
]


@pytest.mark.parametrize(("field", "value"), RANGE_FAULTS)
@pytest.mark.parametrize("multi", [False, True], ids=["one-motif", "second-motif"])
def test_db_load_range_faults_raise_what_record_from_json_raises(tmp_path, field, value, multi):
    record = nm.hash_network(random_graph(15, 0.5, spawn_rng(4, "c")),
                             [nm.TRIANGLE, nm.VSHAPE] if multi else [nm.TRIANGLE], "ok")
    payload = json.loads(record_to_json(record))
    target = payload["summaries"][-1]
    if field == "n":
        payload["n"] = value
    else:
        (target["motif"] if field == "r" else target)[field] = value
    bad = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    path = tmp_path / "db.ndjson"
    good = record_to_json(record)
    _write_store(path, good, good, bad, good)
    try:
        record_from_json(bad)
    except DbFormatError as exc:
        want = f"{path}: line 3: {exc}"
    else:
        assert field == "n" and value == 10**30  # n may be any size above r
        assert nm.db_load(path).records["ok"] == record_from_json(good)
        return
    with pytest.raises(DbFormatError) as info:
        nm.db_load(path)
    assert str(info.value) == want


def test_db_append_refuses_a_summary_of_another_network(tmp_path):
    rec = _good_record()
    other = dataclasses.replace(rec.summaries["triangle"], network_id="other")
    path = tmp_path / "db.ndjson"
    with pytest.raises(DbFormatError) as info:
        nm.db_append(path, dataclasses.replace(rec, summaries={"triangle": other}))
    assert str(info.value) == "record 'ok': summary identity mismatch"
    assert not path.exists()


@pytest.mark.parametrize("misfiled", [
    lambda s: ("vshape", s),
    lambda s: ("triangle", dataclasses.replace(s, network_id="other")),
    lambda s: ("triangle", dataclasses.replace(s, n=s.n + 1)),
], ids=["key", "network_id", "n"])
def test_built_store_refuses_a_misfiled_summary(misfiled):
    # HashDb(records) refuses what validate refuses of a record's identity,
    # while it leaves value ranges unchecked
    rec = _good_record()
    key, summary = misfiled(rec.summaries["triangle"])
    bad = dataclasses.replace(rec, summaries={key: summary})
    with pytest.raises(DbFormatError) as want:
        bad.validate()
    with pytest.raises(DbFormatError) as got:
        HashDb({"ok": bad})
    assert str(got.value) == str(want.value)
    spoiled = dataclasses.replace(rec.summaries["triangle"], rho_hat=2.0)
    HashDb({"ok": dataclasses.replace(rec, summaries={"triangle": spoiled})})


@pytest.mark.parametrize("keys", [["other"], ["a", "b"], ["ok", "b"]],
                         ids=["other-key", "two-keys", "a-second-key"])
def test_built_store_refuses_a_record_not_filed_under_its_id(keys):
    # columns file each record under its own id, so a store keyed otherwise
    # would name other records than it holds, or count one record twice
    with pytest.raises(DbFormatError) as info:
        HashDb(dict.fromkeys(keys, _good_record()))
    bad = next(key for key in keys if key != "ok")
    assert str(info.value) == f"record 'ok' filed under key {bad!r}"


def test_built_store_refuses_another_schema_version():
    # the columns hold schema 1 alone, so a record of another version would
    # be queried as schema 1
    bad = dataclasses.replace(_good_record(), schema_version=2)
    with pytest.raises(DbFormatError) as want:
        bad.validate()
    with pytest.raises(DbFormatError) as got:
        HashDb({"ok": bad})
    assert str(got.value) == str(want.value) == "unsupported schema_version 2"


def test_built_store_refuses_a_record_with_no_summaries(tmp_path):
    # an empty record has no row in any motif's entries, yet counted in len
    bad = HashRecord("x", 10, "", {})
    with pytest.raises(DbFormatError) as want:
        bad.validate()
    with pytest.raises(DbFormatError) as got:
        HashDb({"x": bad})
    assert str(got.value) == str(want.value) == "record 'x' has no summaries"
    with pytest.raises(DbFormatError):
        nm.db_append(tmp_path / "db.ndjson", bad)


@pytest.mark.parametrize("change", ["clear", "extend"])
def test_built_store_is_its_columns_not_the_given_dict(change):
    records = {nid: _builder_record(nid, 40, [("triangle", 3, 3)], k)
               for k, nid in enumerate(["net-b", "net-a", "net-c"])}
    want = dict(records)
    keyword = records["net-a"]
    db = HashDb(records)
    hits = _query_outcome(keyword, db, "triangle")
    if change == "clear":
        records.clear()
    else:
        records["net-d"] = _builder_record("net-d", 40, [("triangle", 3, 3)], 9)
    assert len(db) == 3
    assert db.records == want
    assert list(db.records) == ["net-b", "net-a", "net-c"]
    assert _query_outcome(keyword, db, "triangle") == hits


def test_built_store_records_equal_the_given_records():
    spoiled = _good_record()
    spoiled = dataclasses.replace(spoiled, network_id="spoiled", summaries={
        "triangle": dataclasses.replace(spoiled.summaries["triangle"], network_id="spoiled",
                                        rho_hat=2.0)})
    records = [
        _builder_record("net-c", 60, [("triangle", 3, 3), ("vshape", 3, 2)], 1),
        nm.hash_network(random_graph(15, 0.5, spawn_rng(5, "c")), [nm.VSHAPE, nm.TRIANGLE],
                        "both"),
        spoiled,
        _builder_record("net-a", 10**120, [("edge", 2, 1), ("cycle4", 4, 4)], 3),
    ]
    given = {rec.network_id: rec for rec in records}
    got = HashDb(given).records
    assert got == given
    # every id, field, value and type, in the given key and motif order
    assert _fields(got) == _fields(given)


def test_db_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "db.ndjson"
    path.write_bytes(b"\xff\n")
    with pytest.raises(DbFormatError) as info:
        nm.db_load(path)
    assert str(info.value) == (f"{path}: line 1: invalid UTF-8: 'utf-8' codec can't decode "
                               "byte 0xff in position 0: invalid start byte")
    good = record_to_json(_good_record()).encode()
    path.write_bytes(good + b"\n" + good.replace(b'"ok"', b'"o\xe9k"') + b"\n" + good + b"\n")
    with pytest.raises(DbFormatError) as info:
        nm.db_load(path)
    assert str(info.value).startswith(f"{path}: line 2: invalid UTF-8: ")
    assert "decode byte 0xe9 in position " in str(info.value)
    # UTF-8 text outside ASCII is read as it is
    path.write_bytes(good.replace(b'"ok"', '"ok \u00e9\u2028"'.encode()) + b"\n")
    assert sorted(nm.db_load(path).records) == ["ok \u00e9\u2028"]


@pytest.mark.parametrize("tail", [b"\xff", b'{"created_at":"\xe2\x82'], ids=["bad-byte", "cut-char"])
def test_db_load_skips_a_torn_final_line_that_is_not_utf8(tmp_path, caplog, tail):
    path = tmp_path / "db.ndjson"
    rng = spawn_rng(7, "torn-utf8")
    for i in range(2):
        nm.db_append(path, nm.hash_network(random_graph(15, 0.5, rng), [nm.TRIANGLE], f"r{i}"))
    path.write_bytes(path.read_bytes() + tail)
    with caplog.at_level(logging.WARNING):
        db = nm.db_load(path)
    assert sorted(db.records) == ["r0", "r1"]
    assert any(f"{path}: line 3: skipping torn final record: invalid UTF-8" in r.message
               for r in caplog.records)


def test_cli_query_of_a_store_that_is_not_utf8_is_a_data_error(capsys, tmp_path):
    edges = tmp_path / "k.edges"
    nm.save_edge_list(random_graph(15, 0.5, spawn_rng(8, "utf8-cli")), edges)
    db = tmp_path / "db.ndjson"
    db.write_bytes(b"\xff\n")
    code = cli.main(["query", "--keyword", str(edges), "--db", str(db),
                     "--motif", "triangle", "--seed", "1"])
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert code == 1
    assert payload["kind"] == "data"
    assert payload["error"].startswith(f"{db}: line 1: invalid UTF-8")


# Text that json escapes: quotes, backslashes, control characters, U+2028,
# lone surrogates, and characters outside ASCII and the BMP.
_json_text = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff\u00e9\U0001f600')))
_doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1e-310]))
_stored_floats = st.tuples(_doubles, st.booleans()).map(
    lambda x: np.float64(x[0]) if x[1] else x[0])


@st.composite
def _records(draw):
    network_id = draw(_json_text)
    n = draw(st.integers(0, 10**9))
    names = draw(st.lists(st.one_of(st.sampled_from(["edge", "triangle", "vshape"]), _json_text),
                          min_size=1, max_size=3, unique=True))
    summaries = {
        name: nm.NetworkSummary(network_id, n, name, draw(st.integers(2, 6)),
                                draw(st.integers(1, 15)),
                                *(draw(_stored_floats) for _ in SUMMARY_FIELDS))
        for name in names
    }
    return HashRecord(network_id, n, draw(_json_text), summaries)


@settings(max_examples=300, deadline=None)
@given(_records())
def test_record_to_json_is_json_dumps_of_the_payload(record):
    payload = {
        "schema_version": record.schema_version,
        "network_id": record.network_id,
        "created_at": record.created_at,
        "n": record.n,
        "summaries": [
            {"motif": s.motif_descriptor(), **{f: getattr(s, f) for f in SUMMARY_FIELDS}}
            for s in (record.summaries[name] for name in sorted(record.summaries))
        ],
    }
    assert record_to_json(record) == json.dumps(payload, sort_keys=True, separators=(",", ":"))



# A valid record whose values do not have their fields' types (no int lies in
# rho_hat's (0, 1)): the template raises TypeError where json.dumps wrote 0
# or 7, and the store is not touched.
@pytest.mark.parametrize(("field", "value"), [
    *((name, 0) for name in SUMMARY_FIELDS if name != "rho_hat"),
    ("network_id", 7), ("created_at", 0),
])
def test_record_to_json_needs_the_stored_types(tmp_path, field, value):
    record = _good_record()
    summary = record.summaries["triangle"]
    if hasattr(summary, field):
        summary = dataclasses.replace(summary, **{field: value})
        record = dataclasses.replace(record, summaries={"triangle": summary})
    record = dataclasses.replace(record, **{k: value for k in [field] if hasattr(record, k)})
    record.validate()
    path = tmp_path / "db.ndjson"
    with pytest.raises(TypeError):
        nm.db_append(path, record)
    assert not path.exists()


# A store line as a person or another program might write it: a valid record
# whose values may be JSON integers where floats are stored, with or without
# created_at, with unknown keys, in any key order and spacing, ending in LF or
# CRLF; some ids repeat, and blank lines fall between records.
_in_range = {
    "rho_hat": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "u_hat": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
    "xi_g1_sq": st.one_of(st.floats(0.0, 1e300), st.integers(0, 10**6)),
    "xi_alpha1_sq": st.one_of(st.floats(0.0, 1e300), st.integers(0, 10**6)),
}
_any_value = st.one_of(_doubles, st.integers(-10**6, 10**6))


@st.composite
def _store_lines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        network_id = draw(st.sampled_from(["a", "b", "c", "net 7", "nét", "\"q\""]))
        names = draw(st.lists(st.sampled_from(["triangle", "vshape", "edge", "my-4cycle",
                                               "mötif"]), min_size=1, max_size=3,
                              unique=True))
        summaries = []
        for name in names:
            r = draw(st.integers(2, 5))
            summary = {"motif": {"name": name, "r": r, "s": draw(st.integers(1, 10))}}
            for f in SUMMARY_FIELDS:
                summary[f] = draw(_in_range.get(f, _any_value))
            if draw(st.booleans()):
                summary["extra"] = [1, {"x": None}]
            summaries.append((summary, r))
        payload = {"network_id": network_id, "schema_version": 1,
                   "n": draw(st.integers(max(r for _, r in summaries) + 1, 10**12)),
                   "summaries": [summary for summary, _ in summaries]}
        if draw(st.booleans()):
            payload["created_at"] = draw(st.sampled_from(["", "2026-10-20T01:00:00+00:00"]))
        if draw(st.booleans()):
            payload["zzz"] = {"unknown": True}
        spaced = draw(st.booleans())
        line = json.dumps(payload, sort_keys=draw(st.booleans()),
                          separators=(", ", ": ") if spaced else (",", ":"))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
        lines.extend(draw(st.lists(st.sampled_from(["\n", "  \n", "\r\n"]), max_size=1)))
    return lines


def _fold(lines) -> dict:
    """The store as a per-line record_from_json fold: later duplicates win,
    each id keeps its first place."""
    records = {}
    for line in lines:
        if line.strip():
            record = record_from_json(line)
            records[record.network_id] = record
    return records


def _fields(records: dict) -> str:
    """Every id, field, value and type, in order."""
    return repr([(nid, dataclasses.astuple(rec), list(rec.summaries))
                 for nid, rec in records.items()])


@settings(max_examples=100, deadline=None)
@given(_store_lines())
def test_db_load_records_equal_a_fold_of_record_from_json(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fold.ndjson"
    path.write_bytes("".join(lines).encode("utf-8"))
    db = nm.db_load(path)
    want = _fold(lines)
    assert len(db) == len(want)
    assert _fields(db.records) == _fields(want)


def _builder_record(nid, n, motifs, seed):
    rng = spawn_rng(seed, "store-builder")
    summaries = {name: dataclasses.replace(synthetic_summary(rng, n=n, motif=(name, r, s)),
                                           network_id=nid)
                 for name, r, s in motifs}
    return HashRecord(nid, n, "2026-10-20T00:00:00+00:00", summaries)


def _query_outcome(keyword, db, motif):
    try:
        hits = nm.query(keyword, db, motif, seed=3)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(h.network_id, h.p_value.hex(), h.passed_screen) for h in hits]


def test_loaded_and_built_stores_hold_the_same_columns(tmp_path):
    both = [("triangle", 3, 3), ("vshape", 3, 2)]
    records = [
        _builder_record("net-c", 60, both[::-1], 1),  # its line lists vshape first
        _builder_record("net-a", 40, both, 2),
        _builder_record("net-d", 10**120, [("cycle4", 4, 4), ("edge", 2, 1)], 3),
        _builder_record("net-b", 10**6, both, 4),
        _builder_record("net-e", 2**21, [("edge", 2, 1), ("triangle", 3, 3)], 5),
    ]
    path = tmp_path / "db.ndjson"
    for rec in records:
        if rec.network_id == "net-c":
            payload = {"created_at": rec.created_at, "n": rec.n, "network_id": rec.network_id,
                       "schema_version": 1,
                       "summaries": [{"motif": s.motif_descriptor(),
                                      **{f: getattr(s, f) for f in SUMMARY_FIELDS}}
                                     for s in rec.summaries.values()]}
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            nm.db_append(path, rec)
    loaded = nm.db_load(path)
    built = HashDb({rec.network_id: rec for rec in records})
    assert len(loaded) == len(built) == len(records)
    motifs = ("cycle4", "edge", "triangle", "vshape")
    for motif in motifs:
        got, want = loaded.entries.get(motif), built.entries.get(motif)
        assert got.ids == want.ids == sorted(got.ids)
        assert got.motif_name == want.motif_name == motif
        for name in ("n", "motif_r", "motif_s", *SUMMARY_FIELDS):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            if a.dtype == np.float64:
                assert a.view(np.int64).tolist() == b.view(np.int64).tolist()
            else:
                assert a.tolist() == b.tolist()
    assert loaded.entries.get("edge").n.dtype == object  # 10**120 has no int64
    assert loaded.records == built.records
    assert list(loaded.records["net-c"].summaries) == ["vshape", "triangle"]
    for motif, keyword in zip(motifs, (records[2], records[4], records[1], records[1])):
        got = [_query_outcome(keyword, db, motif) for db in (loaded, built)]
        assert got[0] == got[1]
        # net-d's n, past the doubles, raises where it is an entry
        assert isinstance(got[0], tuple if motif in ("cycle4", "edge") else list)
