import dataclasses
import json
import logging

import pytest

import netmoment as nm
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

from conftest import random_graph


def test_hash_p3_edge(p3):
    rec = nm.hash_network(p3, [nm.EDGE], "p3")
    assert rec.n == 3
    assert rec.motifs() == ["edge"]
    assert rec.summaries["edge"].rho_hat == pytest.approx(2 / 3)


def test_hash_network_runs_the_node_pass_once(monkeypatch):
    # m * m > 2^16, so the product is not kept whole and each row range counts
    adj = random_graph(300, 0.05, spawn_rng(4, "node-pass")).adj
    calls = []
    rows = nm_motif._TwoWalks.rows

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return rows(self, lo, hi)

    def product_calls(fn, *args):
        calls.clear()
        fn(*args)
        return list(calls)

    monkeypatch.setattr(nm_motif._TwoWalks, "rows", counted)
    g = nm.Graph(adj)
    first = product_calls(nm.summarize, g, nm.TRIANGLE)
    second = product_calls(nm.summarize, g, nm.VSHAPE)
    node_pass = first[:len(first) - len(second)]
    assert node_pass[0][0] == 0 and node_pass[-1][1] == 300
    assert first[len(node_pass):] == second  # the same leaves for each motif
    both = product_calls(nm.hash_network, nm.Graph(adj), [nm.TRIANGLE, nm.VSHAPE], "x")
    assert both == node_pass + second + second


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
