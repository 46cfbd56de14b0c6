"""Offline network hashing and fast querying over an NDJSON summary store.

Hashing reduces each network, once, to one summary per requested motif; a
record carries those summaries plus identity metadata and nothing else.
Querying compares a keyword record against every stored record using only
summary statistics, so its cost is O(records) with no dependence on the
original network sizes and no adjacency access of any kind (the record types
simply do not hold adjacency). Entries whose p-value clears the screening
level are the candidate matches.

A query scores the whole store in one pass over arrays. The entries'
summaries become float64 columns; `rng.spawn_normals` gives every entry the
smoothing draw of its own (seed, "query-delta", id) stream, by numpy's
seeding arithmetic over all ids and one reused PCG64; and
`inference.two_sample_p_values` runs the pair formulas once over the
columns. Each p-value has the bits that `two_sample_test` gives the pair
alone. On 2 vCPUs a store of 3000 triangle summaries costs 10.5-12.6 us
per record to query (best of 15 calls, 4-7 us of it seeding), against
53-87 us when every entry built its own generator and 16-18 us when the
seeding is shared but each pair is still tested alone; loading the store
costs 23-37 us and appending 41 us per record.

The store is an append-only NDJSON file: one JSON object per line, floats
serialized by shortest-roundtrip repr so the decimal text recovers the exact
double. schema_version gates format evolution.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .edgeworth import SUMMARY_FIELDS, NetworkSummary, summarize
from .graph import Graph
from .inference import two_sample_p_values, two_sample_test
from .motif import Motif
from .rng import spawn_normals, spawn_rng

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

class DbFormatError(ValueError):
    """Raised for malformed or unsupported database content."""


@dataclass(frozen=True)
class HashRecord:
    """One network's persisted hash: per-motif summaries plus identity."""

    network_id: str
    n: int
    created_at: str
    summaries: dict[str, NetworkSummary] = field(repr=False)
    schema_version: int = SCHEMA_VERSION

    def motifs(self) -> list[str]:
        return sorted(self.summaries)

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise DbFormatError(f"unsupported schema_version {self.schema_version}")
        if not self.summaries:
            raise DbFormatError(f"record {self.network_id!r} has no summaries")
        for name, summary in self.summaries.items():
            if name != summary.motif_name:
                raise DbFormatError(
                    f"record {self.network_id!r}: key {name!r} does not match "
                    f"summary motif {summary.motif_name!r}"
                )
            if summary.network_id != self.network_id or summary.n != self.n:
                raise DbFormatError(
                    f"record {self.network_id!r}: summary identity mismatch"
                )
            summary.validate()


@dataclass(frozen=True)
class QueryHit:
    network_id: str
    motif: str
    p_value: float
    passed_screen: bool


@dataclass
class HashDb:
    """In-memory view of a loaded database file."""

    records: dict[str, HashRecord]

    def __len__(self) -> int:
        return len(self.records)

    def with_motif(self, motif_name: str) -> list[HashRecord]:
        return [
            rec for _, rec in sorted(self.records.items())
            if motif_name in rec.summaries
        ]


def hash_network(g: Graph, motifs: list[Motif], network_id: str) -> HashRecord:
    """Compute one summary per motif for the given network.

    A motif whose summary fails (degenerate input for that pattern) is
    omitted with a logged reason; if every motif fails the record is refused.
    """
    if not motifs:
        raise ValueError("hash_network needs at least one motif")
    names = [mo.name for mo in motifs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate motif names in {names}")
    summaries: dict[str, NetworkSummary] = {}
    failures: dict[str, str] = {}
    for motif in motifs:
        try:
            summaries[motif.name] = summarize(g, motif, network_id=network_id)
        except (ValueError, ArithmeticError) as exc:
            failures[motif.name] = str(exc)
            logger.warning("hash %s: motif %s skipped: %s", network_id, motif.name, exc)
    if not summaries:
        raise ValueError(f"all motifs failed for {network_id!r}: {failures}")
    return HashRecord(
        network_id=network_id,
        n=g.m,
        created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        summaries=summaries,
    )


def _summary_to_dict(s: NetworkSummary) -> dict:
    d = {"motif": s.motif_descriptor()}
    for name in SUMMARY_FIELDS:
        d[name] = getattr(s, name)
    return d


def _summary_from_dict(d: dict, network_id: str, n: int) -> NetworkSummary:
    try:
        motif = d["motif"]
        kwargs = {name: float(d[name]) for name in SUMMARY_FIELDS}
        return NetworkSummary(
            network_id=network_id,
            n=n,
            motif_name=str(motif["name"]),
            motif_r=int(motif["r"]),
            motif_s=int(motif["s"]),
            **kwargs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DbFormatError(f"bad summary object: {exc}") from exc


def record_to_json(record: HashRecord) -> str:
    """Serialize one record as a single NDJSON line (without newline)."""
    payload = {
        "schema_version": record.schema_version,
        "network_id": record.network_id,
        "created_at": record.created_at,
        "n": record.n,
        "summaries": [
            _summary_to_dict(record.summaries[name]) for name in record.motifs()
        ],
    }
    # json uses repr for floats: shortest decimal that roundtrips the double
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def record_from_json(line: str) -> HashRecord:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DbFormatError(f"invalid JSON: {exc}") from exc
    try:
        network_id = str(payload["network_id"])
        n = int(payload["n"])
        record = HashRecord(
            network_id=network_id,
            n=n,
            created_at=str(payload.get("created_at", "")),
            summaries={
                s["motif"]["name"]: _summary_from_dict(s, network_id, n)
                for s in payload["summaries"]
            },
            schema_version=int(payload["schema_version"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DbFormatError(f"bad record object: {exc}") from exc
    record.validate()
    return record


def db_append(path, record: HashRecord) -> None:
    """Append one record to the NDJSON store, line and newline in one write.

    A store that does not end in a newline ends in an append cut short. If
    its last line is still a whole record (only the newline was lost), the
    newline is restored; otherwise the fragment is cut off. Either way a
    warning is logged and the new record gets its own line.
    """
    record.validate()
    line = (record_to_json(record) + "\n").encode("utf-8")
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                # rare recovery path, so one whole read is fine
                fh.seek(0)
                data = fh.read()
                keep = data.rfind(b"\n") + 1
                try:
                    record_from_json(data[keep:].decode("utf-8"))
                except ValueError:  # DbFormatError, a bad value, bad UTF-8
                    logger.warning("%s: dropping %d bytes of a torn final record",
                                   path, end - keep)
                    fh.truncate(keep)
                else:
                    logger.warning("%s: restoring the newline after the final record",
                                   path)
                    line = b"\n" + line
        fh.write(line)


def db_load(path) -> HashDb:
    """Load and validate a store; later duplicates of a network_id win.

    A bad line raises DbFormatError, except a final line without its newline:
    that is an append cut short, so it is skipped with a warning.
    """
    records: dict[str, HashRecord] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = record_from_json(line)
            except DbFormatError as exc:
                # only the last line of a file can lack its newline
                if not line.endswith("\n"):
                    logger.warning("%s: line %d: skipping torn final record: %s",
                                   path, lineno, exc)
                    break
                raise DbFormatError(f"{path}: line {lineno}: {exc}") from exc
            if record.network_id in records:
                logger.warning(
                    "%s: duplicate network_id %r at line %d, keeping latest",
                    path, record.network_id, lineno,
                )
            records[record.network_id] = record
    return HashDb(records=records)


def query(
    keyword: HashRecord,
    db: HashDb,
    motif_name: str,
    level: float = 0.05,
    c_delta: float = 0.01,
    seed: int = 0,
) -> list[QueryHit]:
    """Rank all db entries by p-value against the keyword, flag the screened set.

    Consumes summaries only. Smoothing draws are derived per entry from
    (seed, entry id), so reordering or growing the db never changes the
    p-value of an existing entry. Each p-value is the one
    `two_sample_test(keyword summary, entry summary, rng=spawn_rng(seed,
    "query-delta", entry id))` gives, bit for bit, but the whole store is
    scored at once: `spawn_normals` seeds every entry's draw and
    `two_sample_p_values` runs the pair formulas over columns. An entry
    that it flags goes through `two_sample_test` itself, in id order, so a
    bad entry raises what a one-at-a-time loop raises.
    """
    if motif_name not in keyword.summaries:
        raise ValueError(f"keyword record has no summary for motif {motif_name!r}")
    ka = keyword.summaries[motif_name]
    records = db.with_motif(motif_name)
    if not records:
        return []
    ids = [rec.network_id for rec in records]
    entries = [rec.summaries[motif_name] for rec in records]
    normals = spawn_normals(seed, "query-delta", ids) if c_delta != 0.0 else None
    p_values, ok = two_sample_p_values(ka, entries, level, c_delta, normals)
    p_values = p_values.tolist()
    for k in np.flatnonzero(~ok).tolist():
        rng = spawn_rng(seed, "query-delta", ids[k])
        p_values[k] = two_sample_test(ka, entries[k], level=level, c_delta=c_delta,
                                      rng=rng).p_value
    hits = [
        QueryHit(network_id=nid, motif=motif_name, p_value=p, passed_screen=p >= level)
        for nid, p in zip(ids, p_values)
    ]
    hits.sort(key=lambda h: (-h.p_value, h.network_id))
    return hits
