"""Offline network hashing and fast querying over an NDJSON summary store.

Hashing reduces each network, once, to one summary per requested motif; a
record carries those summaries plus identity metadata and nothing else.
Querying compares a keyword record against every stored record using only
summary statistics, so its cost is O(records) with no dependence on the
original network sizes and no adjacency access of any kind (the record types
simply do not hold adjacency). Entries whose p-value clears the screening
level are the candidate matches.

A store in memory (`HashDb`) is its columns: each motif's entries as
float64 columns sorted by id (`storecols`), from which its records are
built on first read, however the store was made. A query scores the whole
store in one pass over them: `rng.spawn_normals` gives every entry the
smoothing draw of its own (seed, "query-delta", id) stream, by numpy's
seeding arithmetic over all ids and one reused PCG64, and
`inference.two_sample_p_values` runs the pair formulas once over the
columns. Each p-value has the bits that `two_sample_test` gives the pair
alone.

The store is an append-only NDJSON file: one JSON object per line, floats
serialized by shortest-roundtrip repr so the decimal text recovers the exact
double. schema_version gates format evolution. A record is written through
one fixed template, built from SUMMARY_FIELDS, that gives the bytes of
`json.dumps` with sorted keys and no spaces, and appended with one `write`
on a descriptor opened O_APPEND. `storecols` loads a store straight into
its columns.
"""

from __future__ import annotations

import datetime as _dt
import functools
import gc
import json
import logging
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .edgeworth import SUMMARY_FIELDS, NetworkSummary, _summaries
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
        self._check_version()
        if not self.summaries:
            raise DbFormatError(f"record {self.network_id!r} has no summaries")
        for name, summary in self.summaries.items():
            self._check_filed(name, summary)
            summary.validate()

    def _check_version(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise DbFormatError(f"unsupported schema_version {self.schema_version}")

    def _check_filed(self, name: str, summary: NetworkSummary) -> None:
        """Raise DbFormatError unless the summary is filed under its motif's
        name and carries this record's network_id and n."""
        if name != summary.motif_name:
            raise DbFormatError(
                f"record {self.network_id!r}: key {name!r} does not match "
                f"summary motif {summary.motif_name!r}"
            )
        if summary.network_id != self.network_id or summary.n != self.n:
            raise DbFormatError(f"record {self.network_id!r}: summary identity mismatch")


@dataclass(frozen=True)
class QueryHit:
    network_id: str
    motif: str
    p_value: float
    passed_screen: bool


class HashDb:
    """A store in memory, which is its columns: each record's id, n and
    created_at, in records order (`ids`, `ns`, `created_ats`), the motif
    names of a row not in name order (`orders`), and each motif's entries,
    sorted by id, as `storecols.Entries` (`entries`). `records` are built
    from the columns on first read, however the store was made.

    HashDb(records) keeps no reference to the dict. It refuses, with
    DbFormatError, a record not filed under its network_id or of another
    schema_version, and a misfiled summary (`HashRecord._check_filed`), but
    checks no value's range.
    """

    def __init__(self, records: dict[str, HashRecord] | None = None, _columns=None):
        if _columns is None:
            from .storecols import Rows, _decoded_record

            rows = Rows(None)
            for key, rec in records.items():
                if key != rec.network_id:
                    raise DbFormatError(f"record {rec.network_id!r} filed under key {key!r}")
                rec._check_version()
                for name, summary in rec.summaries.items():
                    rec._check_filed(name, summary)
                rows.add(0, *_decoded_record(rec))
            _columns = rows.columns(*rows.arrays())
        self.ids, self.ns, self.created_ats, self.orders, self.entries = _columns

    @functools.cached_property
    def records(self) -> dict[str, HashRecord]:
        summaries = [{} for _ in self.ids]
        with _gc_paused():
            for name, e in sorted(self.entries.items()):
                for row, *fields in zip(e.row.tolist(), e.ids, e.n.tolist(), e.motif_r.tolist(),
                                        e.motif_s.tolist(),
                                        *(getattr(e, f).tolist() for f in SUMMARY_FIELDS)):
                    summaries[row][name] = NetworkSummary(fields[0], fields[1], name, *fields[2:])
            for row, names in self.orders.items():
                summaries[row] = {name: summaries[row][name] for name in names}
            return dict(zip(self.ids, map(HashRecord, self.ids, self.ns, self.created_ats,
                                          summaries)))

    def __len__(self) -> int:
        return len(self.ids)

    def with_motif(self, motif_name: str) -> list[HashRecord]:
        return [
            rec for _, rec in sorted(self.records.items())
            if motif_name in rec.summaries
        ]


def hash_network(g: Graph, motifs: list[Motif], network_id: str) -> HashRecord:
    """Compute one summary per motif for the given network.

    All the motifs go through the summary kernel in one call: one node pass
    over A @ A and one leaf walk for them all, each summary with the bits
    `summarize` gives it alone. A motif whose summary fails (degenerate
    input for that pattern) is omitted with a logged reason, in motif order;
    if every motif fails the record is refused.
    """
    if not motifs:
        raise ValueError("hash_network needs at least one motif")
    names = [mo.name for mo in motifs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate motif names in {names}")
    summaries: dict[str, NetworkSummary] = {}
    failures: dict[str, str] = {}
    for motif, result in zip(motifs, _summaries(g, motifs, [network_id])):
        if isinstance(result, Exception):
            failures[motif.name] = str(result)
            logger.warning("hash %s: motif %s skipped: %s", network_id, motif.name, result)
        else:
            summaries[motif.name] = result[0]
    if not summaries:
        raise ValueError(f"all motifs failed for {network_id!r}: {failures}")
    return HashRecord(
        network_id=network_id,
        n=g.m,
        created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        summaries=summaries,
    )


# A stored value must have its field's JSON type: a string for ids and
# names, an integer for n, r, s and schema_version, a number for the summary
# values. Any other is refused, not converted.
_JSON_KINDS = {str: "a string", int: "an integer"}
_FLOAT_TYPE = {float}
_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


def _typed(obj: dict, key: str, kind: type):
    """obj[key], which must be a JSON string or integer, as `kind` says (a
    JSON true or false is not an integer)."""
    value = obj[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return value


def _summary_values(d: dict) -> list:
    """The SUMMARY_FIELDS of a summary object as floats. Each must be a JSON
    number, not true or false; the first value missing or of another type,
    in SUMMARY_FIELDS order, is the one reported."""
    values = list(map(d.get, SUMMARY_FIELDS))
    if set(map(type, values)) == _FLOAT_TYPE:  # as record_to_json writes them
        return values
    for k, (name, value) in enumerate(zip(SUMMARY_FIELDS, values)):
        if type(value) is int:
            values[k] = float(value)  # OverflowError beyond the doubles
        elif type(value) is not float:
            if name not in d:
                raise KeyError(name)
            raise TypeError(f"{name} must be a number, got {json.dumps(value)}")
    return values


def _summary_from_dict(d: dict, network_id: str, n: int) -> NetworkSummary:
    try:
        motif = d["motif"]
        # the values before the motif's, so a summary with several faults
        # reports the first value fault
        values = _summary_values(d)
        return NetworkSummary(network_id, n, _typed(motif, "name", str), _typed(motif, "r", int),
                              _typed(motif, "s", int), *values)
    except _BAD_VALUE as exc:
        raise DbFormatError(f"bad summary object: {exc}") from exc


# One record as json.dumps(payload, sort_keys=True, separators=(",", ":"))
# writes it: keys in sorted order, ints by %d, strings escaped to ASCII by
# json's own encoder, and floats by float.__repr__, the shortest decimal that
# round-trips the double (`%r` would print a numpy float64 as np.float64(...)).
# The summary's keys are SUMMARY_FIELDS and "motif"; its floats are read by
# two getters, the fields that sort before "motif" and those after it.
_RECORD_JSON = '{"created_at":%s,"n":%d,"network_id":%s,"schema_version":%d,"summaries":[%s]}'
_SUMMARY_KEYS = sorted([*SUMMARY_FIELDS, "motif"])
_SUMMARY_JSON = "{%s}" % ",".join(
    '"motif":{"name":%s,"r":%d,"s":%d}' if key == "motif" else f'"{key}":%s'
    for key in _SUMMARY_KEYS
)
_MOTIF_AT = _SUMMARY_KEYS.index("motif")
_floats_before = operator.attrgetter(*_SUMMARY_KEYS[:_MOTIF_AT])
_floats_after = operator.attrgetter(*_SUMMARY_KEYS[_MOTIF_AT + 1:])
_json_str = json.encoder.encode_basestring_ascii


def _summary_json(s: NetworkSummary) -> str:
    f = float.__repr__
    return _SUMMARY_JSON % (
        *map(f, _floats_before(s)), _json_str(s.motif_name), s.motif_r, s.motif_s,
        *map(f, _floats_after(s)),
    )


def record_to_json(record: HashRecord) -> str:
    """Serialize one record as a single NDJSON line (without newline).

    It needs a float (a numpy float64 too) in every float field and a str in
    `network_id`, `created_at` and the motif name, as `hash_network` and
    `db_load` make them: an int in a float field, say, raises TypeError.
    """
    return _RECORD_JSON % (
        _json_str(record.created_at), record.n, _json_str(record.network_id),
        record.schema_version,
        ",".join([_summary_json(record.summaries[name]) for name in record.motifs()]),
    )


def record_from_json(line: str) -> HashRecord:
    """Parse and validate one NDJSON line; any fault raises DbFormatError."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DbFormatError(f"invalid JSON: {exc}") from exc
    try:
        network_id = _typed(payload, "network_id", str)
        n = _typed(payload, "n", int)
        record = HashRecord(
            network_id,
            n,
            _typed(payload, "created_at", str) if "created_at" in payload else "",
            {s["motif"]["name"]: _summary_from_dict(s, network_id, n)
             for s in payload["summaries"]},
            _typed(payload, "schema_version", int),
        )
    except _BAD_VALUE as exc:
        raise DbFormatError(f"bad record object: {exc}") from exc
    try:
        record.validate()
    except DbFormatError:
        raise
    except ValueError as exc:  # a summary value out of its range, or not finite
        raise DbFormatError(str(exc)) from exc
    return record


def _tail_prefix(fd: int, path, end: int) -> bytes:
    """Mend a store whose last byte is not a newline: the end of an append
    cut short. Returns b"\n" if the last line is still a whole record (only
    its newline was lost), else cuts the fragment off and returns b""."""
    with open(fd, "rb", closefd=False) as fh:  # a rare path, so one whole read is fine
        fh.seek(0)
        data = fh.read()
    keep = data.rfind(b"\n") + 1
    try:
        record_from_json(data[keep:].decode("utf-8"))
    except ValueError:  # DbFormatError, a bad value, bad UTF-8
        logger.warning("%s: dropping %d bytes of a torn final record", path, end - keep)
        os.ftruncate(fd, keep)
        return b""
    logger.warning("%s: restoring the newline after the final record", path)
    return b"\n"


def db_append(path, record: HashRecord) -> None:
    """Append one record to the NDJSON store, line and newline in one write.

    The system calls are one `open` (O_APPEND, creating the store), one
    `lseek` to find its end, one `pread` of its last byte, one `write` and
    one `close`. A store that does not end in a newline ends in an append
    cut short. If its last line is still a whole record (only the newline
    was lost), the newline is restored; otherwise the fragment is cut off.
    Either way a warning is logged and the new record gets its own line.
    """
    record.validate()
    line = (record_to_json(record) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            line = _tail_prefix(fd, path, end) + line
        while line:  # a regular file takes it all in one write, barring a signal
            line = line[os.write(fd, line):]
    finally:
        os.close(fd)


def _check_utf8(line: str) -> None:
    """Raise DbFormatError if a line read with errors="surrogateescape" held
    a byte that is not UTF-8 (kept as a lone surrogate, which no UTF-8 text
    decodes to)."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DbFormatError(f"invalid UTF-8: {exc}") from exc


@contextmanager
def _gc_paused():
    """The cyclic garbage collector off for the block, then as the caller had
    it. The rows a load reads, the records built from them, and the hits a
    query builds form no reference cycles, but every full collection would
    walk all of them, which slows a large store's load and query (CHANGES.md,
    the MENDED line on the cyclic garbage collector)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def db_load(path) -> HashDb:
    """Load and validate a store; later duplicates of a network_id win.

    A bad line raises DbFormatError, except a final line without its newline:
    that is an append cut short, so it is skipped with a warning. A byte that
    is not UTF-8 makes its line bad in the same way. A line raises for a
    value out of its range before any later line raises. The store holds
    each motif's entries as columns and builds its records on demand (see
    `storecols`).
    """
    # imported here: a process that only hashes and appends never compiles
    # the loader, which matters where bytecode is not cached
    from .storecols import load

    return load(path)


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
    entries = db.entries.get(motif_name)
    if entries is None:
        return []
    with _gc_paused():
        ids = entries.ids
        normals = spawn_normals(seed, "query-delta", ids) if c_delta != 0.0 else None
        p_values, ok = two_sample_p_values(ka, entries, level, c_delta, normals)
        p_values = p_values.tolist()
        for k in np.flatnonzero(~ok).tolist():
            rng = spawn_rng(seed, "query-delta", ids[k])
            p_values[k] = two_sample_test(ka, entries.summary(k), level=level, c_delta=c_delta,
                                          rng=rng).p_value
        # sorted on the (-p, id) keys themselves, then one hit per entry; -(-p) is p
        return [
            QueryHit(nid, motif_name, -neg_p, -neg_p >= level)
            for neg_p, nid in sorted(zip([-p for p in p_values], ids))
        ]
