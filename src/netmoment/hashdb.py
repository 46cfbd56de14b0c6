"""Offline network hashing and fast querying over an NDJSON summary store.

Hashing reduces each network, once, to one summary per requested motif; a
record carries those summaries plus identity metadata and nothing else.
Querying compares a keyword record against every stored record using only
summary statistics, so its cost is O(records) with no dependence on the
original network sizes and no adjacency access of any kind (the record types
simply do not hold adjacency). Entries whose p-value clears the screening
level are the candidate matches.

A store in memory (`HashDb`) is its columns: each motif's entries as
float64 columns sorted by id (`Entries`), from which its records are built
on first read, however the store was made. A query scores the whole store
in one pass over them: `rng.spawn_normals` gives every entry the smoothing
draw of its own (seed, "query-delta", id) stream, by numpy's seeding
arithmetic over all ids and one reused PCG64, and
`inference.two_sample_p_values` runs the pair formulas once over the
columns. Each p-value has the bits that `two_sample_test` gives the pair
alone.

The store is an append-only NDJSON file: one JSON object per line, floats
serialized by shortest-roundtrip repr so the decimal text recovers the exact
double. schema_version gates format evolution. A record is written through
one fixed template, built from SUMMARY_FIELDS, that gives the bytes of
`json.dumps` with sorted keys and no spaces, and appended with one `write`
on a descriptor opened O_APPEND. `db_load` reads a store straight into its
columns (`Rows`).
"""

from __future__ import annotations

import datetime as _dt
import fcntl
import functools
import gc
import itertools
import json
import logging
import operator
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

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
        self._check_header()
        for name, summary in self.summaries.items():
            self._check_filed(name, summary)
            summary.validate()

    def _check_header(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise DbFormatError(f"unsupported schema_version {self.schema_version}")
        if not self.summaries:
            raise DbFormatError(f"record {self.network_id!r} has no summaries")

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


class Entries(SimpleNamespace):
    """One motif's entries of a store, in id order, as columns: `ids`; each
    SUMMARY_FIELDS as float64; n, motif_r and motif_s as int64 (object
    where a value has no int64); motif_name, the motif's name; and `row`,
    each entry's place in the store's records. It reads as a NetworkSummary
    whose fields are columns, which is how `two_sample_p_values` takes
    it."""

    def summary(self, k: int) -> NetworkSummary:
        """Entry k as a NetworkSummary, with the bits of its columns."""
        return NetworkSummary(self.ids[k], int(self.n[k]), self.motif_name,
                              int(self.motif_r[k]), int(self.motif_s[k]),
                              *(float(getattr(self, f)[k]) for f in SUMMARY_FIELDS))


def _ints(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class HashDb:
    """A store in memory, which is its columns: each record's id, n and
    created_at, in records order (`ids`, `ns`, `created_ats`), the motif
    names of a row not in name order (`orders`), and each motif's entries,
    sorted by id, as `Entries` (`entries`). `records` are built from the
    columns on first read, however the store was made.

    HashDb(records) keeps no reference to the dict. It refuses, with
    DbFormatError, a record not filed under its network_id, of another
    schema_version or with no summaries, and a misfiled summary
    (`HashRecord._check_filed`), but checks no value's range.
    """

    def __init__(self, records: dict[str, HashRecord] | None = None, _columns=None):
        if _columns is None:
            rows = Rows(None)
            for key, rec in records.items():
                if key != rec.network_id:
                    raise DbFormatError(f"record {rec.network_id!r} filed under key {key!r}")
                rec._check_header()
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


# A line as record_to_json writes it: decoded by one call, then checked
# against the stored types in one pass.
_raw_decode = json.JSONDecoder().raw_decode
_summary_floats = operator.itemgetter(*SUMMARY_FIELDS)
_floats_of = operator.attrgetter(*SUMMARY_FIELDS)
_FLOATS = (float,) * len(SUMMARY_FIELDS)
_NOT_AS_WRITTEN = (LookupError, TypeError, ValueError, AttributeError)


def _decoded(line: str):
    """(network_id, n, created_at, [(motif name, r, s, SUMMARY_FIELDS values)])
    of a whole, ASCII line whose every value has its stored type and whose
    schema_version is 1, motif names unique; else None."""
    try:
        payload, end = _raw_decode(line)
        network_id, n, version = payload["network_id"], payload["n"], payload["schema_version"]
        created_at, summaries = payload.get("created_at", ""), payload["summaries"]
        decoded = []
        for s in summaries:
            motif = s["motif"]
            name, r, k, values = motif["name"], motif["r"], motif["s"], _summary_floats(s)
            if (type(name) is not str or type(r) is not int or type(k) is not int
                    or tuple(map(type, values)) != _FLOATS):
                return None
            decoded.append((name, r, k, values))
    except _NOT_AS_WRITTEN:
        return None
    if (end == len(line) - 1 and line[end] == "\n" and line.isascii()
            and type(network_id) is str and type(n) is int and type(version) is int
            and version == SCHEMA_VERSION and type(created_at) is str and type(summaries) is list
            and decoded and (len(decoded) == 1 or len({s[0] for s in decoded}) == len(decoded))):
        return network_id, n, created_at, decoded
    return None


def _decoded_record(rec: HashRecord) -> tuple:
    """A record as `_decoded` gives a line."""
    return (rec.network_id, rec.n, rec.created_at,
            [(name, s.motif_r, s.motif_s, _floats_of(s)) for name, s in rec.summaries.items()])


class Rows:
    """A store's lines as `db_load` reads them, one row per record: each row's
    identity, and per motif the row, r, s and SUMMARY_FIELDS values of
    every summary, in line order."""

    def __init__(self, path):
        self.path = path
        self.ids, self.ns, self.created_ats, self.linenos = [], [], [], []
        self.latest: dict[str, int] = {}  # id: its last row, at its first row's place
        self.motifs: dict[str, tuple] = {}
        self.orders: dict[int, list] = {}  # row: its motif names, where not sorted

    def add(self, lineno: int, network_id: str, n: int, created_at: str, summaries) -> None:
        row = len(self.ids)
        self.ids.append(network_id)
        self.ns.append(n)
        self.created_ats.append(created_at)
        self.linenos.append(lineno)
        if network_id in self.latest:
            logger.warning("%s: duplicate network_id %r at line %d, keeping latest",
                           self.path, network_id, lineno)
        self.latest[network_id] = row
        if len(summaries) > 1:
            names = [summary[0] for summary in summaries]
            if names != sorted(names):
                self.orders[row] = names
        for name, r, s, values in summaries:
            rows, rs, ss, table = self.motifs.get(name) or self.motifs.setdefault(
                name, ([], [], [], array("d")))
            rows.append(row)
            rs.append(r)
            ss.append(s)
            table.extend(values)

    def arrays(self) -> tuple:
        """(n per row, {motif: (rows, r, s, (k, 9) values)}) as arrays."""
        return _ints(self.ns), {
            name: (np.array(rows, dtype=np.intp), _ints(r), _ints(s),
                   np.frombuffer(table).reshape(-1, len(SUMMARY_FIELDS)))
            for name, (rows, r, s, table) in self.motifs.items()}

    def check(self, n, motifs) -> None:
        """Raise the DbFormatError of the first line whose summary fails
        `NetworkSummary.validate`'s checks, applied to whole columns."""
        bad = len(self.ids)
        for rows, r, s, table in motifs.values():
            v = dict(zip(SUMMARY_FIELDS, table.T))
            with np.errstate(invalid="ignore"):
                ok = ((0.0 < v["rho_hat"]) & (v["rho_hat"] < 1.0) & (0.0 <= v["u_hat"])
                      & (v["u_hat"] <= 1.0) & (v["xi_alpha1_sq"] >= 0.0) & (v["xi_g1_sq"] >= 0.0)
                      & (n[rows] > r) & np.isfinite(table).all(axis=1))
            if not ok.all():
                bad = min(bad, int(rows[np.argmin(ok)]))
        if bad < len(self.ids):
            lineno = self.linenos[bad]
            with open(self.path, encoding="utf-8", errors="surrogateescape") as fh:
                line = next(itertools.islice(fh, lineno - 1, None))
            try:
                record_from_json(line)
            except DbFormatError as exc:
                raise DbFormatError(f"{self.path}: line {lineno}: {exc}") from exc
            raise DbFormatError(f"{self.path}: line {lineno}: changed while loading")

    def columns(self, n, motifs) -> tuple:
        """The `HashDb` columns (ids, ns, created_ats, orders, entries) of
        the rows' `arrays`, each id's latest row in its first row's place."""
        latest = np.fromiter(self.latest.values(), np.intp, len(self.latest))
        place = np.full(len(self.ids), -1)
        place[latest] = np.arange(len(latest))
        entries = {}
        for name, (rows, r, s, table) in motifs.items():
            kept = np.flatnonzero(place[rows] >= 0).tolist()
            if not kept:
                continue
            ids, kept = zip(*sorted(zip([self.ids[i] for i in rows[kept].tolist()], kept)))
            kept = np.array(kept, dtype=np.intp)
            entries[name] = Entries(
                ids=list(ids), row=place[rows[kept]], n=n[rows[kept]], motif_name=name,
                motif_r=r[kept], motif_s=s[kept],
                **dict(zip(SUMMARY_FIELDS, np.ascontiguousarray(table[kept].T))))
        orders = {int(place[row]): names for row, names in self.orders.items() if place[row] >= 0}
        return (*([column[i] for i in latest.tolist()]
                  for column in (self.ids, self.ns, self.created_ats)), orders, entries)


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
    `flock` (LOCK_EX, held until the `close`), one `lseek` to find its end,
    one `pread` of its last byte, one `write` and one `close`. The lock makes
    concurrent appenders take turns, so one that mends a torn tail never
    cuts off another's record. A store that does not end in a newline ends
    in an append cut short. If its last line is still a whole record (only
    the newline was lost), the newline is restored; otherwise the fragment
    is cut off. Either way a warning is logged and the new record gets its
    own line.
    """
    record.validate()
    line = (record_to_json(record) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
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
    value out of its range before any later line raises.

    Each line is decoded by one `json` call. A line whose every value has
    the type `record_to_json` writes goes straight into its motifs' columns
    (`Rows`), with no `NetworkSummary` or `HashRecord` built; after the last
    line the ranges that `NetworkSummary.validate` checks are checked over
    whole columns. Any other line, and the first line that the column check
    refuses, goes through `record_from_json`, so every error keeps its
    message and line number. The store holds each motif's entries as
    columns (`Entries`) and builds its records on first read.
    """
    rows = Rows(path)
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh, _gc_paused():
        for lineno, line in enumerate(fh, start=1):
            record = _decoded(line)
            if record is None:
                if not line.strip():
                    continue
                try:
                    if not line.isascii():
                        _check_utf8(line)
                    rec = record_from_json(line)
                except DbFormatError as exc:
                    rows.check(*rows.arrays())  # an earlier line out of range raises first
                    # only the last line of a file can lack its newline
                    if not line.endswith("\n"):
                        logger.warning("%s: line %d: skipping torn final record: %s",
                                       path, lineno, exc)
                        break
                    raise DbFormatError(f"{path}: line {lineno}: {exc}") from exc
                record = _decoded_record(rec)
            rows.add(lineno, *record)
        arrays = rows.arrays()
        rows.check(*arrays)
        return HashDb(_columns=rows.columns(*arrays))


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
