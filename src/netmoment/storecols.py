"""The columns of a store, which are all that a `HashDb` holds.

`hashdb.db_load` reads a store here. Each line is decoded by one `json`
call. A line whose every value has the type `record_to_json` writes goes
straight into its motifs' columns, with no `NetworkSummary` or `HashRecord`
built; after the last line the ranges that `NetworkSummary.validate`
checks are checked over whole columns. Any other line, and the first line
that the column check refuses, goes through `hashdb.record_from_json`, so
every error keeps its message and line number. `HashDb(records)` feeds its
records through the same rows, with no range check. Per motif, a store's
entries are sorted by id (`Entries`, the columns a query reads); its
records are built from the columns only when they are read, however the
store was made.

A process that neither loads nor queries a store (`netmoment hash`, which
only appends, and `simulate cdf` or `coverage`) never imports this module,
so it never compiles it.
"""

from __future__ import annotations

import itertools
import json
import operator
from array import array
from types import SimpleNamespace

import numpy as np

from .edgeworth import SUMMARY_FIELDS, NetworkSummary
from .hashdb import (
    SCHEMA_VERSION,
    DbFormatError,
    HashDb,
    HashRecord,
    _check_utf8,
    _gc_paused,
    logger,
    record_from_json,
)


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
    """A store's lines as `load` reads them, one row per record: each row's
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


def load(path) -> HashDb:
    """`hashdb.db_load`: the store at path, read line by line into Rows."""
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
