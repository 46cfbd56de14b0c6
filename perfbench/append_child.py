"""Append every record of one store to another, one `db_append` per record.

Usage: python append_child.py SOURCE.ndjson DEST.ndjson
Prints the seconds spent appending; loading SOURCE is not timed. The
query-store workload runs this as its writer process.
"""

import sys
import time

from netmoment.hashdb import db_append, db_load


def main(source: str, dest: str) -> None:
    records = list(db_load(source).records.values())
    start = time.perf_counter()
    for record in records:
        db_append(dest, record)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
