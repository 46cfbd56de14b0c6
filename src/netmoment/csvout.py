"""CSV output, shared by the command line and the simulation harness."""

from __future__ import annotations

import csv


def write_csv(rows: list, fh) -> None:
    """Write dict rows as CSV to a text handle, columns in first-seen key order."""
    fields = dict.fromkeys(k for row in rows for k in row)
    writer = csv.DictWriter(fh, fieldnames=list(fields))
    writer.writeheader()
    writer.writerows(rows)
