"""Record the canary outputs that every benchmark run compares against.

Usage (from the repository root): python3 perfbench/record_reference.py

Writes perfbench/reference.json. Run it only on a commit whose outputs are
known good; a change that moves these outputs must say why.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, Bench  # noqa: E402


def main() -> None:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    bench = Bench(run.ROOT, run.WORK, 0, False, {})
    reference = {}
    for name in ("hash-dense", "query-store", "sim-cdf"):
        workload = WORKLOADS[name](bench)
        reference[workload.reference_key] = workload.canary_output()
    if bench.failures:
        sys.exit(f"canary failed: {bench.failures}")
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
