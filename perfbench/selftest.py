"""Self-test of the benchmark at toy sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that
1. every workload, untraced and traced, ends with a correct JSON result that
   holds every metric of BENCHMARK.json with its unit;
2. a corrupted reference value makes the run report failed > 0;
3. in a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.
Exits 1 and names the first check that failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_selftest"


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            result = last_json(bench(ROOT, "--workload", workload, "--trace", trace, "--toy"))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not (result["correct"] and result["failed"] == 0 and got == want):
                raise SystemExit(f"{workload} --trace {trace}: {result}")
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics with units")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir()
    reference = json.loads((HERE / "reference.json").read_text())
    reference["hash"]["triangle"]["u_hat"] *= 1.0 + 1e-6
    corrupted = SCRATCH / "reference.json"
    corrupted.write_text(json.dumps(reference))
    result = last_json(bench(ROOT, "--workload", "hash-dense", "--trace", "0", "--toy",
                             "--reference", str(corrupted)))
    if result["correct"] or result["failed"] < 1:
        raise SystemExit(f"a corrupted reference went unnoticed: {result}")
    print(f"ok: corrupted reference -> failed {result['failed']} of {result['attempted']}")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_*"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "hash-dense", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok: without the program the command exits {proc.returncode} and prints nothing")
    shutil.rmtree(SCRATCH)


if __name__ == "__main__":
    main()
