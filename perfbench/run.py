"""netmoment benchmark: one workload per run, end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload hash-dense --seed 1 --seconds 20 --trace 0

Workloads: hash-dense, hash-sparse, query-store, sim-cdf, or `all` (one after
another, never concurrently). The metric names come from BENCHMARK.json.

--trace 0 sets up the fixtures several times (median = setup_s), then runs
rounds of the workload as child processes until --seconds have passed and
reports the end-to-end metrics. --trace 1 runs everything in-process through
``netmoment.cli.main`` and the library: the set-up and one round with timing
wrappers (tracer.py) between two untraced rounds, then one more round that
only measures peak memory. It reports per-layer metrics and the tracing
overhead (traced round minus the mean untraced round). Both modes check the
outputs (see workloads.py). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program runs from ./src (PYTHONPATH), with one BLAS thread and
--threads 1; without ./src the script exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_ROUNDS = 2
TRACE_CHECKS = {
    # probe shares this benchmark was designed around; printed, never enforced
    "hash-dense": "graph.load_edge_list has the largest self time",
    "hash-sparse": "census + projections + summarize take over half the round",
    "query-store": "spawn_rng takes a large share (>= 30%) of hashdb.query",
}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": BLAS_THREADS,
        "cli_threads": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "toy": args.toy,
    }


def fresh_import_s(bench) -> float:
    """Median wall time of `import netmoment.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import netmoment.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for k in range(3):
        _, out = bench.child([sys.executable, "-c", code], f"import probe {k}")
        if out is not None:
            times.append(float(out))
    return statistics.median(times) if times else 0.0  # the failures are recorded


def run_untraced(workload, seconds: float) -> dict:
    setup_s = []
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    start, r = time.perf_counter(), 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        workload.round(r, inprocess=False)
        r += 1
    workload.verify()
    workload.canary()
    metrics = {"setup_s": statistics.median(setup_s), **workload.end_to_end(),
               "peak_rss_mib": workload.bench.peak_rss_kib / 1024.0}
    print(f"rounds {r}, setup runs {[round(s, 4) for s in setup_s]}")
    return metrics


def run_traced(workload) -> dict:
    """Set-up and one round with timing wrappers, between two untraced rounds
    (for the overhead), then a round that measures peak memory only."""
    from tracer import Tracer

    bench = workload.bench
    tracer = Tracer()
    # the CLI's own logging goes to a buffer, as its stderr would
    logging.basicConfig(stream=io.StringIO(), level=logging.INFO, format="%(message)s")

    def phase(fn, *args, traced=False, memory=False) -> float:
        if traced:
            bench.tracer, tracer.memory = tracer, memory
            tracer.install()
        try:
            start = time.perf_counter()
            fn(*args)
            return time.perf_counter() - start
        finally:
            tracer.uninstall()
            bench.tracer = None

    phase(workload.setup, traced=True)
    round_first = len(tracer.spans)
    untraced_s = phase(workload.round, 0, True)
    traced_s = phase(workload.round, 1, True, traced=True)
    untraced_s = (untraced_s + phase(workload.round, 2, True)) / 2.0
    counters = {name: dict(c) for name, c in tracer.counters.items()}
    memory_first = len(tracer.spans)
    phase(workload.round, 3, True, traced=True, memory=True)
    workload.verify()
    workload.canary()

    table = tracer.layer_table(0, memory_first)
    for name, row in tracer.layer_table(memory_first).items():
        table.setdefault(name, row)["peak_mib"] = row["peak_mib"]
    metrics = layer_metrics(table)
    metrics["cli.import_s"] = fresh_import_s(bench)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    print(f"trace: untraced round {untraced_s:.4f} s (mean of two), "
          f"traced round {traced_s:.4f} s")
    report_layers(table, "set-up + traced round")
    account_cli_calls(tracer, memory_first)
    extra = {f"{name}.{key}": value for name, c in counters.items() for key, value in c.items()}
    extra.update(workload.details(table, counters))
    extra.update(trace_checks(workload.name, tracer, tracer.layer_table(round_first, memory_first),
                              traced_s, round_first, memory_first))
    for name, value in extra.items():
        print(f"layer {name} = {value!r}")
    tracer.dump(WORK / f"trace-{workload.name}-{bench.seed}.json",
                {"layers": {k: {**v, "errors": dict(v["errors"])} for k, v in table.items()},
                 "metrics": metrics, "details": extra})
    return metrics


def layer_metrics(table: dict) -> dict:
    def get(name, key):
        return table.get(name, {}).get(key, 0.0)

    summarize = table.get("edgeworth.summarize", {})
    return {
        "graph.build.s": get("graph.build", "s"),
        "motif.moment_census.s": get("motif.moment_census", "s"),
        "motif.moment_census.peak_mib": get("motif.moment_census", "peak_mib"),
        "projections.project.s": get("projections.project", "s"),
        "projections.pair_matrices.s": get("projections.pair_matrices", "s"),
        "projections.pair_matrices.peak_mib": get("projections.pair_matrices", "peak_mib"),
        "edgeworth.summarize.self_s": get("edgeworth.summarize", "self_s"),
        "edgeworth.summarize.peak_mib": get("edgeworth.summarize", "peak_mib"),
        "edgeworth.summarize.calls": summarize.get("calls", 0),
        "edgeworth.summarize.degenerate":
            summarize.get("errors", {}).get("DegenerateGraphError", 0),
        "rng.spawn_rng.s": get("rng.spawn_rng", "s"),
        "rng.spawn_rng.calls": table.get("rng.spawn_rng", {}).get("calls", 0),
        "sim.sample_network.s": get("sim.sample_network", "s"),
        "sim.sample_network.calls": table.get("sim.sample_network", {}).get("calls", 0),
        "cli.self_s": get("cli.main", "self_s"),
    }


def report_layers(table: dict, scope: str) -> None:
    print(f"layers ({scope}): name calls s self_s peak_mib errors")
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        print(f"layer {name} calls={row['calls']} s={row['s']:.6f} "
              f"self_s={row['self_s']:.6f} peak_mib={row['peak_mib']:.3f} "
              f"errors={dict(row['errors'])}")


def account_cli_calls(tracer, last: int) -> None:
    """Each CLI call's wall time = cli.self_s + the self times of its layers."""
    own = tracer.self_times(0, last)
    children = {}
    for idx, span in enumerate(tracer.spans[:last]):
        children.setdefault(span[3], []).append(idx)
    for idx, span in enumerate(tracer.spans[:last]):
        if span[0] != "cli.main":
            continue
        stack, layers = list(children.get(idx, [])), 0.0
        while stack:
            child = stack.pop()
            layers += own[child]
            stack.extend(children.get(child, []))
        wall = span[2] - span[1]
        print(f"cli call run {span[4]}: wall {wall:.6f} s = cli.self {own[idx]:.6f} s "
              f"+ layers {layers:.6f} s (residual {wall - own[idx] - layers:.2e} s)")


def trace_checks(name: str, tracer, table: dict, round_s: float, first: int,
                 last: int) -> dict:
    claim = TRACE_CHECKS.get(name)
    if claim is None:
        return {}
    if name == "hash-dense":
        top = max((n for n in table if n != "cli.main"), key=lambda n: table[n]["self_s"])
        value, agree = top, top == "graph.load_edge_list"
    elif name == "hash-sparse":
        work = sum(table.get(n, {}).get("self_s", 0.0) for n in (
            "motif.moment_census", "projections.project", "projections.pair_matrices",
            "edgeworth.summarize"))
        value = work / round_s
        agree = value > 0.5
    else:
        value = spawn_share_of_query(tracer.spans[:last], first)
        agree = value >= 0.3
    print(f"trace-check {name}: {claim}: {'agrees' if agree else 'DISAGREES'} ({value})")
    return {"trace_check." + name: value}


def spawn_share_of_query(spans: list, first: int) -> float:
    """Time of spawn_rng spans under hashdb.query over hashdb.query time."""
    query_s = sum(s[2] - s[1] for s in spans[first:] if s[0] == "hashdb.query")
    spawn_s = 0.0
    for s in spans[first:]:
        if s[0] != "rng.spawn_rng":
            continue
        parent = s[3]
        while parent is not None and spans[parent][0] != "hashdb.query":
            parent = spans[parent][3]
        if parent is not None:
            spawn_s += s[2] - s[1]
    return spawn_s / query_s if query_s else 0.0


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mib", "MiB"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(spec: dict, args, reference: dict, wanted: list) -> dict:
    from workloads import WORKLOADS, Bench

    name = spec["name"]
    bench = Bench(ROOT, WORK, args.seed, args.toy, reference)
    workload = WORKLOADS[name](bench)
    print(f"workload {name}: {spec['why']}")
    metrics = run_traced(workload) if args.trace else run_untraced(workload, args.seconds)
    print(f"sizes {json.dumps(workload.sizes())}")
    for reason in bench.failures.items():
        print("FAILED %s: %s" % reason)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, value in metrics.items():
        unit = out[key]["unit"] if key in out else unit_of(key)
        print(f"metric {name} {key} = {value!r} {unit}")
    attempted, failed = bench.attempted, len(bench.failures)
    print(f"metric {name} failed_frac = {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test only")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="recorded canary outputs (the self-test passes a corrupted copy)")
    args = parser.parse_args(argv)
    if not (SRC / "netmoment" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/netmoment; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads(args.reference.read_text())

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    print(f"env {json.dumps(environment(args), sort_keys=True)}")
    results = [run_workload(w, args, reference, wanted) for w in spec["workloads"]
               if args.workload in ("all", w["name"])]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
