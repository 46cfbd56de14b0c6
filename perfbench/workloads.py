"""The four benchmark workloads: seeded fixtures, timed rounds, output checks.

Every workload builds its inputs from the workload seed through public
netmoment APIs only, then drives the program one call at a time (a closed
loop with one client). A round is one pass over the workload's inputs.
Outputs are checked outside the timed operations, in two ways:

* against an independent computation on the same inputs (edge and triangle
  counts, the in-process query, repeated calls agreeing with each other);
* through a fixed "canary" input whose output was recorded from a
  known-good commit in ``reference.json`` (see ``record_reference.py``).

Library calls go through module attributes (``nm_graph.save_edge_list``) so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import netmoment.cli as nm_cli
import netmoment.graph as nm_graph
import netmoment.hashdb as nm_hashdb
import netmoment.motif as nm_motif
import netmoment.rng as nm_rng
import netmoment.sim.graphons as nm_graphons

CANARY_SEED = 20260808
REL_TOL = 1e-9  # golden summaries: room for reordered sums, none for bugs
# the nine per-network summary values a hash record stores
SUMMARY_FIELDS = (
    "rho_hat", "u_hat", "alpha0_hat", "xi_g1_sq", "xi_alpha1_sq",
    "e_a1_cubed", "e_a1_a3", "e_a4_a1", "e_a1a1a2",
)
# graphons of the paper's query database, as in `simulate query-bench`
STORE_GRAPHONS = (
    "SmoothGraphon-1", "SmoothGraphon-2", "SmoothGraphon-3", "SmoothGraphon-4",
    "SmoothGraphon-5", "BlockModel-1", "BlockModel-2", "BlockModel-3",
    "BlockModel-4", "BlockModel-5",
)
# one keyword from the database graphons, one from outside it
KEYWORDS = ("BlockModel-1", "SmoothGraphon-6")


class Bench:
    """State of one run: paths, child environment and the operation ledger."""

    def __init__(self, root: Path, work: Path, seed: int, toy: bool, reference: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.toy = toy
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("NETMOMENT_SEED", None)
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.peak_rss_kib = 0
        self.tracer = None  # set while an in-process round runs traced

    def check(self, ok: bool, label: str, reason: str) -> bool:
        if not ok:
            self.failures.setdefault(label, reason)
        return ok

    def child(self, argv: list[str], label: str):
        """Run one child process; return (wall s, stdout or None on failure)."""
        self.attempted += 1
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root, env=self.env)
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-400:]
            self.check(False, label, f"exit {proc.returncode}: {tail}")
            return wall, None
        return wall, out_path.read_text()

    def cli(self, args: list[str], label: str, inprocess: bool):
        """One `netmoment` call with --threads 1: a child, or main() in-process."""
        args = [*args, "--threads", "1"]
        if not inprocess:
            return self.child([sys.executable, "-m", "netmoment.cli", *args], label)
        self.attempted += 1
        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.new_run()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = nm_cli.main(args)
            except Exception as exc:  # a crash is a failed operation, not a dead run
                code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if not self.check(code == 0, label, f"in-process exit {code}"):
            return wall, None
        return wall, out.getvalue()

    def timed(self, label: str, fn, *args):
        """One in-process library operation; (wall s, result or None)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.new_run()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.check(False, label, f"{type(exc).__name__}: {exc}")
            result = None
        return time.perf_counter() - start, result


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def sample(seed: int, key: tuple, graphon: str, rho: float, m: int):
    rng = nm_rng.spawn_rng(seed, "perfbench", *key)
    return nm_graphons.sample_network(nm_graphons.builtin_graphon(graphon), rho, m, rng).graph


def summary_values(summary) -> tuple:
    return tuple(getattr(summary, f) for f in SUMMARY_FIELDS)


def edge_oracle(adj: np.ndarray) -> dict:
    """rho_hat and u_hat for triangle and vshape, counted independently."""
    m = adj.shape[0]
    d = adj.sum(axis=1).astype(np.int64)
    edges = int(d.sum()) // 2
    if edges > m * m // 20:
        a = adj.astype(np.float64)
        triangles = int(round(float(((a @ a) * a).sum()))) // 6
    else:
        a = sp.csr_matrix(adj, dtype=np.int64)
        triangles = int(a.multiply(a @ a).sum()) // 6
    subsets = math.comb(m, 3)
    return {
        "rho_hat": 2.0 * edges / (m * (m - 1)),
        "triangle": triangles / subsets,
        "vshape": (int((d * (d - 1) // 2).sum()) - 2 * triangles) / subsets,
    }


class Workload:
    name = ""
    setup_reps = 5  # setup_s is their median

    def __init__(self, bench: Bench):
        self.bench = bench
        self.work = bench.work

    def setup(self) -> None:
        """Write the inputs, then warm the page cache with one CLI start-up."""
        self.make_inputs()
        self.bench.child([sys.executable, "-m", "netmoment.cli", "--version"], "warm-up")

    def make_inputs(self) -> None:
        raise NotImplementedError

    def round(self, r: int, inprocess: bool) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that need every round's output; most run inside round()."""

    def canary_output(self):
        raise NotImplementedError

    def canary(self) -> None:
        label = f"{self.name} canary"
        try:
            got = self.canary_output()
        except Exception as exc:
            self.bench.check(False, label, f"{type(exc).__name__}: {exc}")
            return
        want = self.bench.reference[self.reference_key]
        self.bench.check(got is not None and self.matches(got, want), label,
                         "output differs from reference.json")

    def end_to_end(self) -> dict:
        raise NotImplementedError

    def details(self, table: dict, counters: dict) -> dict:
        """Workload-specific layer figures for the traced report."""
        return {}


# ---------------------------------------------------------------------------
# hash-dense / hash-sparse
# ---------------------------------------------------------------------------


class HashWorkload(Workload):
    reference_key = "hash"
    motifs = "triangle,vshape"

    def __init__(self, bench: Bench, m: int, specs: tuple):
        super().__init__(bench)
        self.m = m
        self.specs = specs  # (graphon, rho) per edge list
        self.store = self.work / f"{self.name}.ndjson"
        self.inputs = []  # (edge list path, sampled graph)
        self.edges = 0
        self.walls = [[] for _ in specs]
        self.ids = [[] for _ in specs]

    def make_inputs(self) -> None:
        self.inputs = []
        for i, (graphon, rho) in enumerate(self.specs):
            g = sample(self.bench.seed, (self.name, i), graphon, rho, self.m)
            path = self.work / f"{self.name}-{i}.edges"
            nm_graph.save_edge_list(g, path)
            self.inputs.append((path, g))
        self.edges = sum(g.edge_count for _, g in self.inputs)

    def sizes(self) -> dict:
        return {"m": self.m, "edges": [g.edge_count for _, g in self.inputs],
                "edge_list_bytes": [p.stat().st_size for p, _ in self.inputs]}

    def hash_args(self, path, net_id, store):
        return ["hash", "--input", str(path), "--motifs", self.motifs, "--id", net_id,
                "--out", str(store), "--seed", str(self.bench.seed)]

    def round(self, r: int, inprocess: bool) -> None:
        for i, (path, _) in enumerate(self.inputs):
            net_id = f"{self.name}-{i}-r{r}"
            wall, out = self.bench.cli(self.hash_args(path, net_id, self.store),
                                       net_id, inprocess)
            self.walls[i].append(wall)
            if out is not None:
                self.ids[i].append(net_id)

    def verify(self) -> None:
        check = self.bench.check
        db = nm_hashdb.db_load(self.store)
        for i, (_, g) in enumerate(self.inputs):
            want = edge_oracle(g.adj)
            first = None
            for net_id in self.ids[i]:
                rec = db.records.get(net_id)
                if not check(rec is not None, net_id, "record missing from the store"):
                    continue
                check(rec.n == self.m, net_id, f"n={rec.n}, expected {self.m}")
                got = {name: summary_values(rec.summaries[name])
                       for name in ("triangle", "vshape") if name in rec.summaries}
                if not check(len(got) == 2, net_id, f"motifs {sorted(got)}"):
                    continue
                for name in got:
                    summary = rec.summaries[name]
                    check(close(summary.rho_hat, want["rho_hat"]), net_id,
                          f"{name} rho_hat {summary.rho_hat} != {want['rho_hat']}")
                    check(close(summary.u_hat, want[name]), net_id,
                          f"{name} u_hat {summary.u_hat} != {want[name]}")
                first = first or got
                check(got == first, net_id, "summary differs from an earlier call")

    def canary_output(self):
        g = sample(CANARY_SEED, ("canary-hash",), "SmoothGraphon-2", 0.3, 120)
        path, store = self.work / "canary.edges", self.work / "canary-hash.ndjson"
        nm_graph.save_edge_list(g, path)
        store.unlink(missing_ok=True)
        _, out = self.bench.cli(self.hash_args(path, "canary", store), f"{self.name} canary",
                                inprocess=False)
        if out is None:
            return None
        rec = nm_hashdb.db_load(store).records["canary"]
        return {name: dict(zip(SUMMARY_FIELDS, summary_values(s)))
                for name, s in rec.summaries.items()}

    @staticmethod
    def matches(got, want) -> bool:
        return got.keys() == want.keys() and all(
            close(got[mo][f], want[mo][f]) for mo in want for f in SUMMARY_FIELDS)

    def end_to_end(self) -> dict:
        best = [min(w) for w in self.walls]
        return {"cli_min_s": statistics.fmean(best), "items_per_s": self.edges / sum(best),
                "cli_p50_s": statistics.fmean(statistics.median(w) for w in self.walls)}

    def details(self, table: dict, counters: dict) -> dict:
        load = table.get("graph.load_edge_list")
        if not load:
            return {}
        # fixtures are written in set-up and parsed once per round
        return {"graph.load_edge_list.edges_per_s": self.edges * load["calls"]
                / len(self.inputs) / load["s"]}


class HashDense(HashWorkload):
    name = "hash-dense"

    def __init__(self, bench: Bench):
        m = 120 if bench.toy else 1000
        super().__init__(bench, m, (("SmoothGraphon-1", 0.25), ("BlockModel-2", 0.25),
                                    ("SmoothGraphon-4", 0.25)))


class HashSparse(HashWorkload):
    name = "hash-sparse"

    def __init__(self, bench: Bench):
        m = 200 if bench.toy else 1500
        scale = 7.5 if bench.toy else 1.0
        super().__init__(bench, m, (("SmoothGraphon-3", 0.02 * scale),
                                    ("BlockModel-3", 0.016 * scale)))


# ---------------------------------------------------------------------------
# query-store
# ---------------------------------------------------------------------------


def build_store(seed: int, key: str, k: int, path: Path) -> list:
    """K records, each the triangle summary of its own small sampled network."""
    path.unlink(missing_ok=True)
    rng = np.random.default_rng([seed, k])
    sizes = rng.integers(30, 61, size=k)
    records = []
    for j in range(k):
        graphon = STORE_GRAPHONS[j % len(STORE_GRAPHONS)]
        g = sample(seed, (key, j), graphon, 0.4, int(sizes[j]))
        rec = nm_hashdb.hash_network(g, [nm_motif.TRIANGLE], f"{graphon}-{j:06d}")
        nm_hashdb.db_append(path, rec)
        records.append(rec)
    return records


def hit_rows(hits) -> list:
    return [(h.network_id, h.p_value, h.passed_screen) for h in hits]


def cli_hit_rows(stdout: str) -> list:
    return [(h["network_id"], h["p_value"], h["passed_screen"])
            for h in json.loads(stdout)["hits"]]


class QueryStore(Workload):
    name = "query-store"
    reference_key = "query"
    setup_reps = 3  # each builds the whole store, ~2.5 s

    def __init__(self, bench: Bench):
        super().__init__(bench)
        self.k = 200 if bench.toy else 3000
        self.keyword_m = 100 if bench.toy else 400
        self.source = self.work / "query-source.ndjson"
        self.store = self.work / "query-store.ndjson"
        self.records = []
        self.keywords = []  # (path, record)
        self.phase = {"append": [], "load": [], "query": []}
        self.cli_walls = [[] for _ in KEYWORDS]
        self.expected = {}  # keyword graphon -> round 0 ranking
        self.checked_store = False

    def make_inputs(self) -> None:
        self.records = build_store(self.bench.seed, "store", self.k, self.source)
        self.keywords = []
        for graphon in KEYWORDS:
            g = sample(self.bench.seed, ("keyword", graphon), graphon, 0.4, self.keyword_m)
            path = self.work / f"keyword-{graphon}.edges"
            nm_graph.save_edge_list(g, path)
            self.keywords.append((path, nm_hashdb.hash_network(g, [nm_motif.TRIANGLE], "keyword")))

    def sizes(self) -> dict:
        return {"K": self.k, "keyword_m": self.keyword_m,
                "store_bytes": self.source.stat().st_size}

    def _append(self):
        for rec in self.records:
            nm_hashdb.db_append(self.store, rec)

    def query_args(self, kw_path, store, seed):
        return ["query", "--keyword", str(kw_path), "--db", str(store),
                "--motif", "triangle", "--seed", str(seed)]

    def round(self, r: int, inprocess: bool) -> None:
        bench, check = self.bench, self.bench.check
        self.store.unlink(missing_ok=True)
        label = f"append r{r}"
        if inprocess:
            t_append, _ = bench.timed(label, self._append)
        else:
            _, out = bench.child([sys.executable, str(Path(__file__).parent / "append_child.py"),
                                  str(self.source), str(self.store)], label)
            t_append = float(out) if out is not None else None
        t_load, db = bench.timed(f"load r{r}", nm_hashdb.db_load, self.store)
        if db is None:
            return
        check(len(db) == self.k, f"load r{r}", f"{len(db)} records, expected {self.k}")
        if not self.checked_store:
            self.checked_store = True
            self._check_store(db)
        t_query = []
        for (path, kw), graphon in zip(self.keywords, KEYWORDS):
            label = f"query {graphon} r{r}"
            wall, hits = bench.timed(label, nm_hashdb.query, kw, db, "triangle",
                                     0.05, 0.01, bench.seed)
            t_query.append(wall)
            if hits is not None:
                check(len(hits) == self.k, label, f"{len(hits)} hits")
                first = self.expected.setdefault(graphon, hit_rows(hits))
                check(hit_rows(hits) == first, label, "ranking differs from round 0")
        for j, ((path, _), graphon) in enumerate(zip(self.keywords, KEYWORDS)):
            label = f"cli query {graphon} r{r}"
            wall, out = bench.cli(self.query_args(path, self.store, bench.seed), label, inprocess)
            self.cli_walls[j].append(wall)
            if out is not None and graphon in self.expected:
                check(cli_hit_rows(out) == self.expected[graphon], label,
                      "CLI ranking or p-values differ from the in-process query")
        if t_append is not None:
            self.phase["append"].append(t_append)
        self.phase["load"].append(t_load)
        self.phase["query"].extend(t_query)

    def _check_store(self, db) -> None:
        check = self.bench.check
        loaded = {nid: summary_values(rec.summaries["triangle"])
                  for nid, rec in db.records.items()}
        want = {rec.network_id: summary_values(rec.summaries["triangle"])
                for rec in self.records}
        check(loaded == want, "load r0", "loaded summaries differ from the appended ones")
        check(len(set(want.values())) == self.k, "load r0", "two records share a summary")

    def canary_output(self):
        store = self.work / "canary-store.ndjson"
        build_store(CANARY_SEED, "canary-store", 200, store)
        g = sample(CANARY_SEED, ("canary-keyword",), "BlockModel-1", 0.4, 150)
        path = self.work / "canary-keyword.edges"
        nm_graph.save_edge_list(g, path)
        _, out = self.bench.cli(self.query_args(path, store, CANARY_SEED), "query-store canary",
                                inprocess=False)
        return None if out is None else [list(row) for row in cli_hit_rows(out)]

    @staticmethod
    def matches(got, want) -> bool:
        return len(got) == len(want) and all(
            g[0] == w[0] and close(g[1], w[1]) and g[2] == w[2] for g, w in zip(got, want))

    def end_to_end(self) -> dict:
        best = {name: min(times) for name, times in self.phase.items()}
        out = {"cli_min_s": statistics.fmean(min(w) for w in self.cli_walls),
               "items_per_s": self.k / sum(best.values()),
               "cli_p50_s": statistics.fmean(statistics.median(w) for w in self.cli_walls)}
        out.update({f"{name}_records_per_s": self.k / t for name, t in best.items()})
        return out

    def details(self, table: dict, counters: dict) -> dict:
        counts = counters.get("hashdb.query")
        if not counts:
            return {}
        return {"hashdb.query.screened_frac": counts["screened"] / counts["scored"]}


# ---------------------------------------------------------------------------
# sim-cdf
# ---------------------------------------------------------------------------


class SimCdf(Workload):
    name = "sim-cdf"
    reference_key = "sim_cdf_stdout"

    def __init__(self, bench: Bench):
        super().__init__(bench)
        self.sizes_ = [[30, 30]] if bench.toy else [[40, 40]]
        self.reps = 1000
        self.config = self.work / "cdf.json"
        self.walls = []
        self.outputs = []

    def write_config(self, path: Path, sizes, seed: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"sizes": sizes, "reps": self.reps, "motif": "triangle",
                       "seed": seed}, fh)

    def make_inputs(self) -> None:
        self.write_config(self.config, self.sizes_, self.bench.seed)

    def sizes(self) -> dict:
        return {"sizes": self.sizes_, "reps": self.reps}

    def round(self, r: int, inprocess: bool) -> None:
        label = f"simulate r{r}"
        wall, out = self.bench.cli(["simulate", "cdf", "--config", str(self.config)],
                                   label, inprocess)
        self.walls.append(wall)
        if out is None:
            return
        self.outputs.append(out)
        rows = json.loads(out)["rows"]
        used = {(row["m"], row["n"]): row["reps_used"] + row["skipped"] for row in rows}
        self.bench.check(len(rows) == 2 * len(self.sizes_) and
                         all(v == self.reps for v in used.values()), label,
                         f"rows do not cover {self.reps} reps per size: {used}")
        self.bench.check(out == self.outputs[0], label, "stdout differs from round 0")

    def canary_output(self):
        path = self.work / "canary-cdf.json"
        self.write_config(path, [[40, 40]], CANARY_SEED)
        _, out = self.bench.cli(["simulate", "cdf", "--config", str(path)], "sim-cdf canary",
                                inprocess=False)
        return out

    @staticmethod
    def matches(got, want) -> bool:
        return got == want

    def end_to_end(self) -> dict:
        best = min(self.walls)
        return {"cli_min_s": best, "items_per_s": self.reps * len(self.sizes_) / best,
                "cli_p50_s": statistics.median(self.walls)}

    def details(self, table: dict, counters: dict) -> dict:
        rows = json.loads(self.outputs[0])["rows"] if self.outputs else []
        used = {(row["m"], row["n"]): row["reps_used"] for row in rows}
        return {"sim.reps_used_frac": sum(used.values()) / (self.reps * len(self.sizes_))}


WORKLOADS = {cls.name: cls for cls in (HashDense, HashSparse, QueryStore, SimCdf)}
