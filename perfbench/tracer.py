"""Outside-in span recorder for the netmoment benchmark.

Timing wrappers are installed around public functions of the package, at
every place a function is looked up: the package binds names with
``from .x import y``, so a function is replaced in each ``netmoment`` module
that holds it, not only where it is defined. Nothing under ``src/`` changes.

Each span records its name, start, end, parent span, per-call run id and the
exception type it raised, if any. Spans stay in memory until ``dump``. With
``memory`` set, ``tracemalloc`` runs inside each outermost summarize span and
every span under it records its peak traced memory above the memory live when
it opened. Tracing all allocations would slow edge-list parsing tenfold, and
the peaks that matter are the dense m x m buffers of the summary.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MIB = 1024.0 * 1024.0


def _clamped(value):
    return {"clamped": int(value in (0.0, 1.0))}


def _screened(hits):
    return {"screened": sum(h.passed_screen for h in hits), "scored": len(hits)}


# span name -> (module, attribute) pairs that define it, and an optional
# observer that turns the return value into counter increments
TARGETS = {
    "graph.load_edge_list": ([("netmoment.graph", "load_edge_list")], None),
    "graph.save_edge_list": ([("netmoment.graph", "save_edge_list")], None),
    "motif.moment_census": ([("netmoment.motif", "moment_census")], None),
    "projections.project": ([("netmoment.projections", "project")], None),
    "projections.pair_matrices": ([("netmoment.projections", "g2_matrix"),
                                   ("netmoment.projections", "grho2_matrix")], None),
    "edgeworth.summarize": ([("netmoment.edgeworth", "summarize")], None),
    "edgeworth.combine": ([("netmoment.edgeworth", "combine")], None),
    "edgeworth.cdf": ([("netmoment.edgeworth", "cdf")], _clamped),
    "inference.two_sample_test": ([("netmoment.inference", "two_sample_test")], None),
    "rng.spawn_rng": ([("netmoment.rng", "spawn_rng")], None),
    "hashdb.hash_network": ([("netmoment.hashdb", "hash_network")], None),
    "hashdb.db_append": ([("netmoment.hashdb", "db_append")], None),
    "hashdb.record_to_json": ([("netmoment.hashdb", "record_to_json")], None),
    "hashdb.db_load": ([("netmoment.hashdb", "db_load")], None),
    "hashdb.record_from_json": ([("netmoment.hashdb", "record_from_json")], None),
    "hashdb.query": ([("netmoment.hashdb", "query")], _screened),
    "sim.sample_network": ([("netmoment.sim.graphons", "sample_network")], None),
    "cli.main": ([("netmoment.cli", "main")], None),
}
# Graph construction is a method, so it is wrapped on the class itself
GRAPH_BUILD = "graph.build"
MEMORY_SCOPE = "edgeworth.summarize"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, run_id, error, peak_bytes]
        self.counters = defaultdict(Counter)
        self.run_id = 0
        self.memory = False
        self._stack = []  # [span index, memory at open, highest peak seen, owns tracing]
        self._patches = []

    # -- recording --------------------------------------------------------

    def new_run(self) -> int:
        """Start a new top-level call; later spans carry its id."""
        self.run_id += 1
        return self.run_id

    def _open(self, name: str) -> int:
        mem = 0
        owner = self.memory and name == MEMORY_SCOPE and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        if tracemalloc.is_tracing():
            mem, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None, 0])
        self._stack.append([idx, mem, mem, owner])
        return idx

    def _close(self, idx: int, error) -> None:
        end = time.perf_counter()
        _, mem, seen, owner = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        span[5] = error
        if tracemalloc.is_tracing():
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            span[6] = peak - mem
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        if owner:
            tracemalloc.stop()

    def _wrap(self, name: str, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            error = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(idx, error)
            if observe is not None:
                self.counters[name].update(observe(out))
            return out

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in each loaded netmoment module that binds it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "netmoment" or key.startswith("netmoment.")]
        for name, (defs, observe) in TARGETS.items():
            for module_name, attr in defs:
                orig = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, orig, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        graph_cls = importlib.import_module("netmoment.graph").Graph
        orig_init = graph_cls.__init__
        self._patches.append((graph_cls, "__init__", orig_init))
        graph_cls.__init__ = self._wrap(GRAPH_BUILD, orig_init, None)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- reducing ---------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> list[float]:
        """Per span in [first, last): duration minus its children's."""
        spans = self.spans[first:last]
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            parent = s[3]
            if parent is not None and parent >= first:
                own[parent - first] -= s[2] - s[1]
        return own

    def layer_table(self, first: int = 0, last: int | None = None) -> dict:
        """name -> calls, inclusive s, self s, peak MiB, errors by type."""
        table = {}
        self_s = self.self_times(first, last)
        for s, own in zip(self.spans[first:last], self_s):
            row = table.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "peak_mib": 0.0, "errors": Counter()})
            row["calls"] += 1
            row["self_s"] += own
            row["s"] += s[2] - s[1]
            row["peak_mib"] = max(row["peak_mib"], s[6] / MIB)
            if s[5] is not None:
                row["errors"][s[5]] += 1
        return table

    def dump(self, path, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "run_id", "error", "peak_bytes")
        payload = dict(extra)
        payload["spans"] = [dict(zip(keys, s)) for s in self.spans]
        payload["counters"] = {k: dict(v) for k, v in self.counters.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
