"""Desk-scale experiment harnesses: CDF accuracy, CI coverage, query benchmark.

Each experiment is a dataclass config (JSON-loadable) plus a runner that
returns plot-ready rows and a stable metadata block. Replicates parallelize
over a process pool; every replicate owns a generator derived from
(master seed, experiment tag, condition, replicate index), and chunk results
merge in index order, so outputs are identical for any worker count. Wall
time goes only into the optional sidecar file, never into rows or stdout
metadata, keeping reruns byte-identical.

The CDF and coverage runners take their replicates in groups of
`_group_size(m)` (40 at m = 40; one replicate alone above m = 90) and work
on each group's arrays. `rng.spawn_streams` seeds every replicate's stream
and one reused generator draws, row by row, the pair's latents and uniforms
and then the smoothing normals; each graphon is evaluated once on the
group's (B, m, m) latent grid and each side's adjacencies become one
GraphStack for `summarize_many`. `inference.combined_pairs` then runs
`combine` and the discrepancy over columns, and the statistics, curves and
intervals follow as arrays. A replicate's stream is its own, so drawing its
smoothing normals before its summaries changes nothing, and every float has
the bits of a one-replicate-at-a-time loop (`tests/oracles.py` keeps one for
each runner): the elementwise formulas are the scalar ones, and float sums
are taken in replicate order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .. import __version__ as _pkg_version
from ..csvout import write_csv
from ..edgeworth import (_cornish_fisher_at, _group_size, norm_cdf, norm_quantile,
                         smoothing_deltas, summarize, summarize_many)
from ..graph import GraphStack
from ..hashdb import HashDb, hash_network, query
from ..inference import (combined_pairs, interval_from_quantiles, scaled_discrepancy,
                         two_sample_test)
from ..motif import Motif, motif_from_spec
from ..projections import DegenerateGraphError
from ..rng import spawn_rng, spawn_streams
from .bootstrap import bootstrap_distribution
from .graphons import (builtin_graphon, check_sample, edge_probabilities, sample_network,
                       upper_adjacency, upper_cells)
from .oracle import population_scaled_moment, population_scaled_moment_exact

DEFAULT_SIM_RHO = 0.25          # unstated in the source tables; clamp-free here
SIM1_GRAPHON_A = "SmoothGraphon-2"
SIM1_GRAPHON_B = "SmoothGraphon-4"
QUERY_DB_GRAPHONS = (
    "SmoothGraphon-1",
    "SmoothGraphon-2",
    "SmoothGraphon-3",
    "SmoothGraphon-4",
    "SmoothGraphon-5",
    "BlockModel-1",
    "BlockModel-2",
    "BlockModel-3",
    "BlockModel-4",
    "BlockModel-5",
)


@dataclass(frozen=True)
class SimResult:
    rows: list
    meta: dict
    detail_rows: list = field(default_factory=list)


def _versions() -> dict:
    import scipy

    return {
        "netmoment": _pkg_version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _resolve_jobs(n_jobs) -> int:
    if n_jobs is None or n_jobs <= 0:
        return os.cpu_count() or 1
    return int(n_jobs)


_CHUNK = 256  # fixed replicate chunk so reductions are worker-count independent


def _chunks(total: int) -> list[tuple[int, int]]:
    # an empty run is one empty chunk, so every reduction has a first part
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, max(total, 1), _CHUNK)]


def _merge(acc, part):
    if isinstance(acc, dict):
        for key, val in part.items():
            acc[key] = acc[key] + val if key in acc else val
        return acc
    return acc + part


# Variables that BLAS libraries read when they load, to size their thread pools.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread():
    """A multiprocessing context whose workers run BLAS with one thread.

    Pool workers with BLAS's default threads together oversubscribe the
    cores, and OpenBLAS threads spin while they wait (CHANGES.md, "Load a
    store straight into columns"). A worker forked from here would inherit
    this process's BLAS, threads and all. So the workers come from a
    forkserver: a fresh interpreter started with each of `_BLAS_THREADS`
    that the caller has not set at 1, which then imports this module, so
    that its forked workers start with numpy and the package loaded and no
    BLAS thread running, rather than each importing them itself. The server
    finds this module through PYTHONPATH, set to this process's `sys.path`:
    the forkserver does not apply the `sys.path` it is sent, and skips a
    preload it cannot import without a word. The caller's own environment
    is restored at once, and a serial run keeps its threads.
    """
    import multiprocessing
    from multiprocessing import forkserver

    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    server_env = {name: "1" for name in _BLAS_THREADS if name not in os.environ}
    server_env["PYTHONPATH"] = os.pathsep.join(sys.path)
    callers = {name: os.environ.get(name) for name in server_env}
    os.environ.update(server_env)
    try:
        forkserver.ensure_running()
    finally:
        for name, value in callers.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    return context


def _map_reduce(worker, args_list, n_jobs: int) -> list:
    """Run worker(*args) per chunk, optionally in a pool, and fold the results.

    Each worker returns a tuple; the tuples are folded left, field by field,
    in chunk-index order: lists concatenate, dicts add per key, numbers and
    arrays add. Every float total is therefore the same left-to-right sum
    for any worker count.
    """
    if n_jobs <= 1 or len(args_list) <= 1:
        parts = [worker(*args) for args in args_list]
    else:
        # imported here: concurrent.futures.process and multiprocessing add
        # about 14 ms to every process that loads them, and a serial run
        # needs neither
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs, mp_context=_one_blas_thread()) as pool:
            futures = [pool.submit(worker, *args) for args in args_list]
            parts = [f.result() for f in futures]
    total = list(parts[0])
    for part in parts[1:]:
        total = [_merge(acc, val) for acc, val in zip(total, part)]
    return total


def _meta(kind: str, cfg, **extra) -> dict:
    """The metadata block every runner returns: kind, seed, config, versions."""
    return {"experiment": kind, "seed": cfg.seed, "config": dataclasses.asdict(cfg),
            **extra, "versions": _versions()}


@dataclass(frozen=True)
class PairConfig:
    """Fields shared by the experiments that compare a graphon pair."""

    graphon_a: str = SIM1_GRAPHON_A
    graphon_b: str = SIM1_GRAPHON_B
    rho_a: float = DEFAULT_SIM_RHO
    rho_b: float = DEFAULT_SIM_RHO
    c_delta: float = 0.01
    n_boot: int = 200
    seed: int = 0
    n_jobs: int | None = None


def _sample_pair(cfg: PairConfig, m: int, n: int, rng):
    """Draw network a (m nodes), then network b (n nodes), from one stream."""
    return (sample_network(builtin_graphon(cfg.graphon_a), cfg.rho_a, m, rng),
            sample_network(builtin_graphon(cfg.graphon_b), cfg.rho_b, n, rng))


def _replicate_groups(cfg: PairConfig, tag: str, m: int, n: int, lo: int, hi: int,
                      draws: int):
    """Replicates lo..hi-1 in groups that `summarize_many` takes as one stack.

    Replicate rep's stream, (seed, tag, m, n, rep), gives in turn what
    `_sample_pair` draws from it (the latents and pair uniforms of network
    a, m nodes, then those of network b, n nodes) and then `draws` standard
    normals for its smoothing draws. One reused generator fills the group's
    rows, and each graphon is evaluated once on the group's latent grid, as
    `sample_network` evaluates it for one network; each side's adjacencies
    become one GraphStack. Yields (replicate indices, stack a, stack b,
    clamp count, normals (B, draws)).
    """
    graphon_a, graphon_b = builtin_graphon(cfg.graphon_a), builtin_graphon(cfg.graphon_b)
    widths = (m, m * (m - 1) // 2, n, n * (n - 1) // 2)
    step = _group_size(max(m, n))
    # seeded for the whole range at once: seeding costs about as much for
    # one stream as for hundreds
    streams = spawn_streams(cfg.seed, (tag, m, n), range(lo, hi))
    for start in range(lo, hi, step):
        check_sample(cfg.rho_a, m)
        check_sample(cfg.rho_b, n)
        reps = range(start, min(start + step, hi))
        uniforms = np.empty((len(reps), sum(widths)))
        normals = np.empty((len(reps), draws))
        for row, gen in zip(range(len(reps)), streams):
            gen.random(out=uniforms[row])
            gen.standard_normal(out=normals[row])
        xa, ua, xb, ub = np.split(uniforms, np.cumsum(widths[:-1]), axis=1)
        upper_a, upper_b = upper_cells(len(reps), m), upper_cells(len(reps), n)
        wa, clamps_a = edge_probabilities(graphon_a, cfg.rho_a, xa, upper_a)
        wb, clamps_b = edge_probabilities(graphon_b, cfg.rho_b, xb, upper_b)
        yield (reps, GraphStack(upper_adjacency(ua < wa, upper_a)),
               GraphStack(upper_adjacency(ub < wb, upper_b)), clamps_a + clamps_b, normals)


def _compared(stack_a: GraphStack, stack_b: GraphStack, motifs: list) -> list:
    """Per motif, the rows of the group whose summaries and `combine` are not
    degenerate, with their coefficients and discrepancies D, as
    `inference.combined_pairs` gives them. No rng is drawn."""
    by_motif = []
    for summaries_a, summaries_b in zip(summarize_many(stack_a, motifs),
                                        summarize_many(stack_b, motifs)):
        rows = [k for k, (sa, sb) in enumerate(zip(summaries_a, summaries_b))
                if not isinstance(sa, DegenerateGraphError)
                and not isinstance(sb, DegenerateGraphError)]
        if not rows:
            by_motif.append((np.array(rows, dtype=np.intp), None, None))
            continue
        kept, coeffs, d_hat = combined_pairs([summaries_a[k] for k in rows],
                                             [summaries_b[k] for k in rows])
        by_motif.append((np.array(rows)[kept], coeffs, d_hat))
    return by_motif


def _centering(cfg, graphon_name: str, rho: float, motif: Motif, side: str) -> float:
    graphon = builtin_graphon(graphon_name)
    # the deterministic oracle covers block models and r <= 3 smooth kernels;
    # larger custom motifs fall back to the seeded Monte Carlo oracle
    if cfg.centering == "exact" and (graphon.is_block or motif.r <= 3):
        return population_scaled_moment_exact(graphon, motif, rho)
    rng = spawn_rng(cfg.seed, "centering", side, graphon_name, motif.name)
    est = population_scaled_moment(graphon, motif, rho,
                                   n_mc=cfg.n_mc_centering, rng=rng)
    return est.value


def _d_true(cfg, motif: Motif) -> float:
    """Population scaled-moment discrepancy between graphons a and b."""
    return (_centering(cfg, cfg.graphon_a, cfg.rho_a, motif, "a")
            - _centering(cfg, cfg.graphon_b, cfg.rho_b, motif, "b"))


# ---------------------------------------------------------------------------
# CDF approximation experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CdfConfig(PairConfig):
    motif: str | dict = "triangle"
    sizes: tuple[tuple[int, int], ...] = ((40, 40), (80, 80), (160, 160))
    reps: int = 10_000
    grid_lo: float = -2.0
    grid_hi: float = 2.0
    grid_points: int = 401
    include_bootstrap: bool = False
    centering: str = "exact"
    n_mc_centering: int = 400_000

    def __post_init__(self):
        if self.reps < 1000:
            raise ValueError("cdf experiment needs reps >= 1000")
        if self.centering not in ("exact", "mc"):
            raise ValueError("centering must be 'exact' or 'mc'")


def _cdf_chunk(cfg: CdfConfig, m: int, n: int, d_true: float,
               grid: np.ndarray, cap_phi: np.ndarray, lo: int, hi: int):
    motif = motif_from_spec(cfg.motif)
    u2p1 = grid * grid + 1.0
    phi_grid = np.exp(-0.5 * grid * grid) / np.sqrt(2.0 * np.pi)

    t_values = []
    g_sum = np.zeros_like(grid)
    skipped = 0
    clamps = 0
    for reps, stack_a, stack_b, clamped, normals in _replicate_groups(
            cfg, "cdf", m, n, lo, hi, 1):
        clamps += clamped
        (rows, coeffs, d_hat), = _compared(stack_a, stack_b, [motif])
        skipped += len(reps) - len(rows)
        if not len(rows):
            continue
        delta = smoothing_deltas(m, n, cfg.c_delta, normals[rows, 0])
        t_values.extend(((d_hat - d_true) / coeffs.S + delta).tolist())
        corr = coeffs.Q1[:, None] + coeffs.Q2[:, None] * u2p1 + coeffs.I0[:, None]
        curves = np.clip(cap_phi - phi_grid * corr, 0.0, 1.0)
        # a sum over the row axis adds one row at a time: the curves go into
        # g_sum in replicate order, as one += per replicate would add them
        g_sum = np.add.reduce(np.concatenate([g_sum[None], curves]), axis=0)
    return t_values, g_sum, skipped, clamps


def run_cdf_experiment(cfg: CdfConfig) -> SimResult:
    """Monte Carlo truth vs expansion / normal / bootstrap CDFs, per size."""
    motif = motif_from_spec(cfg.motif)
    n_jobs = _resolve_jobs(cfg.n_jobs)
    grid = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    phi_cdf = np.array([norm_cdf(u) for u in grid])
    d_true = _d_true(cfg, motif)

    rows = []
    total_clamps = 0
    total_skipped = 0
    for m, n in cfg.sizes:
        chunk_args = [(cfg, m, n, d_true, grid, phi_cdf, lo, hi)
                      for lo, hi in _chunks(cfg.reps)]
        t_values, g_sum, skipped, clamps = _map_reduce(_cdf_chunk, chunk_args, n_jobs)
        t_values = np.asarray(t_values, dtype=np.float64)
        total_clamps += clamps
        total_skipped += skipped
        used = len(t_values)
        if used == 0:
            raise DegenerateGraphError(f"all replicates degenerate at m={m}, n={n}")
        t_sorted = np.sort(t_values)
        ecdf = np.searchsorted(t_sorted, grid, side="right") / used
        approximants = {
            "edgeworth": g_sum / used,
            "normal": phi_cdf,
        }
        if cfg.include_bootstrap:
            ga, gb = _sample_pair(cfg, m, n, spawn_rng(cfg.seed, "cdf-bootpair", m, n))
            sa = summarize(ga.graph, motif)
            sb = summarize(gb.graph, motif)
            d_obs = scaled_discrepancy(sa, sb)
            for mode in ("subsample", "resample"):
                boot = bootstrap_distribution(
                    ga.graph, gb.graph, motif, mode,
                    n_boot=cfg.n_boot,
                    rng=spawn_rng(cfg.seed, "cdf-boot", mode, m, n),
                    center=d_obs, c_delta=cfg.c_delta,
                )
                if len(boot.values):
                    vals = np.sort(boot.values)
                    approximants[mode] = np.searchsorted(vals, grid, side="right") / len(vals)
        for name, curve in approximants.items():
            rows.append({
                "experiment": "cdf",
                "motif": motif.name,
                "m": m,
                "n": n,
                "approximant": name,
                "sup_distance": float(np.max(np.abs(ecdf - curve))),
                "reps_used": used,
                "skipped": skipped,
            })
    meta = _meta("cdf", cfg, d_true=d_true, clamp_count=total_clamps,
                 skipped=total_skipped)
    return SimResult(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Coverage experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageConfig(PairConfig):
    motifs: tuple[str | dict, ...] = ("triangle",)
    sizes: tuple[tuple[int, int], ...] = ((160, 160),)
    level: float = 0.90
    reps: int = 5000
    methods: tuple[str, ...] = ("edgeworth", "normal")
    centering: str = "exact"
    n_mc_centering: int = 400_000

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("coverage experiment needs reps >= 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0,1)")
        bad = set(self.methods) - {"edgeworth", "normal", "subsample", "resample"}
        if bad:
            raise ValueError(f"unknown coverage methods {sorted(bad)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"repeated coverage method in {list(self.methods)}")
        names = [motif_from_spec(spec).name for spec in self.motifs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate motif names in {list(self.motifs)}: {names}")


def _coverage_chunk(cfg: CoverageConfig, m: int, n: int, d_true: dict, lo: int, hi: int):
    motifs = [motif_from_spec(name) for name in cfg.motifs]
    alpha = 1.0 - cfg.level
    z_lo, z_hi = norm_quantile(alpha / 2.0), norm_quantile(1.0 - alpha / 2.0)
    covered = {(mo.name, meth): 0 for mo in motifs for meth in cfg.methods}
    lengths = {(mo.name, meth): 0.0 for mo in motifs for meth in cfg.methods}
    used = {mo.name: 0 for mo in motifs}
    skipped = {mo.name: 0 for mo in motifs}
    clamps = 0
    for reps, stack_a, stack_b, clamped, normals in _replicate_groups(
            cfg, "cov", m, n, lo, hi, len(motifs)):
        clamps += clamped
        # the motifs share each stack's node pass
        by_motif = _compared(stack_a, stack_b, motifs)
        # a replicate's smoothing normals go to its used motifs, in motif order
        taken = np.zeros(normals.shape, dtype=np.intp)
        for j, (rows, _, _) in enumerate(by_motif):
            taken[rows, j] = 1
        slot = np.cumsum(taken, axis=1) - 1
        for j, (mo, (rows, coeffs, d_hat)) in enumerate(zip(motifs, by_motif)):
            skipped[mo.name] += len(reps) - len(rows)
            used[mo.name] += len(rows)
            if not len(rows):
                continue
            delta = smoothing_deltas(m, n, cfg.c_delta, normals[rows, slot[rows, j]])
            target = d_true[mo.name]
            for meth in cfg.methods:
                ok = True
                if meth == "edgeworth":
                    q_lo = _cornish_fisher_at(coeffs, z_lo)
                    q_hi = _cornish_fisher_at(coeffs, z_hi)
                elif meth == "normal":
                    q_lo, q_hi = z_lo, z_hi
                else:
                    ok, q_lo, q_hi = _bootstrap_quantiles(
                        cfg, mo, meth, m, n, alpha, d_hat,
                        [(stack_a.graphs[k], stack_b.graphs[k], reps[k]) for k in rows])
                keep = np.broadcast_to(ok & ~np.greater_equal(q_lo, q_hi), d_hat.shape)
                lo_end, hi_end = interval_from_quantiles(d_hat, coeffs.S, delta, q_lo, q_hi)
                covered[(mo.name, meth)] += int(np.count_nonzero(
                    keep & (lo_end < target) & (target < hi_end)))
                for length in (hi_end - lo_end)[keep].tolist():  # in replicate order
                    lengths[(mo.name, meth)] += length
    return covered, lengths, used, skipped, clamps


def _bootstrap_quantiles(cfg: CoverageConfig, motif: Motif, mode: str, m: int, n: int,
                         alpha: float, d_hat: np.ndarray, pairs: list):
    """(ok, q_lo, q_hi): the bootstrap quantiles of each replicate's pair
    (graph a, graph b, replicate index), centred on its D, and whether it
    kept enough replicates to take them."""
    ok = np.zeros(len(pairs), dtype=bool)
    q = np.zeros((2, len(pairs)))
    for k, (ga, gb, rep) in enumerate(pairs):
        boot = bootstrap_distribution(
            ga, gb, motif, mode,
            n_boot=cfg.n_boot,
            rng=spawn_rng(cfg.seed, "cov-boot", mode, m, n, rep),
            center=float(d_hat[k]), c_delta=cfg.c_delta,
        )
        if len(boot.values) >= max(10, cfg.n_boot // 4):
            ok[k] = True
            q[:, k] = np.quantile(boot.values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return ok, q[0], q[1]


def run_coverage_experiment(cfg: CoverageConfig) -> SimResult:
    """Empirical CI coverage of the corrected interval and its baselines."""
    motifs = [motif_from_spec(name) for name in cfg.motifs]
    n_jobs = _resolve_jobs(cfg.n_jobs)
    d_true = {mo.name: _d_true(cfg, mo) for mo in motifs}
    rows = []
    total_clamps = 0
    for m, n in cfg.sizes:
        chunk_args = [(cfg, m, n, d_true, lo, hi) for lo, hi in _chunks(cfg.reps)]
        covered, lengths, used, skipped, clamps = _map_reduce(
            _coverage_chunk, chunk_args, n_jobs
        )
        total_clamps += clamps
        for mo in motifs:
            for meth in cfg.methods:
                n_used = used[mo.name]
                cov = covered[(mo.name, meth)] / n_used if n_used else float("nan")
                rows.append({
                    "experiment": "coverage",
                    "motif": mo.name,
                    "m": m,
                    "n": n,
                    "method": meth,
                    "level": cfg.level,
                    "coverage": cov,
                    "mean_length": lengths[(mo.name, meth)] / n_used if n_used else float("nan"),
                    "reps_used": n_used,
                    "skipped": skipped[mo.name],
                    "d_true": d_true[mo.name],
                })
    meta = _meta("coverage", cfg, d_true=d_true, clamp_count=total_clamps)
    return SimResult(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Query benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryBenchConfig:
    graphons: tuple[str, ...] = QUERY_DB_GRAPHONS
    entries_per_graphon: int = 20
    n: int = 400
    rho: float = 0.4
    motif: str | dict = "triangle"
    alpha: float = 0.05
    keywords: tuple[str, ...] = ("BlockModel-1", "SmoothGraphon-6")
    null_pairs: int = 0
    null_graphon: str = "SmoothGraphon-1"
    c_delta: float = 0.01
    seed: int = 0
    n_jobs: int | None = None

    def __post_init__(self):
        if self.null_pairs < 0:
            raise ValueError("null_pairs must be >= 0")


def _hash_entry_chunk(cfg: QueryBenchConfig, tasks: tuple):
    motif = motif_from_spec(cfg.motif)
    records = []
    clamps = 0
    for gname, k in tasks:
        rng = spawn_rng(cfg.seed, "db", gname, k)
        net = sample_network(builtin_graphon(gname), cfg.rho, cfg.n, rng)
        clamps += net.clamp_count
        records.append((gname, hash_network(net.graph, [motif], f"{gname}#{k:03d}")))
    return records, clamps


def _null_pair_chunk(cfg: QueryBenchConfig, lo: int, hi: int):
    motif = motif_from_spec(cfg.motif)
    model = builtin_graphon(cfg.null_graphon)
    p_values = []
    skipped = 0
    clamps = 0
    for rep in range(lo, hi):
        rng = spawn_rng(cfg.seed, "null", rep)
        na = sample_network(model, cfg.rho, cfg.n, rng)
        nb = sample_network(model, cfg.rho, cfg.n, rng)
        clamps += na.clamp_count + nb.clamp_count
        try:
            sa = summarize(na.graph, motif)
            sb = summarize(nb.graph, motif)
            res = two_sample_test(sa, sb, level=cfg.alpha, c_delta=cfg.c_delta, rng=rng)
        except DegenerateGraphError:
            skipped += 1
            continue
        p_values.append(res.p_value)
    return p_values, skipped, clamps


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC, Mann-Whitney U over n_pos * n_neg; positives should score higher."""
    from scipy.stats import mannwhitneyu  # scipy.stats costs ~1 s of CLI start-up

    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float(mannwhitneyu(scores[labels], scores[~labels]).statistic) / (n_pos * n_neg)


def _roc_points(scores: np.ndarray, labels: np.ndarray) -> list:
    """(fpr, tpr) pairs sweeping the score threshold from high to low."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return []
    hit = labels[np.argsort(-scores, kind="stable")]
    fpr = np.cumsum(~hit) / n_neg
    tpr = np.cumsum(hit) / n_pos
    return [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))


def _ks_uniform(p_values: np.ndarray) -> float:
    """Kolmogorov statistic of a sample against Uniform(0,1)."""
    from scipy.stats import kstest

    return float(kstest(p_values, "uniform").statistic) if len(p_values) else float("nan")


def run_query_benchmark(cfg: QueryBenchConfig) -> SimResult:
    """Hash a synthetic multi-graphon database and score keyword queries."""
    n_jobs = _resolve_jobs(cfg.n_jobs)
    tasks = [(g, k) for g in cfg.graphons for k in range(cfg.entries_per_graphon)]
    chunk_args = [(cfg, tuple(tasks[lo:hi])) for lo, hi in _chunks(len(tasks))]
    recs, total_clamps = _map_reduce(_hash_entry_chunk, chunk_args, n_jobs)
    entry_graphon = {rec.network_id: gname for gname, rec in recs}
    db = HashDb(records={rec.network_id: rec for _, rec in recs})

    rows = []
    detail_rows = []
    roc_curves = {}
    motif = motif_from_spec(cfg.motif)
    for kw in cfg.keywords:
        rng = spawn_rng(cfg.seed, "keyword", kw)
        net = sample_network(builtin_graphon(kw), cfg.rho, cfg.n, rng)
        total_clamps += net.clamp_count
        keyword_rec = hash_network(net.graph, [motif], f"keyword:{kw}")
        hits = query(keyword_rec, db, motif.name, level=cfg.alpha,
                     c_delta=cfg.c_delta, seed=cfg.seed)
        scores = np.array([h.p_value for h in hits])
        labels = np.array([entry_graphon[h.network_id] == kw for h in hits])
        roc_curves[kw] = _roc_points(scores, labels)
        rows.append({
            "experiment": "query-bench",
            "keyword": kw,
            "motif": motif.name,
            "n": cfg.n,
            "rho": cfg.rho,
            "entries": len(hits),
            "positives": int(labels.sum()),
            "auc": _auc(scores, labels),
            "screened_in": sum(h.passed_screen for h in hits),
            "alpha": cfg.alpha,
        })
        for h in hits:
            detail_rows.append({
                "keyword": kw,
                "network_id": h.network_id,
                "graphon": entry_graphon[h.network_id],
                "label": int(entry_graphon[h.network_id] == kw),
                "p_value": h.p_value,
                "passed_screen": h.passed_screen,
            })

    null_skipped = 0
    if cfg.null_pairs:
        chunk_args = [(cfg, lo, hi) for lo, hi in _chunks(cfg.null_pairs)]
        p_values, null_skipped, clamps = _map_reduce(_null_pair_chunk, chunk_args, n_jobs)
        p_values = np.asarray(p_values, dtype=np.float64)
        total_clamps += clamps
        rows.append({
            "experiment": "query-null",
            "keyword": cfg.null_graphon,
            "motif": motif.name,
            "n": cfg.n,
            "rho": cfg.rho,
            "entries": len(p_values),
            "positives": 0,
            "auc": float("nan"),
            "screened_in": int((p_values >= cfg.alpha).sum()),
            "alpha": cfg.alpha,
            "ks_uniform": _ks_uniform(p_values),
            "reject_rate": float((p_values < cfg.alpha).mean()),
        })
    meta = _meta("query-bench", cfg, clamp_count=total_clamps,
                 null_skipped=null_skipped, roc=roc_curves)
    return SimResult(rows=rows, meta=meta, detail_rows=detail_rows)


# ---------------------------------------------------------------------------
# Single bootstrap run (Algorithm-style replicate dump)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapRunConfig(PairConfig):
    m: int = 80
    n: int = 80
    motif: str | dict = "triangle"
    mode: str = "subsample"
    m_sub: int | None = None
    n_sub: int | None = None
    center_on_observed: bool = True


def run_bootstrap(cfg: BootstrapRunConfig) -> SimResult:
    """Sample one network pair and dump its bootstrap replicate statistics."""
    motif = motif_from_spec(cfg.motif)
    ga, gb = _sample_pair(cfg, cfg.m, cfg.n, spawn_rng(cfg.seed, "bootstrap-pair"))
    center = 0.0
    if cfg.center_on_observed:
        sa = summarize(ga.graph, motif)
        sb = summarize(gb.graph, motif)
        center = scaled_discrepancy(sa, sb)
    boot = bootstrap_distribution(
        ga.graph, gb.graph, motif, cfg.mode,
        n_boot=cfg.n_boot, m_sub=cfg.m_sub, n_sub=cfg.n_sub,
        rng=spawn_rng(cfg.seed, "bootstrap-reps"),
        center=center, c_delta=cfg.c_delta,
    )
    rows = [
        {"experiment": "bootstrap", "mode": cfg.mode, "replicate": i, "t_value": v}
        for i, v in enumerate(boot.values.tolist())
    ]
    meta = _meta("bootstrap", cfg, center=center, dropped=boot.n_dropped,
                 clamp_count=ga.clamp_count + gb.clamp_count)
    return SimResult(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "cdf": (CdfConfig, run_cdf_experiment),
    "coverage": (CoverageConfig, run_coverage_experiment),
    "query-bench": (QueryBenchConfig, run_query_benchmark),
    "bootstrap": (BootstrapRunConfig, run_bootstrap),
}


def _is_json_of(value, kind) -> bool:
    """Whether a JSON value has the type a config field is annotated with: a
    float field takes any number, an int field an integer but not true or
    false, and a tuple field a list of its items."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        if type(value) is not list:
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_is_json_of, value, items))
    if origin is types.UnionType:
        return any(_is_json_of(value, arg) for arg in args)
    return type(value) in ((int, float) if kind is float else (kind,))


def config_from_dict(kind: str, payload: dict):
    try:
        cls, _ = EXPERIMENTS[kind]
    except KeyError:
        raise ValueError(f"unknown experiment {kind!r}; known: {sorted(EXPERIMENTS)}")
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(annotations)
    if unknown:
        raise ValueError(f"unknown config keys for {kind}: {sorted(unknown)}")
    kinds = typing.get_type_hints(cls)
    coerced = {}
    for key, value in payload.items():
        if not _is_json_of(value, kinds[key]):
            raise ValueError(f"{kind} config key {key!r} must be {annotations[key]}, "
                             f"got {json.dumps(value)}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    return cls(**coerced)


def run_experiment(kind: str, cfg) -> SimResult:
    _, runner = EXPERIMENTS[kind]
    start = time.perf_counter()
    result = runner(cfg)
    # stripped from stable output; the sidecar keeps it as wall_time_s
    result.meta["__wall_time_s"] = time.perf_counter() - start
    return result


def write_outputs(result: SimResult, csv_path) -> None:
    """CSV rows plus a JSON sidecar with seed/version/clamp metadata.

    No rows leave an empty CSV file, without the header line.
    """
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        if result.rows:
            write_csv(result.rows, fh)
    if result.detail_rows:
        with open(str(csv_path) + ".detail.csv", "w", newline="", encoding="utf-8") as fh:
            write_csv(result.detail_rows, fh)
    sidecar = {k.lstrip("_"): v for k, v in result.meta.items()}
    with open(str(csv_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def stable_meta(result: SimResult) -> dict:
    return {k: v for k, v in result.meta.items() if not k.startswith("__")}
