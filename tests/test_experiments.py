import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netmoment
from netmoment.sim.experiments import (
    BootstrapRunConfig,
    CdfConfig,
    CoverageConfig,
    QueryBenchConfig,
    config_from_dict,
    run_bootstrap,
    run_cdf_experiment,
    run_coverage_experiment,
    run_experiment,
    run_query_benchmark,
    stable_meta,
    write_outputs,
)


def small_cdf_cfg(**kw):
    base = dict(sizes=((20, 20),), reps=1000, seed=101, n_jobs=1)
    base.update(kw)
    return CdfConfig(**base)


def test_cdf_experiment_rows():
    res = run_cdf_experiment(small_cdf_cfg())
    approximants = {row["approximant"] for row in res.rows}
    assert approximants == {"edgeworth", "normal"}
    for row in res.rows:
        assert 0.0 <= row["sup_distance"] <= 1.0
        assert row["reps_used"] + row["skipped"] == 1000
    assert res.meta["seed"] == 101
    assert "d_true" in res.meta


def test_cdf_experiment_parallel_matches_serial():
    r1 = run_cdf_experiment(small_cdf_cfg(n_jobs=1))
    r2 = run_cdf_experiment(small_cdf_cfg(n_jobs=2))
    assert r1.rows == r2.rows


def test_cdf_experiment_with_bootstrap_approximants():
    res = run_cdf_experiment(small_cdf_cfg(include_bootstrap=True, n_boot=40))
    names = {row["approximant"] for row in res.rows}
    assert {"subsample", "resample"} <= names


def test_cdf_rejects_low_reps():
    with pytest.raises(ValueError):
        CdfConfig(reps=10)


def test_coverage_experiment_smoke():
    cfg = CoverageConfig(sizes=((30, 30),), motifs=("triangle", "vshape"),
                         reps=300, seed=7, n_jobs=1)
    res = run_coverage_experiment(cfg)
    assert len(res.rows) == 4  # 2 motifs x 2 methods
    for row in res.rows:
        assert 0.5 <= row["coverage"] <= 1.0
        assert row["reps_used"] + row["skipped"] == 300
        assert row["mean_length"] > 0


def test_coverage_parallel_matches_serial():
    cfg1 = CoverageConfig(sizes=((25, 25),), reps=200, seed=3, n_jobs=1)
    cfg2 = CoverageConfig(sizes=((25, 25),), reps=200, seed=3, n_jobs=2)
    assert run_coverage_experiment(cfg1).rows == run_coverage_experiment(cfg2).rows


def test_coverage_bootstrap_method_smoke():
    cfg = CoverageConfig(sizes=((25, 25),), reps=40, seed=5, n_jobs=1,
                         methods=("edgeworth", "subsample"), n_boot=60)
    res = run_coverage_experiment(cfg)
    methods = {row["method"] for row in res.rows}
    assert methods == {"edgeworth", "subsample"}


def test_query_benchmark_smoke():
    cfg = QueryBenchConfig(entries_per_graphon=2, n=60, null_pairs=30,
                           seed=13, n_jobs=1,
                           keywords=("BlockModel-1",))
    res = run_query_benchmark(cfg)
    kinds = {row["experiment"] for row in res.rows}
    assert kinds == {"query-bench", "query-null"}
    bench = next(r for r in res.rows if r["experiment"] == "query-bench")
    assert bench["entries"] == 20
    assert bench["positives"] == 2
    assert len(res.detail_rows) == 20
    null_row = next(r for r in res.rows if r["experiment"] == "query-null")
    assert 0.0 <= null_row["ks_uniform"] <= 1.0


def test_bootstrap_run_smoke():
    cfg = BootstrapRunConfig(m=30, n=30, n_boot=25, seed=2, mode="resample")
    res = run_bootstrap(cfg)
    assert len(res.rows) + res.meta["dropped"] == 25
    for row in res.rows:
        assert np.isfinite(row["t_value"])


def test_query_benchmark_emits_roc_points():
    cfg = QueryBenchConfig(entries_per_graphon=2, n=50, seed=21, n_jobs=1,
                           keywords=("BlockModel-1",))
    res = run_query_benchmark(cfg)
    roc = res.meta["roc"]["BlockModel-1"]
    assert roc[0] == (0.0, 0.0)
    assert roc[-1] == (1.0, 1.0)
    assert len(roc) == 21  # one step per entry plus the origin


def test_motif_pattern_literal_in_config():
    pattern = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    cfg = config_from_dict(
        "cdf",
        {"reps": 1000, "sizes": [[10, 10]], "seed": 2, "n_jobs": 1,
         "motif": {"name": "four-cycle", "pattern": pattern},
         "n_mc_centering": 20_000},
    )
    res = run_cdf_experiment(cfg)
    assert all(row["motif"] == "four-cycle" for row in res.rows)


def test_config_from_dict_validation():
    cfg = config_from_dict("cdf", {"reps": 1500, "sizes": [[20, 20]], "seed": 5})
    assert cfg.sizes == ((20, 20),)
    with pytest.raises(ValueError):
        config_from_dict("cdf", {"bad_key": 1})
    with pytest.raises(ValueError):
        config_from_dict("no-such-experiment", {})
    with pytest.raises(ValueError):
        config_from_dict("coverage", {"reps": 0})
    with pytest.raises(ValueError):
        config_from_dict("query-bench", {"null_pairs": -1})


@pytest.mark.parametrize("cls", [CdfConfig, CoverageConfig, QueryBenchConfig,
                                 BootstrapRunConfig])
@pytest.mark.parametrize("edit", [{"seed": -1}, {"seed": 2**64}, {"c_delta": float("nan")},
                                  {"c_delta": float("inf")}, {"c_delta": -0.5}],
                         ids=["seed=-1", "seed=2^64", "c_delta=nan", "c_delta=inf",
                              "c_delta=-0.5"])
def test_every_config_refuses_a_seed_or_c_delta_out_of_range(cls, edit):
    # the streams read a seed modulo 2^64, so -1 would replay 2^64 - 1
    (key, value), = edit.items()
    with pytest.raises(ValueError, match=f"config key '{key}' .* got {value}$"):
        cls(**edit)
    assert cls(seed=2**64 - 1, c_delta=0.0).seed == 2**64 - 1


def test_default_config_fields_pinned():
    # meta.config carries these dicts, so their keys and defaults are output
    pair = {"graphon_a": "SmoothGraphon-2", "graphon_b": "SmoothGraphon-4",
            "rho_a": 0.25, "rho_b": 0.25, "c_delta": 0.01, "n_boot": 200,
            "seed": 0, "n_jobs": None}
    assert dataclasses.asdict(CdfConfig()) == {
        **pair, "motif": "triangle", "sizes": ((40, 40), (80, 80), (160, 160)),
        "reps": 10_000, "grid_lo": -2.0, "grid_hi": 2.0, "grid_points": 401,
        "include_bootstrap": False, "centering": "exact", "n_mc_centering": 400_000,
    }
    assert dataclasses.asdict(CoverageConfig()) == {
        **pair, "motifs": ("triangle",), "sizes": ((160, 160),), "level": 0.90,
        "reps": 5000, "methods": ("edgeworth", "normal"), "centering": "exact",
        "n_mc_centering": 400_000,
    }
    assert dataclasses.asdict(BootstrapRunConfig()) == {
        **pair, "m": 80, "n": 80, "motif": "triangle", "mode": "subsample",
        "m_sub": None, "n_sub": None, "center_on_observed": True,
    }


def test_write_outputs_and_sidecar(tmp_path):
    cfg = QueryBenchConfig(entries_per_graphon=1, n=40, seed=1, n_jobs=1,
                           keywords=("BlockModel-1",))
    res = run_experiment("query-bench", cfg)
    out = tmp_path / "bench.csv"
    write_outputs(res, out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.rows)
    sidecar = json.loads((tmp_path / "bench.csv.meta.json").read_text())
    assert sidecar["seed"] == 1
    assert "wall_time_s" in sidecar
    assert "versions" in sidecar
    assert (tmp_path / "bench.csv.detail.csv").exists()
    assert "__wall_time_s" not in stable_meta(res)


def test_csv_reproducible_for_same_seed(tmp_path):
    cfg = dict(entries_per_graphon=1, n=40, seed=9, n_jobs=1, keywords=["BlockModel-1"])
    a = run_experiment("query-bench", config_from_dict("query-bench", dict(cfg)))
    b = run_experiment("query-bench", config_from_dict("query-bench", dict(cfg)))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_outputs(a, pa)
    write_outputs(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_pool_workers_are_preloaded_when_the_package_is_found_by_a_sys_path_edit(tmp_path):
    # the probe's module imports only sys, so a worker holds the harness
    # only if its forkserver preloaded it
    (tmp_path / "preload_probe.py").write_text(
        "import sys\n\n\n"
        "def probe():\n"
        "    return ['netmoment.sim.experiments' in sys.modules],\n")
    src = str(Path(netmoment.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path[:0] = [{src!r}, {str(tmp_path)!r}]; "
            "from netmoment.sim.experiments import _map_reduce; "
            "from preload_probe import probe; "
            "print(_map_reduce(probe, [(), ()], 2))")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[[True, True]]"
