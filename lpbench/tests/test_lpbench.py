"""Tests of the benchmark itself, at tiny scale with one op per app.

Run from the repository root: ``python -m pytest lpbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lpbench import metrics, run
from lpbench.flows import WORKLOADS, Bench, metrics_digest
from lpbench.host import THREAD_VARS, clear_ambient_env, compare
from lpbench.runner import run_workload
from repro.obs.cli import main as obs_main
from repro.resilience import FaultPlan, FaultSpec

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _no_ambient_env(monkeypatch):
    for key in [k for k in os.environ
                if k.startswith("REPRO_") or k in THREAD_VARS]:
        monkeypatch.delenv(key)


def _run(name, trace, tmp_path, **kwargs):
    return run_workload(
        name, seed=3, seconds=0.0, trace=trace, scale="tiny",
        ops_per_app=1, out_dir=tmp_path, setup_probes=1,
        log=lambda *_: None, **kwargs,
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return _run(request.param, True, out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name, tmp_path):
    result = _run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[name].apps)
    assert {op["record_seed"] for op in result["ops"]} == {3}
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    for m in metrics.END_TO_END:
        item = result["metrics"][m.name]
        assert item["unit"] == m.unit
        assert item["value"] > 0, m.name


def test_per_layer_metrics_emitted_with_units(traced_run):
    assert traced_run["correct"] and traced_run["failed"] == 0
    # Each app ran once untraced and once traced.
    assert traced_run["attempted"] == 2 * len(
        WORKLOADS[traced_run["workload"]].apps
    )
    assert list(traced_run["metrics"]) == [m.name for m in metrics.PER_LAYER]
    for m in metrics.PER_LAYER:
        assert traced_run["metrics"][m.name]["unit"] == m.unit
    values = {k: v["value"] for k, v in traced_run["metrics"].items()}
    for layer in ("record.wall_s", "profile.wall_s", "simulate.wall_s",
                  "fullsim.wall_s", "orchestration_s"):
        assert values[layer] > 0, layer
    flow = WORKLOADS[traced_run["workload"]].flow
    assert (values["fanout.wall_s"] > 0) == (flow == "checkpoint")
    assert (values["store.warm_load_s"] > 0) == (flow == "checkpoint")
    assert (values["live.timing_s"] > 0) == (flow == "live")


def test_trace_files_render_with_repro_obs(traced_run, capsys):
    files = traced_run["trace_files"]
    assert len(files) == len(WORKLOADS[traced_run["workload"]].apps)
    for path in files:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        ids = {r["trace_id"] for r in records if "trace_id" in r}
        assert len(ids) == 1  # one trace id per op
        assert obs_main(["report", path]) == 0
        report = capsys.readouterr().out
        assert "record" in report and "simulate" in report
        assert obs_main(["folded", path]) == 0
        folded = capsys.readouterr().out
        assert all(line.startswith("op") for line in folded.splitlines())


def test_fault_failed_region_job_counts_one_failed_op(tmp_path):
    plan = FaultPlan(seed=5, faults=(FaultSpec("job.error"),))
    result = _run("ref-checkpoint", False, tmp_path,
                  faults={"621.wrf_s.1": plan})
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert not result["correct"]
    failed = [op for op in result["ops"] if op["error"]]
    assert failed[0]["app"] == "621.wrf_s.1"
    assert "SimulationError" in failed[0]["error"]
    # The other app still measured.
    assert result["metrics"]["sampled_kips"]["value"] > 0


def test_seed_argument_sets_record_and_live_seeds():
    workload = WORKLOADS["train-live"]
    a, b = Bench(workload, 0), Bench(workload, 1)
    a.setup()
    b.setup()
    app = workload.apps[0].name
    assert a.options(app).record_seed == 0
    assert b.options(app).record_seed == 1
    assert a.live_options().seed != b.live_options().seed


def test_ambient_env_is_cleared_and_options_pinned(monkeypatch):
    env = {"REPRO_JOBS": "4", "REPRO_SCALE": "tiny", "PATH": "/bin",
           "OPENBLAS_NUM_THREADS": "1"}
    assert clear_ambient_env(env) == [
        "OPENBLAS_NUM_THREADS", "REPRO_JOBS", "REPRO_SCALE"
    ]
    assert env == {"PATH": "/bin"}
    monkeypatch.setenv("REPRO_JOBS", "4")
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    bench = Bench(WORKLOADS["ref-checkpoint"], 0)
    bench.setup()
    options = bench.options("621.wrf_s.1")
    assert options.resolved_jobs() == 2
    assert options.resolved_scale().name == "small"


def test_validate_flow_predicts_what_the_pipeline_run_predicts(tmp_path):
    bench = Bench(WORKLOADS["train-validate"], 2, scale="tiny",
                  out_dir=tmp_path)
    bench.setup()
    op = bench.run_op("657.xz_s.2", traced=False)
    assert op.error is None
    result = bench.pipeline("657.xz_s.2").run()
    assert op.digest == metrics_digest(
        {"predicted": result.predicted, "actual": result.actual}
    )


def test_compare_refuses_across_hosts(capsys):
    old = {"workload": "train-live", "metrics": {},
           "fingerprint": {"cpu_model": "A", "nproc": 2, "python": "3.11",
                           "numpy": "2"}}
    new = json.loads(json.dumps(old))
    assert compare(old, new, metrics.END_TO_END) == 0
    new["fingerprint"]["cpu_model"] = "B"
    assert compare(old, new, metrics.END_TO_END) == 3
    assert "different host" in capsys.readouterr().out


def test_benchmark_json_matches_metric_table():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        declared = [
            (m["name"], m["unit"], m["better"], m.get("bound"))
            for m in spec[key]
        ]
        assert declared == [(m.name, m.unit, m.better, m.bound)
                            for m in table]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "lpbench", tmp_path / "lpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "lpbench/run.py", "--workload", "train-live",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
