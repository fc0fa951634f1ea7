"""One benchmark invocation: set-up, references, timed ops, checks, metrics.

A run measures for ``seconds``: it pushes the workload's apps through the
flow in turn (one app per op) until the time is up, and always completes
at least one op per app.  With ``trace`` set, every op runs twice, once
untraced and once traced (alternating which goes first); the traced twin
gives the per-layer spans, the pair gives the tracing overhead.

An op fails, is counted, and the run goes on when it raises, when its
pipeline health is not ok, when its digest differs from the first op of
the same (app, seed) in the invocation (which covers a traced twin
differing from its untraced one), when its reuse pass does not resolve
the cold pass's stage keys and selection, or when its layer self times
do not reconcile to its op span.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.resilience import FaultPlan

from . import metrics as M
from .flows import WORKLOADS, Bench, OpResult
from .host import fingerprint
from .spans import write_trace

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
DEFAULT_OUT = ROOT / ".lpbench"

#: Set-up is measured this many times, each in a fresh interpreter, and
#: reported as the median.
SETUP_PROBES = 5


def measure_setup(workload: str, seed: int, scale: str, probes: int) -> float:
    """Median set-up seconds over ``probes`` fresh interpreters."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--scale", scale],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _check_ops(ops: List[OpResult]) -> None:
    """Digest and span checks across the invocation's ops (in place)."""
    first: Dict[tuple, str] = {}
    for op in ops:
        if op.error is not None:
            continue
        key = (op.app, op.record_seed)
        expected = first.setdefault(key, op.digest)
        if op.digest != expected:
            op.error = (
                "traced digest differs from untraced" if op.traced
                else "digest differs from the first op of this app and seed"
            )
            continue
        if op.recorder is not None:
            problem = M.reconcile(op.recorder.spans)
            if problem is not None:
                op.error = f"span reconciliation: {problem}"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "small",
    ops_per_app: Optional[int] = None,
    faults: Optional[Mapping[str, FaultPlan]] = None,
    out_dir: Path = DEFAULT_OUT,
    setup_probes: int = SETUP_PROBES,
    log=print,
) -> Dict[str, Any]:
    """Run one workload and return its result (also written as JSON under
    ``out_dir/results``)."""
    workload = WORKLOADS[name]
    apps = [a.name for a in workload.apps]
    setup_s = measure_setup(name, seed, scale, setup_probes)
    bench = Bench(workload, seed, scale=scale, out_dir=out_dir, faults=faults)
    bench.setup()

    ops: List[OpResult] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        app = apps[index % len(apps)]
        if trace and workload.flow != "validate" and (
            app not in bench.references
        ):
            # Not part of the measured time: the deadline moves with it.
            deadline += bench.reference(app).wall_s
        order = [False]
        if trace:
            # Each app alternates, round by round, which twin goes first.
            first_untraced = (index // len(apps)) % 2 == 0
            order = [not first_untraced, first_untraced]
        for traced in order:
            ops.append(bench.run_op(app, traced))
        index += 1
        if ops_per_app is not None:
            if index >= ops_per_app * len(apps):
                break
        elif index >= len(apps) and time.perf_counter() >= deadline:
            break
    _check_ops(ops)
    reference_walls = {a: r.wall_s for a, r in bench.references.items()}

    trace_dir = out_dir / "traces" / f"{name}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_files = []
    for number, op in enumerate(ops):
        if op.recorder is not None:
            path = trace_dir / f"op{number:03d}-{op.app}.jsonl"
            write_trace(path, op.recorder, {
                "workload": name, "app": op.app, "seed": seed,
                "record_seed": op.record_seed,
            })
            trace_files.append(str(path))

    good = [op for op in ops if op.error is None]
    untraced = [op for op in good if not op.traced]
    traced_ops = [op for op in good if op.traced]
    measured_apps = {op.app for op in untraced}
    if trace:
        measured_apps &= {op.app for op in traced_ops}
    untraced = [op for op in untraced if op.app in measured_apps]
    traced_ops = [op for op in traced_ops if op.app in measured_apps]
    values: Dict[str, float] = {}
    if measured_apps:
        if trace:
            values = M.per_layer(untraced, traced_ops, reference_walls)
        else:
            values = M.end_to_end(untraced, setup_s, peak_rss_mb())
    failed = sum(op.error is not None for op in ops)
    result = {
        "correct": failed == 0 and measured_apps == set(apps),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": M.UNITS[k]} for k, v in values.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "fingerprint": fingerprint(ROOT),
        **result,
        "reference_walls": reference_walls,
        "ops": [
            {
                "app": op.app, "record_seed": op.record_seed,
                "traced": op.traced, "walls": op.walls, "cpu_s": op.cpu_s,
                "instructions": op.instructions, "digest": op.digest,
                "facts": op.facts, "error": op.error,
            }
            for op in ops
        ],
        "trace_files": trace_files,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    record["path"] = str(path)
    _print_summary(record, log)
    return record


def _print_summary(record: Dict[str, Any], log) -> None:
    fp = record["fingerprint"]
    log(f"[lpbench] {record['workload']} seed={record['seed']} "
        f"trace={int(record['trace'])} scale={record['scale']} "
        f"host={fp['cpu_model']!r} nproc={fp['nproc']} "
        f"python={fp['python']} numpy={fp['numpy']} "
        f"sha={fp['repo_sha'] or 'src:' + fp['src_sha256'][:12]}")
    per_app: Dict[str, List[Dict[str, Any]]] = {}
    for op in record["ops"]:
        per_app.setdefault(op["app"], []).append(op)
    for app, ops in per_app.items():
        ok = [o for o in ops if o["error"] is None]
        facts = ok[0]["facts"] if ok else {}
        walls = "  ".join(
            f"{k}={min(o['walls'].get(k, 0.0) for o in ok):.3f}s"
            for k in ("sampled", "fullsim", "reuse")
            if ok and k in ok[0]["walls"]
        )
        nan = float("nan")
        log(f"  {app:18s} ops={len(ops)} failed={len(ops) - len(ok)} "
            f"{walls}  err={facts.get('runtime_error_pct', nan):.2f}% "
            f"modelled={facts.get('modelled_speedup', nan):.2f}x "
            f"k={facts.get('k', 0):.0f}")
        for o in ops:
            if o["error"] is not None:
                log(f"    failed op: {o['error']}")
    for metric, item in record["metrics"].items():
        log(f"  {metric:32s} {item['value']:14.6g} {item['unit']}")
    log(f"  results: {record['path']}")
