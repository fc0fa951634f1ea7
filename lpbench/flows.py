"""The benchmark's workloads and the flow one op pushes an app through.

Every option the program would otherwise take from its environment is
pinned here: scale, jobs, system configuration, degrade policy, store
budget, and both seeds (``LoopPointOptions.record_seed`` and
``LiveOptions.seed``), which come from the benchmark's ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.online import LiveOptions, LiveSampler
from repro.config import GAINESTOWN_8CORE, ReproScale, SystemConfig, get_scale
from repro.core.extrapolation import extrapolate_metrics
from repro.core.looppoint import (
    LoopPointOptions,
    LoopPointPipeline,
    LoopPointResult,
)
from repro.core.speedup import compute_speedups
from repro.policy import WaitPolicy
from repro.resilience import DegradePolicy, FaultPlan
from repro.timing.mcsim import MultiCoreSimulator, SimulationResult
from repro.timing.metrics import SimMetrics
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

from .spans import Recorder, total_cpu_s


@dataclass(frozen=True)
class App:
    name: str
    input_class: str


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    apps: Tuple[App, ...]
    #: ``validate``: offline binary-driven, plus the full-simulation
    #: reference; ``checkpoint``: offline checkpoint-driven with a fresh
    #: store, then a second design point from that store; ``live``: one
    #: streaming pass.
    flow: str
    jobs: int


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w for w in (
        BenchWorkload(
            "train-validate",
            (App("621.wrf_s.1", "train"), App("npb-cg", "C"),
             App("657.xz_s.2", "train")),
            flow="validate", jobs=1,
        ),
        BenchWorkload(
            "ref-checkpoint",
            (App("621.wrf_s.1", "ref"), App("638.imagick_s.1", "ref")),
            flow="checkpoint", jobs=2,
        ),
        BenchWorkload(
            "train-live",
            (App("npb-cg", "C"), App("603.bwaves_s.2", "train"),
             App("619.lbm_s.1", "train")),
            flow="live", jobs=1,
        ),
    )
}


@dataclass
class Reference:
    """A full detailed simulation of one app, the accuracy reference."""

    metrics: SimMetrics
    wall_s: float


@dataclass
class OpResult:
    """One app pushed once through the workload's flow."""

    app: str
    record_seed: int
    traced: bool
    #: Phase walls in seconds: ``sampled`` (record to prediction, or the
    #: live pass), ``fullsim`` (validate), ``reuse`` (checkpoint), and
    #: ``op`` (the whole op).
    walls: Dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    #: Application instructions predicted by the sampled methodology (and
    #: by the reuse pass).
    instructions: float = 0.0
    reuse_instructions: float = 0.0
    digest: str = ""
    #: Simulated facts of the op (counts, error, fan-out accounting).
    facts: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[Recorder] = None
    error: Optional[str] = None


def metrics_digest(parts: Mapping[str, Optional[SimMetrics]]) -> str:
    """sha256 over the named SimMetrics (absent ones included as null)."""
    blob = json.dumps(
        {k: (asdict(v) if v is not None else None) for k, v in parts.items()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def selection_digest(selection: Any) -> str:
    blob = json.dumps(
        [(c.representative, c.members, c.multiplier)
         for c in selection.clusters],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Pipeline entry point -> span name, and whether only its first call is
#: timed (memoized stages return the memo afterwards).
_PIPELINE_SPANS = (
    ("record", "record", True),
    ("profile", "profile", True),
    ("select", "select", True),
    ("marker_pcs", "dcfg", True),
    ("region_pinballs", "extract", False),
    ("simulate_regions", "simulate", False),
    ("simulate_regions_constrained", "simulate", False),
    ("simulate_full", "fullsim", False),
)


class OpCheckError(Exception):
    """An op produced output that fails the benchmark's checks."""


class Bench:
    """One invocation's pinned configuration, models and references."""

    def __init__(
        self,
        workload: BenchWorkload,
        seed: int,
        scale: str = "small",
        out_dir: Optional[Path] = None,
        faults: Optional[Mapping[str, FaultPlan]] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.scale: ReproScale = get_scale(scale)
        self.out_dir = out_dir or Path(".")
        self.faults = dict(faults or {})
        self.models: Dict[str, Workload] = {}
        self.references: Dict[str, Reference] = {}
        self._store_seq = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Build the workload models and construct one pipeline per app
        (the set-up ``setup_s`` measures)."""
        for app in self.workload.apps:
            model = get_workload(app.name, app.input_class, 8, self.scale)
            self.models[app.name] = model
            self.pipeline(app.name)

    def system(self, app: str) -> SystemConfig:
        nthreads = self.models[app].nthreads
        return GAINESTOWN_8CORE.with_cores(
            max(GAINESTOWN_8CORE.num_cores, nthreads)
        )

    def options(
        self, app: str, cache_dir: Optional[Path] = None
    ) -> LoopPointOptions:
        return LoopPointOptions(
            wait_policy=WaitPolicy.PASSIVE,
            scale=self.scale,
            record_seed=self.seed,
            jobs=self.workload.jobs,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            cache_max_bytes=0,
            fault_plan=self.faults.get(app),
            manifest_path=None,
            trace_path=None,
            degrade=DegradePolicy.FAIL,
            lint=False,
        )

    def live_options(self) -> LiveOptions:
        return LiveOptions(seed=self.seed)

    def pipeline(
        self, app: str, system: Optional[SystemConfig] = None,
        cache_dir: Optional[Path] = None,
    ) -> LoopPointPipeline:
        return LoopPointPipeline(
            self.models[app],
            system or self.system(app),
            self.options(app, cache_dir),
        )

    def reference(self, app: str) -> Reference:
        """Full detailed simulation of ``app``, run once per invocation.

        Only the validate flow simulates its reference inside every op;
        the others need one only for the per-layer accuracy and
        full-simulation figures of a traced run.
        """
        if app not in self.references:
            pipe = self.pipeline(app)
            t0 = time.perf_counter()
            full = pipe.simulate_full()
            self.references[app] = Reference(
                full.metrics, time.perf_counter() - t0
            )
        return self.references[app]

    def _reference_metrics(self, app: str) -> Optional[SimMetrics]:
        reference = self.references.get(app)
        return reference.metrics if reference is not None else None

    # -- ops ------------------------------------------------------------------

    def run_op(self, app: str, traced: bool) -> OpResult:
        """Push ``app`` through the workload's flow once.  Never raises:
        a failure lands in ``OpResult.error``."""
        flow: Callable[[str, Recorder, OpResult], None] = {
            "validate": self._op_validate,
            "checkpoint": self._op_checkpoint,
            "live": self._op_live,
        }[self.workload.flow]
        rec = Recorder(enabled=traced)
        out = OpResult(app=app, record_seed=self.seed, traced=traced,
                       recorder=rec if traced else None)
        cpu0 = total_cpu_s()
        t0 = time.perf_counter()
        try:
            with rec.span("op", workload=self.workload.name, app=app,
                          seed=self.seed):
                flow(app, rec, out)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            out.error = f"{type(exc).__name__}: {exc}"
        out.walls["op"] = time.perf_counter() - t0
        out.cpu_s = total_cpu_s() - cpu0
        return out

    def _instrument(self, rec: Recorder, pipe: LoopPointPipeline) -> None:
        for method, span, once in _PIPELINE_SPANS:
            rec.wrap(pipe, method, span, once=once)

    def _result(
        self, pipe: LoopPointPipeline, predicted: SimMetrics,
        actual: Optional[SimMetrics], results: List[SimulationResult],
        speedup: Any, num_slices: int, num_looppoints: int,
    ) -> LoopPointResult:
        freq = pipe.system.core.frequency_ghz
        return LoopPointResult(
            workload=pipe.workload.full_name,
            wait_policy=pipe.options.wait_policy.value,
            num_slices=num_slices,
            num_looppoints=num_looppoints,
            predicted=predicted,
            actual=actual,
            region_results=results,
            speedup=speedup,
            health=pipe.health,
            frequency_ghz=freq,
            reference_frequency_ghz=freq,
        )

    def _offline_pass(
        self, rec: Recorder, pipe: LoopPointPipeline, constrained: bool
    ) -> LoopPointResult:
        """record -> profile -> select -> simulate -> extrapolate."""
        pipe.record()
        profile = pipe.profile()
        selection = pipe.select()
        if constrained:
            results = pipe.simulate_regions_constrained()
        else:
            results = pipe.simulate_regions()
        with rec.span("extrapolate"):
            predicted = extrapolate_metrics(results, selection.clusters)
            speedup = compute_speedups(
                profile, selection.clusters,
                warmup_instructions=self.scale.warmup_instructions,
                region_results=results,
                execution=pipe.last_execution,
            )
        return self._result(
            pipe, predicted, None, results, speedup,
            profile.num_slices, len(selection.clusters),
        )

    @staticmethod
    def _check_health(result: LoopPointResult, label: str) -> None:
        if not result.health.ok:
            raise OpCheckError(f"{label}: health {result.health.summary()}")

    def _record_facts(
        self, out: OpResult, result: LoopPointResult, total_instructions: int,
    ) -> None:
        detail = sum(r.metrics.instructions for r in result.region_results)
        out.instructions = float(result.predicted.instructions)
        out.facts.update(
            total_instructions=float(total_instructions),
            slices=float(result.num_slices),
            k=float(result.num_looppoints),
            detail_instructions=float(detail),
            modelled_speedup=result.speedup.theoretical_serial,
        )
        if result.actual is not None:
            out.facts["runtime_error_pct"] = float(result.runtime_error_pct)
            out.facts["reference_instructions"] = float(
                result.actual.instructions
            )

    def _op_validate(self, app: str, rec: Recorder, out: OpResult) -> None:
        pipe = self.pipeline(app)
        self._instrument(rec, pipe)
        t0 = time.perf_counter()
        result = self._offline_pass(rec, pipe, constrained=False)
        t1 = time.perf_counter()
        full = pipe.simulate_full()
        out.walls.update(sampled=t1 - t0, fullsim=time.perf_counter() - t1)
        result.actual = full.metrics
        self._check_health(result, "sampled pass")
        self._record_facts(out, result, pipe.profile().total_instructions)
        out.digest = metrics_digest(
            {"predicted": result.predicted, "actual": result.actual}
        )

    def _fresh_store(self) -> Path:
        self._store_seq += 1
        path = self.out_dir / "store" / f"op{self._store_seq}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _op_checkpoint(self, app: str, rec: Recorder, out: OpResult) -> None:
        store = self._fresh_store()
        try:
            self._checkpoint_passes(app, rec, out, store)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def _checkpoint_passes(
        self, app: str, rec: Recorder, out: OpResult, store: Path
    ) -> None:
        pipe = self.pipeline(app, cache_dir=store)
        self._instrument(rec, pipe)
        t0 = time.perf_counter()
        cold = self._offline_pass(rec, pipe, constrained=True)
        t1 = time.perf_counter()
        store_bytes = sum(
            p.stat().st_size for p in store.rglob("*") if p.is_file()
        )
        fanout = pipe.last_execution
        # The second design point reads what the cold pass wrote.
        with rec.span("reuse", design="inorder"):
            reuse_pipe = self.pipeline(
                app, system=self.system(app).as_inorder(), cache_dir=store
            )
            self._instrument(rec, reuse_pipe)
            reuse = self._offline_pass(rec, reuse_pipe, constrained=True)
        out.walls.update(sampled=t1 - t0, reuse=time.perf_counter() - t1)
        cold.actual = self._reference_metrics(app)
        self._check_health(cold, "cold pass")
        self._check_health(reuse, "reuse pass")
        if reuse_pipe.stage_keys() != pipe.stage_keys():
            raise OpCheckError("reuse pass resolved different stage keys")
        if selection_digest(reuse_pipe.select()) != selection_digest(
            pipe.select()
        ):
            raise OpCheckError("reuse pass selected different regions")
        served = reuse_pipe.artifacts.hits if reuse_pipe.artifacts else {}
        if any(served.get(s, 0) < 1 for s in ("record", "profile", "select")):
            raise OpCheckError(f"reuse pass missed the store: {dict(served)}")
        self._record_facts(out, cold, pipe.profile().total_instructions)
        out.reuse_instructions = float(reuse.predicted.instructions)
        out.facts.update(
            regions=float(len(cold.region_results)),
            store_bytes=float(store_bytes),
        )
        if fanout is not None:
            out.facts.update(
                fanout_elapsed_s=fanout.elapsed_seconds,
                fanout_efficiency=(
                    fanout.serial_seconds
                    / (fanout.workers * fanout.elapsed_seconds)
                    if fanout.elapsed_seconds > 0 else 0.0
                ),
                fanout_retries=float(fanout.retries),
            )
        out.digest = metrics_digest({
            "predicted": cold.predicted,
            "reuse": reuse.predicted,
            "actual": cold.actual,
        })

    def _op_live(self, app: str, rec: Recorder, out: OpResult) -> None:
        pipe = self.pipeline(app)
        self._instrument(rec, pipe)
        model = self.models[app]
        system = pipe.system

        def simulate(region_pinball) -> SimulationResult:
            with rec.span("simulate", region=region_pinball.region_id):
                return MultiCoreSimulator(
                    model.program, system, model.omp
                ).run_pinball(region_pinball)

        t0 = time.perf_counter()
        # marker_pcs() first, as run_live does: the record stage then
        # builds the DCFG while recording instead of replaying for it.
        markers = pipe.marker_pcs()
        sampler = LiveSampler(
            model.program,
            pipe.record(),
            [model.program.block_at(pc) for pc in markers],
            pipe.slice_size,
            self.scale.warmup_instructions,
            simulate=simulate,
            options=self.live_options(),
        )
        rec.wrap(sampler, "region_pinball", "extract")
        with rec.span("live"):
            live = sampler.run()
        with rec.span("extrapolate"):
            # The zero-mass filter run_live applies before the speedup
            # arithmetic.
            slices = live.profile.slices
            speedup = compute_speedups(
                live.profile,
                [c for c in live.clusters
                 if slices[c.representative].filtered_instructions > 0],
                warmup_instructions=self.scale.warmup_instructions,
                region_results=[
                    r for r in live.region_results
                    if slices[r.region_id].filtered_instructions > 0
                ],
                execution=None,
            )
        out.walls["sampled"] = time.perf_counter() - t0
        result = self._result(
            pipe, live.predicted, self._reference_metrics(app),
            live.region_results, speedup, live.profile.num_slices,
            live.report.num_clusters,
        )
        self._check_health(result, "live pass")
        self._record_facts(out, result, live.profile.total_instructions)
        out.facts.update(
            regions=float(live.report.num_simulated),
            live_simulated=float(live.report.num_simulated),
            live_skipped=float(live.report.num_skipped),
            live_extrapolated_fraction=live.report.extrapolated_fraction,
        )
        out.digest = metrics_digest(
            {"predicted": result.predicted, "actual": result.actual}
        )
