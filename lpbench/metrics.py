"""Metric table and the aggregation of ops into metrics.

Per-app figures are medians over that app's ops; workload figures then
sum (or, for ratios, divide sums) over the workload's apps, so the app
mix of a run cut at ``--seconds`` does not move them.  End-to-end metrics
come from untraced ops only; per-layer metrics from traced ops (span self
times) and, for the ones measured by phase walls, from the untraced ops
of the same run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .flows import OpResult
from .spans import SpanRec, self_times


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


END_TO_END: List[Metric] = [
    Metric("sampled_kips", "KIPS", "higher", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
    Metric("setup_s", "s", "lower", 0.25),
]

PER_LAYER: List[Metric] = [
    Metric("record.wall_s", "s", "lower"),
    Metric("record.kips", "KIPS", "higher"),
    Metric("profile.wall_s", "s", "lower"),
    Metric("profile.kips", "KIPS", "higher"),
    Metric("profile.slices", "count", "lower"),
    Metric("select.wall_s", "s", "lower"),
    Metric("select.cpu_s", "s", "lower"),
    Metric("select.k", "count", "lower"),
    Metric("extract.wall_s", "s", "lower"),
    Metric("extract.regions", "count", "lower"),
    Metric("simulate.wall_s", "s", "lower"),
    Metric("simulate.detail_instructions", "count", "lower"),
    Metric("simulate.detail_fraction", "ratio", "lower"),
    Metric("simulate.detail_kips", "KIPS", "higher"),
    Metric("fullsim.wall_s", "s", "lower"),
    Metric("fullsim.kips", "KIPS", "higher"),
    Metric("sampled_speedup", "x", "higher"),
    Metric("fanout.wall_s", "s", "lower"),
    Metric("fanout.cpu_s", "s", "lower"),
    Metric("fanout.efficiency", "ratio", "higher"),
    Metric("fanout.retries", "count", "lower"),
    Metric("store.bytes", "bytes", "lower"),
    Metric("store.warm_load_s", "s", "lower"),
    Metric("reuse_kips", "KIPS", "higher"),
    Metric("live.wall_s", "s", "lower"),
    Metric("live.timing_s", "s", "lower"),
    Metric("live.replay_s", "s", "lower"),
    Metric("live.simulated_regions", "count", "lower"),
    Metric("live.skipped_regions", "count", "higher"),
    Metric("live.extrapolated_fraction", "ratio", "higher"),
    Metric("extrapolate.wall_s", "s", "lower"),
    Metric("orchestration_s", "s", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
    Metric("runtime_error_pct", "%", "lower"),
    Metric("modelled_speedup", "x", "higher"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}

#: Span name -> layer, for spans outside the reuse pass.
LAYER_OF = {
    "record": "record",
    "dcfg": "profile",
    "profile": "profile",
    "select": "select",
    "extract": "extract",
    "simulate": "simulate",
    "fullsim": "fullsim",
    "live": "live",
    "extrapolate": "extrapolate",
}

#: Layer self times of one op may miss the op span by this share before
#: the op fails its reconciliation check.
RECONCILE_TOLERANCE = 0.01


def layer_times(spans: List[SpanRec]) -> Dict[str, Dict[str, float]]:
    """Layer -> summed self wall/CPU of one traced op.

    Inside the ``reuse`` span, record/profile/select are served from the
    store (layer ``store``) and the rest is the reuse pass (``reuse``).
    Spans that are no layer call (``op``, ``reuse``) are orchestration.
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}

    def under_reuse(span: SpanRec) -> bool:
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None:
            if parent.name == "reuse":
                return True
            parent = by_id.get(parent.parent) if parent.parent else None
        return False

    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"wall": 0.0, "cpu": 0.0, "child_cpu": 0.0}
    )
    for span in spans:
        if under_reuse(span):
            layer = (
                "store" if span.name in ("record", "profile", "select")
                else "reuse"
            )
        else:
            layer = LAYER_OF.get(span.name, "orchestration")
        for key, value in own[span.span_id].items():
            out[layer][key] += value
    return dict(out)


def reconcile(spans: List[SpanRec]) -> Optional[str]:
    """Why the layer self times do not add up to the op span, or None."""
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1 or roots[0].name != "op":
        return f"expected one op root span, got {[s.name for s in roots]}"
    op = roots[0]
    total = sum(v["wall"] for v in layer_times(spans).values())
    if abs(total - op.dur) > RECONCILE_TOLERANCE * op.dur:
        return f"layer self times sum to {total:.6f}s, op span {op.dur:.6f}s"
    return None


def _per_app(
    ops: Sequence[OpResult], value: Callable[[OpResult], float]
) -> Dict[str, float]:
    """App -> median of ``value`` over that app's ops."""
    grouped: Dict[str, List[float]] = defaultdict(list)
    for op in ops:
        grouped[op.app].append(value(op))
    return {app: statistics.median(vals) for app, vals in grouped.items()}


def _sum(values: Dict[str, float]) -> float:
    return float(sum(values.values()))


def _mean(values: Dict[str, float]) -> float:
    return float(statistics.fmean(values.values())) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _first(
    ops: Sequence[OpResult], value: Callable[[OpResult], float]
) -> Dict[str, float]:
    """App -> ``value`` of its first op (for deterministic facts)."""
    out: Dict[str, float] = {}
    for op in ops:
        out.setdefault(op.app, value(op))
    return out


def end_to_end(
    ops: Sequence[OpResult], setup_s: float, peak_rss_mb: float
) -> Dict[str, float]:
    sampled = _per_app(ops, lambda o: o.walls["sampled"])
    instructions = _first(ops, lambda o: o.instructions)
    return {
        "sampled_kips": _ratio(_sum(instructions), _sum(sampled)) / 1e3,
        "cpu_s": _mean(_per_app(ops, lambda o: o.cpu_s)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(
    untraced: Sequence[OpResult],
    traced: Sequence[OpResult],
    reference_walls: Dict[str, float],
) -> Dict[str, float]:
    layers = {id(op): layer_times(op.recorder.spans) for op in traced}

    def wall(layer: str) -> Dict[str, float]:
        return _per_app(
            traced, lambda o: layers[id(o)].get(layer, {}).get("wall", 0.0)
        )

    def cpu(layer: str) -> Dict[str, float]:
        return _per_app(
            traced,
            lambda o: sum(
                layers[id(o)].get(layer, {}).get(k, 0.0)
                for k in ("cpu", "child_cpu")
            ),
        )

    def fact(name: str) -> Dict[str, float]:
        return _per_app(traced, lambda o: o.facts.get(name, 0.0))

    total_instr = _sum(fact("total_instructions"))
    detail = _sum(fact("detail_instructions"))
    reference_instr = _sum(fact("reference_instructions"))
    # Phase walls come from the untraced ops of the traced run.
    sampled = _sum(_per_app(untraced, lambda o: o.walls["sampled"]))
    fullsim = _sum(
        _per_app([o for o in untraced if "fullsim" in o.walls],
                 lambda o: o.walls["fullsim"])
        or reference_walls
    )
    is_live = any("live_simulated" in o.facts for o in traced)
    reuse = [o for o in untraced if "reuse" in o.walls]
    op_wall = {
        traced_flag: _sum(_per_app(group, lambda o: o.walls["op"]))
        for traced_flag, group in ((True, traced), (False, untraced))
    }
    return {
        "record.wall_s": _sum(wall("record")),
        "record.kips": _ratio(total_instr, _sum(wall("record"))) / 1e3,
        "profile.wall_s": _sum(wall("profile")),
        "profile.kips": _ratio(total_instr, _sum(wall("profile"))) / 1e3,
        "profile.slices": _sum(fact("slices")),
        "select.wall_s": _sum(wall("select")),
        "select.cpu_s": _sum(cpu("select")),
        "select.k": _sum(fact("k")),
        "extract.wall_s": _sum(wall("extract")),
        "extract.regions": _sum(fact("regions")),
        "simulate.wall_s": _sum(wall("simulate")),
        "simulate.detail_instructions": detail,
        "simulate.detail_fraction": _ratio(detail, total_instr),
        "simulate.detail_kips": _ratio(detail, _sum(wall("simulate"))) / 1e3,
        "fullsim.wall_s": fullsim,
        "fullsim.kips": _ratio(reference_instr, fullsim) / 1e3,
        "sampled_speedup": _ratio(fullsim, sampled),
        "fanout.wall_s": _sum(fact("fanout_elapsed_s")),
        "fanout.cpu_s": (
            _sum(cpu("simulate"))
            if any("fanout_elapsed_s" in o.facts for o in traced) else 0.0
        ),
        "fanout.efficiency": _mean(fact("fanout_efficiency")),
        "fanout.retries": float(sum(
            o.facts.get("fanout_retries", 0.0)
            for o in list(untraced) + list(traced)
        )),
        "store.bytes": _sum(fact("store_bytes")),
        "store.warm_load_s": _sum(wall("store")),
        "reuse_kips": (
            _ratio(
                _sum(_first(reuse, lambda o: o.reuse_instructions)),
                _sum(_per_app(reuse, lambda o: o.walls["reuse"])),
            ) / 1e3
        ),
        "live.wall_s": sampled if is_live else 0.0,
        "live.timing_s": _sum(wall("simulate")) if is_live else 0.0,
        "live.replay_s": _sum(wall("live")),
        "live.simulated_regions": _sum(fact("live_simulated")),
        "live.skipped_regions": _sum(fact("live_skipped")),
        "live.extrapolated_fraction": _mean(
            fact("live_extrapolated_fraction")
        ),
        "extrapolate.wall_s": _sum(wall("extrapolate")),
        "orchestration_s": _sum(wall("orchestration")),
        "trace.overhead_pct": 100.0 * (
            _ratio(op_wall[True], op_wall[False]) - 1.0
        ),
        "runtime_error_pct": _mean(fact("runtime_error_pct")),
        "modelled_speedup": _mean(fact("modelled_speedup")),
    }
