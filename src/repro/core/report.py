"""Human-readable result tables for pipeline outputs."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .looppoint import LoopPointResult


def format_result_table(results: Sequence[LoopPointResult]) -> str:
    """One row per workload: slices, looppoints, error, speedups, health."""
    header = (
        f"{'workload':<38} {'slices':>6} {'lpts':>5} {'err%':>7} "
        f"{'ser(th)':>9} {'par(th)':>9} {'ser(act)':>9} {'par(act)':>9} "
        f"{'concur':>9} {'retry':>5} {'fb':>4} {'cov%':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        err = f"{r.runtime_error_pct:7.2f}" if r.actual is not None else "     --"
        sp = r.speedup

        def fmt(x: Optional[float]) -> str:
            return f"{x:8.1f}x" if x is not None else "      --x"

        h = r.health
        fallbacks = h.serial_fallbacks + len(h.fallback_regions)
        lines.append(
            f"{r.workload:<38} {r.num_slices:>6} {r.num_looppoints:>5} {err} "
            f"{fmt(sp.theoretical_serial)} {fmt(sp.theoretical_parallel)} "
            f"{fmt(sp.actual_serial)} {fmt(sp.actual_parallel)} "
            f"{fmt(sp.concurrency)} "
            f"{h.retries:>5} {fallbacks:>4} {h.retained_coverage * 100:>5.1f}%"
        )
    return "\n".join(lines)


def format_health_table(results: Sequence[LoopPointResult]) -> str:
    """One row per failure record across the given runs (empty string when
    every run was clean) — the detail behind the summary columns above."""
    records = [
        (r.workload, f) for r in results for f in r.health.failures
    ]
    if not records:
        return ""
    header = (
        f"{'workload':<38} {'stage':<10} {'region':>6} {'attempts':>8} "
        f"{'action':<10} error"
    )
    lines = [header, "-" * len(header)]
    for workload, f in records:
        region = f.region_id if f.region_id is not None else "--"
        lines.append(
            f"{workload:<38} {f.stage:<10} {region:>6} {f.attempts:>8} "
            f"{f.action:<10} {f.error}"
        )
    return "\n".join(lines)


def mean_abs(values: Iterable[float]) -> float:
    vals = [abs(v) for v in values]
    if not vals:
        raise ValueError("no values to average")
    return sum(vals) / len(vals)
