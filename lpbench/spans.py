"""Spans around the benchmark's calls into each layer, kept in memory.

A traced op records one ``op`` root span and a child span per layer call.
Layer calls are timed from outside the program: the benchmark either wraps
the call itself in :meth:`Recorder.span`, or shadows a public method on
one object with :meth:`Recorder.wrap`, so calls the program makes
internally (``simulate_regions_constrained`` calling ``region_pinballs``)
nest correctly.  Nothing is written until the op has ended; then
:func:`write_trace` emits the spans in the ``repro.obs`` trace format, one
trace id per op, so ``repro-obs report`` and ``repro-obs folded`` read
them unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.tracer import TRACE_SCHEMA


def children_cpu_s() -> float:
    """CPU seconds of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def total_cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    return time.process_time() + children_cpu_s()


@dataclass
class SpanRec:
    span_id: str
    name: str
    parent: Optional[str]
    t0: float
    dur: float = 0.0
    #: This process's CPU seconds inside the span.
    cpu: float = 0.0
    #: CPU seconds of child processes reaped inside the span (pool workers).
    child_cpu: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)


class Recorder:
    """In-memory span recorder for one op; a disabled one records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[SpanRec] = []
        self._stack: List[SpanRec] = []
        self._seq = 0
        self.epoch = time.time()
        self.mono = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[SpanRec]]:
        if not self.enabled:
            yield None
            return
        self._seq += 1
        rec = SpanRec(
            span_id=f"{os.getpid():x}.{self._seq}",
            name=name,
            parent=self._stack[-1].span_id if self._stack else None,
            t0=time.perf_counter(),
            attrs=dict(attrs),
        )
        cpu0 = time.process_time()
        child0 = children_cpu_s()
        self._stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec.attrs["error"] = type(exc).__name__
            raise
        finally:
            rec.dur = time.perf_counter() - rec.t0
            rec.cpu = time.process_time() - cpu0
            rec.child_cpu = children_cpu_s() - child0
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, obj: Any, method: str, name: str, once: bool = False) -> None:
        """Time calls of ``obj.method`` as ``name`` spans.

        The wrapper shadows the method on this one instance, so calls the
        object makes on itself are timed too.  ``once`` times only the
        first call: later calls of a memoized stage return the memo and
        are left to the caller's span.
        """
        if not self.enabled:
            return
        original = getattr(obj, method)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if once:
                obj.__dict__.pop(method, None)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, method, timed)


def self_times(spans: List[SpanRec]) -> Dict[str, Dict[str, float]]:
    """Span id -> wall, CPU and child CPU not covered by its child spans."""
    covered: Dict[str, List[float]] = {}
    for span in spans:
        if span.parent is not None:
            acc = covered.setdefault(span.parent, [0.0, 0.0, 0.0])
            acc[0] += span.dur
            acc[1] += span.cpu
            acc[2] += span.child_cpu
    out = {}
    for span in spans:
        wall, cpu, child = covered.get(span.span_id, (0.0, 0.0, 0.0))
        out[span.span_id] = {
            "wall": span.dur - wall,
            "cpu": span.cpu - cpu,
            "child_cpu": span.child_cpu - child,
        }
    return out


def write_trace(
    path: Path, recorder: Recorder, meta: Dict[str, Any]
) -> str:
    """Write one op's spans as a ``repro.obs`` trace segment; returns its
    trace id."""
    pid = os.getpid()
    trace_id = hashlib.sha256(
        f"{path}:{pid}:{recorder.epoch}".encode("utf-8")
    ).hexdigest()[:12]
    records: List[Dict[str, Any]] = [{
        "type": "trace-start",
        "trace_id": trace_id,
        "pid": pid,
        "epoch": recorder.epoch,
        "mono": recorder.mono,
        "schema": TRACE_SCHEMA,
        "meta": meta,
    }]
    for span in sorted(recorder.spans, key=lambda s: s.t0):
        record: Dict[str, Any] = {
            "type": "span",
            "id": span.span_id,
            "name": span.name,
            "pid": pid,
            "t0": span.t0,
            "dur": span.dur,
            "cpu": span.cpu,
            "attrs": dict(span.attrs, child_cpu=span.child_cpu),
        }
        if span.parent is not None:
            record["parent"] = span.parent
        records.append(record)
    records.append({
        "type": "trace-end",
        "trace_id": trace_id,
        "pid": pid,
        "spans": len(recorder.spans),
        "open_spans": 0,
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return trace_id
