"""Cutting region checkpoints out of a whole-program pinball.

The paper generates region pinballs "with a large enough warmup region added
to the representative region" (Sec. V-A.1) so checkpoint-driven simulation
starts from warmed microarchitectural state.  Every requested region needs
three cut points per thread: warmup start (a filtered-instruction
coordinate), detail start (the region's start marker), and detail end (the
end marker).

Extraction finds them all with one forward walk over the replay's skip
index — the walk live sampling cuts its regions with — that stops at each
pending warmup coordinate and each pending ``(pc, count)`` marker, in
schedule order, and delivers no events.  Execution counts at the warmup
cuts come from one bulk scatter-add per cut.  Live mode and offline
extraction build the :class:`RegionPinball` through
:func:`build_region_pinball`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import RegionError
from ..isa.image import Program
from ..profiling.markers import Marker
from ..resilience import REGION_EXTRACT, maybe_inject
from .pinball import Pinball, RegionPinball
from .replayer import ConstrainedReplayer, CutPoint


@dataclass(frozen=True)
class RegionCut:
    """One region to extract.

    ``start``/``end`` of ``None`` mean program start/end.  ``warmup_filtered``
    is the global filtered-instruction coordinate at which the warmup prefix
    begins (clamped to the region start by construction).
    """

    region_id: int
    start: Optional[Marker]
    end: Optional[Marker]
    warmup_filtered: int = 0


def extract_region_pinballs(
    program: Program,
    pinball: Pinball,
    cuts: Sequence[RegionCut],
) -> List[RegionPinball]:
    """Extract one :class:`RegionPinball` per :class:`RegionCut`.

    One walk of ``pinball``'s schedule locates every cut point, so
    extraction costs one walk regardless of the number of regions.  A
    cut's warmup coordinate is pending from the start; its start marker
    once its warmup is cut, its end marker once its detail starts.  At
    one entry, warmup cuts come first, then marker cuts in cut order, so
    the first offending cut names a batched-entry error.
    """
    maybe_inject(REGION_EXTRACT, f"extract:{program.name}:{len(cuts)}")
    n = len(cuts)
    marker_pcs = {
        m.pc for cut in cuts for m in (cut.start, cut.end) if m is not None
    }
    replayer = ConstrainedReplayer(program, pinball)
    cursor = replayer.cursor()
    warm: List[Optional[CutPoint]] = [None] * n
    detail: List[Optional[CutPoint]] = [None] * n
    stop: List[Optional[CutPoint]] = [None] * n
    warm_order = sorted(range(n), key=lambda i: (cuts[i].warmup_filtered, i))
    next_warm = 0
    #: Pending marker cuts: ``pc ->`` ascending counts for the walk, and
    #: the cut indices waiting on each ``(pc, count)``.
    targets: Dict[int, List[int]] = {}
    waiting: Dict[Tuple[int, int], List[int]] = {}

    def wait_for(marker: Marker, i: int) -> None:
        key = (marker.pc, marker.count)
        if key not in waiting:
            waiting[key] = []
            insort(targets.setdefault(marker.pc, []), marker.count)
        waiting[key].append(i)

    def at_entry_start(which: str, marker: Marker, before: int) -> None:
        if marker.count != before:
            raise RegionError(
                f"{which} marker {marker} falls inside a batched entry"
            )

    def warm_at() -> Optional[int]:
        if next_warm == n:
            return None
        return cuts[warm_order[next_warm]].warmup_filtered

    while True:
        found, _, hit = replayer.walk(
            cursor, marker_pcs, targets=targets, filtered_abs=warm_at()
        )
        if not found:
            break
        point = cursor.point()
        if hit is None:
            # Every warmup coordinate this entry's filtered count reaches.
            while next_warm < n and warm_at() <= point.filtered:
                i = warm_order[next_warm]
                warm[i] = point
                if cuts[i].start is None:
                    detail[i] = point
                    if cuts[i].end is not None:
                        wait_for(cuts[i].end, i)
                else:
                    wait_for(cuts[i].start, i)
                next_warm += 1
            continue
        pc, before, repeat = hit
        counts = targets[pc]
        upto = bisect_left(counts, before + repeat)
        fired: List[int] = []
        for count in counts[:upto]:
            # Counts below ``before`` were passed before their cut became
            # pending: they never fire and finalization reports them.
            ids = waiting.pop((pc, count))
            if count >= before:
                fired.extend(ids)
        del counts[:upto]
        for i in sorted(fired):
            cut = cuts[i]
            if detail[i] is None:
                at_entry_start("start", cut.start, before)
                detail[i] = point
                end = cut.end
                if end is None:
                    continue
                if end.pc != pc or not before <= end.count < before + repeat:
                    wait_for(end, i)
                    continue
            at_entry_start("end", cut.end, before)
            stop[i] = point

    at_end = cursor.point()
    for i, cut in enumerate(cuts):
        if warm[i] is None:
            raise RegionError(
                f"region {cut.region_id}: warmup coordinate "
                f"{cut.warmup_filtered} beyond end of execution"
            )
        if detail[i] is None:
            raise RegionError(
                f"region {cut.region_id}: start marker {cut.start} "
                f"never reached"
            )
        if stop[i] is None:
            if cut.end is not None:
                raise RegionError(
                    f"region {cut.region_id}: end marker {cut.end} "
                    f"never reached"
                )
            stop[i] = at_end

    # Execution counts at each warmup cut, advanced in schedule order.
    start_counts: List[Optional[List[List[int]]]] = [None] * n
    counts_at = [[0] * program.num_blocks for _ in range(pinball.nthreads)]
    positions = [0] * pinball.nthreads
    for i in warm_order:
        counts_at = replayer.advance_exec_counts(
            counts_at, positions, warm[i].positions, marker_pcs
        )
        positions = warm[i].positions
        start_counts[i] = counts_at
    return [
        build_region_pinball(
            pinball, cut, warm[i], detail[i], stop[i], start_counts[i]
        )
        for i, cut in enumerate(cuts)
    ]


def build_region_pinball(
    pinball: Pinball,
    cut: RegionCut,
    warm: CutPoint,
    detail: CutPoint,
    end: CutPoint,
    start_exec_counts: List[List[int]],
) -> RegionPinball:
    """The region checkpoint between the warmup and end cut points.

    ``detail`` is where the region's detail portion starts; the logs
    keep their entries between ``warm`` and ``end`` with sync sequence
    numbers renumbered densely.  Used by offline extraction and by live
    sampling alike.
    """
    nthreads = pinball.nthreads
    logs = [
        list(pinball.logs[tid][warm.positions[tid]:end.positions[tid]])
        for tid in range(nthreads)
    ]
    _renumber_gseq(logs)
    return RegionPinball(
        program_name=pinball.program_name,
        nthreads=nthreads,
        wait_policy=pinball.wait_policy,
        seed=pinball.seed,
        logs=logs,
        total_instructions=end.total - warm.total,
        filtered_instructions=end.filtered - warm.filtered,
        metadata={
            "warmup_total": detail.total - warm.total,
            "warmup_filtered": detail.filtered - warm.filtered,
            "detail_total": end.total - detail.total,
            "detail_filtered": end.filtered - detail.filtered,
            "start": None if cut.start is None else
                     (cut.start.pc, cut.start.count),
            "end": None if cut.end is None else (cut.end.pc, cut.end.count),
        },
        start_exec_counts=start_exec_counts,
        detail_positions=[
            detail.positions[tid] - warm.positions[tid]
            for tid in range(nthreads)
        ],
        region_id=cut.region_id,
    )


def _renumber_gseq(logs: List[List[tuple]]) -> None:
    """Densely renumber sync sequence numbers, preserving relative order."""
    entries = []
    for tid, log in enumerate(logs):
        for idx, entry in enumerate(log):
            if entry[0] == "s":
                entries.append((entry[4], tid, idx))
    entries.sort()
    for new_gseq, (_, tid, idx) in enumerate(entries):
        kind, obj_id, response = logs[tid][idx][1:4]
        logs[tid][idx] = ("s", kind, obj_id, response, new_gseq)
