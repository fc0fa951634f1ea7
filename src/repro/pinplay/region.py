"""Cutting region checkpoints out of a whole-program pinball.

The paper generates region pinballs "with a large enough warmup region added
to the representative region" (Sec. V-A.1) so checkpoint-driven simulation
starts from warmed microarchitectural state.  We replay the whole-program
pinball once and, for every requested region, capture three cut points per
thread: warmup start (a filtered-instruction coordinate), detail start (the
region's start marker), and detail end (the end marker).

The replay's per-entry hook does O(1) work however many regions are cut:
pending cuts are indexed (warmup coordinates sorted, markers keyed by
``(pc, count)``) instead of scanned, so extraction costs one replay plus
O(log cuts) per cut point.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import RegionError
from ..isa.image import Program
from ..profiling.markers import Marker
from ..resilience import REGION_EXTRACT, maybe_inject
from .pinball import Pinball, RegionPinball
from .replayer import ConstrainedReplayer

# Cut stages.
_AWAIT_WARMUP = 0
_AWAIT_START = 1
_AWAIT_END = 2
_DONE = 3


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


class _CutState:
    __slots__ = (
        "index", "cut", "stage", "warm_pos", "warm_counts", "warm_total",
        "warm_filtered", "detail_pos", "end_pos", "detail_total",
        "detail_filtered", "end_total", "end_filtered",
    )

    def __init__(self, index: int, cut: RegionCut) -> None:
        self.index = index
        self.cut = cut
        self.stage = _AWAIT_WARMUP
        self.warm_pos: Optional[List[int]] = None
        self.warm_counts: Optional[List[List[int]]] = None
        self.warm_total = 0
        self.warm_filtered = 0
        self.detail_pos: Optional[List[int]] = None
        self.detail_total = 0
        self.detail_filtered = 0
        self.end_pos: Optional[List[int]] = None
        self.end_total = 0
        self.end_filtered = 0


class _PendingMarkers:
    """Cut states waiting for their next ``(pc, count)`` marker.

    A state waits on its start marker, then on its end marker, so one
    table serves both.  States are keyed by ``(pc, count)``; a sorted
    list of pending counts per PC tells an entry covering the counts
    ``[before, before + repeat)`` with one compare whether any state
    waits in that range, and bisection finds them.
    """

    def __init__(self) -> None:
        self._waiting: Dict[Tuple[int, int], List[_CutState]] = {}
        #: Pending counts per PC, ascending.
        self.counts: Dict[int, List[int]] = {}

    def add(self, marker: Marker, state: _CutState) -> None:
        key = (marker.pc, marker.count)
        if key not in self._waiting:
            self._waiting[key] = []
            bisect.insort(self.counts.setdefault(marker.pc, []), marker.count)
        self._waiting[key].append(state)

    def take(self, pc: int, before: int, repeat: int) -> List[_CutState]:
        """Remove and return the states waiting on a count in
        ``[before, before + repeat)``."""
        counts = self.counts.get(pc)
        if not counts:
            return []
        lo = bisect.bisect_left(counts, before)
        hi = bisect.bisect_left(counts, before + repeat, lo)
        for count in counts[:lo]:
            # Already passed (counts only grow): these states can never
            # fire, and finalization reports them as never reached.
            del self._waiting[(pc, count)]
        taken: List[_CutState] = []
        for count in counts[lo:hi]:
            taken.extend(self._waiting.pop((pc, count)))
        del counts[:hi]
        return taken


def extract_region_pinballs(
    program: Program,
    pinball: Pinball,
    cuts: Sequence[RegionCut],
) -> List[RegionPinball]:
    """Extract one :class:`RegionPinball` per :class:`RegionCut`.

    A single constrained replay of ``pinball`` locates every cut point, so
    extraction cost is one replay regardless of the number of regions.
    The per-entry hook does O(1) work however many cuts are pending:
    warmup coordinates wait in a sorted queue behind one threshold
    compare, and start/end markers wait keyed by ``(pc, count)``, so only
    marker entries that some cut names do more than a dict lookup.
    """
    maybe_inject(REGION_EXTRACT, f"extract:{program.name}:{len(cuts)}")
    states = [_CutState(i, cut) for i, cut in enumerate(cuts)]
    warm_queue = sorted(
        states, key=lambda st: (st.cut.warmup_filtered, st.index)
    )
    warm_next = 0
    warm_at = warm_queue[0].cut.warmup_filtered if warm_queue else None
    marker_pcs = set()
    for cut in cuts:
        for marker in (cut.start, cut.end):
            if marker is not None:
                marker_pcs.add(marker.pc)
    bid_to_pc = {program.block_at(pc).bid: pc for pc in marker_pcs}
    marker_counts: Dict[int, int] = {pc: 0 for pc in marker_pcs}
    pending = _PendingMarkers()
    pending_counts = pending.counts

    replayer = ConstrainedReplayer(program, pinball)

    def detail_start(state: _CutState) -> None:
        state.detail_pos = list(replayer.positions)
        state.detail_total = replayer.total_instructions
        state.detail_filtered = replayer.filtered_instructions
        state.stage = _AWAIT_END
        if state.cut.end is not None:
            pending.add(state.cut.end, state)

    def reach_warmup() -> None:
        nonlocal warm_next, warm_at
        filtered = replayer.filtered_instructions
        exec_counts = replayer.exec_counts
        while warm_at is not None and filtered >= warm_at:
            state = warm_queue[warm_next]
            state.warm_pos = list(replayer.positions)
            state.warm_counts = [list(row) for row in exec_counts]
            state.warm_total = replayer.total_instructions
            state.warm_filtered = filtered
            state.stage = _AWAIT_START
            if state.cut.start is None:
                detail_start(state)
            else:
                pending.add(state.cut.start, state)
            warm_next += 1
            warm_at = (
                warm_queue[warm_next].cut.warmup_filtered
                if warm_next < len(warm_queue) else None
            )

    def reach_marker(pc: int, before: int, repeat: int) -> None:
        # In cut order, as a scan over every state would: a state may
        # start and end at the same entry, and the first cut whose
        # marker falls strictly inside the entry names the error.
        for state in sorted(
            pending.take(pc, before, repeat), key=lambda st: st.index
        ):
            if state.stage == _AWAIT_START:
                m = state.cut.start
                assert m is not None
                if m.count != before:
                    raise RegionError(
                        f"start marker {m} falls inside a batched entry"
                    )
                detail_start(state)
                m = state.cut.end
                if m is None or m.pc != pc or not (
                    before <= m.count < before + repeat
                ):
                    continue
                pending.take(pc, m.count, 1)
            m = state.cut.end
            assert m is not None
            if m.count != before:
                raise RegionError(
                    f"end marker {m} falls inside a batched entry"
                )
            state.end_pos = list(replayer.positions)
            state.end_total = replayer.total_instructions
            state.end_filtered = replayer.filtered_instructions
            state.stage = _DONE

    def hook(tid: int, pos: int, entry) -> None:
        if warm_at is not None and replayer.filtered_instructions >= warm_at:
            reach_warmup()
        if entry[0] != "b":
            return
        pc = bid_to_pc.get(entry[1])
        if pc is None:
            return
        before = marker_counts[pc]
        repeat = entry[2]
        marker_counts[pc] = before + repeat
        counts = pending_counts.get(pc)
        if counts and counts[0] < before + repeat:
            reach_marker(pc, before, repeat)

    replayer.entry_hook = hook
    replayer.run()

    # Finalize open-ended cuts at program end.
    log_ends = [len(log) for log in pinball.logs]
    for state in states:
        if state.stage == _AWAIT_WARMUP:
            raise RegionError(
                f"region {state.cut.region_id}: warmup coordinate "
                f"{state.cut.warmup_filtered} beyond end of execution"
            )
        if state.stage == _AWAIT_START:
            raise RegionError(
                f"region {state.cut.region_id}: start marker "
                f"{state.cut.start} never reached"
            )
        if state.stage == _AWAIT_END:
            if state.cut.end is not None:
                raise RegionError(
                    f"region {state.cut.region_id}: end marker "
                    f"{state.cut.end} never reached"
                )
            state.end_pos = log_ends
            state.end_total = replayer.total_instructions
            state.end_filtered = replayer.filtered_instructions

    return [_build_region_pinball(pinball, state) for state in states]


def _build_region_pinball(pinball: Pinball, state: _CutState) -> RegionPinball:
    assert state.warm_pos is not None and state.detail_pos is not None
    assert state.end_pos is not None and state.warm_counts is not None
    logs = [
        list(pinball.logs[tid][state.warm_pos[tid]:state.end_pos[tid]])
        for tid in range(pinball.nthreads)
    ]
    _renumber_gseq(logs)
    return RegionPinball(
        program_name=pinball.program_name,
        nthreads=pinball.nthreads,
        wait_policy=pinball.wait_policy,
        seed=pinball.seed,
        logs=logs,
        total_instructions=state.end_total - state.warm_total,
        filtered_instructions=state.end_filtered - state.warm_filtered,
        metadata={
            "warmup_total": state.detail_total - state.warm_total,
            "warmup_filtered": state.detail_filtered - state.warm_filtered,
            "detail_total": state.end_total - state.detail_total,
            "detail_filtered": state.end_filtered - state.detail_filtered,
            "start": None if state.cut.start is None else
                     (state.cut.start.pc, state.cut.start.count),
            "end": None if state.cut.end is None else
                   (state.cut.end.pc, state.cut.end.count),
        },
        start_exec_counts=state.warm_counts,
        detail_positions=[
            state.detail_pos[tid] - state.warm_pos[tid]
            for tid in range(pinball.nthreads)
        ],
        region_id=state.cut.region_id,
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
