"""Constrained (deterministic) replay of pinballs.

Replay re-executes the recorded per-thread logs while enforcing the recorded
global order over synchronization actions (``gseq``), like PinPlay enforcing
recorded shared-memory access order.  Scheduling between sync points is
deterministic: always advance the thread with the least filtered progress —
the flow-controlled balance the profile was recorded with.

Every analysis pass of the LoopPoint pipeline (BBV profiling, DCFG
construction, slicing) runs on a replay, so analysis is reproducible no
matter how noisy the original host was — requirement (1a) of the paper.

Block events reach observers through one driver, the batched
:class:`~repro.perf.ring.EventRing` (same contract as the engine:
bit-identical observer state, batch-vectorized dispatch).  With
``batch_capacity=1`` every event is flushed on its own, so observers get
one ``on_block`` call per event, in order — the per-event reference the
tests compare the batched path against.

Cuts without events: one forward walk (:func:`_walk`) over per-thread
skip tables finds every cut a replay can jump to without delivering
events — :meth:`ConstrainedReplayer.fast_forward_to`'s marker cut (the
functional analogue of restoring a gem5 checkpoint at a region boundary
instead of simulating up to it), live sampling's region-boundary scouts,
and region extraction's warmup, start and end cuts
(:mod:`repro.pinplay.region`).  The walk reproduces the deterministic
schedule bit-exactly, so ``fast_forward_to(start)`` followed by
``run(until=end)`` delivers precisely the events a full replay delivers
between the two markers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..dcfg.graph import ENTRY as DCFG_ENTRY
from ..errors import ReplayError
from ..exec_engine.engine import EngineResult
from ..obs.tracer import active_metrics
from ..exec_engine.observers import Observer
from ..isa.image import Program
from ..perf.ring import DEFAULT_CAPACITY, EventRing
from ..policy import WaitPolicy
from .pinball import Pinball

if TYPE_CHECKING:  # pragma: no cover - profiling imports pinplay at runtime
    from ..profiling.markers import Marker


@dataclass
class CutPoint:
    """A point in a replay's schedule: per-thread log positions and the
    global instruction counters there."""

    positions: List[int]
    total: int
    filtered: int


@dataclass
class ReplayCursor:
    """A replay's scalar scheduling state at one cut.

    Everything :func:`_walk` needs to continue the deterministic
    schedule from a cut — per-thread log positions, instruction
    counters, the sync-order cursor, the in-flight quantum and the
    tracked global marker counts — and what it advances in place.
    Execution counts are deliberately *not* here (they are the heavy
    part); callers reconstruct them in bulk via
    :meth:`ConstrainedReplayer.advance_exec_counts`.
    """

    positions: List[int]
    per_thread_total: List[int]
    per_thread_filtered: List[int]
    next_gseq: int
    quantum_resume: Optional[tuple]
    marker_counts: Dict[int, int]

    def copy(self) -> "ReplayCursor":
        return ReplayCursor(
            positions=list(self.positions),
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            next_gseq=self.next_gseq,
            quantum_resume=self.quantum_resume,
            marker_counts=dict(self.marker_counts),
        )

    def point(self) -> CutPoint:
        """Where this cursor stands."""
        return CutPoint(
            positions=list(self.positions),
            total=sum(self.per_thread_total),
            filtered=sum(self.per_thread_filtered),
        )


@dataclass
class RegionScout:
    """What one boundary scout learned about the next region.

    ``end is None`` means the logs ran out first: the region is the
    program's tail and has no closing marker.  ``probe`` is the first
    marker execution at/after the probe target (it may equal ``end``).
    All counters are absolute (from program start) at the end cut.
    """

    probe: Optional["Marker"]
    end: Optional["Marker"]
    filtered: int
    total: int
    per_thread_total: List[int]
    per_thread_filtered: List[int]
    counts_at_end: Dict[int, int]
    end_positions: List[int]


def _int64s(values: np.ndarray) -> array:
    """A compact table the walk reads one scalar at a time: indexing and
    ``bisect`` on an ``array`` cost a fraction of numpy's per-call
    overhead, and it takes 8 bytes per value where a list of ints
    takes 36."""
    return array("q", values.astype(np.int64).tobytes())


class _SkipIndex:
    """Per-thread skip tables for one (pinball, marker-PC set).

    Instruction prefix sums over each log (sync entries contribute
    zero), the sorted positions that must be handled individually
    (syncs and marker blocks, with an end-of-log sentinel), and the
    block entries' (index, bid, repeat) columns for bulk
    execution-count updates.  Built once and cached on the replayer:
    live sampling fast-forwards and scouts the same pinball once per
    region, and rebuilding these tables per jump would be quadratic.
    """

    def __init__(self, program: Program, pinball: Pinball,
                 marker_pcs: FrozenSet[int]) -> None:
        blocks = program.blocks
        #: Per-block instruction counts, total and filtered.
        self.n_instr = [b.n_instr for b in blocks]
        self.n_filtered = [
            0 if b.image.is_library else b.n_instr for b in blocks
        ]
        n_by_bid = np.array(self.n_instr + [0], dtype=np.int64)
        f_by_bid = np.array(self.n_filtered + [0], dtype=np.int64)
        is_stop = np.zeros(len(blocks) + 1, dtype=bool)
        is_stop[-1] = True  # sync entries, coded as bid -1
        stop_bids = {program.block_at(pc).bid for pc in marker_pcs}
        is_stop[list(stop_bids)] = True
        self.pc_of = {bid: blocks[bid].pc for bid in stop_bids}
        self.cum_t: List[array] = []
        self.cum_f: List[array] = []
        self.stops: List[array] = []
        self.blk_idx: List[np.ndarray] = []
        self.blk_bid: List[np.ndarray] = []
        self.blk_rep: List[np.ndarray] = []
        self.ends: List[int] = []
        for log in pinball.logs:
            n = len(log)
            bid = np.array(
                [e[1] if e[0] == "b" else -1 for e in log], dtype=np.int64
            )
            rep = np.array(
                [e[2] if e[0] == "b" else 0 for e in log], dtype=np.int64
            )
            self.cum_t.append(_int64s(np.cumsum(n_by_bid[bid] * rep)))
            self.cum_f.append(_int64s(np.cumsum(f_by_bid[bid] * rep)))
            self.stops.append(
                _int64s(np.append(np.flatnonzero(is_stop[bid]), n))
            )
            blk = np.flatnonzero(bid >= 0)
            self.blk_idx.append(blk)
            self.blk_bid.append(bid[blk])
            self.blk_rep.append(rep[blk])
            self.ends.append(n)

    def add_counts(self, flat: np.ndarray, start_pos: Sequence[int],
                   end_pos: Sequence[int], nblocks: int) -> int:
        """Bulk-add the block executions in ``[start_pos, end_pos)`` into
        a flattened ``nthreads x nblocks`` count array; returns the number
        of log entries spanned."""
        spanned = 0
        for tid in range(len(self.blk_idx)):
            lo = int(np.searchsorted(self.blk_idx[tid], start_pos[tid]))
            hi = int(np.searchsorted(self.blk_idx[tid], end_pos[tid]))
            np.add.at(
                flat,
                self.blk_bid[tid][lo:hi] + tid * nblocks,
                self.blk_rep[tid][lo:hi],
            )
            spanned += end_pos[tid] - start_pos[tid]
        return spanned


def _walk(
    logs,
    quantum: int,
    index: _SkipIndex,
    cur: ReplayCursor,
    *,
    targets: Optional[Dict[int, List[int]]] = None,
    boundary_abs: Optional[int] = None,
    probe_abs: Optional[int] = None,
    filtered_abs: Optional[int] = None,
) -> Tuple[bool, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
    """Advance ``cur`` along the deterministic schedule until a stop.

    Stop rules, each checked just before an entry is consumed:

    - *marker targets* (``targets``: ``pc ->`` ascending pending
      counts): stop at the first entry of a target PC whose count range
      ``[count, count + repeat)`` reaches the PC's smallest pending
      count.  Whether the target falls at the entry's first count or
      strictly inside it (a batched entry) is the caller's to judge.
    - *region boundary* (``boundary_abs``): stop at the first marker
      execution whose pre-entry global filtered count reaches the
      target; additionally records the first marker execution at/after
      ``probe_abs`` without stopping.  This is exactly the slicer's
      close-slice rule, so the scout's boundary is the boundary the
      offline :class:`~repro.profiling.slicer.LoopAlignedSlicer` cuts.
    - *filtered coordinate* (``filtered_abs``): stop at the first entry
      whose pre-entry global filtered count reaches the target — the
      warmup-cut rule of region extraction.  With no entry left there
      is no stop.

    Marker targets combine with a filtered coordinate: the walk stops
    at whichever comes first, and a caller resumes from ``cur`` for the
    next one.  Plain block runs between stops are consumed whole by
    bisecting the prefix sums; scheduling (least-filtered-first,
    quantum boundaries, the gseq gate, mid-quantum resume) matches
    :meth:`ConstrainedReplayer.run` bit-exactly.  Returns ``(found,
    probe, hit)``: ``probe`` as ``(pc, count)``, and ``hit`` as ``(pc,
    count, repeat)`` of the marker entry a marker stop halted before.
    """
    pos = cur.positions
    ptt = cur.per_thread_total
    ptf = cur.per_thread_filtered
    counts = cur.marker_counts
    next_gseq = cur.next_gseq
    pc_of = index.pc_of
    ends = index.ends
    nthreads = len(logs)
    gf = sum(ptf)
    # Ascending tids: the stable sort below breaks progress ties by tid.
    live = [t for t in range(nthreads) if pos[t] < ends[t]]
    if filtered_abs is not None and gf >= filtered_abs and live:
        return True, None, None
    n_instr = index.n_instr
    n_filtered = index.n_filtered
    found = False
    probe: Optional[Tuple[int, int]] = None
    hit: Optional[Tuple[int, int, int]] = None
    resume = cur.quantum_resume
    cur.quantum_resume = None

    while live and not found:
        if resume is not None and resume[0] in live:
            candidates = [resume[0]]
            resume_round = True
        else:
            resume = None
            candidates = sorted(live, key=ptf.__getitem__)
            resume_round = False
        progressed = False
        for tid in candidates:
            log = logs[tid]
            p = pos[tid]
            end = ends[tid]
            t_cum = index.cum_t[tid]
            f_cum = index.cum_f[tid]
            t_stops = index.stops[tid]
            # The next entry that must be handled on its own; ``p`` only
            # grows, so the stop pointer only steps forward.
            k = bisect_left(t_stops, p)
            tt = ptt[tid]
            tf = ptf[tid]
            if resume is not None:
                stop_at = tt + resume[1]
                resume = None
            else:
                stop_at = tt + quantum
            while tt < stop_at and p < end:
                if filtered_abs is not None and gf >= filtered_abs:
                    found = True
                    cur.quantum_resume = (tid, stop_at - tt)
                    break
                s = t_stops[k]
                if s > p:
                    # Plain block entries up to the next stop: the
                    # quantum admits every entry whose pre-entry
                    # total is below ``stop_at`` (the per-event
                    # loop's exact rule), found by one bisect.
                    base = t_cum[p - 1] if p else 0
                    f_base = f_cum[p - 1] if p else 0
                    new_p = bisect_left(t_cum, stop_at - tt + base, p) + 1
                    if new_p > s:
                        new_p = s
                    if filtered_abs is not None:
                        # Truncate the run so the entry that first sees
                        # the filtered target is the next to consume.
                        jj = bisect_left(f_cum, f_base + (filtered_abs - gf), p)
                        if jj + 1 < new_p:
                            new_p = jj + 1
                    df = f_cum[new_p - 1] - f_base
                    tt += t_cum[new_p - 1] - base
                    tf += df
                    gf += df
                    p = new_p
                    progressed = True
                    continue
                entry = log[p]
                if entry[0] == "b":
                    bid = entry[1]
                    rep = entry[2]
                    pc = pc_of[bid]
                    c = counts.get(pc, 0)
                    stop = False
                    if boundary_abs is not None:
                        if (probe is None and probe_abs is not None
                                and gf >= probe_abs):
                            probe = (pc, c)
                        stop = gf >= boundary_abs
                    if targets and not stop:
                        pending = targets.get(pc)
                        stop = bool(pending) and pending[0] < c + rep
                    if stop:
                        hit = (pc, c, rep)
                        found = True
                        cur.quantum_resume = (tid, stop_at - tt)
                        break
                    counts[pc] = c + rep
                    df = n_filtered[bid] * rep
                    tt += n_instr[bid] * rep
                    tf += df
                    gf += df
                else:
                    if entry[4] != next_gseq:
                        break  # not this thread's turn at the order
                    next_gseq += 1
                p += 1
                k += 1
                progressed = True
            pos[tid] = p
            ptt[tid] = tt
            ptf[tid] = tf
            if p >= end:
                live.remove(tid)
            if found or progressed:
                break
        if not progressed and not found and live:
            if resume_round:
                continue  # blocked mid-quantum: fall back to the sort
            waiting = {
                t: logs[t][pos[t]][4] for t in live
                if logs[t][pos[t]][0] == "s"
            }
            raise ReplayError(
                f"replay stuck during fast-forward: "
                f"next_gseq={next_gseq}, thread sync heads "
                f"{waiting} — corrupt or truncated pinball"
            )
    cur.next_gseq = next_gseq
    return found, probe, hit


class ConstrainedReplayer:
    """Replays a :class:`Pinball` deterministically."""

    def __init__(
        self,
        program: Program,
        pinball: Pinball,
        *,
        observers: Sequence[Observer] = (),
        quantum_instructions: int = 600,
        initial_exec_counts: Optional[List[List[int]]] = None,
        batch_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if pinball.program_name != program.name:
            raise ReplayError(
                f"pinball was recorded for {pinball.program_name!r}, "
                f"not {program.name!r}"
            )
        self.program = program
        self.pinball = pinball
        self.observers = list(observers)
        #: Scheduling quantum in instructions (mirrors the engine's).
        self.quantum_instructions = quantum_instructions
        self._batch_capacity = batch_capacity
        #: Per-thread index of the next unprocessed log entry.
        self.positions: List[int] = [0] * pinball.nthreads
        nthreads = pinball.nthreads
        nblocks = program.num_blocks
        if initial_exec_counts is not None:
            if len(initial_exec_counts) != nthreads:
                raise ReplayError("initial_exec_counts thread-count mismatch")
            self.exec_counts = [list(row) for row in initial_exec_counts]
        else:
            self.exec_counts = [[0] * nblocks for _ in range(nthreads)]
        self.total_instructions = 0
        self.filtered_instructions = 0
        self.per_thread_total = [0] * nthreads
        self.per_thread_filtered = [0] * nthreads
        self.num_events = 0
        #: Global sync-order cursor; persistent so :meth:`run` continues
        #: exactly where :meth:`fast_forward_to` left the recorded order.
        self._next_gseq = 0
        #: Global ``pc -> execution count`` for marker PCs this replay
        #: has tracked (the ``count`` coordinate of ``(PC, count)``
        #: markers is global, so a post-fast-forward ``run(until=...)``
        #: must start from the prefix's counts, not from zero).
        self._marker_counts: Dict[int, int] = {}
        self._fast_forwarded = False
        #: Cached per-thread skip tables, keyed by marker-PC set: live
        #: sampling jumps the same pinball once per region.
        self._skip_indexes: Dict[FrozenSet[int], _SkipIndex] = {}
        #: ``(tid, remaining_instructions)`` of the scheduling quantum
        #: that was in flight when a marker cut stopped the replay.  A
        #: cut generally lands mid-quantum; resuming must finish that
        #: thread's quantum (not grant a fresh one) or the interleaving
        #: diverges from an uninterrupted replay's.
        self._quantum_resume: Optional[tuple] = None

    def fast_forward_to(
        self,
        marker: Marker,
        *,
        dcfg=None,
        track_pcs: Iterable[int] = (),
    ) -> int:
        """Fast-forward to ``marker``'s cut without re-executing blocks.

        The moral analogue of a gem5 checkpoint restore: replay state —
        per-thread log positions, execution counts, instruction
        counters, the recorded sync-order cursor — advances to the
        exact cut a full replay reaches just before the ``count``-th
        execution of ``marker.pc``, but no block or sync event is
        delivered to the attached observers and runs of block entries
        between stops are consumed whole by bisecting per-thread
        instruction prefix sums instead of being walked one entry at a
        time.  Scheduling decisions (least-filtered-first, quantum
        boundaries, the ``gseq`` gate) are reproduced exactly, so the
        cut is bit-identical to the one :meth:`run` would reach.

        ``track_pcs`` names additional marker PCs whose global
        execution counts must stay known across the skip — pass the end
        marker's PC here when the plan is ``fast_forward_to(start)``
        followed by ``run(until=end)``, because ``until`` counts are
        global from program start.

        ``dcfg``, when given, validates the jump against the dynamic
        control-flow graph first: a marker block the DCFG cannot reach
        from its entry can never trigger, and failing fast beats
        silently replaying to the end of the logs.

        Returns the number of log entries skipped.  Raises
        :class:`ReplayError` if the marker never triggers, falls inside
        a batched entry, or is unreachable per the DCFG.
        """
        program = self.program
        pcs = [marker.pc, *track_pcs]
        if dcfg is not None:
            reachable = dcfg.reachable_from(DCFG_ENTRY)
            for pc in pcs:
                bid = program.block_at(pc).bid
                if bid not in reachable:
                    raise ReplayError(
                        f"marker pc {pc:#x} (bid {bid}) is unreachable "
                        f"in the DCFG: the fast-forward target would "
                        f"never trigger"
                    )
        cur = self.cursor()
        for pc in pcs:
            cur.marker_counts.setdefault(pc, 0)
        self._fast_forwarded = True
        found, _, hit = self.walk(
            cur, pcs, targets={marker.pc: [marker.count]}
        )
        if not found:
            raise ReplayError(
                f"fast-forward target {marker} never reached "
                f"(global count stopped at {cur.marker_counts[marker.pc]})"
            )
        _, count, rep = hit
        if count != marker.count:
            raise ReplayError(
                f"fast-forward marker {marker} falls inside a batched "
                f"entry (repeat {rep} spans counts {count}..{count + rep})"
            )

        nthreads = self.pinball.nthreads
        nblocks = program.num_blocks
        flat = np.asarray(self.exec_counts, dtype=np.int64).reshape(-1)
        skipped = self._skip_index(pcs).add_counts(
            flat, self.positions, cur.positions, nblocks
        )
        self.exec_counts = flat.reshape(nthreads, nblocks).tolist()
        self.positions = cur.positions
        self.total_instructions += (
            sum(cur.per_thread_total) - sum(self.per_thread_total)
        )
        self.filtered_instructions += (
            sum(cur.per_thread_filtered) - sum(self.per_thread_filtered)
        )
        self.per_thread_total = cur.per_thread_total
        self.per_thread_filtered = cur.per_thread_filtered
        self.num_events += skipped
        self._next_gseq = cur.next_gseq
        self._quantum_resume = cur.quantum_resume
        self._marker_counts = cur.marker_counts
        reg = active_metrics()
        if reg is not None:
            reg.inc("replay.fast_forward.runs")
            reg.inc("replay.fast_forward.entries", skipped)
        return skipped

    def _skip_index(self, marker_pcs: Iterable[int]) -> _SkipIndex:
        """The per-thread skip tables for this marker-PC set, built once."""
        key = frozenset(marker_pcs)
        index = self._skip_indexes.get(key)
        if index is None:
            index = _SkipIndex(self.program, self.pinball, key)
            self._skip_indexes[key] = index
        return index

    def walk(
        self,
        cursor: ReplayCursor,
        marker_pcs: Iterable[int],
        *,
        targets: Optional[Dict[int, List[int]]] = None,
        filtered_abs: Optional[int] = None,
    ) -> Tuple[bool, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
        """Advance ``cursor`` along this replay's schedule to the next
        marker target or filtered coordinate (see :func:`_walk`).

        ``marker_pcs`` must name every target PC.  The replayer itself
        does not move and no event is delivered.
        """
        return _walk(
            self.pinball.logs, self.quantum_instructions,
            self._skip_index(marker_pcs), cursor,
            targets=targets, filtered_abs=filtered_abs,
        )

    def cursor(self) -> ReplayCursor:
        """Snapshot the scalar scheduling state at the current cut."""
        return ReplayCursor(
            positions=list(self.positions),
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            next_gseq=self._next_gseq,
            quantum_resume=self._quantum_resume,
            marker_counts=dict(self._marker_counts),
        )

    def sync_marker_counts(self, counts: Dict[int, int]) -> None:
        """Overwrite tracked global marker counts.

        Live sampling interleaves observed segments (where the slicer's
        tracker counts executions) with fast-forwards (where this
        replayer does); whichever side went dark resyncs from the other
        through this before the next ``until``/fast-forward target.
        """
        self._marker_counts.update(counts)

    def scout_region(
        self,
        marker_pcs: Iterable[int],
        *,
        slice_target: int,
        probe_target: int,
        counts: Optional[Dict[int, int]] = None,
    ) -> RegionScout:
        """Look ahead from the current cut to the next region boundary.

        Pure lookahead on copied scalar state: the replay does not
        advance, no event is delivered.  The boundary rule is the
        slicer's — first marker execution whose accumulated filtered
        work since this cut reaches ``slice_target`` — so the scouted
        end marker is exactly where the offline slicer would close the
        slice.  ``probe_target`` likewise locates the first marker at
        or beyond the probe prefix (classification point).  ``counts``
        supplies the true global marker counts at this cut (defaults
        to this replayer's tracked counts).
        """
        cur = self.cursor()
        if counts is not None:
            cur.marker_counts = dict(counts)
        gf0 = sum(cur.per_thread_filtered)
        gt0 = sum(cur.per_thread_total)
        found, probe, end = _walk(
            self.pinball.logs, self.quantum_instructions,
            self._skip_index(marker_pcs), cur,
            boundary_abs=gf0 + slice_target,
            probe_abs=gf0 + probe_target,
        )
        from ..profiling.markers import Marker
        return RegionScout(
            probe=None if probe is None else Marker(*probe),
            end=None if not found else Marker(end[0], end[1]),
            filtered=sum(cur.per_thread_filtered) - gf0,
            total=sum(cur.per_thread_total) - gt0,
            per_thread_total=cur.per_thread_total,
            per_thread_filtered=cur.per_thread_filtered,
            counts_at_end=cur.marker_counts,
            end_positions=cur.positions,
        )

    def scout_filtered_cut(
        self,
        marker_pcs: Iterable[int],
        *,
        cursor: ReplayCursor,
        target_filtered: int,
    ) -> CutPoint:
        """Locate the first entry at/after ``cursor`` whose pre-entry
        global filtered count reaches ``target_filtered``.

        This is region extraction's warmup-cut rule, walked on a copy
        of ``cursor`` without advancing this replayer.
        """
        cur = cursor.copy()
        found, _, _ = self.walk(
            cur, marker_pcs, filtered_abs=target_filtered
        )
        if not found:
            raise ReplayError(
                f"filtered coordinate {target_filtered} beyond end of "
                f"execution (stopped at {sum(cur.per_thread_filtered)})"
            )
        return cur.point()

    def advance_exec_counts(
        self,
        base_counts: Sequence[Sequence[int]],
        start_positions: Sequence[int],
        end_positions: Sequence[int],
        marker_pcs: Iterable[int] = (),
    ) -> List[List[int]]:
        """Execution counts at a later cut, from a snapshot plus the log
        entries between the two cuts (one bulk scatter-add, no walk)."""
        nthreads = self.pinball.nthreads
        nblocks = self.program.num_blocks
        index = self._skip_index(marker_pcs)
        flat = np.asarray(base_counts, dtype=np.int64).reshape(-1).copy()
        index.add_counts(flat, start_positions, end_positions, nblocks)
        return flat.reshape(nthreads, nblocks).tolist()

    def run(
        self, until: Optional[Marker] = None, *, finish: bool = True
    ) -> EngineResult:
        """Replay, feeding observers; returns the summary.

        With ``until`` the replay stops exactly at the end marker's cut
        — just before the ``count``-th global execution of ``until.pc``
        — instead of at the end of the logs; combined with
        :meth:`fast_forward_to` this is marker-to-marker replay.  The
        ``count`` coordinate is global from program start, so after a
        fast-forward the PC must have been named in ``track_pcs``.

        ``finish=False`` suppresses the observers' ``on_finish`` —
        live sampling replays one execution as many ``until`` segments
        interleaved with fast-forwards, and only the last segment may
        finalize observers (the slicer treats a second finish as a
        hard error for exactly this reason).  Counters, positions and
        the EventRing flush behave identically either way, so a
        segmented replay's final :class:`EngineResult` is bit-identical
        to an unsegmented one's.
        """
        logs = self.pinball.logs
        nthreads = self.pinball.nthreads
        pos = self.positions
        blocks = self.program.blocks
        until_bid = -1
        until_count = -1
        until_c = 0
        if until is not None:
            until_bid = self.program.block_at(until.pc).bid
            base = self._marker_counts.get(until.pc)
            if base is None:
                if self._fast_forwarded:
                    raise ReplayError(
                        f"until marker pc {until.pc:#x} was not tracked "
                        f"across fast_forward_to (pass it via track_pcs): "
                        f"its global count at the cut is unknown"
                    )
                base = 0
            if base > until.count:
                raise ReplayError(
                    f"until marker {until} already passed: global count "
                    f"is {base} at the start of this run"
                )
            until_count = until.count
            until_c = base
        ring = EventRing(
            blocks, nthreads, self.observers,
            capacity=self._batch_capacity,
            initial_exec_counts=self.exec_counts,
        )
        ring_rows = ring.buffers()
        ring_append_row = ring_rows.append
        ring_encode = ring.encode
        ring_capacity = ring.capacity
        ring_flush = ring.flush
        flush_on_sync = ring.flush_on_sync
        ends = [len(log) for log in logs]
        next_gseq = self._next_gseq
        live = set(tid for tid in range(nthreads) if pos[tid] < ends[tid])
        stopped = False
        resume = self._quantum_resume
        self._quantum_resume = None

        while live and not stopped:
            if resume is not None and resume[0] in live:
                # A marker cut interrupted this thread mid-quantum:
                # finish that quantum first, exactly as an uninterrupted
                # replay would have.
                candidates = [resume[0]]
                resume_round = True
            else:
                resume = None
                # Deterministic balance: least filtered progress first.
                candidates = sorted(
                    live, key=lambda t: (self.per_thread_filtered[t], t)
                )
                resume_round = False
            progressed = False
            for tid in candidates:
                log = logs[tid]
                ptt = self.per_thread_total[tid]
                ptf = self.per_thread_filtered[tid]
                if resume is not None:
                    stop_at = ptt + resume[1]
                    resume = None
                else:
                    stop_at = ptt + self.quantum_instructions
                while ptt < stop_at and pos[tid] < ends[tid]:
                    entry = log[pos[tid]]
                    if entry[0] == "b":
                        bid = entry[1]
                        repeat = entry[2]
                        if bid == until_bid:
                            if until_c + repeat > until_count:
                                if until_c != until_count:
                                    raise ReplayError(
                                        f"until marker {until} falls "
                                        f"inside a batched entry"
                                    )
                                stopped = True
                                self._quantum_resume = (tid, stop_at - ptt)
                                break
                            until_c += repeat
                        block = blocks[bid]
                        n = block.n_instr * repeat
                        ptt += n
                        if not block.image.is_library:
                            ptf += n
                            self.filtered_instructions += n
                        self.total_instructions += n
                        ring_append_row(ring_encode(tid, bid, repeat))
                        if len(ring_rows) >= ring_capacity:
                            ring_flush()
                    else:
                        _, kind, obj_id, response, gseq = entry
                        if gseq != next_gseq:
                            break  # not this thread's turn at the order
                        next_gseq += 1
                        if flush_on_sync:
                            ring_flush()
                        for ob in self.observers:
                            ob.on_sync(tid, kind, obj_id, response, gseq)
                    pos[tid] += 1
                    self.num_events += 1
                    progressed = True
                self.per_thread_total[tid] = ptt
                self.per_thread_filtered[tid] = ptf
                if pos[tid] >= ends[tid]:
                    live.discard(tid)
                if stopped or progressed:
                    break
            if not progressed and not stopped and live:
                if resume_round:
                    continue  # blocked mid-quantum: fall back to the sort
                waiting = {
                    t: logs[t][pos[t]][4] for t in live
                    if logs[t][pos[t]][0] == "s"
                }
                raise ReplayError(
                    f"replay stuck: next_gseq={next_gseq}, thread sync heads "
                    f"{waiting} — corrupt or truncated pinball"
                )

        self._next_gseq = next_gseq
        if until is not None:
            self._marker_counts[until.pc] = until_c
        self.exec_counts = ring.exec_counts()  # flushes the ring
        if finish:
            for ob in self.observers:
                ob.on_finish()
        reg = active_metrics()
        if reg is not None:  # once per replay, never per event
            reg.inc("replay.runs")
            reg.inc("replay.events", self.num_events)
            reg.inc("replay.ring.flushes", ring.flushes)
            reg.inc("replay.ring.small_flushes", ring.small_flushes)
            reg.inc("replay.ring.events_flushed", ring.events_flushed)
        return EngineResult(
            total_instructions=self.total_instructions,
            filtered_instructions=self.filtered_instructions,
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            exec_counts=[list(row) for row in self.exec_counts],
            num_events=self.num_events,
            wait_policy=WaitPolicy(self.pinball.wait_policy),
            seed=self.pinball.seed,
        )
