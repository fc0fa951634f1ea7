"""Batched slicing equals per-event slicing.

``LoopAlignedSlicer.on_block_batch`` closes slices without per-event
Python: an exclusive prefix sum of filtered work finds the first marker
whose pre-event slice count reaches ``slice_size``, and everything before
it (other markers included) accumulates in bulk.  These tests pin it to
per-event delivery (a ring of capacity 1, which hands every event to
``on_block`` on its own): slice markers, BBV bytes,
counters and ``start_filtered`` must match through the ring at several
capacities, through hand-cut batches of 1, 2 and 7 events (the ring
delivers batches that small per event), and over random marker subsets.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_scale
from repro.exec_engine.observers import Observer
from repro.perf.ring import DEFAULT_CAPACITY, FLAG_LIBRARY, EventBatch
from repro.pinplay import ConstrainedReplayer, record_execution
from repro.profiling.profile_result import worker_loop_markers
from repro.profiling.slicer import LoopAlignedSlicer
from repro.workloads.registry import get_workload

TINY = get_scale("tiny")
APPS = ("demo-matrix-1", "638.imagick_s.1", "657.xz_s.2", "npb-cg")


def slice_rows(slicer: LoopAlignedSlicer) -> List[tuple]:
    return [
        (s.index, s.start, s.end, s.bbv.tobytes(), s.filtered_instructions,
         s.total_instructions, s.per_thread_filtered, s.start_filtered)
        for s in slicer.slices
    ]


@pytest.fixture(scope="module", params=APPS)
def recorded(request):
    w = get_workload(request.param, input_class="train", nthreads=4,
                     scale=TINY)
    pinball, _ = record_execution(w.program, w.thread_program, w.omp, 4)
    markers = worker_loop_markers(w.program, pinball)
    return w.program, pinball, markers


def new_slicer(program, pinball, markers, slice_size):
    return LoopAlignedSlicer(
        nthreads=pinball.nthreads,
        nblocks=program.num_blocks,
        marker_blocks=markers,
        slice_size=slice_size,
    )


def replay_slices(program, pinball, markers, slice_size,
                  capacity=DEFAULT_CAPACITY):
    slicer = new_slicer(program, pinball, markers, slice_size)
    ConstrainedReplayer(
        program, pinball, observers=(slicer,), batch_capacity=capacity,
    ).run()
    return slicer


class _EventLog(Observer):
    """Per-event ``(tid, bid, repeat)`` stream of a replay."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def on_block(self, tid, block, repeat, start_index) -> None:
        self.rows.append((tid, block.bid, repeat))


def feed_in_batches(program, pinball, markers, slice_size, size):
    """Deliver the replay's events to the slicer in batches of ``size``."""
    log = _EventLog()
    ConstrainedReplayer(
        program, pinball, observers=(log,), batch_capacity=1
    ).run()
    blocks = program.blocks
    n_instr = np.array([b.n_instr for b in blocks], dtype=np.int64)
    flags = np.array(
        [FLAG_LIBRARY if b.image.is_library else 0 for b in blocks],
        dtype=np.int64,
    )
    rows = np.array(log.rows, dtype=np.int64)
    slicer = new_slicer(program, pinball, markers, slice_size)
    for lo in range(0, len(rows), size):
        chunk = rows[lo:lo + size]
        tid, bid, repeat = chunk[:, 0], chunk[:, 1], chunk[:, 2]
        slicer.on_block_batch(EventBatch(
            len(chunk), tid, bid, repeat, n_instr[bid], flags[bid], None,
            blocks,
        ))
    slicer.on_finish()
    return slicer


SLICE_SIZES = (4_000, 25_000)


@pytest.mark.parametrize("slice_size", SLICE_SIZES)
@pytest.mark.parametrize("capacity", [1, 2, 7, 64, DEFAULT_CAPACITY])
def test_ring_batches_match_per_event(recorded, capacity, slice_size):
    program, pinball, markers = recorded
    want = replay_slices(program, pinball, markers, slice_size, 1)
    got = replay_slices(program, pinball, markers, slice_size, capacity)
    assert len(want.slices) > 1
    assert slice_rows(got) == slice_rows(want)
    assert got.tracker.snapshot() == want.tracker.snapshot()


@pytest.mark.parametrize("slice_size", SLICE_SIZES)
@pytest.mark.parametrize("size", [1, 2, 7, 500])
def test_hand_cut_batches_match_per_event(recorded, size, slice_size):
    program, pinball, markers = recorded
    want = replay_slices(program, pinball, markers, slice_size, 1)
    got = feed_in_batches(program, pinball, markers, slice_size, size)
    assert slice_rows(got) == slice_rows(want)
    assert got.tracker.snapshot() == want.tracker.snapshot()


def test_batched_slicer_does_not_need_start_indices(recorded):
    program, pinball, markers = recorded
    assert not new_slicer(program, pinball, markers, 4_000).needs_start_index
    phase = LoopAlignedSlicer(
        pinball.nthreads, program.num_blocks, markers, 4_000,
        phase_aligned=True,
    )
    assert phase.needs_start_index


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_marker_subsets_match_per_event(recorded, data):
    program, pinball, markers = recorded
    subset = data.draw(
        st.lists(st.sampled_from(markers), min_size=1, unique_by=id)
    )
    slice_size = data.draw(st.integers(1, 40_000))
    capacity = data.draw(st.sampled_from([48, 300, DEFAULT_CAPACITY]))
    want = replay_slices(program, pinball, subset, slice_size, 1)
    got = replay_slices(program, pinball, subset, slice_size, capacity)
    assert slice_rows(got) == slice_rows(want)
