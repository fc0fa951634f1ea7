"""Region extraction equals a scan-based extractor fed one entry at a time.

``extract_region_pinballs`` finds every cut with one walk over the
replay's skip index, stopping only at pending warmup coordinates and
``(pc, count)`` markers.  The oracle below is independent of that walk:
an observer on a per-event replay (``batch_capacity=1``, one ``on_block``
or ``on_sync`` call per log entry, in order) keeps its own log positions,
instruction totals and execution counts, and scans every cut on every
entry.  Every :class:`RegionPinball` field must match it: logs,
``start_exec_counts``, ``detail_positions``, metadata and totals, on every
registry workload at ``tiny`` scale, on the two ref-checkpoint apps, and on
hand-built cut sets that stress the walk (overlapping warmups, shared
coordinates and markers, open ends, batched entries, a warmup at the final
filtered count, a warmup whose first entry is a sync, start and end cuts on
one entry, cuts out of schedule order).

Run as a script, the module prints sha256 digests of the profile slices,
the selection and the region pinballs of the demo workloads at ``tiny``
scale; CI diffs that output between ``REPRO_BATCH_EVENTS=0`` and ``=1``
(the recording engine's two event paths).
"""

from __future__ import annotations

import copy
import hashlib
import random
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.core.warmup import region_cuts_for_selection
from repro.errors import RegionError
from repro.exec_engine.observers import Observer
from repro.isa.image import Program
from repro.pinplay import ConstrainedReplayer, RegionCut, extract_region_pinballs
from repro.pinplay.pinball import Pinball, RegionPinball
from repro.profiling import Marker
from repro.workloads.registry import get_workload, list_workloads

from conftest import build_toy

TINY = get_scale("tiny")
SMALL = get_scale("small")
DEMOS = ("demo-matrix-1", "demo-matrix-2", "demo-matrix-3")
REF_APPS = ("621.wrf_s.1", "638.imagick_s.1")


# -- the oracle: a scan over every cut on every replayed entry ----------------


class EntryFeed(Observer):
    """Calls ``on_entry(feed, tid, entry)`` before each replayed log entry.

    Positions, totals and execution counts are this observer's own, kept
    from the events it sees, so they read the state *before* the entry.
    """

    def __init__(self, program: Program, pinball: Pinball, on_entry) -> None:
        self.logs = pinball.logs
        self.on_entry = on_entry
        self.positions = [0] * pinball.nthreads
        self.exec_counts = [
            [0] * program.num_blocks for _ in range(pinball.nthreads)
        ]
        self.total = 0
        self.filtered = 0

    def _next(self, tid: int, entry: tuple) -> None:
        assert entry == self.logs[tid][self.positions[tid]]
        self.on_entry(self, tid, entry)
        self.positions[tid] += 1

    def on_block(self, tid, block, repeat, start_index) -> None:
        self._next(tid, ("b", block.bid, repeat))
        self.exec_counts[tid][block.bid] += repeat
        n = block.n_instr * repeat
        self.total += n
        if not block.image.is_library:
            self.filtered += n

    def on_sync(self, tid, kind, obj_id, response, gseq) -> None:
        self._next(tid, ("s", kind, obj_id, response, gseq))


def replay_entries(program: Program, pinball: Pinball, on_entry) -> EntryFeed:
    feed = EntryFeed(program, pinball, on_entry)
    ConstrainedReplayer(
        program, pinball, observers=(feed,), batch_capacity=1
    ).run()
    assert feed.positions == [len(log) for log in pinball.logs]
    return feed


class _OracleState:
    def __init__(self, cut: RegionCut) -> None:
        self.cut = cut
        self.stage = 0  # 0 warmup, 1 start, 2 end, 3 done
        self.warm_pos: Optional[List[int]] = None
        self.warm_counts: Optional[List[List[int]]] = None
        self.warm_total = self.warm_filtered = 0
        self.detail_pos: Optional[List[int]] = None
        self.detail_total = self.detail_filtered = 0
        self.end_pos: Optional[List[int]] = None
        self.end_total = self.end_filtered = 0


def oracle_extract(
    program: Program, pinball: Pinball, cuts: Sequence[RegionCut]
) -> List[RegionPinball]:
    states = [_OracleState(cut) for cut in cuts]
    marker_pcs = {
        m.pc for cut in cuts for m in (cut.start, cut.end) if m is not None
    }
    bid_to_pc = {program.block_at(pc).bid: pc for pc in marker_pcs}
    marker_counts: Dict[int, int] = {pc: 0 for pc in marker_pcs}

    def on_entry(feed: EntryFeed, tid: int, entry) -> None:
        filtered = feed.filtered
        total = feed.total
        positions = feed.positions
        for state in states:
            if state.stage == 0 and filtered >= state.cut.warmup_filtered:
                state.warm_pos = list(positions)
                state.warm_counts = copy.deepcopy(feed.exec_counts)
                state.warm_total = total
                state.warm_filtered = filtered
                state.stage = 1
                if state.cut.start is None:
                    state.detail_pos = list(positions)
                    state.detail_total = total
                    state.detail_filtered = filtered
                    state.stage = 2
        if entry[0] != "b":
            return
        pc = bid_to_pc.get(entry[1])
        if pc is None:
            return
        before = marker_counts[pc]
        repeat = entry[2]
        marker_counts[pc] = before + repeat
        for state in states:
            if state.stage == 1:
                m = state.cut.start
                if (
                    m is not None and m.pc == pc
                    and before <= m.count < before + repeat
                ):
                    if m.count != before:
                        raise RegionError(
                            f"start marker {m} falls inside a batched entry"
                        )
                    state.detail_pos = list(positions)
                    state.detail_total = total
                    state.detail_filtered = filtered
                    state.stage = 2
            if state.stage == 2:
                m = state.cut.end
                if (
                    m is not None and m.pc == pc
                    and before <= m.count < before + repeat
                ):
                    if m.count != before:
                        raise RegionError(
                            f"end marker {m} falls inside a batched entry"
                        )
                    state.end_pos = list(positions)
                    state.end_total = total
                    state.end_filtered = filtered
                    state.stage = 3

    feed = replay_entries(program, pinball, on_entry)
    log_ends = [len(log) for log in pinball.logs]
    for state in states:
        if state.stage == 0:
            raise RegionError(
                f"region {state.cut.region_id}: warmup coordinate "
                f"{state.cut.warmup_filtered} beyond end of execution"
            )
        if state.stage == 1:
            raise RegionError(
                f"region {state.cut.region_id}: start marker "
                f"{state.cut.start} never reached"
            )
        if state.stage == 2:
            if state.cut.end is not None:
                raise RegionError(
                    f"region {state.cut.region_id}: end marker "
                    f"{state.cut.end} never reached"
                )
            state.end_pos = log_ends
            state.end_total = feed.total
            state.end_filtered = feed.filtered
    return [_oracle_region(pinball, state) for state in states]


def _oracle_region(pinball: Pinball, state: _OracleState) -> RegionPinball:
    logs = [
        list(pinball.logs[tid][state.warm_pos[tid]:state.end_pos[tid]])
        for tid in range(pinball.nthreads)
    ]
    syncs = sorted(
        (entry[4], tid, idx)
        for tid, log in enumerate(logs)
        for idx, entry in enumerate(log)
        if entry[0] == "s"
    )
    for new_gseq, (_, tid, idx) in enumerate(syncs):
        kind, obj_id, response = logs[tid][idx][1:4]
        logs[tid][idx] = ("s", kind, obj_id, response, new_gseq)
    cut = state.cut
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
            "start": None if cut.start is None else
                     (cut.start.pc, cut.start.count),
            "end": None if cut.end is None else (cut.end.pc, cut.end.count),
        },
        start_exec_counts=state.warm_counts,
        detail_positions=[
            state.detail_pos[tid] - state.warm_pos[tid]
            for tid in range(pinball.nthreads)
        ],
        region_id=cut.region_id,
    )


# -- helpers -------------------------------------------------------------------


def assert_same_regions(
    got: List[RegionPinball], want: List[RegionPinball]
) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in fields(RegionPinball):
            assert getattr(g, f.name) == getattr(w, f.name), (
                f"region {w.region_id}: field {f.name} differs"
            )


def outcome(fn) -> Tuple[str, object]:
    """``("ok", regions)`` or ``("error", message)``."""
    try:
        return "ok", fn()
    except RegionError as exc:
        return "error", str(exc)


def assert_same_outcome(program, pinball, cuts) -> List[RegionPinball]:
    kind, got = outcome(
        lambda: extract_region_pinballs(program, pinball, cuts)
    )
    want_kind, want = outcome(lambda: oracle_extract(program, pinball, cuts))
    assert kind == want_kind, (got, want)
    if kind == "error":
        assert got == want
        return []
    assert_same_regions(got, want)
    return got


def pipeline(name: str, input_class: str, nthreads: int, scale):
    workload = get_workload(
        name, input_class=input_class, nthreads=nthreads, scale=scale
    )
    return LoopPointPipeline(
        workload, options=LoopPointOptions(scale=scale, jobs=1)
    )


def selection_cuts(pipe: LoopPointPipeline) -> List[RegionCut]:
    return region_cuts_for_selection(
        pipe.profile(),
        pipe.select().clusters,
        pipe.options.resolved_scale().warmup_instructions,
    )


# -- workloads -----------------------------------------------------------------


@pytest.mark.parametrize("name", list_workloads())
def test_registry_workload_matches_oracle(name):
    pipe = pipeline(name, "train", 4, TINY)
    cuts = selection_cuts(pipe)
    assert cuts
    regions = assert_same_outcome(pipe.workload.program, pipe.record(), cuts)
    assert len(regions) == len(cuts)


@pytest.mark.parametrize("name", REF_APPS)
def test_ref_checkpoint_app_matches_oracle(name):
    pipe = pipeline(name, "ref", 8, SMALL)
    cuts = selection_cuts(pipe)
    assert len(cuts) > 10
    assert_same_outcome(pipe.workload.program, pipe.record(), cuts)


# -- hand-built cut sets ---------------------------------------------------------


@pytest.fixture(scope="module")
def demo():
    pipe = pipeline("demo-matrix-1", "train", 4, TINY)
    profile = pipe.profile()
    return pipe.workload.program, pipe.record(), profile.slices


def _cut(region_id, s, warmup):
    return RegionCut(region_id, s.start, s.end, max(0, s.start_filtered - warmup))


def test_overlapping_warmup_windows(demo):
    program, pinball, slices = demo
    # Warmups reach back over several earlier regions' detail windows.
    cuts = [_cut(i, slices[i], 5 * slices[i].filtered_instructions)
            for i in range(3, len(slices), 2)]
    assert_same_outcome(program, pinball, cuts)


def test_warmup_clamped_to_zero(demo):
    program, pinball, slices = demo
    cuts = [_cut(i, slices[i], 10 ** 12) for i in (1, 2, 5)]
    assert all(c.warmup_filtered == 0 for c in cuts)
    regions = assert_same_outcome(program, pinball, cuts)
    assert all(r.metadata["warmup_filtered"] > 0 for r in regions)


def test_open_start_and_end(demo):
    program, pinball, slices = demo
    last = len(slices) - 1
    cuts = [
        RegionCut(0, None, slices[0].end, 0),
        RegionCut(1, slices[last].start, None, slices[last].start_filtered),
        RegionCut(2, None, None, 0),
        RegionCut(3, None, slices[4].end, slices[2].start_filtered),
    ]
    assert slices[0].start is None and slices[last].end is None
    assert_same_outcome(program, pinball, cuts)


def test_cuts_sharing_coordinates_and_markers(demo):
    program, pinball, slices = demo
    a, b = slices[4], slices[5]
    same_warm = a.start_filtered - 100
    cuts = [
        RegionCut(0, a.start, a.end, same_warm),
        RegionCut(1, a.start, a.end, same_warm),  # identical cut
        RegionCut(2, a.start, b.end, same_warm),  # shares start and warmup
        RegionCut(3, b.start, b.end, same_warm),  # starts where 0 ends
        RegionCut(4, a.end, a.end, same_warm),  # start == end marker
        RegionCut(5, a.start, a.end, 0),
    ]
    assert a.end == b.start
    assert_same_outcome(program, pinball, cuts)


def test_snapshots_are_not_shared(demo):
    program, pinball, slices = demo
    s = slices[6]
    cuts = [_cut(i, s, 2000) for i in range(3)]
    regions = extract_region_pinballs(program, pinball, cuts)
    want = copy.deepcopy(regions[1].start_exec_counts)
    regions[0].start_exec_counts[0][0] += 1
    regions[0].start_exec_counts.append([])
    assert regions[1].start_exec_counts == want
    assert regions[2].start_exec_counts == want


def _batched_marker_entry(program, pinball, marker_pcs):
    """The first marker entry with ``repeat > 2``: ``(pc, before, repeat)``."""
    bid_to_pc = {program.block_at(pc).bid: pc for pc in marker_pcs}
    counts = {pc: 0 for pc in marker_pcs}
    found = []

    def on_entry(feed, tid, entry):
        if entry[0] != "b" or entry[1] not in bid_to_pc:
            return
        pc = bid_to_pc[entry[1]]
        if entry[2] > 2 and not found:
            found.append((pc, counts[pc], entry[2]))
        counts[pc] += entry[2]

    replay_entries(program, pinball, on_entry)
    return found[0] if found else None


@pytest.fixture(scope="module")
def batched():
    for name in ("638.imagick_s.1", "621.wrf_s.1", "npb-cg"):
        pipe = pipeline(name, "train", 4, TINY)
        program, pinball = pipe.workload.program, pipe.record()
        hit = _batched_marker_entry(
            program, pinball, pipe.profile().marker_pcs
        )
        if hit is not None:
            return program, pinball, hit
    pytest.fail("no workload has a batched marker entry")


@pytest.mark.parametrize("which", ["start", "end"])
def test_marker_inside_batched_entry_raises(batched, which):
    program, pinball, (pc, before, repeat) = batched
    inside = Marker(pc, before + 1)
    cuts = [RegionCut(0, Marker(pc, 0), None, 0)]
    if which == "start":
        cuts.append(RegionCut(1, inside, None, 0))
    else:
        cuts.append(RegionCut(1, Marker(pc, 0), inside, 0))
    with pytest.raises(RegionError, match=f"{which} marker .* falls inside"):
        extract_region_pinballs(program, pinball, cuts)
    assert_same_outcome(program, pinball, cuts)


def test_first_offending_cut_in_cut_order_names_the_error(batched):
    program, pinball, (pc, before, repeat) = batched
    cuts = [
        RegionCut(0, None, Marker(pc, before + 2), 0),
        RegionCut(1, Marker(pc, before + 1), None, 0),
    ]
    with pytest.raises(RegionError, match=f"end marker .*{before + 2}"):
        extract_region_pinballs(program, pinball, cuts)
    assert_same_outcome(program, pinball, cuts)


def test_marker_at_batched_entry_start_is_cut(batched):
    program, pinball, (pc, before, repeat) = batched
    cuts = [RegionCut(0, Marker(pc, before), Marker(pc, before + repeat), 0)]
    assert_same_outcome(program, pinball, cuts)


def test_unreachable_cuts_fail_alike(demo):
    program, pinball, slices = demo
    pc = slices[3].start.pc
    total = pinball.filtered_instructions
    for cuts in (
        [RegionCut(0, Marker(pc, 10 ** 9), None, 0)],
        [RegionCut(0, None, Marker(pc, 10 ** 9), 0)],
        [RegionCut(0, None, None, total + 1)],
        # Start marker already passed when the warmup coordinate arrives.
        [RegionCut(0, slices[1].start, slices[1].end,
                   slices[3].start_filtered)],
    ):
        kind, _ = outcome(
            lambda: extract_region_pinballs(program, pinball, cuts)
        )
        assert kind == "error"
        assert_same_outcome(program, pinball, cuts)


def _blocks_only_pinball(tail_library: bool):
    """Two threads of application blocks and no syncs, so the final
    filtered count is first reached after the last entry -- unless
    ``tail_library`` appends a library block to thread 1."""
    program, _, omp = build_toy()
    hdr, body = program.blocks[0], program.blocks[1]
    assert not hdr.image.is_library and not body.image.is_library
    logs = [[("b", hdr.bid, 1), ("b", body.bid, 40)] * 3 for _ in range(2)]
    if tail_library:
        assert omp.spin_block.image.is_library
        logs[1].append(("b", omp.spin_block.bid, 5))
    total = filtered = 0
    for log in logs:
        for _, bid, repeat in log:
            block = program.blocks[bid]
            total += block.n_instr * repeat
            if not block.image.is_library:
                filtered += block.n_instr * repeat
    pinball = Pinball(program.name, 2, "passive", 0, logs, total, filtered)
    return program, pinball, hdr


@pytest.mark.parametrize("tail_library", [False, True])
def test_warmup_at_final_filtered_count(tail_library):
    program, pinball, hdr = _blocks_only_pinball(tail_library)
    final = pinball.filtered_instructions
    for cuts in (
        [RegionCut(0, None, None, final)],
        # The walk resumes from an earlier cut before it reaches the end.
        [RegionCut(0, Marker(hdr.pc, 2), None, 0),
         RegionCut(1, None, None, final)],
    ):
        kind, got = outcome(
            lambda: extract_region_pinballs(program, pinball, cuts)
        )
        if tail_library:
            assert kind == "ok"
            assert got[-1].logs == [[], [("b", pinball.logs[1][-1][1], 5)]]
        else:
            assert got == (
                f"region {cuts[-1].region_id}: warmup coordinate {final} "
                f"beyond end of execution"
            )
        assert_same_outcome(program, pinball, cuts)


def test_warmup_of_an_empty_execution():
    program, _, _ = build_toy()
    pinball = Pinball(program.name, 2, "passive", 0, [[], []], 0, 0)
    cuts = [RegionCut(0, None, None, 0)]
    with pytest.raises(RegionError, match="beyond end of execution"):
        extract_region_pinballs(program, pinball, cuts)
    assert_same_outcome(program, pinball, cuts)


def test_warmup_at_final_filtered_count_of_a_recording(demo):
    program, pinball, slices = demo
    final = pinball.filtered_instructions
    cuts = [
        RegionCut(0, None, None, final),
        RegionCut(1, slices[-1].start, None, slices[-1].start_filtered),
    ]
    assert_same_outcome(program, pinball, cuts)


def test_warmup_whose_first_entry_is_a_sync(demo):
    program, pinball, slices = demo
    seen = []  # (pre-entry filtered count, tid, entry kind)
    replay_entries(
        program, pinball, lambda feed, tid, entry: seen.append(
            (feed.filtered, tid, entry[0])
        ),
    )
    # The coordinate a block just reached, where the next entry is a sync.
    hits = [
        (seen[i][0], seen[i][1]) for i in range(1, len(seen))
        if seen[i][2] == "s" and seen[i][0] > seen[i - 1][0]
    ]
    assert hits
    for warm, tid in hits[:: max(1, len(hits) // 5)]:
        later = [s for s in slices if s.start_filtered > warm and s.start]
        if not later:
            continue
        cuts = [
            RegionCut(0, later[0].start, later[0].end, warm),
            RegionCut(1, None, later[0].start, warm),
        ]
        regions = assert_same_outcome(program, pinball, cuts)
        for region in regions:
            assert region.logs[tid][0][0] == "s"


def test_start_and_end_cuts_on_one_entry(demo):
    program, pinball, slices = demo
    a, b = slices[4], slices[5]
    m = a.end
    assert m == b.start
    warm = a.start_filtered - 50
    cuts = [
        RegionCut(0, a.start, m, warm),  # ends at m
        RegionCut(1, m, b.end, warm),  # starts at m
        RegionCut(2, m, m, warm),  # starts and ends at m
        RegionCut(3, None, m, warm),  # opened by its warmup, ends at m
    ]
    regions = assert_same_outcome(program, pinball, cuts)
    assert regions[2].metadata["detail_total"] == 0
    assert regions[0].detail_positions != regions[1].detail_positions


def test_start_and_end_on_one_batched_entry(batched):
    program, pinball, (pc, before, repeat) = batched
    at, inside = Marker(pc, before), Marker(pc, before + 1)
    regions = assert_same_outcome(
        program, pinball, [RegionCut(0, at, at, 0)]
    )
    assert regions[0].metadata["detail_total"] == 0
    cuts = [RegionCut(0, at, inside, 0), RegionCut(1, inside, None, 0)]
    with pytest.raises(RegionError, match=f"end marker .*{before + 1}"):
        extract_region_pinballs(program, pinball, cuts)
    assert_same_outcome(program, pinball, cuts)


def test_cuts_out_of_schedule_order(demo):
    program, pinball, slices = demo
    cuts = [_cut(i, slices[i], 3000) for i in range(len(slices))]
    for order in (cuts[::-1], random.Random(0).sample(cuts, len(cuts))):
        regions = assert_same_outcome(program, pinball, order)
        assert [r.region_id for r in regions] == [c.region_id for c in order]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_cut_sets_match_oracle(demo, data):
    program, pinball, slices = demo
    n = len(slices)
    picks = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 3 * slices[0].filtered_instructions),
            ),
            min_size=1, max_size=12,
        )
    )
    cuts = []
    for rid, (i, j, warm) in enumerate(picks):
        lo, hi = min(i, j), max(i, j)
        cuts.append(RegionCut(
            rid, slices[lo].start, slices[hi].end,
            max(0, slices[lo].start_filtered - warm),
        ))
    assert_same_outcome(program, pinball, cuts)


# -- script mode: front-end digests --------------------------------------------


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:24]


def front_end_digests(name: str) -> Dict[str, str]:
    pipe = pipeline(name, "train", 4, TINY)
    profile = pipe.profile()
    selection = pipe.select()
    regions = pipe.region_pinballs()
    return {
        "slices": _sha([
            (s.index, s.start, s.end, s.bbv.tobytes(),
             s.filtered_instructions, s.total_instructions,
             s.per_thread_filtered, s.start_filtered)
            for s in profile.slices
        ]),
        "selection": _sha([
            (c.representative, c.members, c.multiplier)
            for c in selection.clusters
        ]),
        "regions": _sha([
            [getattr(r, f.name) for f in fields(RegionPinball)]
            for r in regions
        ]),
    }


if __name__ == "__main__":
    for demo_name in DEMOS:
        for part, value in front_end_digests(demo_name).items():
            sys.stdout.write(f"{demo_name} {part} {value}\n")
