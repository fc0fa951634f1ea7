"""The profile stage costs one replay when record ran in-process.

The record stage always attaches a DCFG builder, so the offline profile
takes its marker blocks from the recording's DCFG and replays the pinball
once, to slice.  Only after a record-cache hit does it replay first to
build the DCFG.  The ``stage:profile`` span says which (``dcfg`` attribute
``record`` or ``replay``), and both routes produce the same profile.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.dcfg.graph import DCFGBuilder, build_dcfg_from_pinball
from repro.obs import Tracer, obs_scope, read_trace
from repro.pinplay import ConstrainedReplayer
from repro.workloads.demo import build_demo_matrix

from conftest import TEST_SCALE


def make_pipeline(cache_dir=None) -> LoopPointPipeline:
    workload = build_demo_matrix(1, "test", 4, TEST_SCALE)
    return LoopPointPipeline(
        workload,
        options=LoopPointOptions(
            scale=TEST_SCALE, jobs=1,
            cache_dir=None if cache_dir is None else str(cache_dir),
        ),
    )


def traced_profile(pipe: LoopPointPipeline, path):
    """Record, then profile under a tracer: ``(replays, span attrs)``."""
    pipe.record()
    tracer = Tracer(str(path))
    with obs_scope(tracer):
        with tracer.span("run"):
            pipe.profile()
        replays = tracer.metrics.counters.get("replay.runs", 0)
    tracer.finish()
    (span,) = [s for s in read_trace(str(path)).spans
               if s.name == "stage:profile"]
    return replays, span.attrs


def test_in_process_record_profiles_in_one_replay(tmp_path):
    pipe = make_pipeline()
    replays, attrs = traced_profile(pipe, tmp_path / "t.jsonl")
    assert replays == 1
    assert attrs["dcfg"] == "record"
    assert attrs["cache"] == "miss"


def test_record_time_dcfg_has_replay_counts():
    pipe = make_pipeline()
    pinball = pipe.record()
    replayed = build_dcfg_from_pinball(pipe.workload.program, pinball)
    assert dict(pipe._record_dcfg.edge_counts) == dict(replayed.edge_counts)
    assert dict(pipe._record_dcfg.node_counts) == dict(replayed.node_counts)


@pytest.mark.parametrize("track_threads", [False, True])
@pytest.mark.parametrize("capacity", [64, 300, 8192])
def test_batched_dcfg_builder_matches_per_event(track_threads, capacity):
    """Same counts *and* dict insertion order as per-event building."""
    pipe = make_pipeline()
    program, pinball = pipe.workload.program, pipe.record()
    builders = []
    for cap in (1, capacity):
        builder = DCFGBuilder(program, pinball.nthreads, track_threads)
        ConstrainedReplayer(
            program, pinball, observers=(builder,), batch_capacity=cap,
        ).run()
        builders.append(builder)
    want, got = builders
    assert list(got.dcfg.edge_counts.items()) == list(
        want.dcfg.edge_counts.items()
    )
    assert list(got.dcfg.node_counts.items()) == list(
        want.dcfg.node_counts.items()
    )
    if track_threads:
        for tid in range(pinball.nthreads):
            assert list(got.thread_graph(tid).edge_counts.items()) == list(
                want.thread_graph(tid).edge_counts.items()
            )


def test_record_cache_hit_falls_back_to_dcfg_replay(tmp_path):
    store = tmp_path / "store"
    make_pipeline(store).record()  # publishes the record artifact only
    hit = make_pipeline(store)
    replays, attrs = traced_profile(hit, tmp_path / "t.jsonl")
    assert hit.artifacts.hits.get("record", 0) == 1
    assert replays == 2  # DCFG replay, then the slicing replay
    assert attrs["dcfg"] == "replay"
    fresh = make_pipeline()
    assert pickle.dumps(hit.profile()) == pickle.dumps(fresh.profile())


def test_live_marker_pcs_reuse_the_record_dcfg(tmp_path):
    pipe = make_pipeline()
    pipe.record()
    tracer = Tracer(str(tmp_path / "t.jsonl"))
    with obs_scope(tracer):
        pcs = pipe.marker_pcs()
        replays = tracer.metrics.counters.get("replay.runs", 0)
    tracer.finish()
    assert replays == 0
    assert pcs == pipe.profile().marker_pcs


@pytest.mark.parametrize("batch", ["0", "1"])
def test_profile_independent_of_batching(monkeypatch, batch):
    want = pickle.dumps(make_pipeline().profile())
    monkeypatch.setenv("REPRO_BATCH_EVENTS", batch)
    assert pickle.dumps(make_pipeline().profile()) == want
