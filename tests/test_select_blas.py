"""Selection is independent of BLAS threading and of ``jobs``.

``select_simpoints`` runs at one OpenBLAS thread in the parent and in every
pool worker, so serial and fanned-out selections run the same GEMMs at the
same thread count, whatever the caller's thread count or the host's CPU
count.  The 83x192 input is deliberate: its projection GEMM gives
different bytes at one and two OpenBLAS threads.

Also covered here: the single-``bincount`` ``weighted_means`` against the
per-dimension reference, the k-means counters under ``jobs``, and the
visible serial fallback of ``fanout_map``.

Run as a script, the module prints a digest of every selection it checks
(``python tests/test_select_blas.py``); CI prints them under two
``OPENBLAS_NUM_THREADS`` settings and requires the outputs to match.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import simpoint
from repro.clustering.projection import project
from repro.clustering.simpoint import SimPointOptions, select_simpoints
from repro.obs.tracer import Tracer, obs_scope
from repro.parallel import executor
from repro.perf import kernels
from repro.perf.kernels import (
    blas_thread_count,
    blas_threads,
    set_blas_threads,
    weighted_means,
)

#: (slices, BBV dimensions) of the select inputs.
SHAPES = ((83, 192), (1000, 192))

needs_openblas = pytest.mark.skipif(
    blas_thread_count() is None, reason="no OpenBLAS thread-count setter"
)


def _bbvs(n, d=192, phases=6, seed=0):
    """Phase-structured BBV counts and per-slice instruction counts."""
    rng = np.random.default_rng(seed)
    profiles = rng.gamma(0.6, 1.0, size=(phases, d))
    profiles *= rng.random((phases, d)) < 0.3
    which = rng.integers(0, phases, size=n)
    matrix = rng.poisson(profiles[which] * 2000).astype(np.float64)
    return matrix, rng.uniform(5e4, 1.5e5, size=n).round()


def _select(shape, jobs=1):
    matrix, counts = _bbvs(*shape)
    return select_simpoints(matrix, counts, ineligible=[0, 1], jobs=jobs)


def _facts(selection):
    """Everything a selection says, in exact (byte-comparable) form."""
    return {
        "k": selection.k,
        "labels": selection.labels.tobytes().hex(),
        "bic_by_k": {k: v.hex() for k, v in selection.bic_by_k.items()},
        "clusters": [
            (c.cluster_id, c.representative, c.members,
             c.instruction_mass.hex(), c.multiplier.hex())
            for c in selection.clusters
        ],
    }


def _digest(selection) -> str:
    blob = json.dumps(_facts(selection), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def reference():
    """The serial selection of every shape at one BLAS thread: what every
    selection must equal, whatever the caller's thread count."""
    with blas_threads(1):
        return {shape: _facts(_select(shape)) for shape in SHAPES}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestSelectEquivalence:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_give_identical_selection(self, shape, jobs, reference):
        assert _facts(_select(shape, jobs)) == reference[shape]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_give_identical_centroids(self, shape, jobs):
        matrix, counts = _bbvs(*shape)
        opts = SimPointOptions(max_k=12)
        n = matrix.shape[0]
        with blas_threads(1):
            points = project(matrix, opts.projection_dim, opts.seed)
            serial, _ = simpoint._full_sweep(points, counts, opts, 12, n, 1)
            fanned, _ = simpoint._full_sweep(points, counts, opts, 12, n, jobs)
        assert sorted(serial) == sorted(fanned)
        for k, fit in serial.items():
            assert fit.centroids.tobytes() == fanned[k].centroids.tobytes()
            assert fit.labels.tobytes() == fanned[k].labels.tobytes()

    @needs_openblas
    @pytest.mark.parametrize("outer", [2, 4])
    def test_callers_thread_count_does_not_change_selection(
        self, shape, outer, reference
    ):
        with blas_threads(outer):
            selection = _select(shape, jobs=2)
            assert blas_thread_count() == outer
        assert _facts(selection) == reference[shape]


def _pool_blas_count(_task):
    return blas_thread_count()


@needs_openblas
class TestBlasThreads:
    def test_pool_tasks_run_at_one_thread(self):
        with blas_threads(4):
            assert executor.fanout_map(_pool_blas_count, [0, 1, 2], 2) == [
                1, 1, 1
            ]
            pool = executor._new_pool(1)
            try:
                assert pool.submit(blas_thread_count).result() == 1
            finally:
                pool.shutdown()

    def test_restores_previous_count(self):
        with blas_threads(3):
            with blas_threads(1):
                assert blas_thread_count() == 1
            assert blas_thread_count() == 3

    def test_restores_previous_count_on_exception(self):
        with blas_threads(3):
            with pytest.raises(RuntimeError):
                with blas_threads(1):
                    raise RuntimeError("boom")
            assert blas_thread_count() == 3

    def test_set_returns_previous_count(self):
        with blas_threads(2):
            assert set_blas_threads(1) == 2
            assert blas_thread_count() == 1


def test_noop_without_blas_setter(monkeypatch, reference):
    monkeypatch.setattr(kernels, "_blas", lambda: None)
    assert blas_thread_count() is None
    assert set_blas_threads(1) is None
    with blas_threads(1):
        pass
    shape = SHAPES[1]
    assert _facts(_select(shape, jobs=1))["clusters"] == (
        reference[shape]["clusters"]
    )


def _counters(tmp_path, tag, jobs):
    tracer = Tracer(str(tmp_path / f"{tag}.jsonl"))
    with obs_scope(tracer):
        _select(SHAPES[0], jobs)
    return dict(tracer.metrics.counters)


def test_kmeans_counters_match_across_jobs(tmp_path):
    serial = _counters(tmp_path, "serial", 1)
    fanned = _counters(tmp_path, "fanned", 2)
    assert serial == fanned
    # 83 slices: k = 1..41, three restarts each.
    assert serial["kmeans.fits"] == 41 * 3
    assert serial["kmeans.iterations"] >= serial["kmeans.fits"]


def _square(task):
    return task[0] * task[0]


def test_fanout_fallback_is_counted_and_logged(tmp_path, caplog):
    # A lambda cannot be pickled to a worker: the pool fails and
    # every task re-runs in the parent.
    tasks = [(i, lambda: None) for i in range(4)]
    tracer = Tracer(str(tmp_path / "fallback.jsonl"))
    with caplog.at_level(logging.WARNING, logger=executor.__name__):
        with obs_scope(tracer):
            results = executor.fanout_map(_square, tasks, 2)
    assert results == [0, 1, 4, 9]
    assert tracer.metrics.counters["fanout.serial_fallbacks"] == 1
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "serially" in warnings[0].getMessage()


def _per_dimension_means(points, labels, k, weights):
    """The per-dimension ``bincount`` form ``weighted_means`` replaced."""
    n, d = points.shape
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    wsum = np.bincount(labels, weights=weights, minlength=k)
    acc = np.empty((k, d), dtype=np.float64)
    for j in range(d):
        acc[:, j] = np.bincount(
            labels, weights=weights * points[:, j], minlength=k
        )
    nonzero = wsum > 0
    means = np.zeros((k, d), dtype=np.float64)
    means[nonzero] = acc[nonzero] / wsum[nonzero, None]
    return means, wsum


@st.composite
def _means_case(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    labels_max = draw(st.integers(0, 6))
    # k may exceed the largest label: trailing clusters are empty.
    k = labels_max + 1 + draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e6])),
                        size=(n, d))
    labels = rng.integers(0, labels_max + 1, size=n)
    kind = draw(st.sampled_from(["none", "positive", "with_zeros", "zero"]))
    if kind == "none":
        weights = None
    else:
        weights = rng.uniform(0.0, 1e5, size=n)
        if kind == "with_zeros":
            weights[rng.random(n) < 0.5] = 0.0
        elif kind == "zero":
            weights[:] = 0.0
    return points, labels, k, weights


@settings(max_examples=200, deadline=None)
@given(_means_case())
def test_weighted_means_matches_per_dimension_bincount(case):
    points, labels, k, weights = case
    means, wsum = weighted_means(points, labels, k, weights)
    ref_means, ref_wsum = _per_dimension_means(points, labels, k, weights)
    assert means.tobytes() == ref_means.tobytes()
    assert wsum.tobytes() == ref_wsum.tobytes()


if __name__ == "__main__":
    # One line per (shape, jobs): the digest of the exact selection.
    for shape in SHAPES:
        for jobs in (1, 2, 3):
            sys.stdout.write(
                f"{shape[0]}x{shape[1]} jobs={jobs} "
                f"{_digest(_select(shape, jobs))}\n"
            )
