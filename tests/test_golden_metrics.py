"""Golden ``SimMetrics``: the timing model's outputs pinned by digest.

Every registry workload is simulated in full on out-of-order and in-order
cores under both wait policies, and a subset covering every ``AddressGen``
kind (strided, random, pointer-chase) plus a demo app also runs the
binary-driven region sweep and the constrained region replay.  Each result
is reduced to a sha256 over its counters and cycle bounds and compared with
``golden_metrics.json``, so any change to cache, predictor or core timing
behaviour — however small — fails here.

Inputs are the ``test`` class on two threads; full runs shrink it below
``TEST_SCALE``'s to keep the whole module to seconds.  To re-record the
digests after an intended behaviour change, run
``PYTHONPATH=src python tests/test_golden_metrics.py`` and review the diff
of the data file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields, replace
from typing import Dict, List

import pytest

from repro.config import GAINESTOWN_8CORE, ReproScale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.errors import RegionError
from repro.policy import WaitPolicy
from repro.timing.mcsim import SimulationResult
from repro.workloads.registry import get_workload, list_workloads

from conftest import TEST_SCALE

#: ``TEST_SCALE`` with a smaller ``test`` input for the full runs: every
#: phase still runs (trip counts are floored), in a fifth of the
#: instructions.  Region cases keep ``TEST_SCALE``, whose runs are long
#: enough to select representatives past the startup exclusion.
FULL_SCALE = replace(
    TEST_SCALE,
    name="golden",
    input_scale={**TEST_SCALE.input_scale, "test": 0.05},
)
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_metrics.json")

INPUT_CLASS = "test"
NTHREADS = 2
CORES = ("ooo", "inorder")
POLICIES = ("passive", "active")

#: Region-level coverage: wrf has strided, shared, random and
#: pointer-chase streams; xz pins its own thread count; the demo is the
#: quickstart app.
REGION_APPS = ("621.wrf_s.1", "657.xz_s.2", "demo-matrix-1")


def _pipeline(
    name: str, core: str, policy: str, scale: ReproScale
) -> LoopPointPipeline:
    workload = get_workload(
        name, input_class=INPUT_CLASS, nthreads=NTHREADS, scale=scale
    )
    system = GAINESTOWN_8CORE.with_cores(
        max(GAINESTOWN_8CORE.num_cores, workload.nthreads)
    )
    if core == "inorder":
        system = system.as_inorder()
    options = LoopPointOptions(
        wait_policy=WaitPolicy(policy), scale=scale, jobs=1
    )
    return LoopPointPipeline(workload, system=system, options=options)


def digest(results: List[SimulationResult]) -> str:
    """sha256 over each result's region id, cycle bounds and counters."""
    rows = [
        [r.region_id, r.start_cycle, r.end_cycle]
        + [getattr(r.metrics, f.name) for f in fields(r.metrics)]
        for r in results
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:24]


def _outcome(fn) -> str:
    """The digest of ``fn()``'s results, or the error it raises.

    A :class:`RegionError` is an outcome like any other: a region whose
    markers are never reached is pinned as such rather than skipped.
    """
    try:
        return digest(fn())
    except RegionError as exc:
        return f"RegionError: {exc}"


def full_case(name: str, core: str, policy: str) -> str:
    pipe = _pipeline(name, core, policy, FULL_SCALE)
    return _outcome(lambda: [pipe.simulate_full()])


def region_case(name: str, kind: str) -> str:
    pipe = _pipeline(name, "ooo", "passive", TEST_SCALE)
    if kind == "sweep":
        return _outcome(pipe.simulate_regions)
    return _outcome(pipe.simulate_regions_constrained)


FULL_CASES = [
    f"{name}/{core}/{policy}"
    for name in list_workloads()
    for core in CORES
    for policy in POLICIES
]
REGION_CASES = [
    f"{name}/{kind}" for name in REGION_APPS for kind in ("sweep", "constrained")
]


def compute_all() -> Dict[str, Dict[str, str]]:
    return {
        "full": {case: full_case(*case.split("/")) for case in FULL_CASES},
        "regions": {
            case: region_case(*case.split("/")) for case in REGION_CASES
        },
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_every_workload(golden):
    assert sorted(golden["full"]) == sorted(FULL_CASES)
    assert sorted(golden["regions"]) == sorted(REGION_CASES)


@pytest.mark.parametrize("case", FULL_CASES)
def test_full_run_metrics(golden, case):
    assert full_case(*case.split("/")) == golden["full"][case]


@pytest.mark.parametrize("case", REGION_CASES)
def test_region_metrics(golden, case):
    assert region_case(*case.split("/")) == golden["regions"][case]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(compute_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
