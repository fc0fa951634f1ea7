"""The complete up-front analysis of one recorded execution.

``profile_pinball`` is the paper's one-time analysis step (Sec. III): find
the worker-loop headers in the DCFG, then replay the whole-program pinball
slicing at those loop entries while collecting filtered,
per-thread-concatenated BBVs.  The DCFG comes from the recording run when
the caller has it (the pipeline attaches a builder to the record stage);
otherwise :func:`worker_loop_markers` builds it with one more replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..dcfg.graph import DCFG, build_dcfg_from_pinball
from ..dcfg.loops import loop_header_blocks
from ..errors import ProfilingError
from ..isa.blocks import BasicBlock
from ..isa.image import Program
from ..pinplay.pinball import Pinball
from ..pinplay.replayer import ConstrainedReplayer
from ..resilience import PROFILE_DIVERGENCE, maybe_inject
from .filters import FilterPolicy
from .slicer import LoopAlignedSlicer, Slice


@dataclass
class ProfileData:
    """Everything region selection needs."""

    program_name: str
    nthreads: int
    slice_size: int
    slices: List[Slice]
    marker_pcs: List[int]
    total_instructions: int
    filtered_instructions: int

    def __post_init__(self) -> None:
        if not self.slices:
            raise ProfilingError("profile produced no slices")

    def bbv_matrix(self) -> np.ndarray:
        """Stacked slice BBVs, shape ``(num_slices, dim)``."""
        return np.vstack([s.bbv for s in self.slices])

    def slice_filtered_counts(self) -> np.ndarray:
        return np.array(
            [s.filtered_instructions for s in self.slices], dtype=np.float64
        )

    @property
    def num_slices(self) -> int:
        return len(self.slices)


def worker_loop_markers(
    program: Program,
    pinball: Pinball,
    dcfg: Optional[DCFG] = None,
    filter_policy: Optional[FilterPolicy] = None,
) -> List[BasicBlock]:
    """The marker blocks LoopPoint slices at: main-image natural-loop
    headers of the DCFG that the filter policy allows as markers.

    ``dcfg`` is the recording run's graph when available; without it the
    DCFG is built by replaying ``pinball``.  Raises
    :class:`~repro.errors.ProfilingError` when no block qualifies.
    """
    policy = filter_policy or FilterPolicy()
    if dcfg is None:
        dcfg = build_dcfg_from_pinball(program, pinball)
    blocks = [
        b for b in loop_header_blocks(dcfg, program, main_only=True)
        if policy.marker_eligible(b)
    ]
    if not blocks:
        raise ProfilingError(
            f"no marker-eligible loop headers found in {program.name!r}"
        )
    return blocks


def profile_pinball(
    program: Program,
    pinball: Pinball,
    slice_size: int,
    filter_policy: Optional[FilterPolicy] = None,
    marker_blocks: Optional[Sequence[BasicBlock]] = None,
    phase_aligned: bool = False,
) -> ProfileData:
    """Run the full up-front analysis on a recorded execution.

    ``marker_blocks`` defaults to the worker-loop headers discovered by the
    DCFG pass (main-image natural-loop headers) — pass them explicitly to
    experiment with alternative boundary sets.
    """
    maybe_inject(PROFILE_DIVERGENCE, f"profile:{program.name}")
    policy = filter_policy or FilterPolicy()
    if marker_blocks is None:
        marker_blocks = worker_loop_markers(program, pinball, None, policy)
    if not marker_blocks:
        raise ProfilingError(
            f"no marker-eligible loop headers found in {program.name!r}"
        )
    slicer = LoopAlignedSlicer(
        nthreads=pinball.nthreads,
        nblocks=program.num_blocks,
        marker_blocks=marker_blocks,
        slice_size=slice_size,
        filter_policy=policy,
        phase_aligned=phase_aligned,
    )
    result = ConstrainedReplayer(
        program, pinball, observers=(slicer,)
    ).run()
    return ProfileData(
        program_name=program.name,
        nthreads=pinball.nthreads,
        slice_size=slice_size,
        slices=slicer.slices,
        marker_pcs=sorted(b.pc for b in marker_blocks),
        total_instructions=result.total_instructions,
        filtered_instructions=result.filtered_instructions,
    )
