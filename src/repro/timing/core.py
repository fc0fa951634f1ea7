"""Per-core timing model (interval-style, as in Sniper).

Rather than simulating every pipeline stage, each basic-block batch is
costed as: issue cycles (dispatch-width-bound, with an FP pressure term) +
branch misprediction penalties + memory stalls.  The out-of-order model
overlaps independent long-latency misses up to ``max_outstanding_misses``
(memory-level parallelism); the in-order model serializes them — that
difference is what Fig. 5b's OoO-vs-in-order portability experiment
exercises.

Each memory op of a batch is one call into the hierarchy's batched probe
kernel with the op's line sequence, consecutive same-line accesses already
collapsed by :meth:`~repro.isa.instructions.AddressGen.probe_lines`; this is
exact under LRU (a line just touched is MRU) and keeps Python probe counts
proportional to distinct lines, not accesses.
"""

from __future__ import annotations

from typing import Dict

from ..config import CoreConfig
from ..isa.blocks import BasicBlock
from ..isa.instructions import LINE_SHIFT
from .branch import BranchPredictor
from .hierarchy import L2, L3, MEM, MemoryHierarchy

#: Issue-rate pressure per FP instruction (cycles), OoO vs in-order.
_FP_PRESSURE_OOO = 0.25
_FP_PRESSURE_INORDER = 1.0
#: Extra cycles an atomic RMW occupies the memory pipeline.
_ATOMIC_OVERHEAD = 8


class CoreModel:
    """One core: predictor + issue/memory cost model + local clock."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = BranchPredictor()
        self.cycle = 0
        self.instructions = 0
        self.filtered_instructions = 0
        self.l1d_accesses = 0
        self._fp_pressure = (
            _FP_PRESSURE_OOO if config.out_of_order else _FP_PRESSURE_INORDER
        )
        self._miss_latency = (
            hierarchy.latency(L2), hierarchy.latency(L3), hierarchy.latency(MEM)
        )
        #: Per-block instruction-fetch line range, computed on first use.
        self._fetch_lines: Dict[BasicBlock, range] = {}

    # -- cost model ------------------------------------------------------------

    def execute_block(
        self,
        block: BasicBlock,
        start_index: int,
        repeat: int,
        warming: bool = False,
    ) -> int:
        """Execute ``repeat`` back-to-back instances of ``block``.

        Updates all microarchitectural state (caches, predictor) and the
        core's counters, advances the local clock, and returns the cycles
        consumed.  In ``warming`` mode state is still updated but time
        advances at one instruction per cycle (functional warming during
        fast-forward).
        """
        n = block.n_instr * repeat
        self.instructions += n
        if not block.image.is_library:
            self.filtered_instructions += n

        hierarchy = self.hierarchy
        core_id = self.core_id
        lat_l2, lat_l3, lat_mem = self._miss_latency

        # Instruction fetch: probe each line the block spans once per batch.
        fetch = self._fetch_lines.get(block)
        if fetch is None:
            fetch = self._fetch_lines[block] = range(
                block.pc >> LINE_SHIFT,
                ((block.pc + 4 * block.n_instr - 1) >> LINE_SHIFT) + 1,
            )
        # An L1-I miss costs an L3 round trip wherever the line is served.
        fetch_stall = sum(hierarchy.fetch_lines(core_id, fetch)) * lat_l3

        mispredicts = self.predictor.execute_block(block, repeat)

        mem_latency = 0
        dependent_latency = 0
        num_misses = 0
        mem_ops = block.mem_ops
        if mem_ops:
            self.l1d_accesses += repeat * len(mem_ops)
            for _slot, gen, is_write, dependent in mem_ops:
                l2_served, l3_served, mem_served = hierarchy.access_lines(
                    core_id,
                    gen.probe_lines(core_id, start_index, repeat),
                    is_write,
                )
                misses = l2_served + l3_served + mem_served
                if misses:
                    num_misses += misses
                    lat = (
                        l2_served * lat_l2
                        + l3_served * lat_l3
                        + mem_served * lat_mem
                    )
                    if dependent:
                        dependent_latency += lat
                    else:
                        mem_latency += lat

        # Fast-forward ("warming") advances the clock with the same cost
        # model as detailed mode: the expensive state updates (cache probes,
        # predictor) must happen anyway for perfect warmup, and identical
        # timing keeps core clocks realistically aligned when a region
        # begins.  Region metrics are snapshot-differenced, so attribution
        # is unaffected.
        if self.config.out_of_order:
            mlp = min(self.config.max_outstanding_misses, max(1, num_misses))
            mem_stall = mem_latency / mlp + dependent_latency
        else:
            mem_stall = mem_latency + dependent_latency

        issue = n / self.config.dispatch_width
        issue += block.n_fp * repeat * self._fp_pressure
        issue += block.n_atomics * repeat * _ATOMIC_OVERHEAD
        cycles = int(
            issue
            + mispredicts * self.config.branch_mispredict_penalty
            + mem_stall
            + fetch_stall
        ) + 1
        self.cycle += cycles
        return cycles

    # -- address-stream note -----------------------------------------------------
    # Address streams are keyed by *core id* (== thread id in our pinned-
    # thread model), so functional and timing executions observe identical
    # streams for the same thread.
