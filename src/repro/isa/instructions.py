"""Instruction kinds and deterministic address generators.

Memory instructions carry an :class:`AddressGen` that maps
``(thread id, execution index)`` to a byte address.  Address streams are pure
functions of those two values, so they are identical across interleavings and
across functional/timing executions — the property that makes recorded
pinballs replayable and region simulations comparable to the full run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ..errors import ProgramStructureError

#: Cache-line size the timing model probes at (bytes, and its log2).
LINE_BYTES = 64
LINE_SHIFT = 6

#: Fixed-point mixing constants (splitmix64) for hash-based streams.
_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MIX3 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer)."""
    x = (x + _MIX1) & _MASK
    x = ((x ^ (x >> 30)) * _MIX2) & _MASK
    x = ((x ^ (x >> 27)) * _MIX3) & _MASK
    return x ^ (x >> 31)


class InstrKind(Enum):
    """Coarse instruction classes; enough detail for an interval core model."""

    IALU = "ialu"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    RET = "ret"
    ATOMIC = "atomic"
    NOP = "nop"


class AddressGen:
    """Base class for deterministic address stream generators."""

    def addresses(self, tid: int, start_index: int, count: int) -> np.ndarray:
        """Byte addresses for executions ``start_index..start_index+count``.

        ``start_index`` is how many times the owning basic block has already
        executed on thread ``tid``.
        """
        raise NotImplementedError

    def address_at(self, tid: int, index: int) -> int:
        """Scalar fast path: the address of execution ``index``."""
        return int(self.addresses(tid, index, 1)[0])

    def probe_lines(self, tid: int, start_index: int, count: int) -> Sequence[int]:
        """Cache lines of executions ``start_index..start_index+count``, in
        order, with consecutive repeats collapsed to one probe.

        Collapsing is exact for the timing model: a line just touched is
        MRU in L1, so probing it again is an L1 hit that changes no LRU
        order, no directory state and no miss count.
        """
        if count == 1:
            return (self.address_at(tid, start_index) >> LINE_SHIFT,)
        lines = self.addresses(tid, start_index, count).astype(np.int64)
        lines >>= LINE_SHIFT
        keep = np.empty(count, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        return lines[keep].tolist()

    def footprint(self) -> int:
        """Approximate working-set size in bytes (for documentation)."""
        raise NotImplementedError


@dataclass(frozen=True)
class StridedAccess(AddressGen):
    """Sequential/strided stream over a (possibly per-thread) window.

    ``address = base + tid*tid_offset + (index*stride) % window``

    ``tid_offset > 0`` partitions the data among threads (private chunks of a
    big array, as a statically scheduled ``omp for`` would); ``tid_offset == 0``
    makes the window shared between threads.
    """

    base: int
    stride: int
    window: int
    tid_offset: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0 or self.stride == 0:
            raise ProgramStructureError(
                f"strided access needs window>0, stride!=0 "
                f"(got window={self.window}, stride={self.stride})"
            )

    def addresses(self, tid: int, start_index: int, count: int) -> np.ndarray:
        idx = np.arange(start_index, start_index + count, dtype=np.int64)
        base = self.base + tid * self.tid_offset
        return base + (idx * self.stride) % self.window

    def address_at(self, tid: int, index: int) -> int:
        return self.base + tid * self.tid_offset + (index * self.stride) % self.window

    def probe_lines(self, tid: int, start_index: int, count: int) -> Sequence[int]:
        """Arithmetic line walk for line-aligned windows.

        With ``stride`` dividing the line size and base and window
        line-aligned, execution ``i`` touches window line
        ``(i * stride // LINE_BYTES) % window_lines`` and that counter
        advances by at most one per execution, so the collapsed sequence is
        that counter's range taken modulo the window.
        Other streams take the generic numpy path.
        """
        stride, window = self.stride, self.window
        base = self.base + tid * self.tid_offset
        if not (
            0 < stride <= LINE_BYTES
            and LINE_BYTES % stride == 0
            and base % LINE_BYTES == 0
            and window % LINE_BYTES == 0
        ):
            return super().probe_lines(tid, start_index, count)
        first = base >> LINE_SHIFT
        nlines = window >> LINE_SHIFT
        if nlines == 1:
            return (first,)
        g0 = start_index * stride >> LINE_SHIFT
        g1 = (start_index + count - 1) * stride >> LINE_SHIFT
        pos = g0 % nlines
        if pos + g1 - g0 < nlines:
            return range(first + pos, first + pos + g1 - g0 + 1)
        return [first + g % nlines for g in range(g0, g1 + 1)]

    def footprint(self) -> int:
        return self.window


def _hashed_addresses(
    base: int, window: int, granule: int, salt_key: int,
    start_index: int, count: int,
) -> np.ndarray:
    """Granule-aligned addresses in ``[base, base + window)``, scattered by
    a splitmix64-style hash of ``index + mix64(salt_key)``."""
    idx = np.arange(start_index, start_index + count, dtype=np.uint64)
    salt = np.uint64(mix64(salt_key))
    h = (idx + salt) * np.uint64(_MIX1)
    h ^= h >> np.uint64(30)
    h *= np.uint64(_MIX2)
    h ^= h >> np.uint64(27)
    slots = window // granule
    off = (h % np.uint64(slots)).astype(np.int64) * granule
    return base + off


@dataclass(frozen=True)
class RandomAccess(AddressGen):
    """Hash-scattered stream over a window (cache-hostile access pattern)."""

    base: int
    window: int
    seed: int = 0
    granule: int = 64
    shared: bool = True

    def __post_init__(self) -> None:
        if self.window < self.granule:
            raise ProgramStructureError(
                f"random access window {self.window} smaller than granule"
            )

    def addresses(self, tid: int, start_index: int, count: int) -> np.ndarray:
        return _hashed_addresses(
            self.base, self.window, self.granule,
            self.seed * 1315423911 + (0 if self.shared else tid + 1),
            start_index, count,
        )

    def footprint(self) -> int:
        return self.window


@dataclass(frozen=True)
class PointerChaseAccess(AddressGen):
    """Dependent-chain style stream: random but with low MLP semantics.

    The address stream itself is hash-scattered like :class:`RandomAccess`;
    the ``dependent`` flag tells the core model that misses from this
    instruction cannot overlap (a linked-list walk).
    """

    base: int
    window: int
    seed: int = 0
    granule: int = 64
    dependent: bool = True

    def __post_init__(self) -> None:
        if self.window < self.granule:
            raise ProgramStructureError(
                f"pointer-chase window {self.window} smaller than granule"
            )

    def addresses(self, tid: int, start_index: int, count: int) -> np.ndarray:
        # The stream of a private (per-thread) RandomAccess seeded
        # ``seed ^ 0x5151``.
        return _hashed_addresses(
            self.base, self.window, self.granule,
            (self.seed ^ 0x5151) * 1315423911 + tid + 1,
            start_index, count,
        )

    def footprint(self) -> int:
        return self.window


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    ``pc`` is assigned by the image layout pass.  Memory instructions carry an
    address generator; other kinds have ``mem is None``.
    """

    kind: InstrKind
    pc: int = 0
    mem: Optional[AddressGen] = None
    latency: int = 1

    def __post_init__(self) -> None:
        is_mem = self.kind in (InstrKind.LOAD, InstrKind.STORE, InstrKind.ATOMIC)
        if is_mem and self.mem is None:
            raise ProgramStructureError(f"{self.kind} instruction needs an AddressGen")
        if not is_mem and self.mem is not None:
            raise ProgramStructureError(f"{self.kind} instruction cannot carry an AddressGen")
