"""Property tests for the timing model's batched probe path.

``MemoryHierarchy.access_lines``/``fetch_lines`` must leave every cache,
counter and the presence directory exactly as a per-line chain of
``Cache.access`` over a set-based directory would, and
``AddressGen.probe_lines`` must yield the same collapsed line sequence as
the generic numpy collapse of ``addresses()``.
"""

from dataclasses import replace
from typing import Dict, List, Set

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GAINESTOWN_8CORE, CacheConfig, SystemConfig
from repro.isa.instructions import (
    AddressGen,
    PointerChaseAccess,
    RandomAccess,
    StridedAccess,
)
from repro.timing.cache import Cache
from repro.timing.hierarchy import L1, L2, L3, MEM, MemoryHierarchy


class ReferenceHierarchy:
    """The per-line probe chain: ``Cache.access`` per level, with the
    presence directory kept as ``line -> set of cores``."""

    def __init__(self, config: SystemConfig) -> None:
        n = config.num_cores
        self.l1i = [Cache(config.l1i) for _ in range(n)]
        self.l1d = [Cache(config.l1d) for _ in range(n)]
        self.l2 = [Cache(config.l2) for _ in range(n)]
        self.l3 = Cache(config.l3)
        self.directory: Dict[int, Set[int]] = {}

    def access(self, core: int, line: int, is_write: bool) -> int:
        if is_write:
            sharers = self.directory.get(line)
            if sharers:
                for other in sharers:
                    if other != core:
                        self.l1d[other].invalidate(line)
                        self.l2[other].invalidate(line)
                if sharers - {core}:
                    self.directory[line] = {core}
        if self.l1d[core].access(line):
            level = L1
        elif self.l2[core].access(line):
            level = L2
        elif self.l3.access(line):
            level = L3
        else:
            level = MEM
        self.directory.setdefault(line, set()).add(core)
        return level

    def fetch(self, core: int, line: int) -> int:
        if self.l1i[core].access(line):
            return L1
        if self.l3.access(line):
            return L3
        return MEM


def _served(levels: List[int], below: tuple) -> tuple:
    return tuple(levels.count(level) for level in below)


def _cache_state(cache: Cache) -> tuple:
    return (
        [list(s) for s in cache.sets],
        cache.hits, cache.misses, cache.evictions, cache.invalidations,
    )


def _assert_same(kernel: MemoryHierarchy, ref: ReferenceHierarchy) -> None:
    for name in ("l1i", "l1d", "l2"):
        for a, b in zip(getattr(kernel, name), getattr(ref, name)):
            assert _cache_state(a) == _cache_state(b), name
    assert _cache_state(kernel.l3) == _cache_state(ref.l3)
    decoded = {
        line: {c for c in range(kernel.config.num_cores) if mask >> c & 1}
        for line, mask in kernel._directory.items()
    }
    assert decoded == ref.directory


#: Tiny caches so short streams evict at every level.  ``odd`` has set
#: counts that are not powers of two (3, 5 and 7 sets).
_TINY = replace(
    GAINESTOWN_8CORE,
    num_cores=3,
    l1i=CacheConfig("L1-I", 4 * 64, 2),
    l1d=CacheConfig("L1-D", 4 * 64, 2),
    l2=CacheConfig("L2", 8 * 64, 2),
    l3=CacheConfig("L3", 16 * 64, 4),
)
_ODD = replace(
    _TINY,
    l1i=CacheConfig("L1-I", 3 * 2 * 64, 2),
    l1d=CacheConfig("L1-D", 3 * 2 * 64, 2),
    l2=CacheConfig("L2", 5 * 2 * 64, 2),
    l3=CacheConfig("L3", 7 * 4 * 64, 4),
)

_op = st.tuples(
    st.sampled_from(("data", "fetch")),
    st.integers(0, 2),                               # core
    st.booleans(),                                   # is_write
    st.lists(st.integers(0, 40), min_size=0, max_size=12),
)


class TestProbeKernelMatchesPerLineChain:
    @given(config=st.sampled_from((_TINY, _ODD)),
           ops=st.lists(_op, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_streams(self, config, ops):
        kernel = MemoryHierarchy(config)
        ref = ReferenceHierarchy(config)
        for kind, core, is_write, lines in ops:
            if kind == "data":
                got = kernel.access_lines(core, lines, is_write)
                levels = [ref.access(core, ln, is_write) for ln in lines]
                assert got == _served(levels, (L2, L3, MEM))
            else:
                got = kernel.fetch_lines(core, lines)
                levels = [ref.fetch(core, ln) for ln in lines]
                assert got == _served(levels, (L3, MEM))
            _assert_same(kernel, ref)

    @given(ops=st.lists(_op, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_single_line_entry_points(self, ops):
        kernel = MemoryHierarchy(_ODD)
        ref = ReferenceHierarchy(_ODD)
        for kind, core, is_write, lines in ops:
            for ln in lines:
                if kind == "data":
                    assert kernel.access(core, ln, is_write) == ref.access(
                        core, ln, is_write)
                else:
                    assert kernel.fetch(core, ln) == ref.fetch(core, ln)
        _assert_same(kernel, ref)

    def test_remote_write_invalidates_through_the_kernel(self):
        kernel = MemoryHierarchy(_TINY)
        kernel.access_lines(0, [7, 8], False)
        kernel.access_lines(1, [7], False)
        kernel.access_lines(2, [7], True)
        assert not kernel.l1d[0].contains(7) and not kernel.l2[0].contains(7)
        assert not kernel.l1d[1].contains(7)
        assert kernel.l1d[0].contains(8)
        assert kernel._directory[7] == 1 << 2
        assert kernel.l1d[0].invalidations == 1


def _numpy_collapse(gen: AddressGen, tid: int, start: int, count: int):
    """The generic path: vector addresses, consecutive repeats dropped."""
    lines = gen.addresses(tid, start, count).astype(np.int64) >> 6
    keep = np.ones(count, dtype=bool)
    keep[1:] = lines[1:] != lines[:-1]
    return lines[keep].tolist()


_slot = st.tuples(st.integers(0, 7), st.integers(0, 5000), st.integers(1, 300))


class TestProbeLines:
    @given(
        stride=st.sampled_from((4, 8, 48, 64, 4096, -8, -64)),
        base_line=st.integers(1, 1 << 20),
        base_skew=st.sampled_from((0, 0, 8, 20)),
        window_lines=st.integers(1, 40),
        window_skew=st.sampled_from((0, 0, 24)),
        shared=st.booleans(),
        slot=_slot,
    )
    @settings(max_examples=300, deadline=None)
    def test_strided(self, stride, base_line, base_skew, window_lines,
                     window_skew, shared, slot):
        # Small windows relative to ``count`` so most draws wrap.
        window = window_lines * 64 + window_skew
        gen = StridedAccess(
            base=base_line * 64 + base_skew, stride=stride, window=window,
            tid_offset=0 if shared else window,
        )
        tid, start, count = slot
        assert list(gen.probe_lines(tid, start, count)) == _numpy_collapse(
            gen, tid, start, count)

    @given(window_lines=st.integers(1, 64), seed=st.integers(0, 99),
           shared=st.booleans(), slot=_slot)
    @settings(max_examples=60, deadline=None)
    def test_random(self, window_lines, seed, shared, slot):
        gen = RandomAccess(base=1 << 30, window=window_lines * 64, seed=seed,
                           shared=shared)
        tid, start, count = slot
        assert list(gen.probe_lines(tid, start, count)) == _numpy_collapse(
            gen, tid, start, count)

    @given(window_lines=st.integers(1, 64), seed=st.integers(0, 99),
           slot=_slot)
    @settings(max_examples=60, deadline=None)
    def test_pointer_chase(self, window_lines, seed, slot):
        gen = PointerChaseAccess(base=1 << 31, window=window_lines * 64,
                                 seed=seed)
        tid, start, count = slot
        assert list(gen.probe_lines(tid, start, count)) == _numpy_collapse(
            gen, tid, start, count)
        # Still the stream of a private RandomAccess seeded seed ^ 0x5151.
        twin = RandomAccess(base=1 << 31, window=window_lines * 64,
                            seed=seed ^ 0x5151, shared=False)
        assert (gen.addresses(tid, start, count)
                == twin.addresses(tid, start, count)).all()

    @pytest.mark.parametrize("stride", (4, 8, 64))
    def test_strided_every_small_window_position(self, stride):
        """Every (start, count) over windows of one to four lines, so each
        wrap boundary of the arithmetic path is hit exactly."""
        for window_lines in range(1, 5):
            window = window_lines * 64
            gen = StridedAccess(base=1 << 16, stride=stride, window=window,
                                tid_offset=window)
            per_window = window // stride
            for start in range(2 * per_window):
                for count in range(1, 3 * per_window):
                    got = list(gen.probe_lines(1, start, count))
                    assert got == _numpy_collapse(gen, 1, start, count)

    def test_aligned_strided_takes_the_arithmetic_path(self):
        gen = StridedAccess(base=1 << 20, stride=8, window=4096,
                            tid_offset=4096)
        assert gen.probe_lines(1, 0, 64) == range(
            (1 << 20) // 64 + 64, (1 << 20) // 64 + 72)
