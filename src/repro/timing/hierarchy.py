"""The cache hierarchy: private L1-I/L1-D/L2 per core, shared L3.

Sharing is tracked by a presence directory over private caches: a write
invalidates every other core's private copies, so producer-consumer and
falsely-shared lines (the sync page!) bounce between cores with L3-latency
transfers — the behaviour that couples thread placement to memory timing.

The probe chain is one batched kernel per path: :meth:`~MemoryHierarchy.
access_lines` walks a whole line sequence through L1-D→L2→L3 and
:meth:`~MemoryHierarchy.fetch_lines` through L1-I→L3.  Each keeps the
hit/miss/eviction counters of the caches it probes in locals and writes them
back once per call; counters are only read between calls (region
snapshots), so this is exact.  The per-line LRU step is the same as
:meth:`Cache.access`, which stays as the reference the kernel is tested
against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..config import SystemConfig
from .cache import Cache

#: Hit levels returned by :meth:`MemoryHierarchy.access`.
L1 = 1
L2 = 2
L3 = 3
MEM = 4


class MemoryHierarchy:
    """All caches of the simulated system plus a presence directory."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        n = config.num_cores
        self.l1i = [Cache(config.l1i) for _ in range(n)]
        self.l1d = [Cache(config.l1d) for _ in range(n)]
        self.l2 = [Cache(config.l2) for _ in range(n)]
        self.l3 = Cache(config.l3)
        #: line -> bitmask of the cores that may hold a private copy.
        self._directory: Dict[int, int] = {}
        mem = config.memory
        self._latency = {
            L1: config.l1d.hit_latency,
            L2: mem.l2_latency,
            L3: mem.l3_latency,
            MEM: mem.dram_latency,
        }

    def latency(self, level: int) -> int:
        return self._latency[level]

    def access(self, core: int, line: int, is_write: bool) -> int:
        """One data access; returns the level that served it."""
        l2, l3, mem = self.access_lines(core, (line,), is_write)
        return L2 if l2 else L3 if l3 else MEM if mem else L1

    def fetch(self, core: int, line: int) -> int:
        """One instruction fetch; returns the level that served it."""
        l3, mem = self.fetch_lines(core, (line,))
        return L3 if l3 else MEM if mem else L1

    def access_lines(
        self, core: int, lines: Iterable[int], is_write: bool
    ) -> Tuple[int, int, int]:
        """Data accesses to ``lines`` in order, through L1-D→L2→L3.

        Installs each line in the core's private caches and maintains the
        presence directory (writes invalidate remote private copies).
        Returns how many lines were served by L2, by L3 and by memory;
        the rest hit in L1-D.
        """
        l1 = self.l1d[core]
        l2 = self.l2[core]
        l3 = self.l3
        l1_sets, l1_n, l1_assoc = l1.sets, l1.num_sets, l1.assoc
        l2_sets, l2_n, l2_assoc = l2.sets, l2.num_sets, l2.assoc
        l3_sets, l3_n, l3_assoc = l3.sets, l3.num_sets, l3.assoc
        directory = self._directory
        bit = 1 << core
        others_mask = ~bit
        l1_hits = l1_misses = l1_evictions = 0
        l2_hits = l2_misses = l2_evictions = 0
        l3_hits = l3_misses = l3_evictions = 0
        for line in lines:
            sharers = directory.get(line, 0)
            others = sharers & others_mask if is_write else 0
            if others:
                self._invalidate_remote(line, others)
                directory[line] = bit
            elif not sharers & bit:
                directory[line] = sharers | bit
            s = l1_sets[line % l1_n]
            if line in s:
                del s[line]
                s[line] = True
                l1_hits += 1
                continue
            l1_misses += 1
            s[line] = True
            if len(s) > l1_assoc:
                del s[next(iter(s))]
                l1_evictions += 1
            s = l2_sets[line % l2_n]
            if line in s:
                del s[line]
                s[line] = True
                l2_hits += 1
                continue
            l2_misses += 1
            s[line] = True
            if len(s) > l2_assoc:
                del s[next(iter(s))]
                l2_evictions += 1
            s = l3_sets[line % l3_n]
            if line in s:
                del s[line]
                s[line] = True
                l3_hits += 1
                continue
            l3_misses += 1
            s[line] = True
            if len(s) > l3_assoc:
                del s[next(iter(s))]
                l3_evictions += 1
        l1.hits += l1_hits
        l1.misses += l1_misses
        l1.evictions += l1_evictions
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.evictions += l2_evictions
        l3.hits += l3_hits
        l3.misses += l3_misses
        l3.evictions += l3_evictions
        return l2_hits, l3_hits, l3_misses

    def fetch_lines(self, core: int, lines: Iterable[int]) -> Tuple[int, int]:
        """Instruction fetches of ``lines`` in order, through L1-I→L3.

        Returns how many lines were served by L3 and by memory; the rest
        hit in L1-I.
        """
        l1 = self.l1i[core]
        l3 = self.l3
        l1_sets, l1_n, l1_assoc = l1.sets, l1.num_sets, l1.assoc
        l3_sets, l3_n, l3_assoc = l3.sets, l3.num_sets, l3.assoc
        l1_hits = l1_misses = l1_evictions = 0
        l3_hits = l3_misses = l3_evictions = 0
        for line in lines:
            s = l1_sets[line % l1_n]
            if line in s:
                del s[line]
                s[line] = True
                l1_hits += 1
                continue
            l1_misses += 1
            s[line] = True
            if len(s) > l1_assoc:
                del s[next(iter(s))]
                l1_evictions += 1
            s = l3_sets[line % l3_n]
            if line in s:
                del s[line]
                s[line] = True
                l3_hits += 1
                continue
            l3_misses += 1
            s[line] = True
            if len(s) > l3_assoc:
                del s[next(iter(s))]
                l3_evictions += 1
        l1.hits += l1_hits
        l1.misses += l1_misses
        l1.evictions += l1_evictions
        l3.hits += l3_hits
        l3.misses += l3_misses
        l3.evictions += l3_evictions
        return l3_hits, l3_misses

    def _invalidate_remote(self, line: int, cores: int) -> None:
        """Drop ``line`` from the private caches of every core in the
        ``cores`` bitmask."""
        while cores:
            low = cores & -cores
            other = low.bit_length() - 1
            self.l1d[other].invalidate(line)
            self.l2[other].invalidate(line)
            cores ^= low

    # -- statistics -----------------------------------------------------------

    def core_stats(self, core: int) -> Dict[str, int]:
        return {
            "l1i_misses": self.l1i[core].misses,
            "l1d_accesses": self.l1d[core].accesses,
            "l1d_misses": self.l1d[core].misses,
            "l2_misses": self.l2[core].misses,
        }

    @property
    def l3_misses(self) -> int:
        return self.l3.misses
