"""A set-associative LRU cache.

Per-set LRU is implemented with insertion-ordered dicts: a hit reinserts the
tag (moving it to the MRU end); on overflow the LRU tag is the first key.
Lines map to sets by ``line % num_sets``, so set counts need not be powers of
two.

The simulator probes caches through :class:`~repro.timing.hierarchy.
MemoryHierarchy`'s batched kernels, which inline the same steps over
:attr:`Cache.sets`; :meth:`Cache.access` is the one-line reference they are
tested against.
"""

from __future__ import annotations

from ..config import CacheConfig


class Cache:
    """One cache level (line-granular, tag-only)."""

    __slots__ = (
        "config", "num_sets", "assoc", "sets", "hits", "misses",
        "evictions", "invalidations",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.sets = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def access(self, line: int) -> bool:
        """Access ``line`` (line-number, i.e. address >> log2(line size)).

        Returns True on hit.  On miss the line is installed, evicting LRU.
        """
        s = self.sets[line % self.num_sets]
        tag = line
        if tag in s:
            del s[tag]
            s[tag] = True
            self.hits += 1
            return True
        self.misses += 1
        s[tag] = True
        if len(s) > self.assoc:
            del s[next(iter(s))]
            self.evictions += 1
        return False

    def contains(self, line: int) -> bool:
        return line in self.sets[line % self.num_sets]

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (coherence invalidation)."""
        s = self.sets[line % self.num_sets]
        if line in s:
            del s[line]
            self.invalidations += 1
            return True
        return False

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.config.name}, sets={self.num_sets}, "
            f"assoc={self.assoc}, hits={self.hits}, misses={self.misses})"
        )
