"""Height-keyed LRU for memoized query answers.

The serving layer's invariant: an answer computed against a fixed chain
height never changes (the chain is append-only and every view is a pure
function of the block prefix).  So the cache key is ``(height, query)``
— a new block *is* the invalidation, because every lookup against the
new tip misses and recomputes, while the LRU quietly ages out answers
for heights nobody asks about anymore.  Nothing is ever explicitly
flushed, and time-travel queries against old heights stay cacheable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

_MISS = object()


class QueryCache:
    """A small LRU with hit/miss accounting."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """The cached value, or the module-private miss sentinel.

        Use :meth:`lookup` for an ``(found, value)`` pair instead of
        comparing against the sentinel.
        """
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def lookup(self, key: Hashable) -> tuple[bool, object]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        value = self.get(key)
        if value is _MISS:
            return False, None
        return True, value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Accounting snapshot for reports and benchmarks."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
