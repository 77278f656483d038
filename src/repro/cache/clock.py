"""CLOCK cache eviction — the paper's prediction-cache policy.

CLOCK approximates LRU with a circular buffer of entries, each carrying a
reference bit.  On a hit the reference bit is set; on eviction the clock
hand sweeps forward, clearing reference bits until it finds an entry whose
bit is already clear, which is the victim.  This gives near-LRU behaviour
with O(1) amortized updates and no per-access reordering, which is why the
paper (citing Corbató's original Multics experiment) uses it for the
prediction cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Tuple

from repro.core.exceptions import CacheError


@dataclass
class _ClockEntry:
    key: Hashable
    value: Any
    # New entries start unreferenced: an entry earns its "second chance" only
    # once it has actually been hit, so a referenced entry always outlives
    # never-accessed ones during a sweep.
    referenced: bool = False


class ClockCache:
    """Fixed-capacity mapping with CLOCK (second-chance) eviction.

    The public surface mirrors a small dict: ``get``, ``put``, ``__contains__``
    and ``__len__``, plus :meth:`probe` for a set of ``(name, suffix)`` keys.
    Eviction only happens on ``put`` when the cache is full.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CacheError("ClockCache capacity must be >= 1")
        self.capacity = capacity
        self._entries: List[_ClockEntry] = []
        self._index: Dict[Hashable, int] = {}
        self._hand = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value, marking the entry as recently referenced."""
        slot = self._index.get(key)
        if slot is None:
            return default
        entry = self._entries[slot]
        entry.referenced = True
        return entry.value

    def probe(
        self, names: Iterable[Hashable], suffix: Hashable, stats: Any
    ) -> Tuple[Dict[Hashable, Any], List[Hashable]]:
        """:meth:`get` the key ``(name, suffix)`` of every name, in one pass.

        Returns ``(found, missing)``: the hits' values by name, and the names
        that missed, in order; adds their counts to ``stats.hits`` and
        ``stats.misses``.  Reference bits are set as one ``get`` per name
        would set them, so later puts evict the same victims.
        """
        index_get = self._index.get
        entries = self._entries
        found: Dict[Hashable, Any] = {}
        missing: List[Hashable] = []
        hits = misses = 0
        for name in names:
            slot = index_get((name, suffix))
            if slot is None:
                missing.append(name)
                misses += 1
            else:
                entry = entries[slot]
                entry.referenced = True
                found[name] = entry.value
                hits += 1
        stats.hits += hits
        stats.misses += misses
        return found, missing

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or update ``key``; evicts via the clock hand when full."""
        slot = self._index.get(key)
        if slot is not None:
            entry = self._entries[slot]
            entry.value = value
            entry.referenced = True
            return
        if len(self._entries) < self.capacity:
            self._index[key] = len(self._entries)
            self._entries.append(_ClockEntry(key=key, value=value))
            return
        victim_slot = self._advance_hand()
        victim = self._entries[victim_slot]
        del self._index[victim.key]
        self._entries[victim_slot] = _ClockEntry(key=key, value=value)
        self._index[key] = victim_slot
        self.evictions += 1

    def _advance_hand(self) -> int:
        """Sweep the clock hand until an unreferenced entry is found."""
        while True:
            entry = self._entries[self._hand]
            slot = self._hand
            self._hand = (self._hand + 1) % self.capacity
            if entry.referenced:
                entry.referenced = False
            else:
                return slot

    def keys(self) -> List[Hashable]:
        """Keys currently resident, in slot order."""
        return [entry.key for entry in self._entries]
