"""The Clipper prediction cache (paper §4.2).

The cache memoises the generic prediction function
``Predict(m: ModelId, x: X) -> y: Y``: entries are keyed by the pair
(model id, input hash).  Two properties from the paper are preserved:

* A **non-blocking request/fetch API**.  ``request`` registers interest in a
  (model, input) pair and returns whether the value is already present;
  ``fetch`` returns the value if present without side effects.  The serving
  engine calls ``request`` before enqueueing work and ``put`` when the model
  container responds.
* The cache also **accelerates feedback processing**: when feedback arrives,
  the selection layer needs the predictions each model made for that input.
  A cache hit avoids re-evaluating every model in the ensemble, which is the
  source of the paper's 1.6× feedback-throughput improvement.

Hot-path API
------------
The serving engine hashes each query input **once** (via
:meth:`repro.core.types.Query.input_hash`) and talks to the cache through the
by-hash entry points — :meth:`PredictionCache.fetch_by_hash` and
:meth:`PredictionCache.put_by_hash` — so an ensemble of *N* models costs one
hash plus *N* dict probes instead of *N* (or 2·*N*, counting inserts) hash
passes.  :meth:`fetch` and :meth:`put` remain as conveniences that hash and
delegate.  The internal lock is held only around the underlying cache
structure's get/put and the stats update; key construction and hashing happen
outside it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.cache.clock import ClockCache
from repro.cache.lru import LRUCache
from repro.core.exceptions import CacheError
from repro.core.types import ModelId, hash_input

#: Shared miss sentinel — allocated once instead of per lookup.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss counters for one prediction cache."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class PredictionCache:
    """Per-model prediction cache with CLOCK or LRU eviction.

    Parameters
    ----------
    capacity:
        Maximum number of (model, input) entries held; 0 disables caching
        entirely (every lookup misses, every put is dropped).
    eviction:
        ``"clock"`` (paper default) or ``"lru"``.
    """

    def __init__(self, capacity: int = 65536, eviction: str = "clock") -> None:
        if capacity < 0:
            raise CacheError("capacity must be non-negative")
        if eviction not in {"clock", "lru"}:
            raise CacheError("eviction must be 'clock' or 'lru'")
        self.capacity = capacity
        self.eviction = eviction
        self.stats = CacheStats()
        self._lock = threading.Lock()
        if capacity == 0:
            self._cache = None
        elif eviction == "clock":
            self._cache = ClockCache(capacity)
        else:
            self._cache = LRUCache(capacity)

    @property
    def enabled(self) -> bool:
        return self._cache is not None

    def request(self, model_id: Union[ModelId, str], x: Any) -> bool:
        """Non-blocking request: returns True when the prediction is cached.

        Mirrors the paper's ``request`` call, which "notifies the cache to
        compute the prediction if it is not already present and returns a
        boolean indicating whether the entry is in the cache".  The actual
        computation is triggered by the caller when this returns ``False``.
        """
        return self.fetch(model_id, x) is not None

    def fetch(self, model_id: Union[ModelId, str], x: Any) -> Optional[Any]:
        """Return the cached prediction or ``None``; counts a hit or miss.

        Hashes ``x`` and delegates to :meth:`fetch_by_hash`; callers that
        issue several lookups for one input should hash once themselves.
        """
        if self._cache is None:
            with self._lock:
                self.stats.misses += 1
            return None
        return self.fetch_by_hash(model_id, hash_input(x))

    def fetch_by_hash(self, model_id: Union[ModelId, str], input_hash: str) -> Optional[Any]:
        """Fetch using a precomputed input hash (the hot-path entry point)."""
        if self._cache is None:
            with self._lock:
                self.stats.misses += 1
            return None
        key = (str(model_id), input_hash)
        with self._lock:
            value = self._cache.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return value

    def put(self, model_id: Union[ModelId, str], x: Any, y: Any) -> None:
        """Insert a model prediction for an input (hashes ``x`` first)."""
        if self._cache is None:
            return
        self.put_by_hash(model_id, hash_input(x), y)

    def put_by_hash(self, model_id: Union[ModelId, str], input_hash: str, y: Any) -> None:
        """Insert using a precomputed input hash (the hot-path entry point)."""
        if self._cache is None:
            return
        key = (str(model_id), input_hash)
        with self._lock:
            self._cache.put(key, y)
            self.stats.inserts += 1

    def __len__(self) -> int:
        return 0 if self._cache is None else len(self._cache)

    def clear(self) -> None:
        if self._cache is not None:
            with self._lock:
                self._cache.clear()
        self.stats = CacheStats()
