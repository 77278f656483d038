"""The Clipper prediction cache (paper §4.2).

The cache memoises the generic prediction function
``Predict(m: ModelId, x: X) -> y: Y``: entries are keyed by the pair
(model id, input hash).  Two properties from the paper are preserved:

* A **non-blocking fetch API**: a probe returns what is present and never
  waits; the serving engine sends what missed to the batching queues, and
  the dispatchers ``put`` each output when its container responds.
* The cache also **accelerates feedback processing**: when feedback arrives,
  the selection layer needs the predictions each model made for that input.
  A cache hit avoids re-evaluating every model in the ensemble, which is the
  source of the paper's 1.6× feedback-throughput improvement.

Hot-path API
------------
The serving engine hashes each query input **once**
(:meth:`repro.core.types.Query.input_hash`) and uses the by-hash entry
points: :meth:`PredictionCache.fetch_by_hash` probes every selected model in
one locked pass (:meth:`ClockCache.probe`), one hash, one lock acquisition
and *N* dict probes for an ensemble of *N*; :meth:`PredictionCache.put_by_hash`
inserts one model's outputs for a batch of inputs under one lock.
:meth:`fetch` and :meth:`put` hash and delegate.  Hashing happens outside
the lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.clock import ClockCache
from repro.core.exceptions import CacheError
from repro.core.types import ModelId, hash_input


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
    """Per-model prediction cache with CLOCK eviction.

    Parameters
    ----------
    capacity:
        Maximum number of (model, input) entries held; 0 disables caching
        entirely (every lookup misses, every put is dropped).
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 0:
            raise CacheError("capacity must be non-negative")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._cache = ClockCache(capacity) if capacity else None

    def fetch(self, model_id: Union[ModelId, str], x: Any) -> Optional[Any]:
        """Return the cached prediction or ``None``; counts a hit or miss.

        Hashes ``x`` and calls :meth:`fetch_by_hash` with one key.
        """
        model_key = str(model_id)
        predictions, _ = self.fetch_by_hash((model_key,), hash_input(x))
        return predictions.get(model_key)

    def fetch_by_hash(
        self, model_keys: Sequence[str], input_hash: str
    ) -> Tuple[Dict[str, Any], List[str]]:
        """Probe every model key (``str(ModelId)``) for one input, in one
        locked pass: the hot-path entry point.  A bare ``str`` is refused,
        not read as one key per character.

        Returns ``(predictions, misses)``: the cached outputs by model key,
        and the keys that missed, in order.  Outputs, misses, stats and
        reference bits are what one single-key probe per model would leave.
        """
        if type(model_keys) is str:
            raise CacheError("fetch_by_hash takes a sequence of model keys, not a str")
        if self._cache is None:
            misses = list(model_keys)
            with self._lock:
                self.stats.misses += len(misses)
            return {}, misses
        with self._lock:
            return self._cache.probe(model_keys, input_hash, self.stats)

    def put(self, model_id: Union[ModelId, str], x: Any, y: Any) -> None:
        """Insert a model prediction for an input (hashes ``x`` first)."""
        if self._cache is None:
            return
        self.put_by_hash(model_id, (hash_input(x),), (y,))

    def put_by_hash(
        self, model_id: Union[ModelId, str], input_hashes: Sequence[str], outputs: Sequence[Any]
    ) -> None:
        """Insert one model's outputs for a batch of precomputed input hashes,
        aligned, in one locked pass: the hot-path entry point.  A bare
        ``str`` of hashes is refused, as in :meth:`fetch_by_hash`."""
        if type(input_hashes) is str:
            raise CacheError("put_by_hash takes a sequence of input hashes, not a str")
        if self._cache is None:
            return
        model_key = str(model_id)
        put = self._cache.put
        with self._lock:
            for input_hash, output in zip(input_hashes, outputs):
                put((model_key, input_hash), output)
            self.stats.inserts += len(input_hashes)

    def __len__(self) -> int:
        return 0 if self._cache is None else len(self._cache)
