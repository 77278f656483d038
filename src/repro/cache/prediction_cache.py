"""The Clipper prediction cache (paper §4.2), a CLOCK table.

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

Eviction is CLOCK (second chance), which the paper uses for its near-LRU
behaviour with no per-access reordering: every slot carries a reference
bit, set by a hit or an update and left clear for a new entry; to make
room the hand sweeps forward clearing set bits, takes the first slot whose
bit is clear and moves past it.  The table is flat: parallel lists of model
key, digest and value, a ``bytearray`` of reference bits, and an index by
model key, then digest, so a full cache holds no Python object per entry
and no key tuple is built per probe or per fill.

On the hot path the serving engine hashes each query input **once**
(``query.input_hash(cache.digest)``, outside the lock) and uses the by-hash
entry points: :meth:`PredictionCache.fetch_by_hash` probes every selected
model in one locked pass (one hash, one lock acquisition, no call per model);
:meth:`PredictionCache.put_by_hash` fills one model's outputs for a batch of
inputs in one locked pass with no call per entry.  :meth:`fetch` and
:meth:`put` hash and delegate.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.exceptions import CacheError
from repro.core.types import ModelId, _tagged, hash_input

#: Bound on the bytes of the digest memo's keys, per cache.
DIGEST_MEMO_BYTES = 32 << 20


@dataclass
class CacheStats:
    """Hit/miss/insert/eviction counters for one prediction cache."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PredictionCache:
    """Per-model prediction cache with CLOCK eviction.

    A recurring input's SHA-1 is most of a hit's cost, so :meth:`digest`
    memoises it: a dict from a copy of the bytes ``hash_input`` digests to
    their digest, admitting an input once its digest is resident in the
    table (it recurred; unique inputs never build a key), its keys' bytes
    bounded by :data:`DIGEST_MEMO_BYTES` (read at construction) and cleared
    when the next key would pass the bound.

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
        # One slot per entry; an empty or dropped slot holds None and a clear
        # bit, so the hand takes it when it gets there.
        self._models: List[Optional[str]] = [None] * capacity
        self._digests: List[Optional[str]] = [None] * capacity
        self._values: List[Any] = [None] * capacity
        self._referenced = bytearray(capacity)
        #: Slot by digest, by model key.
        self._index: Dict[str, Dict[str, int]] = {}
        self._hand = 0
        #: Digest by the bytes it digests, for inputs that recurred.
        self._memo: Dict[bytes, str] = {}
        self._memo_bytes = 0
        self._memo_bound = DIGEST_MEMO_BYTES

    def digest(self, x: Any) -> str:
        """``hash_input(x)``, read from the memo when it holds ``x``: the
        SHA-1 of the frame the wire carries for ``x`` (the memo's keys are
        those frames), so equal digests mean every container is sent equal
        bytes, and an input a predict request could not carry raises
        :class:`~repro.core.exceptions.ValidationError` here, memo warm or
        cold.  The memo is read without the lock; the residency probe and
        admission hold it, so a concurrent ``put_by_hash`` cannot change the
        index under the probe, and a key maps to its own digest, so an input
        changed during the call cannot poison the memo."""
        memo = self._memo
        if memo:
            digest = memo.get(_tagged(x))
            if digest is not None:
                return digest
        digest = hash_input(x)
        with self._lock:
            for slots in self._index.values():
                if digest in slots:  # x recurred: admit it
                    key = _tagged(x)
                    size, bound = len(key), self._memo_bound
                    if size <= bound:
                        if self._memo_bytes + size > bound:
                            memo.clear()
                            self._memo_bytes = 0
                        memo[key] = hashlib.sha1(key).hexdigest()
                        self._memo_bytes += size
                    break
        return digest

    def fetch(self, model_id: Union[ModelId, str], x: Any) -> Optional[Any]:
        """The cached prediction or ``None``: one :meth:`fetch_by_hash` key."""
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
        index, values, referenced = self._index, self._values, self._referenced
        predictions: Dict[str, Any] = {}
        misses: List[str] = []
        hits = 0
        with self._lock:
            for model_key in model_keys:
                if model_key in index:
                    slots = index[model_key]
                    if input_hash in slots:
                        slot = slots[input_hash]
                        referenced[slot] = 1
                        predictions[model_key] = values[slot]
                        hits += 1
                        continue
                misses.append(model_key)
            self.stats.hits += hits
            self.stats.misses += len(misses)
        return predictions, misses

    def put(self, model_id: Union[ModelId, str], x: Any, y: Any) -> None:
        """Insert a model prediction for an input (hashes ``x`` first)."""
        if self.capacity:
            self.put_by_hash(model_id, (hash_input(x),), (y,))

    def put_by_hash(
        self, model_id: Union[ModelId, str], input_hashes: Sequence[str], outputs: Sequence[Any]
    ) -> None:
        """Insert one model's outputs for a batch of precomputed input hashes,
        aligned, in one locked pass: the hot-path entry point.  A bare
        ``str`` of hashes is refused, as in :meth:`fetch_by_hash`.

        Each entry leaves what one put would: a resident key takes the new
        value and a set bit; a new one takes the hand's victim slot.
        """
        if type(input_hashes) is str:
            raise CacheError("put_by_hash takes a sequence of input hashes, not a str")
        capacity = self.capacity
        if not capacity:
            return
        model_key = str(model_id)
        index, models, digests = self._index, self._models, self._digests
        values, referenced = self._values, self._referenced
        evictions = 0
        with self._lock:
            slots = index.setdefault(model_key, {})
            hand = self._hand
            for digest, output in zip(input_hashes, outputs):
                if digest in slots:
                    slot = slots[digest]
                    values[slot] = output
                    referenced[slot] = 1
                    continue
                while referenced[hand]:
                    referenced[hand] = 0
                    hand = (hand + 1) % capacity
                owner = models[hand]
                if owner is not None:
                    del index[owner][digests[hand]]
                    evictions += 1
                models[hand], digests[hand], values[hand] = model_key, digest, output
                slots[digest] = hand
                hand = (hand + 1) % capacity
            self._hand = hand
            self.stats.inserts += len(input_hashes)
            self.stats.evictions += evictions

    def drop(self, model_key: str) -> None:
        """Drop every entry of one model key (``str(ModelId)``): its slots
        hold nothing, are never served, and are reused when the hand
        reaches them."""
        with self._lock:
            for slot in self._index.pop(model_key, {}).values():
                self._models[slot] = self._digests[slot] = self._values[slot] = None
                self._referenced[slot] = 0

    def __len__(self) -> int:
        """Live entries (a dropped slot is not one)."""
        with self._lock:
            return sum(map(len, self._index.values()))
