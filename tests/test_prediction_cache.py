"""Tests for the Clipper prediction cache (paper §4.2)."""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cache import prediction_cache as cache_module
from repro.cache.prediction_cache import PredictionCache
from repro.core.exceptions import CacheError, ValidationError
from repro.core.types import ModelId, hash_input


class TestPredictionCacheBasics:
    def test_fetch_returns_cached_prediction(self):
        cache = PredictionCache(capacity=16)
        x = np.arange(3.0)
        cache.put(ModelId("svm"), x, "label")
        assert cache.fetch(ModelId("svm"), x) == "label"

    def test_fetch_miss_returns_none(self):
        cache = PredictionCache(capacity=16)
        assert cache.fetch("svm:1", np.zeros(2)) is None

    def test_entries_are_per_model(self):
        cache = PredictionCache(capacity=16)
        x = np.ones(4)
        cache.put("svm:1", x, 1)
        cache.put("forest:1", x, 2)
        assert cache.fetch("svm:1", x) == 1
        assert cache.fetch("forest:1", x) == 2

    def test_fetch_by_hash_matches_fetch(self):
        cache = PredictionCache(capacity=16)
        x = np.ones(4)
        cache.put("svm:1", x, 9)
        predictions, _ = cache.fetch_by_hash(["svm:1"], hash_input(x))
        assert predictions["svm:1"] == 9

    def test_put_by_hash(self):
        cache = PredictionCache(capacity=16)
        cache.put_by_hash("svm:1", ["deadbeef"], [3])
        predictions, _ = cache.fetch_by_hash(["svm:1"], "deadbeef")
        assert predictions["svm:1"] == 3

    def test_put_by_hash_fills_a_batch_in_one_locked_pass(self):
        cache = PredictionCache(capacity=16)
        cache.put_by_hash(ModelId("svm", 1), ["h0", "h1", "h2"], [0, None, 2])
        assert cache.stats.inserts == 3 and len(cache) == 3
        for input_hash, output in (("h0", 0), ("h1", None), ("h2", 2)):
            assert cache.fetch_by_hash(["svm:1"], input_hash) == ({"svm:1": output}, [])

    def test_model_id_and_string_are_equivalent_keys(self):
        cache = PredictionCache(capacity=16)
        x = np.ones(2)
        cache.put(ModelId("svm", 1), x, 5)
        assert cache.fetch("svm:1", x) == 5


class TestPredictionCacheStats:
    def test_hit_and_miss_counts(self):
        cache = PredictionCache(capacity=16)
        x = np.ones(4)
        cache.fetch("svm:1", x)
        cache.put("svm:1", x, 1)
        cache.fetch("svm:1", x)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.inserts == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_with_no_lookups(self):
        assert PredictionCache(capacity=4).stats.hit_rate == 0.0


class TestDisabledCache:
    def test_zero_capacity_disables_caching(self):
        cache = PredictionCache(capacity=0)
        x = np.ones(3)
        cache.put("m", x, 1)
        assert cache.fetch("m", x) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            PredictionCache(capacity=-1)


class TestEvictionIntegration:
    def test_capacity_is_respected(self):
        cache = PredictionCache(capacity=8)
        for i in range(64):
            cache.put("m", np.array([float(i)]), i)
        assert len(cache) <= 8

    def test_frequent_query_stays_resident_under_churn(self):
        cache = PredictionCache(capacity=8)
        hot = np.array([123.0])
        cache.put("m", hot, "hot")
        for i in range(100):
            assert cache.fetch("m", hot) == "hot"
            cache.put("m", np.array([float(i)]), i)
        assert cache.fetch("m", hot) == "hot"


class TestAFullCacheHoldsNoObjectPerEntry:
    def test_a_full_cache_adds_a_constant_number_of_tracked_objects(self):
        digests = [f"{i:040x}" for i in range(65536)]
        gc.collect()
        before = len(gc.get_objects())
        cache = PredictionCache(capacity=65536)
        cache.put_by_hash("m:1", digests, range(65536))  # one call fills it
        gc.collect()
        assert len(cache) == 65536
        # The table's lists and dicts; an object per entry would add 65,536.
        assert len(gc.get_objects()) - before <= 16


_MISS = object()


class ReferenceClock:
    """The reference twin: a plain CLOCK with one object per entry, one get
    or put at a time, a list that grows to capacity, and a dropped entry
    left as a ``None`` hole the hand takes."""

    class Entry:
        def __init__(self, key, value):
            self.key, self.value, self.referenced = key, value, False

    def __init__(self, capacity: int) -> None:
        self.capacity, self.entries, self.index, self.hand = capacity, [], {}, 0
        self.hits = self.misses = self.inserts = self.evictions = 0

    def get(self, key):
        if key not in self.index:
            self.misses += 1
            return _MISS
        entry = self.entries[self.index[key]]
        entry.referenced, self.hits = True, self.hits + 1
        return entry.value

    def put(self, key, value):
        if not self.capacity:
            return
        self.inserts += 1
        if key in self.index:
            entry = self.entries[self.index[key]]
            entry.value, entry.referenced = value, True
            return
        if len(self.entries) < self.capacity:
            slot = len(self.entries)
            self.entries.append(None)
        else:
            while self.entries[self.hand] is not None and self.entries[self.hand].referenced:
                self.entries[self.hand].referenced = False
                self.hand = (self.hand + 1) % self.capacity
            slot, self.hand = self.hand, (self.hand + 1) % self.capacity
            if self.entries[slot] is not None:
                del self.index[self.entries[slot].key]
                self.evictions += 1
        self.entries[slot], self.index[key] = self.Entry(key, value), slot

    def drop(self, model_key):
        for slot, entry in enumerate(self.entries):
            if entry is not None and entry.key[0] == model_key:
                del self.index[entry.key]
                self.entries[slot] = None

    def resident(self):
        return [
            (slot, *e.key, e.value) for slot, e in enumerate(self.entries) if e is not None
        ]


def resident(cache):
    """``(slot, model key, digest, value)`` of every live slot, in slot order."""
    table = zip(cache._models, cache._digests, cache._values)
    return [(slot, m, d, v) for slot, (m, d, v) in enumerate(table) if m is not None]


# Nine keys over at most four slots: hits, misses and evictions all common.
_MODEL_KEYS = st.sampled_from(["a:1", "b:1", "c:1"])
_HASHES = st.sampled_from(["h0", "h1", "h2"])
_OPERATIONS = st.lists(
    st.one_of(
        # a batch fill: several digests, duplicates and resident keys among them
        st.tuples(st.just("put"), _MODEL_KEYS, st.lists(_HASHES, max_size=6)),
        st.tuples(st.just("fetch"), st.lists(_MODEL_KEYS, max_size=5), _HASHES),
        st.tuples(st.just("drop"), _MODEL_KEYS, st.just(None)),
    ),
    max_size=60,
)


class TestOnePassProbeContract:
    """The flat table is held to :class:`ReferenceClock`: one
    ``fetch_by_hash(keys, h)`` leaves what ``len(keys)`` single gets leave,
    one ``put_by_hash`` what one put per entry leaves, one ``drop`` what
    dropping each entry leaves.  After every step the answers, the stats and
    the live slots (which pick the victims of the puts that follow) agree."""

    @given(st.integers(min_value=0, max_value=4), _OPERATIONS)
    def test_one_pass_equals_one_probe_per_key(self, capacity, operations):
        cache, reference = PredictionCache(capacity=capacity), ReferenceClock(capacity)
        for step, (kind, keys, hashes) in enumerate(operations):
            if kind == "put":  # ``keys`` is one model key here
                outputs = [(step, i) for i in range(len(hashes))]
                cache.put_by_hash(keys, hashes, outputs)
                for input_hash, output in zip(hashes, outputs):
                    reference.put((keys, input_hash), output)
            elif kind == "drop":
                cache.drop(keys)
                reference.drop(keys)
            else:
                answers = [(key, reference.get((key, hashes))) for key in keys]
                assert cache.fetch_by_hash(keys, hashes) == (
                    {key: value for key, value in answers if value is not _MISS},
                    [key for key, value in answers if value is _MISS],
                )
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.inserts, stats.evictions) == (
                reference.hits, reference.misses, reference.inserts, reference.evictions
            )
            assert resident(cache) == reference.resident()
            assert len(cache) == len(reference.index)

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_empty_key_list_is_a_no_op(self, capacity):
        cache = PredictionCache(capacity=capacity)
        assert cache.fetch_by_hash([], "h") == ({}, [])
        assert cache.stats.lookups == 0

    def test_disabled_cache_misses_every_key_in_order(self):
        cache = PredictionCache(capacity=0)
        cache.put_by_hash("a:1", ["h"], [1])
        assert cache.fetch_by_hash(["b:1", "a:1", "b:1"], "h") == ({}, ["b:1", "a:1", "b:1"])
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)

    def test_a_cached_none_is_served_as_a_hit(self):
        # What evaluate hands back for a model that answered None.
        cache = PredictionCache(capacity=4)
        cache.put_by_hash("a:1", ["h"], [None])
        assert cache.fetch_by_hash(["a:1"], "h") == ({"a:1": None}, [])
        assert cache.stats.hits == 1

    def test_a_bare_str_is_refused_not_read_per_character(self):
        cache = PredictionCache(capacity=4)
        cache.put_by_hash("a", ["h"], [1])
        with pytest.raises(CacheError):
            cache.fetch_by_hash("a", "h")
        with pytest.raises(CacheError):
            cache.put_by_hash("a", "h", [2])
        assert cache.stats.lookups == 0 and cache.stats.inserts == 1


def _layouts(a):
    """``a`` and arrays over its bytes in other layouts: non-contiguous,
    Fortran-ordered, byte-swapped, reshaped and reinterpreted.  The last two
    share ``a``'s buffer bytes exactly, so only the layout head tells them
    apart."""
    out = [a, np.asfortranarray(a), a.astype(a.dtype.newbyteorder())]
    if a.ndim:
        out.append(a[::-1] if a.ndim == 1 else a.T)
        out.append(a[::2])
    if a.size:
        out.append(a.reshape(-1))
        out.append(a.reshape(-1).view(np.uint8))
    return out


_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.int8, np.bool_, ">f8", ">i4"]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
).map(_layouts)
_SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=8),
    st.binary(max_size=8),
)
_OTHERS = st.lists(
    st.one_of(
        _SCALARS,
        st.lists(_SCALARS, max_size=4),
        st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3),
        st.sets(st.integers(-3, 3)),
        st.frozensets(st.text(max_size=3), max_size=3),
    ),
    min_size=1,
    max_size=6,
)
#: (input index, operation) pairs over a small pool, so inputs recur.
_STEPS = st.lists(
    st.tuples(st.integers(0, 63), st.sampled_from(["digest", "put", "copy", "mutate"])),
    min_size=10,
    max_size=80,
)


def _mutate(x):
    """Change ``x`` in place, if it can be changed."""
    if isinstance(x, np.ndarray):
        if x.size:
            first = (0,) * x.ndim
            x[first] = 0 if x[first] else 1
    elif isinstance(x, list):
        x.append(len(x))
    elif isinstance(x, (dict, set)):
        x.update({len(x) + 100: None} if isinstance(x, dict) else {len(x) + 100})


def _copy(x):
    return x.copy() if hasattr(x, "copy") else x


def assert_the_memo_keeps_its_contract(cache):
    """Every resident key digests to the digest it maps to (a key that is
    not a copy of the digested bytes, or lacks their layout head, cannot),
    and the keys' bytes are counted exactly and within the bound."""
    for key, digest in cache._memo.items():
        assert hashlib.sha1(key).hexdigest() == digest
    assert cache._memo_bytes == sum(map(len, cache._memo)) <= cache._memo_bound


def _digest_or_refusal(digest, x):
    try:
        return digest(x)
    except ValidationError:
        return ValidationError


class TestDigestIsHashInput:
    """``PredictionCache.digest`` is held to :func:`hash_input`, its
    reference twin, on every call: equal, or both refuse.  ``put_by_hash``
    is interleaved so that inputs become resident and the memo admits and
    serves them; a bound of 64 bytes makes it overflow and clear."""

    @given(_ARRAYS, _OTHERS, _STEPS)
    def test_every_digest_is_hash_input_or_both_refuse(self, arrays, others, steps):
        pool = arrays + others
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cache_module, "DIGEST_MEMO_BYTES", 64)
            cache = PredictionCache(capacity=8)
        for index, operation in steps:
            x = pool[index % len(pool)]
            if operation == "put":
                digest = _digest_or_refusal(hash_input, x)
                if digest is not ValidationError:
                    cache.put_by_hash("m:1", [digest], [index])
            elif operation == "copy":
                x = _copy(x)
            elif operation == "mutate":
                _mutate(x)
            for _ in range(2):  # a resident input is admitted, then served
                assert _digest_or_refusal(cache.digest, x) == _digest_or_refusal(hash_input, x)
                assert_the_memo_keeps_its_contract(cache)

    def test_a_recurring_input_is_digested_from_the_memo(self, monkeypatch):
        digested = []
        monkeypatch.setattr(
            cache_module, "hash_input", lambda x: digested.append(x) or hash_input(x)
        )
        cache = PredictionCache(capacity=8)
        x = np.arange(784.0)
        digest = cache.digest(x)  # not resident: computed, not admitted
        assert cache._memo == {}
        cache.put_by_hash("m:1", [digest], [1])
        assert cache.digest(x.copy()) == digest  # resident: admitted
        assert list(cache._memo.values()) == [digest] and len(digested) == 2
        for y in (x, x.copy()):
            assert cache.digest(y) == digest
        assert len(digested) == 2  # served without digesting again
        x[0] = -1.0  # mutated in place after it was admitted
        assert cache.digest(x) == hash_input(x) != digest

    def test_an_input_changed_during_admission_cannot_poison_the_memo(self, monkeypatch):
        def then_changed(x):
            digest = hash_input(x)
            x[0] += 1.0  # as another thread might, between digest and key
            return digest

        cache = PredictionCache(capacity=8)
        x = np.arange(8.0)
        cache.put_by_hash("m:1", [hash_input(x)], [1])
        monkeypatch.setattr(cache_module, "hash_input", then_changed)
        cache.digest(x)  # admits x's bytes as they are after the change
        monkeypatch.undo()
        assert_the_memo_keeps_its_contract(cache)
        assert cache.digest(x) == hash_input(x)

    def test_the_memo_holds_no_reference_to_an_input(self):
        """A key is a copy: admitting a row keeps neither it nor the
        matrix it views alive, so the bound counts all the memo holds."""
        cache = PredictionCache(capacity=8)
        matrix = np.random.default_rng(0).random((8, 8))  # owns its buffer
        row = matrix[3]
        cache.put_by_hash("m:1", [hash_input(row)], [1])
        for _ in range(3):  # computed, admitted, served
            assert cache.digest(row) == hash_input(row)
        assert len(cache._memo) == 1
        gone = weakref.ref(matrix)
        del matrix, row
        assert gone() is None

    def test_an_input_that_never_recurs_builds_no_key(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_tagged", None)  # would fail if called
        cache = PredictionCache(capacity=8)
        for i in range(20):
            digest = cache.digest(np.full(16, float(i)))
            cache.put_by_hash("m:1", [digest], [i])
        assert cache._memo == {}

    def test_the_keys_bytes_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(cache_module, "DIGEST_MEMO_BYTES", 1000)
        cache = PredictionCache(capacity=64)
        sizes = [10, 40, 100, 7, 60, 125, 3, 90, 200] * 3
        inputs = [np.zeros(size, np.float64) + i for i, size in enumerate(sizes)]
        inputs.append(np.zeros(126))  # its key is over the bound: never admitted
        for x in inputs:
            cache.put_by_hash("m:1", [hash_input(x)], [0])
            before = dict(cache._memo)
            assert cache.digest(x) == hash_input(x)
            assert_the_memo_keeps_its_contract(cache)
            if x.nbytes > 1000:
                assert cache._memo == before
        assert 0 < cache._memo_bytes <= 1000
