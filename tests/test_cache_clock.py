"""Tests for the prediction cache's CLOCK eviction, through its public API."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.prediction_cache import PredictionCache
from repro.core.exceptions import CacheError


def put(cache, digest, value, model_key="m:1"):
    cache.put_by_hash(model_key, [digest], [value])


def get(cache, digest, model_key="m:1"):
    """The cached value, or None on a miss (setting the reference bit on a hit)."""
    return cache.fetch_by_hash([model_key], digest)[0].get(model_key)


def resident(cache, digests, model_key="m:1"):
    """The digests that are cached, read without touching a reference bit."""
    return {d for d in digests if d in cache._index.get(model_key, ())}


class TestClockCacheBasics:
    def test_put_get_round_trip(self):
        cache = PredictionCache(4)
        put(cache, "a", 1)
        assert cache.fetch_by_hash(["m:1"], "a") == ({"m:1": 1}, [])
        assert len(cache) == 1

    def test_missing_key_misses(self):
        cache = PredictionCache(4)
        assert cache.fetch_by_hash(["m:1", "n:1"], "missing") == ({}, ["m:1", "n:1"])

    def test_update_existing_key_keeps_size(self):
        cache = PredictionCache(2)
        put(cache, "a", 1)
        put(cache, "a", 2)
        assert get(cache, "a") == 2
        assert len(cache) == 1 and cache.stats.evictions == 0

    def test_capacity_must_be_non_negative(self):
        with pytest.raises(CacheError):
            PredictionCache(-1)


class TestClockEviction:
    def test_never_exceeds_capacity(self):
        cache = PredictionCache(8)
        for i in range(100):
            put(cache, f"h{i}", i)
        assert len(cache) == 8
        assert cache.stats.evictions == 92

    def test_a_batch_fill_never_exceeds_capacity(self):
        cache = PredictionCache(8)
        cache.put_by_hash("m:1", [f"h{i}" for i in range(100)], range(100))
        assert len(cache) == 8 and cache.stats.evictions == 92
        assert resident(cache, [f"h{i}" for i in range(100)]) == {
            f"h{i}" for i in range(92, 100)
        }

    def test_second_chance_protects_referenced_entries(self):
        cache = PredictionCache(2)
        put(cache, "a", 1)
        put(cache, "b", 2)
        # Reference "a" so its bit is set; inserting "c" should evict "b"
        # because the hand clears "a"'s bit first then finds "b" unreferenced.
        assert get(cache, "a") == 1
        put(cache, "c", 3)
        assert resident(cache, "abc") == {"a", "c"}

    def test_an_update_sets_the_reference_bit(self):
        cache = PredictionCache(2)
        put(cache, "a", 1)
        put(cache, "b", 2)
        put(cache, "a", 3)  # no probe: the update alone earns the second chance
        put(cache, "c", 4)
        assert resident(cache, "abc") == {"a", "c"}

    def test_hot_key_survives_scan(self):
        cache = PredictionCache(4)
        put(cache, "hot", 0)
        for i in range(50):
            get(cache, "hot")
            put(cache, f"cold{i}", i)
            get(cache, "hot")
        assert get(cache, "hot") == 0

    def test_entries_of_other_models_are_victims_too(self):
        cache = PredictionCache(2)
        put(cache, "h", 1, model_key="a:1")
        put(cache, "h", 2, model_key="b:1")
        put(cache, "h", 3, model_key="c:1")
        assert cache.fetch_by_hash(["a:1", "b:1", "c:1"], "h") == (
            {"b:1": 2, "c:1": 3}, ["a:1"]
        )


class TestDrop:
    def test_a_dropped_model_is_never_served_and_its_slots_are_reused(self):
        cache = PredictionCache(4)
        cache.put_by_hash("a:1", ["h0", "h1"], [0, 1])
        cache.put_by_hash("b:1", ["h0", "h1"], [2, 3])
        cache.drop("a:1")
        assert len(cache) == 2
        assert cache.fetch_by_hash(["a:1", "b:1"], "h0") == ({"b:1": 2}, ["a:1"])
        # The hand is back at slot 0, a's first: the two new entries take a's
        # slots, and b's entries (one referenced, one not) are not evicted.
        cache.put_by_hash("c:1", ["h0", "h1"], [4, 5])
        assert cache.stats.evictions == 0 and len(cache) == 4
        assert cache._models == ["c:1", "c:1", "b:1", "b:1"]

    def test_dropping_an_unknown_model_is_a_no_op(self):
        cache = PredictionCache(2)
        put(cache, "h", 1)
        cache.drop("other:1")
        PredictionCache(0).drop("other:1")
        assert get(cache, "h") == 1 and len(cache) == 1


class TestClockVsLRUProperty:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdefgh"), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    def test_clock_contents_always_bounded_and_consistent(self, operations):
        """CLOCK never exceeds capacity and always returns what was stored."""
        cache = PredictionCache(4)
        reference = {}
        for key, is_put in operations:
            if is_put:
                put(cache, key, key.upper())
                reference[key] = key.upper()
            else:
                value = get(cache, key)
                if value is not None:
                    assert value == reference[key]
            assert len(cache) <= 4

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=100))
    def test_clock_and_lru_agree_on_repeated_single_key(self, keys):
        """With capacity >= distinct keys, CLOCK retains everything, as LRU
        (or a plain dict) would."""
        cache = PredictionCache(6)
        for key in keys:
            put(cache, key, key)
        for key in set(keys):
            assert get(cache, key) == key
        assert cache.stats.evictions == 0
