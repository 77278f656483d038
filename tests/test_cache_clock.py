"""Tests for the CLOCK eviction cache."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.clock import ClockCache
from repro.core.exceptions import CacheError


class TestClockCacheBasics:
    def test_put_get_round_trip(self):
        cache = ClockCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_get_missing_returns_default(self):
        cache = ClockCache(4)
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_update_existing_key_keeps_size(self):
        cache = ClockCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            ClockCache(0)


class TestClockEviction:
    def test_never_exceeds_capacity(self):
        cache = ClockCache(8)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 8
        assert cache.evictions == 92

    def test_second_chance_protects_referenced_entries(self):
        cache = ClockCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        # Reference "a" so its bit is set; inserting "c" should evict "b"
        # because the hand clears "a"'s bit first then finds "b" unreferenced.
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert "a" in cache
        assert "c" in cache
        assert "b" not in cache

    def test_hot_key_survives_scan(self):
        cache = ClockCache(4)
        cache.put("hot", 0)
        for i in range(50):
            cache.get("hot")
            cache.put(("cold", i), i)
            cache.get("hot")
        assert "hot" in cache

    def test_keys_reflect_contents(self):
        cache = ClockCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        assert sorted(cache.keys()) == ["a", "b", "c"]


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
        cache = ClockCache(4)
        reference = {}
        for key, is_put in operations:
            if is_put:
                cache.put(key, key.upper())
                reference[key] = key.upper()
            else:
                value = cache.get(key)
                if value is not None:
                    assert value == reference[key]
            assert len(cache) <= 4

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=100))
    def test_clock_and_lru_agree_on_repeated_single_key(self, keys):
        """With capacity >= distinct keys, CLOCK retains everything, as LRU
        (or a plain dict) would."""
        clock = ClockCache(6)
        reference = {}
        for key in keys:
            clock.put(key, key)
            reference[key] = key
        for key in set(keys):
            assert clock.get(key) == reference[key] == key
