"""Tests for the Clipper prediction cache (paper §4.2)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.clock import ClockCache
from repro.cache.prediction_cache import PredictionCache
from repro.core.exceptions import CacheError
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


class SingleProbes:
    """The reference: one CLOCK ``get`` per model key, counted by hand."""

    def __init__(self, capacity: int) -> None:
        self.clock = ClockCache(capacity) if capacity else None
        self.hits = self.misses = 0

    def fetch(self, model_keys, input_hash):
        predictions, misses = {}, []
        for model_key in model_keys:
            value = None if self.clock is None else self.clock.get((model_key, input_hash))
            if value is None:
                misses.append(model_key)
                self.misses += 1
            else:
                predictions[model_key] = value
                self.hits += 1
        return predictions, misses

    def put(self, model_key, input_hash, value):
        if self.clock is not None:
            self.clock.put((model_key, input_hash), value)


# Nine keys over at most four slots: hits, misses and evictions all common.
_MODEL_KEYS = st.sampled_from(["a:1", "b:1", "c:1"])
_HASHES = st.sampled_from(["h0", "h1", "h2"])
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _MODEL_KEYS, _HASHES),
        st.tuples(st.just("fetch"), st.lists(_MODEL_KEYS, max_size=5), _HASHES),
    ),
    max_size=60,
)


class TestOnePassProbeContract:
    """One ``fetch_by_hash(keys, h)`` leaves what ``len(keys)`` single
    probes leave: the values, the misses in order, the stats, and the
    reference bits that pick the victims of the puts that follow."""

    @given(st.integers(min_value=0, max_value=4), _OPERATIONS)
    def test_one_pass_equals_one_probe_per_key(self, capacity, operations):
        cache, reference = PredictionCache(capacity=capacity), SingleProbes(capacity)
        for step, (kind, keys, input_hash) in enumerate(operations):
            if kind == "put":  # ``keys`` is one model key here
                cache.put_by_hash(keys, [input_hash], [step])
                reference.put(keys, input_hash, step)
                if capacity:
                    # Same resident entries in the same slots: same victims.
                    assert cache._cache.keys() == reference.clock.keys()
                continue
            predictions, misses = cache.fetch_by_hash(keys, input_hash)
            assert (predictions, misses) == reference.fetch(keys, input_hash)
            assert (cache.stats.hits, cache.stats.misses) == (reference.hits, reference.misses)
        assert len(cache) == (len(reference.clock) if capacity else 0)

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
