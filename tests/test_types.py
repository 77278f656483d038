"""Tests for the core value types (Query, Prediction, Feedback, ModelId)."""

import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import ValidationError
from repro.core.types import (
    Feedback,
    ModelId,
    Prediction,
    Query,
    hash_input,
)


class TestModelId:
    def test_str_includes_name_and_version(self):
        assert str(ModelId("svm", 3)) == "svm:3"

    def test_default_version_is_one(self):
        assert ModelId("svm").version == 1

    def test_parse_round_trips(self):
        model_id = ModelId("forest", 7)
        assert ModelId.parse(str(model_id)) == model_id

    def test_parse_without_version_defaults_to_one(self):
        assert ModelId.parse("plain-name") == ModelId("plain-name", 1)

    def test_is_hashable_and_usable_as_dict_key(self):
        lookup = {ModelId("a", 1): "x", ModelId("a", 2): "y"}
        assert lookup[ModelId("a", 2)] == "y"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ModelId("a").name = "b"


class TestHashInput:
    def test_identical_arrays_hash_equal(self):
        x = np.arange(10, dtype=np.float64)
        assert hash_input(x) == hash_input(x.copy())

    def test_different_values_hash_differently(self):
        x = np.arange(10, dtype=np.float64)
        y = x.copy()
        y[0] += 1
        assert hash_input(x) != hash_input(y)

    def test_dtype_is_part_of_the_hash(self):
        x = np.arange(10, dtype=np.float64)
        assert hash_input(x) != hash_input(x.astype(np.float32))

    def test_shape_is_part_of_the_hash(self):
        x = np.arange(12, dtype=np.float64)
        assert hash_input(x) != hash_input(x.reshape(3, 4))

    def test_strings_bytes_and_lists_supported(self):
        assert hash_input("abc") == hash_input("abc")
        assert hash_input(b"abc") == hash_input(b"abc")
        assert hash_input([1, 2, 3]) == hash_input([1, 2, 3])
        assert hash_input([1, 2, 3]) != hash_input([1, 2, 4])

    def test_non_contiguous_array_matches_contiguous_copy(self):
        x = np.arange(20, dtype=np.float64).reshape(4, 5)
        strided = x[:, ::2]
        assert hash_input(strided) == hash_input(np.ascontiguousarray(strided))

    # Equal hash must mean equal input, kind included: the digest is the
    # prediction-cache key of an application that declares no input type.

    @pytest.mark.parametrize(
        "a, b",
        [
            ("ab", b"ab"),
            (1, "1"),
            (np.float64(1.5), repr(np.float64(1.5))),
            (["ab"], hash_input("ab")),
            ([["a"]], ["a"]),
            (["ab", "c"], ["a", "bc"]),
            ([b"ab"], ["ab"]),
        ],
    )
    def test_kinds_do_not_collide(self, a, b):
        assert hash_input(a) != hash_input(b)

    def test_array_does_not_collide_with_the_bytes_it_is_hashed_over(self):
        x = np.arange(4, dtype=np.float64)
        layout = f"{x.shape}{x.dtype}".encode()
        for head in (b"", layout, b"a" + len(layout).to_bytes(4, "big") + layout):
            assert hash_input(x) != hash_input(head + x.tobytes())
        assert hash_input([x]) != hash_input(x)

    def test_array_inside_a_list_hashes_by_layout_and_content(self):
        x = np.arange(6, dtype=np.float64)
        assert hash_input([x]) == hash_input([x.copy()])
        assert hash_input([x]) != hash_input([x.reshape(2, 3)])
        assert hash_input([x]) != hash_input([x.astype(np.float32)])

    def test_lists_and_tuples_hash_alike(self):
        assert hash_input([1, 2]) == hash_input((1, 2))
        assert hash_input(bytearray(b"ab")) == hash_input(b"ab")


class Plain:
    """A class with the default ``repr``: its address, not its content."""

    def __init__(self, value):
        self.value = value


def _one_hot(length, index, value):
    array = np.zeros(length)
    array[index % length] = value
    return array


#: Dicts of arrays that differ in one element, often deep inside an array too
#: long for numpy's ``repr`` to print in full.
_DICTS_OF_ARRAYS = st.dictionaries(
    st.sampled_from("abc"),
    st.builds(
        _one_hot,
        st.sampled_from([3, 1500]),
        st.integers(0, 1499),
        st.sampled_from([1.0, -2.5]),
    ),
    max_size=3,
)


class TestHashInputKeepsItsContract:
    """Equal hash ⇒ equal input, for the kinds whose ``repr`` is not their
    content: dicts, memoryviews, numpy scalars and arbitrary objects."""

    #: Digests at the last commit before dicts, memoryviews, numpy scalars
    #: and other objects got encodings of their own: the kinds that kept
    #: theirs must keep their digests.
    PINNED = [
        (np.arange(12, dtype=np.float32).reshape(3, 4), "470c863d7ee1c1c10b0d6730da9c671c1690667d"),
        ("clipper", "2dd6a58c7a5047222001dc847de937a29183c150"),
        (b"clipper", "b0d1a8e73b6cecc9ef64d814980da5cf14880ecd"),
        (
            [[1, 2.5], ["a", b"b"], (None, True), np.arange(3.0)],
            "5517f2729c6519be78be232198bb52913db94a74",
        ),
        (0.1, "e088e99397c428ef8cd2e80fa3d3ec217c00240e"),
    ]

    #: The kinds encoded since, each under every ``PYTHONHASHSEED``; a set
    #: or frozenset over its items' sorted bytes (its pickle moved with the
    #: seed: this set gave three digests under seeds 1, 2 and 3).
    CONTENT_PINNED = [
        ({"x": np.arange(3.0), "y": [1, "a"]}, "22a08c861f08300c39820be9c8c83fcf633d97be"),
        (memoryview(b"abcd").cast("B", (2, 2)), "1893d07b150042d9a2f6ac42327f650364aff74d"),
        (np.float32(1.5), "dd47e932db81e8984f2e3f29eb3d6b5ba29254d1"),
        (np.int64(-7), "52f66bb3955ee6852e4853050f527f1f99596b78"),
        ({"alpha", "beta", "gamma", "delta"}, "81383f69369d4799c93ba0ec3b4fef09d61c6fd1"),
        (frozenset({1, "b", (2, 3)}), "167762f172b8df1a808856c1b362e4f228861053"),
        (12345678901234567890, "201c1e995eb188c773d84b0dc08caf0bc0b6770a"),
        (True, "9eb7a2fae4eb61cf9ddc367dca6615f731c5b6ab"),
        (None, "73f9efed9dad2f9b12220e63b0c8d0078ec41abc"),
        ((1, "a", b"b"), "f167e0ba40316633b9857693568dd6a307ec78c7"),
    ]

    @pytest.mark.parametrize("x, digest", PINNED)
    def test_unchanged_kinds_keep_their_digests(self, x, digest):
        assert hash_input(x) == digest

    @pytest.mark.parametrize("x, digest", CONTENT_PINNED)
    def test_content_encoded_kinds_keep_their_digests(self, x, digest):
        assert hash_input(x) == digest

    def test_sets_hash_by_content_and_apart_from_lists(self):
        assert hash_input({3, 1, 2}) == hash_input(frozenset([2, 3, 1]))
        assert hash_input({1, 2}) != hash_input([1, 2])
        assert hash_input({1, 2}) != hash_input({1, 3})
        assert hash_input({"ab", "c"}) != hash_input({"a", "bc"})

    def test_dict_of_a_long_array_hashes_its_content(self):
        # numpy elides the middle of an array over 1,000 elements in repr.
        a = np.arange(10000.0)
        b = a.copy()
        b[5000] = -1.0
        assert hash_input({"x": a}) != hash_input({"x": b})
        assert hash_input({"x": a}) == hash_input({"x": a.copy()})

    def test_successive_memoryviews_of_different_bytes_hash_apart(self):
        digests = [hash_input(memoryview(i.to_bytes(4, "big"))) for i in range(1000)]
        assert len(set(digests)) == 1000

    def test_successive_plain_objects_of_different_content_hash_apart(self):
        digests = [hash_input(Plain(i)) for i in range(2000)]
        assert len(set(digests)) == 2000

    @given(_DICTS_OF_ARRAYS, _DICTS_OF_ARRAYS)
    def test_distinct_dicts_of_arrays_hash_apart(self, a, b):
        equal = list(a) == list(b) and all(
            a[key].shape == b[key].shape and np.array_equal(a[key], b[key]) for key in a
        )
        assert (hash_input(a) == hash_input(b)) == equal

    @pytest.mark.parametrize(
        "a, b",
        [
            ({"a": 1}, ["a", 1]),
            ({"a": [1]}, {"a": 1}),
            (memoryview(b"ab"), b"ab"),
            (memoryview(b"abcd").cast("B", (2, 2)), memoryview(b"abcd")),
            (np.float64(1.5), 1.5),
            (np.float64(1.5), np.float32(1.5)),
            (np.float64(1.5), np.array(1.5)),
            (np.str_("ab"), "ab"),
        ],
    )
    def test_new_encodings_keep_kinds_apart(self, a, b):
        assert hash_input(a) != hash_input(b)

    def test_numpy_scalars_hash_by_content(self):
        assert hash_input(np.float64(0.1)) == hash_input(np.float64(0.1))
        assert hash_input(np.int64(3)) != hash_input(np.int64(4))

    def test_object_arrays_hash_their_objects_not_their_addresses(self):
        a = np.array([Plain(1), "x"], dtype=object)
        assert hash_input(a) != hash_input(np.array([Plain(2), "x"], dtype=object))
        assert hash_input(a) == hash_input(np.array([Plain(1), "x"], dtype=object))

    def test_an_unpicklable_input_is_refused(self):
        with pytest.raises(ValidationError, match="lock"):
            hash_input(threading.Lock())
        with pytest.raises(ValidationError):
            hash_input([1, threading.Lock()])


#: Run in a fresh interpreter: every pinned input's digest from
#: ``hash_input`` and from a cache's ``digest`` cold (nothing resident),
#: admitting (resident) and warm (served by the memo, whose dict hashes its
#: keys with the seeded ``hash()``).
_DIGESTS_IN_A_CHILD = """
import json
from repro.cache.prediction_cache import PredictionCache
from repro.core.types import hash_input
from test_types import TestHashInputKeepsItsContract as pins

inputs = [x for x, _ in pins.PINNED + pins.CONTENT_PINNED]
cache = PredictionCache(capacity=64)
runs = {"hash_input": [hash_input(x) for x in inputs]}
runs["cold"] = [cache.digest(x) for x in inputs]
cache.put_by_hash("m:1", runs["cold"], range(len(inputs)))
runs["admitting"] = [cache.digest(x) for x in inputs]
memo = len(cache._memo)
runs["warm"] = [cache.digest(x) for x in inputs]
print(json.dumps([memo, runs]))
"""


class TestDigestsAcrossProcesses:
    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_every_kind_digests_alike_under_any_hash_seed(self, seed):
        tests = pathlib.Path(__file__).parent
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        child = subprocess.run(
            [sys.executable, "-c", _DIGESTS_IN_A_CHILD],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        memo, runs = json.loads(child.stdout)
        pins = TestHashInputKeepsItsContract
        expected = [digest for _, digest in pins.PINNED + pins.CONTENT_PINNED]
        assert memo == len(expected)  # every input was admitted
        assert runs == dict.fromkeys(["hash_input", "cold", "admitting", "warm"], expected)


class TestQuery:
    def test_query_ids_are_unique_and_increasing(self):
        q1 = Query(app_name="app", input=1)
        q2 = Query(app_name="app", input=2)
        assert q2.query_id > q1.query_id

    def test_input_hash_matches_feedback_hash(self):
        x = np.ones(5)
        query = Query(app_name="app", input=x)
        feedback = Feedback(app_name="app", input=x, label=1)
        assert query.input_hash() == feedback.input_hash()

    def test_app_and_input_are_the_first_two_positions(self):
        x = np.arange(3.0)
        query = Query("app", x, "user", 25.0)
        assert query.app_name == "app" and query.input is x
        assert query.user_id == "user" and query.latency_slo_ms == 25.0
        assert query.input_hash() == Query(app_name="app", input=x).input_hash()

    def test_defaults(self):
        query = Query(app_name="app", input=0)
        assert query.user_id is None
        assert query.latency_slo_ms is None
        assert query.pre_spans is None
        assert query.trace_id is None


class TestPrediction:
    def test_default_flags(self):
        prediction = Prediction(query_id=1, app_name="a", output=3)
        assert not prediction.default_used
        assert not prediction.from_cache
        assert prediction.models_missing == ()
