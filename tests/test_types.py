"""Tests for the core value types (Query, Prediction, Feedback, ModelId)."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import SerializationError, ValidationError
from repro.core.types import (
    Feedback,
    ModelId,
    Prediction,
    Query,
    hash_input,
)
from repro.rpc.protocol import predict_request
from repro.rpc.serialization import array_head, serialize
from test_serialization import _nested


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
        for head in (b"", array_head(x)):  # bare, and behind the codec's own head
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
    """The key is the wire frame: ``hash_input(x)`` is the SHA-1 of
    ``serialize(x)``, so equal hash ⇒ every container is sent equal bytes,
    and what a predict request could not carry is refused before it is
    keyed."""

    #: The kinds the serving path sees most: an array (its codec head and
    #: buffer), text, bytes and the scalars.
    PINNED = [
        (np.arange(12, dtype=np.float32).reshape(3, 4), "31dd5d13960de29b30f059f119a55dd42d491cda"),
        ("clipper", "f44351da24289f2169ac165b558c785c621974e2"),
        (b"clipper", "0efa878780fb990be4b9374550d65f18f8151197"),
        (0.1, "a2bc8372d8c27eaa8a6a1d32cd3ef810705d358a"),
        (True, "f70af62ee4cd5ae2b0ba027eb472ca7c56eacd2e"),
        (None, "5ba93c9db0cff93f52b521d7420e43f6eda2784f"),
    ]

    #: Containers and numpy scalars, each under every ``PYTHONHASHSEED``.
    CONTENT_PINNED = [
        (
            [[1, 2.5], ["a", b"b"], (None, True), np.arange(3.0)],
            "da1328a91c18e2239f728bec6b05cfa68226f378",
        ),
        ({"x": np.arange(3.0), "y": [1, "a"]}, "a719ea6691a24f53931496427722e36da665f3f5"),
        (np.float32(1.5), "5ac240cee51cfb4fde87ded00b60402df9feeb1f"),
        (np.int64(-7), "ad5e9532da8fb7a48f924f37d4c73511e981db7c"),
        ((1, "a", b"b"), "d8044f75cc91ca9a7f61582c0e668390444a61dd"),
    ]

    @pytest.mark.parametrize("x, digest", PINNED)
    def test_common_kinds_keep_their_digests(self, x, digest):
        assert hash_input(x) == digest

    @pytest.mark.parametrize("x, digest", CONTENT_PINNED)
    def test_content_encoded_kinds_keep_their_digests(self, x, digest):
        assert hash_input(x) == digest

    #: Arrays off the fast path's common case: a byte order, text, a
    #: Fortran order, a stride, no rows and a 0-d array (sent as shape (1,)).
    ARRAYS = [
        np.arange(784.0),
        np.arange(5, dtype=">f8"),
        np.array(["ab", "c"], dtype="<U2"),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        np.arange(20.0)[::3],
        np.zeros((0, 3)),
        np.array(1.5),
    ]

    @pytest.mark.parametrize(
        "x", [x for x, _ in PINNED + CONTENT_PINNED] + ARRAYS + [float("nan"), [1.5, 2]]
    )
    def test_every_kind_is_keyed_by_its_wire_frame(self, x):
        assert hash_input(x) == hashlib.sha1(serialize(x)).hexdigest()

    def test_dict_of_a_long_array_hashes_its_content(self):
        # numpy elides the middle of an array over 1,000 elements in repr.
        a = np.arange(10000.0)
        b = a.copy()
        b[5000] = -1.0
        assert hash_input({"x": a}) != hash_input({"x": b})
        assert hash_input({"x": a}) == hash_input({"x": a.copy()})

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
            (np.float64(1.5), np.array(1.5)),
            (np.float64(1.5), np.int64(1)),
            (np.str_("ab"), b"ab"),
        ],
    )
    def test_new_encodings_keep_kinds_apart(self, a, b):
        assert hash_input(a) != hash_input(b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.float64(1.5), np.float32(1.5)),  # both arrive as the float 1.5
            (1.5, np.float64(1.5)),
            (3, np.int64(3)),  # both arrive as the int 3
            (np.str_("ab"), "ab"),  # both arrive as the str "ab"
            ([np.int64(2), 3], (2, np.int32(3))),  # both one int64 column
        ],
    )
    def test_inputs_the_wire_delivers_alike_are_one_input(self, a, b):
        assert serialize(a) == serialize(b)
        assert hash_input(a) == hash_input(b)

    def test_numpy_scalars_hash_by_content(self):
        assert hash_input(np.float64(0.1)) == hash_input(np.float64(0.1))
        assert hash_input(np.int64(3)) != hash_input(np.int64(4))

    @pytest.mark.parametrize(
        "x",
        [
            {1, 2},
            frozenset({"a"}),
            memoryview(b"ab"),
            Plain(1),
            threading.Lock(),
            1j,
            np.bool_(True),
            np.datetime64("2026-01-01"),
            np.timedelta64(3, "ns"),
            np.timedelta64(3, "s"),
            "\ud800",
            ["a", "b\udfff"],
            {"\ud83d\ude00": 1},
            2**70,
            -(2**63) - 1,
            np.uint64(2**64 - 1),
            np.array([Plain(1), "x"], dtype=object),
            np.array(["2026-01-01"], dtype="datetime64[D]"),
            np.array([1, 2], dtype="timedelta64[s]"),
            np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")]),
            {1: "a"},
            [1, {2}],
            _nested(40, 0, lambda v: [v]),
        ],
        ids=["set", "frozenset", "memoryview", "plain_object", "lock", "complex", "numpy_bool",
             "numpy_datetime", "timedelta_ns", "timedelta_s", "lone_surrogate",
             "surrogate_in_a_list", "surrogate_pair_key", "past_int64", "below_int64",
             "uint64_max", "object_array", "datetime_array", "timedelta_array",
             "structured_array", "int_key", "nested_set", "40_deep"],
    )
    def test_what_the_wire_refuses_is_refused_before_it_is_keyed(self, x):
        with pytest.raises(SerializationError):  # where the request carries it
            serialize(predict_request(0, [x, x]))
        with pytest.raises(ValidationError, match="cannot key the prediction cache"):
            hash_input(x)

    @pytest.mark.parametrize("depth", range(28, 35))
    @pytest.mark.parametrize(
        "wrap", [lambda v: [v], lambda v: (v,), lambda v: {"k": v}], ids=["list", "tuple", "dict"]
    )
    def test_the_key_refuses_nesting_exactly_where_the_request_does(self, depth, wrap):
        x = _nested(depth, 0, wrap)
        try:
            serialize(predict_request(0, [x, x]))
        except SerializationError:
            with pytest.raises(ValidationError):
                hash_input(x)
        else:
            assert hash_input(x) == hashlib.sha1(serialize(x)).hexdigest()


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
