"""Tests for the core value types (Query, Prediction, Feedback, ModelId)."""

import numpy as np
import pytest

from repro.core.types import (
    Feedback,
    ModelId,
    Prediction,
    Query,
    hash_input,
    next_query_id,
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


class TestQuery:
    def test_query_ids_are_unique_and_increasing(self):
        q1 = Query(app_name="app", input=1)
        q2 = Query(app_name="app", input=2)
        assert q2.query_id > q1.query_id

    def test_next_query_id_monotonic(self):
        assert next_query_id() < next_query_id()

    def test_input_hash_matches_feedback_hash(self):
        x = np.ones(5)
        query = Query(app_name="app", input=x)
        feedback = Feedback(app_name="app", input=x, label=1)
        assert query.input_hash() == feedback.input_hash()

    def test_defaults(self):
        query = Query(app_name="app", input=0)
        assert query.user_id is None
        assert query.latency_slo_ms is None
        assert query.metadata is None
        assert query.arrival_time is None


class TestPrediction:
    def test_default_flags(self):
        prediction = Prediction(query_id=1, app_name="a", output=3)
        assert not prediction.default_used
        assert not prediction.from_cache
        assert prediction.models_missing == ()
