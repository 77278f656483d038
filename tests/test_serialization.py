"""Tests for the binary RPC serialization format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.exceptions import SerializationError
from repro.rpc.serialization import deserialize, serialize


class TestScalarRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -1, 2**40, 3.14159, -1e300, "", "héllo wörld", b"", b"\x00\xff"],
    )
    def test_round_trip(self, value):
        assert deserialize(serialize(value)) == value

    def test_bool_is_not_confused_with_int(self):
        assert deserialize(serialize(True)) is True
        assert deserialize(serialize(1)) == 1
        assert not isinstance(deserialize(serialize(1)), bool)

    def test_numpy_scalars_become_python_scalars(self):
        assert deserialize(serialize(np.int64(7))) == 7
        assert deserialize(serialize(np.float64(2.5))) == 2.5


class TestContainers:
    def test_list_round_trip(self):
        value = [1, "a", None, 2.5, [True, b"x"]]
        assert deserialize(serialize(value)) == value

    def test_tuple_decodes_as_list(self):
        assert deserialize(serialize((1, 2))) == [1, 2]

    def test_dict_round_trip(self):
        value = {"a": 1, "nested": {"b": [1, 2]}, "s": "text"}
        assert deserialize(serialize(value)) == value

    def test_dict_keys_must_be_strings(self):
        with pytest.raises(SerializationError):
            serialize({1: "a"})

    def test_unsupported_type_raises(self):
        with pytest.raises(SerializationError):
            serialize(object())

    def test_deep_nesting_rejected(self):
        value = [0]
        for _ in range(64):
            value = [value]
        with pytest.raises(SerializationError):
            serialize(value)


class TestNdarrays:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_])
    def test_dtype_round_trip(self, dtype):
        array = np.arange(12).astype(dtype).reshape(3, 4)
        decoded = deserialize(serialize(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)

    def test_empty_array(self):
        array = np.zeros((0, 5))
        decoded = deserialize(serialize(array))
        assert decoded.shape == (0, 5)

    def test_non_contiguous_array(self):
        array = np.arange(20.0).reshape(4, 5)[:, ::2]
        decoded = deserialize(serialize(array))
        np.testing.assert_array_equal(decoded, array)

    def test_object_array_rejected(self):
        with pytest.raises(SerializationError):
            serialize(np.array([object()]))

    def test_array_inside_dict(self):
        value = {"inputs": [np.ones(3), np.zeros(2)], "count": 2}
        decoded = deserialize(serialize(value))
        np.testing.assert_array_equal(decoded["inputs"][0], np.ones(3))
        assert decoded["count"] == 2


class TestCorruptInput:
    def test_truncated_buffer_raises(self):
        data = serialize({"a": np.ones(100)})
        with pytest.raises(SerializationError):
            deserialize(data[: len(data) // 2])

    def test_trailing_garbage_raises(self):
        data = serialize(42)
        with pytest.raises(SerializationError):
            deserialize(data + b"junk")

    def test_unknown_tag_raises(self):
        with pytest.raises(SerializationError):
            deserialize(b"\xfe")

    def test_empty_buffer_raises(self):
        with pytest.raises(SerializationError):
            deserialize(b"")


class TestPropertyBased:
    json_like = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**62), max_value=2**62)
        | st.floats(allow_nan=False, allow_infinity=True)
        | st.text(max_size=20)
        | st.binary(max_size=20),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=8), children, max_size=5),
        max_leaves=20,
    )

    @settings(max_examples=100, deadline=None)
    @given(json_like)
    def test_json_like_values_round_trip(self, value):
        decoded = deserialize(serialize(value))
        assert decoded == _normalize(value)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(max_dims=3, max_side=8),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_float_arrays_round_trip(self, array):
        decoded = deserialize(serialize(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=hnp.array_shapes(max_dims=2, max_side=8),
            elements=st.integers(-(2**40), 2**40),
        )
    )
    def test_int_arrays_round_trip(self, array):
        decoded = deserialize(serialize(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)


def _normalize(value):
    """Tuples decode as lists; apply the same normalisation to expectations."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, bytearray):
        return bytes(value)
    return value


# -- golden test: the encoder against the implementation it replaced ---------------
#
# ``_reference_encode`` is the recursive isinstance-chain encoder the
# type-dispatched one replaced, kept verbatim as the reference: the wire
# format is a contract with every deployed container and client, so the
# rewrite must produce the same bytes and refuse the same values.

import math
import struct

from repro.rpc import serialization
from repro.rpc.serialization import serialize_buffers

_REF_MAX_DEPTH = 32


def _reference_serialize(value) -> bytes:
    out = bytearray()
    _reference_encode(value, out, 0)
    return bytes(out)


def _reference_encode(value, out: bytearray, depth: int) -> None:
    if depth > _REF_MAX_DEPTH:
        raise SerializationError("value nesting exceeds maximum depth")
    if value is None:
        out.append(0)
    elif isinstance(value, bool):
        out.append(3)
        out.append(1 if value else 0)
    elif isinstance(value, (int, np.integer)):
        out.append(1)
        out.extend(struct.pack("<q", int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(2)
        out.extend(struct.pack("<d", float(value)))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(4)
        out.extend(struct.pack("<I", len(encoded)))
        out.extend(encoded)
    elif isinstance(value, (bytes, bytearray)):
        out.append(5)
        out.extend(struct.pack("<I", len(value)))
        out.extend(value)
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise SerializationError("object-dtype arrays are not serializable")
        contiguous = np.ascontiguousarray(value)
        _reference_ndarray_header(8, contiguous.dtype, contiguous.shape, out)
        out.extend(struct.pack("<Q", contiguous.nbytes))
        out.extend(contiguous.tobytes())
    elif isinstance(value, (list, tuple)):
        if _reference_is_batch(value):
            first = value[0]
            _reference_ndarray_header(9, first.dtype, first.shape, out)
            out.extend(struct.pack("<I", len(value)))
            out.extend(struct.pack("<Q", first.dtype.itemsize * first.size * len(value)))
            for array in value:
                out.extend(np.ascontiguousarray(array).tobytes())
        else:
            out.append(6)
            out.extend(struct.pack("<I", len(value)))
            for item in value:
                _reference_encode(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(7)
        out.extend(struct.pack("<I", len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError("dict keys must be strings")
            _reference_encode(key, out, depth + 1)
            _reference_encode(item, out, depth + 1)
    else:
        raise SerializationError(f"cannot serialize value of type {type(value).__name__}")


def _reference_is_batch(items) -> bool:
    if len(items) < 2:
        return False
    first = items[0]
    if not isinstance(first, np.ndarray) or first.ndim == 0 or first.dtype.hasobject:
        return False
    return all(
        isinstance(item, np.ndarray)
        and item.dtype == first.dtype
        and item.shape == first.shape
        for item in items
    )


def _reference_ndarray_header(tag, dtype, shape, out: bytearray) -> None:
    name = dtype.str.encode("ascii")
    out.append(tag)
    out.extend(struct.pack("<B", len(name)))
    out.extend(name)
    out.extend(struct.pack("<B", len(shape)))
    for dim in shape:
        out.extend(struct.pack("<q", dim))


def _outcome(encode, value):
    """``("ok", frame)`` or ``("error", type, message)`` — both must agree."""
    try:
        return ("ok", encode(value))
    except struct.error as exc:
        # The reference lets an int past 64 bits escape as struct.error; the
        # codec refuses it as it refuses any value it cannot carry.
        return ("error", SerializationError, f"value out of range: {exc}")
    except (SerializationError, UnicodeEncodeError) as exc:
        return ("error", type(exc), str(exc))


def _encode_joined(value) -> bytes:
    return b"".join(bytes(segment) for segment in serialize_buffers(value))


def _same(decoded, original) -> bool:
    """Round-trip equality under the format's normalisations."""
    if isinstance(original, np.ndarray):
        # ``np.ascontiguousarray`` promotes a 0-d array to shape (1,), so that
        # is how one lands on the far side (in the reference encoder as well).
        original = np.ascontiguousarray(original)
        return (
            isinstance(decoded, np.ndarray)
            and decoded.dtype == original.dtype
            and decoded.shape == original.shape
            and np.array_equal(decoded, original, equal_nan=original.dtype.kind in "fc")
        )
    if isinstance(original, (list, tuple)):
        return (
            isinstance(decoded, list)
            and len(decoded) == len(original)
            and all(_same(d, o) for d, o in zip(decoded, original))
        )
    if isinstance(original, dict):
        return (
            isinstance(decoded, dict)
            and list(decoded) == [str(key) for key in original]
            and all(_same(decoded[str(key)], item) for key, item in original.items())
        )
    if isinstance(original, bool):
        return decoded is original
    if isinstance(original, (int, np.integer)):
        return type(decoded) is int and decoded == int(original)
    if isinstance(original, (float, np.floating)):
        number = float(original)
        return type(decoded) is float and (
            decoded == number or (math.isnan(decoded) and math.isnan(number))
        )
    if isinstance(original, (bytes, bytearray)):
        return type(decoded) is bytes and decoded == bytes(original)
    if isinstance(original, str):
        return type(decoded) is str and decoded == str(original)
    return decoded is None and original is None


class _Text(str):
    """A ``str`` subclass: valid as a key and a value, never cached."""


_array_dtypes = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
)
_arrays = _array_dtypes.flatmap(
    lambda dtype: hnp.arrays(
        dtype=dtype, shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
    )
)
#: Lists of same-shape arrays (one NDARRAY_BATCH frame), sometimes made
#: ragged or mixed by one odd element out.
_array_lists = st.builds(
    lambda dtype, shape, count, odd: [
        np.zeros(shape, dtype=dtype) + i for i in range(count)
    ]
    + odd,
    _array_dtypes,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=200),
    st.integers(0, 5),
    st.sampled_from([[], [np.zeros(3)], [np.zeros((2, 2), dtype=np.int8)], [1], [None]]),
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63) - 2, max_value=2**63 + 2)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=80)
    | st.text(min_size=500, max_size=600)
    | st.text(max_size=8).map(_Text)
    | st.binary(max_size=40)
    | st.binary(min_size=500, max_size=600)
    | st.binary(max_size=600).map(bytearray)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64)
    | st.floats(width=16).map(np.float16)
    | st.booleans().map(np.bool_)
    | st.sampled_from([object(), {1, 2}, 1j, range(3), np.array([object()])])
    | _arrays
    | _array_lists
)
_keys = st.text(max_size=12) | st.text(max_size=4).map(_Text) | st.integers(0, 3) | st.none()
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=12), children, max_size=4)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=12,
)


def _nested(depth: int, leaf, wrap):
    value = leaf
    for _ in range(depth):
        value = wrap(value)
    return value


class TestGoldenEncoder:
    @settings(max_examples=600, deadline=None)
    @given(_values)
    def test_same_bytes_same_refusals_and_round_trip(self, value):
        expected = _outcome(_reference_serialize, value)
        assert _outcome(_encode_joined, value) == expected
        assert _outcome(serialize, value) == expected
        if expected[0] == "ok":
            assert _same(deserialize(expected[1]), value)

    @pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: (v,), lambda v: {"k": v}])
    @pytest.mark.parametrize(
        "leaf", [0, None, "s", [], {}, {1: 2}, object(), [np.ones(2), np.ones(2)]]
    )
    @pytest.mark.parametrize("depth", [31, 32, 33, 34])
    def test_depth_limit_is_where_it_was(self, depth, leaf, wrap):
        value = _nested(depth, leaf, wrap)
        expected = _outcome(_reference_serialize, value)
        assert _outcome(_encode_joined, value) == expected
        if depth <= 32 and leaf in (0, None, "s"):
            assert expected[0] == "ok"
        if depth >= 33:
            assert expected[0] == "error"

    def test_bool_before_int_and_numpy_scalars(self):
        assert serialize(True) == b"\x03\x01" and serialize(1)[:1] == b"\x01"
        assert serialize(np.int64(5)) == serialize(5)
        assert serialize(np.float32(0.5)) == serialize(0.5)
        with pytest.raises(SerializationError, match="bool"):
            serialize(np.bool_(True))

    def test_key_cache_is_bounded(self):
        for i in range(5 * serialization._STR_FRAMES_MAX):
            key = f"key-{i}"
            assert serialize({key: key}) == _reference_serialize({key: key})
            assert len(serialization._STR_FRAMES) <= serialization._STR_FRAMES_MAX
        # Long strings are never cached, whatever their count.
        before = len(serialization._STR_FRAMES)
        long_key = "k" * (serialization._CACHED_STR_MAX + 1)
        assert serialize({long_key: long_key}) == _reference_serialize({long_key: long_key})
        assert len(serialization._STR_FRAMES) == before

    def test_cached_frames_do_not_alias_what_callers_hold(self):
        value = {"cached-key": "cached-value", "blob": bytearray(b"abc")}
        expected = _reference_serialize(value)
        segments = serialize_buffers(value)
        assert b"".join(segments) == expected
        # Scribbling over a returned segment (a transport may reuse it) and
        # mutating the input must not reach the cache.
        for segment in segments:
            if isinstance(segment, bytearray):
                segment[:] = b"\xff" * len(segment)
        value["blob"][:] = b"xyz"
        assert serialize({"cached-key": "cached-value", "blob": bytearray(b"abc")}) == expected
        assert all(type(frame) is bytes for frame in serialization._STR_FRAMES.values())
