"""The binary RPC format's written contract.

The format is a contract with every deployed container and client, so it is
stated here over the current code alone:

* **Known-answer frames.** Every tag's bytes are pinned in hex: ``bool``
  before ``int``, numpy scalars as their Python scalars, a tuple as a list,
  a 0-d or strided array as its C-ordered ``(1,)``-or-more copy, a list of
  same-dtype, same-shape arrays as one ``NDARRAY_BATCH`` frame, a list of two
  or more ints or of two or more floats (exact types) as one ``I64_COLUMN``
  or ``F64_COLUMN`` frame while bools, single values and mixed lists stay
  tagged, and payloads past the inline limit (which leave as zero-copy
  segments) byte for byte.
* **The round trip.** A value the encoder accepts decodes to an equal one,
  under the format's normalisations (tuples as lists, bytearrays as bytes,
  numpy scalars as Python scalars, ``str`` / ``int`` / ``float`` / ``list`` /
  ``dict`` subclasses as the base type).
* **The refusal set** (:func:`refused`): a value is refused with
  :class:`SerializationError`, and nothing else, exactly when it holds an
  unsupported type, a non-``str`` dict key, a ``str`` that is not UTF-8 (a
  surrogate), nesting beyond 32 levels, an int outside int64, or an array or
  numpy scalar of a kind outside bools, numbers, bytes and text (objects,
  datetimes, timedeltas, records).
* The nesting limit sits where it sits, the ``str``-frame cache is bounded,
  and no cached frame aliases what a caller holds.
* The decoder refuses truncated, trailing, unknown-tag and empty input, and
  what the encoder would refuse (a non-``str`` key, a negative dimension),
  with :class:`SerializationError` and nothing else: for any bytes, and for
  frames cut short, extended or with a byte flipped.
* **Layouts.**  A top-level dict frame decodes to the same value before and
  after its layout is learned, and a frame decoded after the layout of one
  it differs from was learned gets the value or refusal it gets cold.  A
  dict is written to the same bytes, cut into the same zero-copy views, at
  every sighting, and any dict with the keys of a learned one gets the
  generic encoder's bytes or refusal: equal constants of another type or
  length never reuse the learned frame.  A layout whose frames changed is
  learned again.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.exceptions import SerializationError
from repro.rpc import serialization
from repro.rpc.serialization import deserialize, serialize, serialize_buffers, wire_copy

U8_BATCH = [np.array([1], dtype="u1"), np.array([2], dtype="u1")]
#: The frame of a one-element ``u1`` array holding the byte ``{}``.
U8_ARRAY = "08" "03" "7c7531" "01" "0100000000000000" "0100000000000000" "{}"

#: One value per tag, and per rule that decides a tag, with its whole frame.
FRAMES = [
    (None, "00"),
    (True, "0301"),
    (False, "0300"),
    (0, "01" "0000000000000000"),
    (-2, "01" "feffffffffffffff"),
    (np.int32(-2), "01" "feffffffffffffff"),
    (np.uint64(2**63 - 1), "01" "ffffffffffffff7f"),
    (0.5, "02" "000000000000e03f"),
    (np.float32(0.5), "02" "000000000000e03f"),
    (float("inf"), "02" "000000000000f07f"),
    ("s", "04" "01000000" "73"),
    ("hé", "04" "03000000" "68c3a9"),
    ("y" * 600, "04" "58020000" + "79" * 600),
    (b"\x00\xff", "05" "02000000" "00ff"),
    (bytearray(b"ab"), "05" "02000000" "6162"),
    (b"x" * 600, "05" "58020000" + "78" * 600),
    ([], "06" "00000000"),
    ([1, None], "06" "02000000" "01" "0100000000000000" "00"),
    ((True,), "06" "01000000" "0301"),
    ({}, "07" "00000000"),
    ({"k": True}, "07" "01000000" "04" "01000000" "6b" "0301"),
    (np.array([1, 2], dtype="<i2"),
     "08" "03" "3c6932" "01" "0200000000000000" "0400000000000000" "01000200"),
    (np.array(3.0),
     "08" "03" "3c6638" "01" "0100000000000000" "0800000000000000" "0000000000000840"),
    (np.arange(6, dtype="<i2").reshape(2, 3)[:, ::2],
     "08" "03" "3c6932" "02" "0200000000000000" "0200000000000000"
     "0800000000000000" "0000020003000500"),
    (U8_BATCH,
     "09" "03" "7c7531" "01" "0100000000000000" "02000000" "0200000000000000" "0102"),
    ([np.arange(4, dtype="u1")[::2], np.arange(4, dtype="u1")[1::2]],  # strided rows
     "09" "03" "7c7531" "01" "0200000000000000" "02000000" "0400000000000000" "00020103"),
    # Not a batch: one array, 0-d arrays, two dtypes.  Each goes tagged.
    ([U8_BATCH[0]], "06" "01000000" + U8_ARRAY.format("01")),
    ([np.array(1, dtype="u1"), np.array(2, dtype="u1")],
     "06" "02000000" + U8_ARRAY.format("01") + U8_ARRAY.format("02")),
    ([U8_BATCH[0], np.array([1], dtype="i1")],
     "06" "02000000" + U8_ARRAY.format("01")
     + "08" "03" "7c6931" "01" "0100000000000000" "0100000000000000" "01"),
    # Columns: two or more values all written as int64, or all as float64.
    ([1, -2], "0a" "02000000" "0100000000000000" "feffffffffffffff"),
    ((np.int32(1), np.uint8(2), np.int64(-1)),
     "0a" "03000000" "0100000000000000" "0200000000000000" "ffffffffffffffff"),
    ([0.5, np.float32(0.5), np.float64(-0.0), float("inf")],
     "0b" "04000000" "000000000000e03f" "000000000000e03f" "0000000000000080"
     "000000000000f07f"),
    # Not a column: bools, one value, ints and floats mixed, a type the
    # encoder does not know exactly.  Each goes tagged.
    ([True, False], "06" "02000000" "0301" "0300"),
    ([7], "06" "01000000" "01" "0700000000000000"),
    ([0.5], "06" "01000000" "02" "000000000000e03f"),
    ([1, 0.5], "06" "02000000" "01" "0100000000000000" "02" "000000000000e03f"),
    ([1, True], "06" "02000000" "01" "0100000000000000" "0301"),
    ([np.uint64(1), 2], "06" "02000000" "01" "0100000000000000" "01" "0200000000000000"),
    ([np.float16(0.5), 0.5], "06" "02000000" "02" "000000000000e03f" "02" "000000000000e03f"),
]


def str_frame(text: str) -> str:
    encoded = text.encode("utf-8")
    return "04" + len(encoded).to_bytes(4, "little").hex() + encoded.hex()


def is_batch(items) -> bool:
    """The NDARRAY_BATCH rule: two or more arrays of one dtype and one shape,
    at least 1-d and of a kind the wire carries."""
    first = items[0] if len(items) >= 2 else None
    return (
        isinstance(first, np.ndarray) and first.ndim >= 1 and first.dtype.kind in CARRIED_KINDS
        and all(isinstance(item, np.ndarray) and item.dtype == first.dtype
                and item.shape == first.shape for item in items)
    )


#: The array kinds the wire carries: bools, numbers, bytes and text; never
#: objects, datetimes, timedeltas or records.
CARRIED_KINDS = "biufcSU"


def _utf8(text: str) -> bool:
    return not any(0xD800 <= ord(char) <= 0xDFFF for char in text)  # no surrogate


def refused(value, depth: int = 0) -> bool:
    """Whether the format refuses ``value`` (see the module docstring)."""
    if isinstance(value, np.generic) and value.dtype.kind not in CARRIED_KINDS:
        return True  # a timedelta64 scalar too, which numpy makes an integer
    if isinstance(value, str):
        return not _utf8(value)
    if value is None or isinstance(value, (bool, float, np.floating, bytes, bytearray)):
        return False
    if isinstance(value, (int, np.integer)):
        return not -(2**63) <= int(value) < 2**63
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in CARRIED_KINDS
    if isinstance(value, (list, tuple)) and is_batch(value):
        return False
    if isinstance(value, (list, tuple, dict)):
        items = value.values() if isinstance(value, dict) else value
        return (
            (len(value) > 0 and depth >= 32)
            or (isinstance(value, dict)
                and not all(isinstance(key, str) and _utf8(key) for key in value))
            or any(refused(item, depth + 1) for item in items)
        )
    return True


def _same(decoded, original) -> bool:
    """Round-trip equality under the format's normalisations."""
    if isinstance(original, np.ndarray):
        # A 0-d array travels as shape (1,), a strided or masked one as its
        # C-ordered data.
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
        # Text compares as ``str.__str__`` reads it, which is what the codec
        # encodes: ``str(np.str_("a\x00"))`` drops the trailing NUL, the wire keeps it.
        return (
            isinstance(decoded, dict)
            and list(decoded) == [str.__str__(key) for key in original]
            and all(_same(decoded[str.__str__(key)], item) for key, item in original.items())
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
        return type(decoded) is str and decoded == str.__str__(original)
    return decoded is None and original is None


# -- every kind of value a message may hold, and some it may not -------------------


class _Text(str):
    """A ``str`` subclass: valid as a key and a value, never cached."""


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_DTYPES = ["<f8", ">f8", "<f4", "<f2", "<i8", "<i4", ">i4", "<u2", "|u1", "|i1", "|b1",
           "<c16", "|S3", "<U2"]
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
#: How an array may reach the codec: as is, Fortran-ordered, strided, a
#: read-only view, or a masked array (the codec sends its data alone).
_LAYOUTS = [
    lambda a: a,
    np.asfortranarray,
    lambda a: a[::2] if a.ndim else a,
    lambda a: np.lib.stride_tricks.as_strided(a, writeable=False),
    np.ma.masked_array,
]
_arrays = st.builds(
    lambda array, layout: layout(array),
    st.sampled_from(_DTYPES).flatmap(lambda dtype: hnp.arrays(dtype, _shapes)),
    st.sampled_from(_LAYOUTS),
)
#: Lists of same-dtype, same-shape arrays (one columnar frame on the wire),
#: sometimes made ragged or mixed by one odd element out.
_batches = st.builds(
    lambda arrays, odd: arrays + odd,
    st.tuples(
        st.sampled_from(_DTYPES), hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)
    ).flatmap(lambda spec: st.lists(hnp.arrays(*spec), min_size=2, max_size=4)),
    st.sampled_from([[], [], [np.zeros(3)], [np.zeros((2, 2), dtype=np.int8)], [1], [None]]),
)
_INT64 = st.integers(-(2**63), 2**63 - 1)
#: Lists of values all written as int64, or all as float64 (one column frame
#: on the wire), sometimes made mixed, or refused, by one odd element out.
_columns = st.builds(
    lambda items, odd, kind: kind(items + odd),
    st.lists(
        _INT64 | _INT64.map(np.int64) | st.integers(-(2**31), 2**31 - 1).map(np.int32)
        | st.integers(0, 255).map(np.uint8),
        min_size=2, max_size=40,
    )
    | st.lists(
        st.floats() | st.floats(width=32).map(np.float32) | st.floats().map(np.float64),
        min_size=2, max_size=40,
    ),
    st.sampled_from([[], [], [], [True], [None], [1], [0.5], [2**63], [np.float16(1)]]),
    st.sampled_from([list, list, tuple]),
)
#: A surrogate code point: alone or beside another, no UTF-8 text holds one.
_SURROGATE = st.characters(categories=["Cs"])
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**64), 2**64)
    | st.integers(-5, 5).map(_Int)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats().map(_Float)
    | st.text(max_size=20)
    | st.text(st.characters() | _SURROGATE, min_size=1, max_size=4)
    | st.text(min_size=500, max_size=520)
    | st.text(max_size=6).map(_Text)
    | st.binary(max_size=20)
    | st.binary(min_size=500, max_size=600)
    | st.binary(max_size=600).map(bytearray)
    | st.sampled_from([np.int8, np.int16, np.int32, np.int64]).map(lambda t: t(-7))
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.floats(width=16).map(np.float16)
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64)
    | st.text(max_size=4).map(np.str_)
    | st.binary(max_size=4).map(np.bytes_)
    # Refused: numpy bools, complex numbers and timedeltas, unknown classes,
    # sets, object, datetime, timedelta, structured and void arrays.
    | st.sampled_from([np.bool_(True), np.complex128(1j), 1j, object(), {1, 2}, range(2)])
    | st.sampled_from([np.timedelta64(3, "ns"), np.timedelta64(3, "s")])
    | st.sampled_from([np.array([object()]), np.array([1, "a"], dtype=object)])
    | st.sampled_from(["<M8[D]", ">m8[s]", "<M8[ns]", [("a", "<f8"), ("b", "|u1")], "|V4"]).map(
        lambda dtype: np.zeros(2, dtype)
    )
    | _arrays
    | _batches
    | _columns
)
_keys = (
    st.text(max_size=6) | st.text(max_size=3).map(_Text) | _SURROGATE | st.integers(0, 2) | st.none()
)
wire_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(children, max_size=3).map(_List)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=2).map(_Dict)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=10,
)


def _nested(depth: int, leaf, wrap):
    value = leaf
    for _ in range(depth):
        value = wrap(value)
    return value


WRAPS = {  # a wrapper, and the bytes it puts in front of what it wraps
    "list": (lambda v: [v], "06" "01000000"),
    "tuple": (lambda v: (v,), "06" "01000000"),
    "dict": (lambda v: {"k": v}, "07" "01000000" + str_frame("k")),
}


class TestEncoderContract:
    @pytest.mark.parametrize(
        "value, frame", FRAMES, ids=[f"tag{frame[:2]}-{i}" for i, (_, frame) in enumerate(FRAMES)]
    )
    def test_known_answer_frames(self, value, frame):
        assert serialize(value).hex() == frame
        assert _same(deserialize(bytes.fromhex(frame)), value)

    @given(wire_values)
    @example(np.str_("\x00"))  # str() of a numpy str drops trailing NULs
    @example(np.str_("a\x00"))
    def test_accepted_values_round_trip_and_the_rest_are_refused(self, value):
        if refused(value):
            with pytest.raises(SerializationError):
                serialize(value)
        else:
            assert _same(deserialize(serialize(value)), value)

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, 1j, np.bool_(True), {1: "a"}, {"ok": {None: 1}}, 2**63,
         -(2**63) - 1, np.uint64(2**64 - 1), np.array([object()]),
         [np.array([1, 2], dtype=object)] * 2, _nested(33, 0, lambda v: [v]), "\ud800",
         {"\udfff": 1}, np.timedelta64(3, "ns"), np.timedelta64(3, "s")],
        ids=["object", "set", "complex", "numpy_bool", "int_key", "nested_none_key",
             "past_int64", "below_int64", "uint64_max", "object_array", "object_batch",
             "nested_33", "lone_surrogate", "surrogate_key", "timedelta_ns", "timedelta_s"],
    )
    def test_the_refusal_set_by_example(self, value):
        assert refused(value)
        with pytest.raises(SerializationError):
            serialize(value)
        with pytest.raises(SerializationError):  # the in-process lane refuses alike
            wire_copy(value)

    @given(
        st.lists(_INT64 | st.sampled_from([-(2**63), 2**63 - 1, 0, -1]), min_size=2)
        | st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0]),
            min_size=2,
        )
    )
    def test_a_column_round_trips_bit_exact_as_the_tagged_list_would(self, values):
        frame = serialize(values)
        assert frame[0] == (0x0A if type(values[0]) is int else 0x0B)
        tag, code = (1, "q") if type(values[0]) is int else (2, "d")
        tagged = b"\x06" + struct.pack("<I", len(values)) + b"".join(
            struct.pack(f"<B{code}", tag, value) for value in values
        )
        decoded = deserialize(frame)
        assert identical(decoded, deserialize(tagged))
        assert [struct.pack(f"<{code}", value) for value in decoded] == [
            struct.pack(f"<{code}", value) for value in values
        ]
        assert identical(wire_copy(values), decoded)

    @pytest.mark.parametrize(
        "column", [[1, 2**63], [-(2**63) - 1, 1], (np.int64(1), 2**64)],
        ids=["past_int64", "below_int64", "tuple"],
    )
    def test_an_int_past_int64_is_refused_as_the_lone_int_is(self, column):
        bad = next(value for value in column if not -(2**63) <= value < 2**63)
        for encode in (serialize, wire_copy):
            with pytest.raises(SerializationError) as alone:
                encode(bad)
            with pytest.raises(SerializationError) as in_column:
                encode(column)
            assert str(in_column.value) == str(alone.value)

    @pytest.mark.parametrize(
        "value", [[_Int(1), 2], [1.0, _Float(2.0)], [np.float32(1), 2]],
        ids=["int_subclass", "float_subclass", "float_and_int"],
    )
    def test_a_list_with_a_subclass_or_mixed_kinds_stays_tagged(self, value):
        frame = serialize(value)
        assert frame[0] == 0x06
        assert _same(deserialize(frame), value)

    @pytest.mark.parametrize("wrap", sorted(WRAPS))
    @pytest.mark.parametrize(
        "leaf", [0, None, "s", [], {}, {1: 2}, object(), U8_BATCH],
        ids=["int", "none", "str", "list", "dict", "int_key", "object", "batch"],
    )
    @pytest.mark.parametrize("depth", [31, 32, 33, 34])
    def test_the_nesting_limit_is_32(self, depth, leaf, wrap):
        wrapper, prefix = WRAPS[wrap]
        value = _nested(depth, leaf, wrapper)
        if depth >= 33 or refused(leaf):
            assert refused(value)
            for encode in (serialize, wire_copy):  # the in-process lane's limit too
                with pytest.raises(SerializationError):
                    encode(value)
        else:
            assert serialize(value).hex() == prefix * depth + serialize(leaf).hex()
            assert _same(wire_copy(value), value)

    def test_array_head_cache_is_bounded(self):
        for n in range(3 * serialization._STR_FRAMES_MAX):
            frame = serialize(np.zeros((n, 0), dtype="<f4"))
            shape = "02" + struct.pack("<qq", n, 0).hex()
            assert frame.hex() == "08" "03" + b"<f4".hex() + shape + "00" * 8
            assert len(serialization._ARRAY_HEADS) <= serialization._STR_FRAMES_MAX

    def test_key_cache_is_bounded(self):
        for i in range(5 * serialization._STR_FRAMES_MAX):
            key = f"key-{i}"
            assert serialize({key: key}).hex() == "07" "01000000" + str_frame(key) * 2
            assert len(serialization._STR_FRAMES) <= serialization._STR_FRAMES_MAX
        # Long strings are never cached, whatever their count.
        before = len(serialization._STR_FRAMES)
        long_key = "k" * (serialization._CACHED_STR_MAX + 1)
        assert serialize({long_key: long_key}).hex() == "07" "01000000" + str_frame(long_key) * 2
        assert len(serialization._STR_FRAMES) == before

    def test_cached_frames_do_not_alias_what_callers_hold(self):
        value = {"cached-key": "cached-value", "blob": bytearray(b"abc")}
        expected = bytes.fromhex(
            "07" "02000000" + str_frame("cached-key") + str_frame("cached-value")
            + str_frame("blob") + "05" "03000000" "616263"
        )
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


#: Frames the decoder refuses: the cases above, then what used to escape
#: as another error or decode to a value the encoder refuses.
MALFORMED = {
    "empty": "",
    "unknown_tag": "fe",
    "trailing": "01" "2a00000000000000" "6a756e6b",
    "truncated": "07" "01000000" + str_frame("a") + "08" "03" "3c6638" "01" "6400000000000000",
    "invalid_utf8": "04" "02000000" "fffe",
    "invalid_utf8_key": "07" "01000000" "04" "02000000" "fffe" "00",
    "non_ascii_dtype": "08" "02" "c3a9" "01" "0100000000000000" "0100000000000000" "00",
    "unparsable_dtype": "08" "01" "2c" "01" "0100000000000000" "0100000000000000" "00",
    "list_key": "07" "01000000" "06" "00000000" "00",
    "int_key": "07" "01000000" "01" "0000000000000000" "00",
    "negative_dimension":
        "08" "03" "3c6638" "01" "ffffffffffffffff" "0800000000000000" "0000000000000000",
    "negative_batch_dimension":
        "09" "03" "7c7531" "01" "feffffffffffffff" "01000000" "0000000000000000",
    "one_value_column": "0a" "01000000" "0100000000000000",
    "empty_column": "0b" "00000000",
    "column_count_cut": "0a" "0200",
    "column_past_frame": "0b" "03000000" "000000000000e03f" "000000000000e03f",
    "column_count_past_frame_in_dict": "07" "01000000" "04" "01000000" "6b"
        "0a" "ffffffff" "0100000000000000" "0200000000000000",
}

REFUSED = object()


def odd_batches(dtype: str, rows: int) -> bytes:
    """A dict frame of two batches the decoder reads and the encoder never
    writes: one of no rows, and one of ``rows`` rows of ndim 0."""
    def batch(shape: tuple, count: int) -> bytes:
        payload = bytes(range(count * np.dtype(dtype).itemsize))
        return (bytes([0x09, len(dtype)]) + dtype.encode("ascii") + bytes([len(shape)])
                + struct.pack(f"<{len(shape)}q", *shape)
                + struct.pack("<IQ", count, len(payload)) + payload)

    return (bytes.fromhex("07" "02000000" + str_frame("empty")) + batch((3,), 0)
            + bytes.fromhex(str_frame("scalars")) + batch((), rows))


def decoded(frame: bytes):
    """What ``deserialize`` makes of ``frame``: a value, or ``REFUSED``."""
    try:
        return deserialize(frame)
    except SerializationError:
        return REFUSED


def identical(a, b) -> bool:
    """Whether two decoded values are the same, bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (np.ndarray, np.generic)):
        return (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            and not (isinstance(a, np.ndarray) and (a.flags.writeable or b.flags.writeable))
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[key], b[key]) for key in a)
    if isinstance(a, float):
        return a.hex() == b.hex()  # -0.0 is not 0.0; nan is nan
    return a is b if a is REFUSED else a == b


def seeded(test):
    """``test`` with every frame of ``MALFORMED`` among its examples."""
    for frame in MALFORMED.values():
        test = example(bytes.fromhex(frame))(test)
    return test


def learn(frame: bytes) -> None:
    """Start the layouts over, then decode ``frame`` until its layout is learned."""
    serialization._LAYOUTS.clear()
    deserialize(frame)
    deserialize(frame)


def mutate(frame: bytes, mutation) -> bytes:
    how, at, data = mutation
    if how == "cut":
        return frame[: at % (len(frame) + 1)]
    if how == "extend":
        return frame + data
    at %= len(frame)
    return frame[:at] + bytes([frame[at] ^ data[0]]) + frame[at + 1 :]


_mutations = st.tuples(
    st.sampled_from(["cut", "extend", "flip", "flip"]),
    st.integers(0, 2**16),
    st.binary(min_size=1, max_size=8).filter(lambda data: data[0]),
)
#: Accepted values, top-level dicts (the frames layouts learn) most of all.
_accepted = (
    st.dictionaries(st.text(max_size=8), wire_values, max_size=5) | wire_values
).filter(lambda value: not refused(value))


class TestDecoderRefusals:
    @pytest.mark.parametrize("frame", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_a_malformed_frame_is_refused_cold_and_warm(self, frame):
        for _ in range(3):  # first sighting, learning, a learned layout
            with pytest.raises(SerializationError):
                deserialize(bytes.fromhex(frame))

    def test_a_learned_layout_refuses_what_the_generic_decoder_refuses(self):
        learn(serialize({"k": "ok"}))
        with pytest.raises(SerializationError):  # same constants, a str that is not utf-8
            deserialize(bytes.fromhex("07" "01000000" + str_frame("k") + "04" "02000000" "fffe"))

    @seeded
    @given(st.binary(max_size=96))
    @example(b"\xff\xff\xff\xff")  # the body of test_rpc_malformed_frame's UNDECODABLE
    @example(b"\x07\x01\x00\x00\x00\x04\x01\x00\x00\x00k\x04\x02\x00\x00\x00\xff\xfe")
    @example(odd_batches("<f4", 2))  # lists, as a column decodes: read by tag alone
    @example(odd_batches("<f4", 5))
    @example(odd_batches("<i2", 2))
    @example(odd_batches("|u1", 0))
    def test_any_bytes_decode_or_are_refused(self, data):
        outcomes = [decoded(data) for _ in range(3)]
        assert identical(outcomes[0], outcomes[1]) and identical(outcomes[1], outcomes[2])

    @given(
        st.lists(_INT64, min_size=2, max_size=8) | st.lists(st.floats(), min_size=2, max_size=8),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_a_column_with_a_wrong_count_or_cut_short_is_refused_cold_and_warm(
        self, values, count, in_dict
    ):
        wrap = (lambda v: {"k": v}) if in_dict else (lambda v: v)
        frame = serialize(wrap(values))
        at = frame.index(bytes([0x0A if type(values[0]) is int else 0x0B])
                         + struct.pack("<I", len(values)))
        wrong = frame[: at + 1] + struct.pack("<I", count) + frame[at + 5 :]
        cuts = [frame[:end] for end in (at + 1, at + 3, at + 5, len(frame) - 1)]
        for _ in range(2):  # cold, then with the original frame learned
            for refused_frame in cuts + ([wrong] if count != len(values) else []):
                assert decoded(refused_frame) is REFUSED
            learn(frame)

    @given(_accepted, _mutations)
    @example({"k": "ok"}, ("flip", 16, b"\x91"))  # "ok" -> invalid utf-8 in the slot
    @example({"k": "ok"}, ("flip", 5, b"\x05"))  # the key's tag -> an int key
    @example({"k": np.zeros(1)}, ("flip", 24, b"\xff"))  # a dimension -> negative
    def test_a_mutated_frame_decodes_alike_cold_and_after_its_original_is_learned(
        self, value, mutation
    ):
        frame = serialize(value)
        mutated = mutate(frame, mutation)
        serialization._LAYOUTS.clear()
        cold = decoded(mutated)
        learn(frame)
        assert identical(decoded(mutated), cold)


class TestLayouts:
    @given(_accepted)
    def test_a_frame_decodes_alike_cold_and_warm(self, value):
        frame = serialize(value)
        serialization._LAYOUTS.clear()
        values = [deserialize(frame) for _ in range(3)]  # the third through a layout
        assert _same(values[0], value)
        assert identical(values[0], values[1]) and identical(values[0], values[2])

    def test_repeated_frames_are_decoded_by_their_layout(self):
        value = {"id": 1, "ok": True, "x": 0.5, "s": "é", "b": b"b", "none": None,
                 "array": np.arange(3.0), "batch": [np.zeros(2)] * 2, "nested": [{"k": []}]}
        frame = serialize(value)
        learn(frame)
        layout = serialization._LAYOUTS[(len(value), len(frame))]
        assert layout not in (serialization._seen_once, serialization._unlearnable)
        assert _same(layout(memoryview(frame)), value)

    def test_a_frame_past_the_field_budget_keeps_the_generic_decoder(self):
        # Ints and floats mixed: a tagged list, nine bytes of fields an item.
        count = serialization._LAYOUT_FIELD_BYTES_MAX // 9 + 1
        value = {"outputs": [float(i) if i % 2 else i for i in range(count)]}
        frame = serialize(value)
        learn(frame)
        assert serialization._LAYOUTS[(1, len(frame))] is serialization._unlearnable
        assert deserialize(frame) == value
        # Array and column payloads are read apart, not as fields: any size
        # is learned.
        for payload in (np.zeros(4096), list(range(count)), [0.5] * count):
            frame = serialize({"input": payload})
            learn(frame)
            assert serialization._LAYOUTS[(1, len(frame))] is not serialization._unlearnable

    @pytest.mark.parametrize("buffer", [bytes, bytearray], ids=["bytes", "bytearray"])
    def test_decoded_arrays_are_read_only_views_whatever_the_buffer(self, buffer):
        frame = buffer(serialize({"a": np.arange(3.0), "b": [np.zeros((2, 2))] * 2}))
        serialization._LAYOUTS.clear()
        for _ in range(3):  # cold, learning, then through the layout
            value = deserialize(frame)
            for array in (value["a"], *value["b"]):
                assert not array.flags.writeable
                assert np.shares_memory(array, np.frombuffer(frame, np.uint8))
            assert value["a"].shape == (3,) and value["b"][0].shape == (2, 2)

    def test_a_layout_whose_frames_changed_is_learned_again(self, monkeypatch):
        # One (entry count, frame length), two shapes: the key differs.
        old, new = serialize({"ab": [1, 2], "x": "y"}), serialize({"cd": [1, 2], "x": "y"})
        assert len(old) == len(new)
        serialization._LAYOUTS.clear()
        for _ in range(3):  # seen, learned, matched
            assert deserialize(old) == {"ab": [1, 2], "x": "y"}
        generic = Counter()
        real = serialization._decode

        def counted(view, offset, depth):
            generic[offset] += 1  # a top-level decode starts at offset 0
            return real(view, offset, depth)

        monkeypatch.setattr(serialization, "_decode", counted)
        # The first new frame misses the layout, the second finds it stale
        # and is learned in its place, the third is read by its layout.
        for sighting in range(3):
            generic.clear()
            assert deserialize(new) == {"cd": [1, 2], "x": "y"}
            assert generic[0] == (sighting < 2)
        # Frames alternating between two shapes do not learn over each
        # other: the old one now misses once at a time, and decodes alike.
        for _ in range(3):
            assert deserialize(old) == {"ab": [1, 2], "x": "y"}
            generic.clear()
            assert deserialize(new) == {"cd": [1, 2], "x": "y"}
            assert generic[0] == 0

    def test_a_layout_that_never_matched_is_not_learned_over(self):
        serialization._LAYOUTS.clear()
        first, second = serialize({"ab": 1}), serialize({"cd": 1})
        deserialize(first)
        deserialize(second)  # the second sighting of the key: learned from it
        layout = serialization._LAYOUTS[(1, len(first))]
        for _ in range(4):
            assert deserialize(first) == {"ab": 1}
        assert serialization._LAYOUTS[(1, len(first))] is layout

    def test_the_layout_memo_is_bounded(self):
        serialization._LAYOUTS.clear()
        for i in range(3 * serialization._LAYOUTS_MAX):
            frame = serialize({"k": "v" * i})
            assert deserialize(frame) == deserialize(frame) == {"k": "v" * i}
            assert len(serialization._LAYOUTS) <= serialization._LAYOUTS_MAX


# -- encode layouts ----------------------------------------------------------------


def written(value):
    """``value``'s frame as ``serialize_buffers`` writes it now, with where it
    cuts it into zero-copy views, or the ``SerializationError`` it raises."""
    try:
        segments = serialize_buffers(value)
    except SerializationError as exc:
        return REFUSED, str(exc)
    cuts = [(isinstance(segment, memoryview), len(segment)) for segment in segments]
    return b"".join(segments), cuts


def generic(value):
    """What :func:`written` returns for ``value`` with no layout learned."""
    saved = dict(serialization._WRITERS)
    serialization._WRITERS.clear()
    try:
        return written(value)
    finally:
        serialization._WRITERS.clear()
        serialization._WRITERS.update(saved)


def learn_writer(value) -> None:
    """Start the writers over, then encode ``value`` until its layout is learned."""
    serialization._WRITERS.clear()
    serialize(value)
    serialize(value)


class _Loud(str):
    """A ``str`` subclass that encodes as its upper case: equal to its text,
    written otherwise."""

    def encode(self, *args):
        return self.upper().encode(*args)


class _KeyLike:
    """Not a ``str``, but equal to ``"k"`` and hashed alike: found under the
    key tuple ``("k",)``."""

    def __hash__(self):
        return hash("k")

    def __eq__(self, other):
        return other == "k"


def _alike(item):
    """Values that may take ``item``'s place: of its exact type (a slot's, or
    a constant's equal, longer or of a subclass), or any wire value."""
    kind = type(item)
    if kind is bool:
        same = st.booleans()
    elif kind is int:
        same = st.integers(-(2**64), 2**64)
    elif kind is float:
        same = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0])
    elif kind is str:
        same = st.sampled_from([item, item + "x", _Text(item), _Loud(item)])
    elif kind is list and all(type(text) is str for text in item):
        same = st.sampled_from([list(item), [*item, "a"], item[1:], [_Loud(t) for t in item]])
    elif kind is np.ndarray:
        same = hnp.arrays(item.dtype, item.shape) | st.just(item.astype(object))
    else:
        same = st.just(item)
    return same | wire_values


_dicts = st.dictionaries(st.text(max_size=8), wire_values, min_size=1, max_size=5).filter(
    lambda value: not refused(value)
)


class TestEncodeLayouts:
    @given(_dicts)
    @example({"input": np.arange(256, dtype="<f4")})  # a payload past the inline limit
    @example({"a": np.arange(100.0), "b": 1, "c": np.zeros(3), "d": ["x"], "e": None})
    @example({"k": "y" * 600, "n": 1})  # a str past the inline limit leaves as a segment
    @example({"k" * 600: 1, "n": [np.zeros(600)] * 2})
    def test_a_frame_is_written_alike_at_every_sighting(self, value):
        serialization._WRITERS.clear()
        frames = [written(value) for _ in range(4)]  # cold, learning, then learned
        assert frames[0][0] == serialize(value)
        assert frames[0] == frames[1] == frames[2] == frames[3]

    @given(_dicts, st.data())
    def test_a_learned_layout_writes_any_value_with_its_keys_as_the_generic_encoder_does(
        self, value, data
    ):
        other = {key: data.draw(_alike(item)) for key, item in value.items()}
        learn_writer(value)
        assert written(other) == generic(other)

    @pytest.mark.parametrize(
        "learned, other, reused",
        [
            (1, 1.0, False), (1, True, False), (1.0, 1, False), (True, 1, False),
            (0.0, -0.0, True),  # a slot: packed as it is
            ("a", _Text("a"), False), ("a", _Loud("a"), False), (["a"], ["a", "b"], False),
            (["a", "b"], ["a"], False), (["a"], [_Loud("a")], False), ([], [[]], False),
            (np.zeros(2), np.zeros(3), False), (np.zeros(2), np.zeros(2, "<f4"), False),
        ],
    )
    def test_equal_values_of_another_type_or_length_never_reuse_a_learned_frame(
        self, learned, other, reused
    ):
        learn_writer({"k": learned, "n": 7})
        value = {"k": other, "n": 7}
        layout = serialization._WRITERS[("k", "n")]
        assert (layout(value) is not serialization._MISMATCH) == reused
        assert written(value) == generic(value)

    @pytest.mark.parametrize(
        "learned, value",
        [
            ({"k": 1}, {"k": 2**63}),
            ({"k": 1}, {"k": -(2**63) - 1}),
            ({"k": np.zeros(2)}, {"k": np.array([1, 2], dtype=object)}),
            ({"k": 1}, {_KeyLike(): 1}),
            ({"k": ["a"]}, {"k": _nested(33, "a", lambda v: [v])}),
            ({"k": 1}, {"k": _nested(32, {}, lambda v: {"k": [v]})}),
        ],
        ids=["past_int64", "below_int64", "object_array", "non_str_key", "nested_33", "nested_deep"],
    )
    def test_a_learned_layout_refuses_what_the_generic_encoder_refuses(self, learned, value):
        learn_writer(learned)
        assert refused(value)
        cold = generic(value)
        assert cold[0] is REFUSED
        with pytest.raises(SerializationError) as excinfo:
            serialize(value)
        assert str(excinfo.value) == cold[1]

    @pytest.mark.parametrize("key", [_Text("k"), _Loud("k")], ids=["str_subclass", "loud"])
    def test_a_key_of_a_str_subclass_never_reuses_a_learned_frame(self, key):
        learn_writer({"k": 1})
        assert serialization._WRITERS[("k",)]({key: 1}) is serialization._MISMATCH
        assert written({key: 1}) == generic({key: 1})

    @pytest.mark.parametrize("nbytes", [serialization._INLINE_PAYLOAD_MAX - 1,
                                        serialization._INLINE_PAYLOAD_MAX])
    def test_an_array_is_inline_exactly_when_the_generic_encoder_inlines_it(self, nbytes):
        value = {"a": np.zeros(nbytes, "u1"), "n": 1}
        learn_writer(value)
        assert serialization._WRITERS[("a", "n")] is not serialization._unlearnable
        frame, cuts = written(value)
        assert (frame, cuts) == generic(value)
        assert any(view for view, _ in cuts) == (nbytes >= serialization._INLINE_PAYLOAD_MAX)

    def test_large_payloads_stay_zero_copy_segments(self):
        first, second = np.arange(100.0), np.arange(200.0)
        value = {"a": first, "n": 1, "b": second, "small": np.zeros(3)}
        learn_writer(value)
        segments = serialize_buffers(value)
        assert b"".join(segments) == generic(value)[0]
        views = [segment for segment in segments if isinstance(segment, memoryview)]
        assert [view.readonly for view in views] == [True, True]
        for view, array in zip(views, (first, second)):
            assert np.shares_memory(np.frombuffer(view, array.dtype), array)

    def test_a_learned_layout_keeps_no_list_it_saw(self):
        models = ["m:1"]
        learn_writer({"models": models, "n": 1})
        models[0] = "m:2"  # the caller reuses the list it sent
        for names in (["m:1"], ["m:2"]):
            assert written({"models": names, "n": 1}) == generic({"models": names, "n": 1})

    def test_a_writer_whose_dicts_changed_is_learned_again(self, monkeypatch):
        old, new = {"k": "a", "n": 1}, {"k": "b", "n": 1}
        frames = {"a": generic(old)[0], "b": generic(new)[0]}
        monkeypatch.setattr(serialization, "_WRITERS", {})
        for _ in range(3):  # seen, learned, matched
            assert b"".join(serialize_buffers(old)) == frames["a"]
        calls = Counter()
        real = serialization._encode_dict

        def counted(*args):
            calls["generic"] += 1
            return real(*args)

        monkeypatch.setitem(serialization._ENCODERS, dict, counted)
        # Missed, found stale and learned again, then written by its layout.
        for sighting in range(3):
            calls.clear()
            assert b"".join(serialize_buffers(new)) == frames["b"]
            assert calls["generic"] == (sighting < 2)

    def test_the_writer_memo_is_bounded(self):
        serialization._WRITERS.clear()
        for i in range(3 * serialization._LAYOUTS_MAX):
            value = {f"k{i}": i}
            assert serialize(value) == serialize(value) == serialize(value)
            assert len(serialization._WRITERS) <= serialization._LAYOUTS_MAX
