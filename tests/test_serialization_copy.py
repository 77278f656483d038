"""The in-process lane's copy is the codec's round trip, without the bytes.

A container behind ``transport="inprocess"`` is handed
:func:`repro.rpc.serialization.wire_copy` of each message instead of a
decoded frame.  The contract it keeps is the one the codec kept implicitly:
the receiver gets a private copy (fresh, C-ordered, read-only arrays; a
homogeneous batch as rows of one stacked array), numpy scalars arrive as
Python scalars, and what the codec refuses is refused with the same
:class:`SerializationError`.  It is stated here as an equivalence over the
codec's value types (the codec contract's ``wire_values``), not as equality
of code: for every value, the copy equals ``deserialize(serialize(value))``
in type, value, dtype, shape and read-only flag, or both refuse.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given

from repro.core.exceptions import SerializationError
from repro.rpc.serialization import deserialize, serialize, wire_copy
from test_serialization import _columns, _Loud, wire_values


def _outcome(transform, value):
    try:
        return transform(value)
    except SerializationError as exc:
        return exc


def assert_same(copy, decoded) -> None:
    """``copy`` is what ``decoded`` is: type, value, dtype, shape, flags."""
    assert type(copy) is type(decoded)
    if isinstance(decoded, SerializationError):
        return
    if isinstance(decoded, np.ndarray):
        assert copy.dtype == decoded.dtype and copy.shape == decoded.shape
        assert not copy.flags.writeable and not decoded.flags.writeable
        assert copy.flags.c_contiguous
        assert copy.tobytes() == decoded.tobytes()  # bit for bit, NaNs included
    elif isinstance(decoded, list):
        assert len(copy) == len(decoded)
        for mine, theirs in zip(copy, decoded):
            assert_same(mine, theirs)
    elif isinstance(decoded, dict):
        assert list(copy) == list(decoded)
        assert all(type(key) is str for key in copy)
        for key in decoded:
            assert_same(copy[key], decoded[key])
    elif isinstance(decoded, float):
        assert struct.pack("<d", copy) == struct.pack("<d", decoded)
    else:
        assert copy == decoded


class TestCopyIsTheRoundTrip:
    @given(wire_values)
    def test_equal_in_type_value_dtype_shape_and_flags_or_both_refuse(self, value):
        assert_same(
            _outcome(wire_copy, value), _outcome(lambda v: deserialize(serialize(v)), value)
        )

    @given(_columns)
    def test_a_column_list_copies_as_the_codec_decodes_it(self, value):
        # Ints or floats, or one odd element out (mixed, or past int64).
        assert_same(
            _outcome(wire_copy, value), _outcome(lambda v: deserialize(serialize(v)), value)
        )

    @pytest.mark.parametrize(
        "value",
        [
            np.array([object()]),
            [np.array([1, 2], dtype=object), np.array([3, 4], dtype=object)],
            {1: "a"},
            {"ok": {None: 1}},
            object(),
            [1, {2, 3}],
            np.bool_(False),
            [1, 2**63],
            2**63,
            -(2**63) - 1,
            np.uint64(2**64 - 1),
            np.array(["2026-01-01"], dtype="datetime64[D]"),
            [np.zeros(2, "m8[s]"), np.zeros(2, "m8[s]")],
            np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")]),
        ],
        ids=["object_array", "object_batch", "int_key", "nested_none_key", "object",
             "set", "numpy_bool", "column_past_int64", "past_int64", "below_int64", "uint64_max",
             "datetime_array", "timedelta_batch", "structured_array"],
    )
    def test_both_refuse_with_serialization_error(self, value):
        with pytest.raises(SerializationError):
            serialize(value)
        with pytest.raises(SerializationError):
            wire_copy(value)

    @pytest.mark.parametrize(
        "value", [_Loud("ab"), _Loud("é"), {_Loud("k"): [_Loud("ab")]}],
        ids=["ascii", "non_ascii", "key_and_item"],
    )
    def test_a_str_subclass_is_copied_as_its_frame_carries_it(self, value):
        # ``_Loud`` encodes as its upper case: the frame carries what encode() wrote.
        assert_same(wire_copy(value), deserialize(serialize(value)))

    @pytest.mark.parametrize("depth", [31, 32, 33, 34])
    @pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"k": v}], ids=["list", "dict"])
    def test_the_nesting_limit_is_the_codecs(self, depth, wrap):
        value = 0
        for _ in range(depth):
            value = wrap(value)
        assert_same(
            _outcome(wire_copy, value), _outcome(lambda v: deserialize(serialize(v)), value)
        )

    def test_the_copy_is_private(self):
        batch = [np.arange(4.0), np.arange(4.0) + 1]
        single = np.arange(6).reshape(2, 3)
        copy = wire_copy({"inputs": batch, "x": single, "blob": bytearray(b"ab")})
        for mine, theirs in zip(copy["inputs"] + [copy["x"]], batch + [single]):
            assert not np.shares_memory(mine, theirs)
            with pytest.raises(ValueError):
                mine[0] = 99
        batch[0][0] = 99.0
        assert copy["inputs"][0][0] == 0.0
        assert type(copy["blob"]) is bytes
