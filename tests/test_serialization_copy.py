"""The in-process lane's copy is the codec's round trip, without the bytes.

A container behind ``transport="inprocess"`` is handed
:func:`repro.rpc.serialization.wire_copy` of each message instead of a
decoded frame.  The contract it keeps is the one the codec kept implicitly:
the receiver gets a private copy (fresh, C-ordered, read-only arrays; a
homogeneous batch as rows of one stacked array), numpy scalars arrive as
Python scalars, and what the codec refuses is refused with the same
:class:`SerializationError`.  It is stated here as an equivalence over the
codec's value types, not as equality of code: for every value, the copy
equals ``deserialize(serialize(value))`` in type, value, dtype, shape and
read-only flag, or both refuse.

Two things the codec cannot carry are left out, since it fails on them with
a bare ``ValueError`` / ``UnicodeEncodeError`` rather than refusing them:
datetime arrays (numpy exports no buffer for them) and strings with lone
surrogates.  The copy does not check for either.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.exceptions import SerializationError
from repro.rpc.serialization import deserialize, serialize, wire_copy


class _Text(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


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


_DTYPES = ["<f8", ">f8", "<f4", "<f2", "<i8", ">i4", "<u2", "|u1", "|i1", "|b1",
           "<c16", "|S3", "<U2"]
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
#: How an array may reach the lane: as is, Fortran-ordered, strided, a
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
#: Lists of same-dtype, same-shape arrays: one columnar frame on the wire.
_batches = st.tuples(
    st.sampled_from(_DTYPES), hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)
).flatmap(lambda spec: st.lists(hnp.arrays(*spec), min_size=2, max_size=4))
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**64), 2**64)
    | st.integers(-5, 5).map(_Int)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats().map(_Float)
    | st.text(max_size=20)
    | st.text(min_size=500, max_size=520)
    | st.text(max_size=6).map(_Text)
    | st.binary(max_size=20)
    | st.binary(max_size=600).map(bytearray)
    | st.sampled_from([np.int8, np.int16, np.int32, np.int64]).map(lambda t: t(-7))
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.floats(width=16).map(np.float16)
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64)
    | st.text(max_size=4).map(np.str_)
    | st.binary(max_size=4).map(np.bytes_)
    # What the codec refuses: numpy bools and complex numbers, unknown
    # classes, sets, object arrays.
    | st.sampled_from([np.bool_(True), np.complex128(1j), 1j, object(), {1, 2}, range(2)])
    | st.sampled_from([np.array([object()]), np.array([1, "a"], dtype=object)])
    | _arrays
    | _batches
)
_keys = st.text(max_size=6) | st.text(max_size=3).map(_Text) | st.integers(0, 2) | st.none()
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(children, max_size=3).map(_List)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=2).map(_Dict)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=10,
)


class TestCopyIsTheRoundTrip:
    @settings(max_examples=800, deadline=None)
    @given(_values)
    def test_equal_in_type_value_dtype_shape_and_flags_or_both_refuse(self, value):
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
            2**63,
            -(2**63) - 1,
            np.uint64(2**64 - 1),
        ],
        ids=["object_array", "object_batch", "int_key", "nested_none_key", "object",
             "set", "numpy_bool", "past_int64", "below_int64", "uint64_max"],
    )
    def test_both_refuse_with_serialization_error(self, value):
        with pytest.raises(SerializationError):
            serialize(value)
        with pytest.raises(SerializationError):
            wire_copy(value)

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
