"""One value model at the container boundary: the cache key, the codec and
the in-process copy agree on every value.

Three paths decide what a query input may be:

* :func:`repro.core.types.hash_input`, the prediction cache's key, which an
  input meets before any queue holds it;
* :func:`repro.rpc.serialization.serialize`, the frame a tcp or shm
  container is sent;
* :func:`repro.rpc.serialization.wire_copy`, what an in-process container is
  handed instead of a decoded frame.

The codec is the reference.  Over every kind the codec carries and every
kind it refuses, the property checks that the key refuses
(``ValidationError``) exactly when the codec does (``SerializationError``)
and exactly when the copy does; that where all three accept, the copy is the
decoded frame in type, dtype, shape, value and read-only flag; and that equal
digests imply equal wire bytes, so two inputs served each other's cached
predictions are inputs every container would have been sent alike.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, strategies as st

from repro.core.exceptions import SerializationError, ValidationError
from repro.core.types import hash_input
from repro.rpc.serialization import deserialize, serialize, wire_copy
from test_serialization import _keys, _nested, _scalars
from test_serialization_copy import assert_same


class _Plain:
    """An object with no content encoding."""


#: Kinds the codec refuses, beside those ``_scalars`` already holds (numpy
#: bools, complex numbers, sets, unknown classes, ints past int64, object,
#: datetime, timedelta and structured arrays).
_REFUSED = st.sampled_from(
    [
        memoryview(b"ab"),
        memoryview(b"abcd").cast("B", (2, 2)),
        frozenset({"a"}),
        _Plain(),
        np.datetime64("2026-01-01"),
        np.complex64(1 + 2j),
        np.array([1, 2], dtype="timedelta64[s]"),
    ]
)


_values = st.recursive(
    _scalars | _REFUSED,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=8,
)
#: Nesting at and past the codec's 32 levels, around any value.
_deep = st.builds(
    _nested,
    st.integers(30, 34),
    _values,
    st.sampled_from([lambda v: [v], lambda v: (v,), lambda v: {"k": v}]),
)
#: Ints at int64's bounds, on their own: the key encodes an int by itself.
_edges = st.integers(-(2**64), 2**64) | st.sampled_from(
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, np.uint64(2**64 - 1)]
)
VALUES = _values | _deep | _edges

#: What a value may be paired with: values the wire may deliver alike.
TWINS = [
    copy.deepcopy,
    lambda v: deserialize(serialize(v)),  # what a container is handed
    wire_copy,
]


def _outcome(path, value, refusal):
    try:
        return path(value)
    except refusal as exc:
        return exc


def _key(value):
    return _outcome(hash_input, value, ValidationError)


class TestOneValueModel:
    @given(VALUES, st.sampled_from(TWINS), VALUES)
    def test_the_key_the_codec_and_the_copy_agree(self, value, twin, other):
        digest = _key(value)
        frame = _outcome(serialize, value, SerializationError)
        copied = _outcome(wire_copy, value, SerializationError)
        refused = isinstance(frame, SerializationError)
        assert isinstance(digest, ValidationError) == refused
        assert isinstance(copied, SerializationError) == refused
        if refused:
            return
        assert_same(copied, deserialize(frame))
        # Equal digests imply equal wire bytes: for a twin the wire may
        # deliver alike, and for an unrelated value.
        for paired in (twin(value), other):
            if _key(paired) == digest:
                assert serialize(paired) == frame
