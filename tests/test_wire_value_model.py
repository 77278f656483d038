"""One value model at the container boundary: the cache key is the wire
frame, and the in-process copy is the decoded frame.

Three paths decide what a query input may be:

* :func:`repro.core.types.hash_input`, the prediction cache's key, which an
  input meets before any queue holds it;
* :func:`repro.rpc.serialization.serialize`, the frame a tcp or shm
  container is sent;
* :func:`repro.rpc.serialization.wire_copy`, what an in-process container is
  handed instead of a decoded frame.

The codec is the reference, judged where an input travels: as an item of a
predict request's ``inputs``.  Over every kind the codec carries and every
kind it refuses, the property checks that the key refuses
(``ValidationError``) exactly when that request's frame does
(``SerializationError``) and exactly when its copy does; that where all
three accept, the key is ``sha1(serialize(x))`` and the copy is the decoded
frame in type, dtype, shape, value and read-only flag.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import example, given, strategies as st

from repro.core.exceptions import SerializationError, ValidationError
from repro.core.types import hash_input
from repro.rpc.protocol import predict_request
from repro.rpc.serialization import deserialize, serialize, wire_copy
from test_serialization import _keys, _nested, _scalars
from test_serialization_copy import assert_same


class _Plain:
    """An object with no content encoding."""


#: Text that is not UTF-8: lone surrogates, as a JSON ``"\ud800"`` escape
#: decodes, and a pair left unjoined (two surrogates, not one character).
_SURROGATES = st.sampled_from(["\ud800", "a\udfff", "\ud83d\ude00"])

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
        # numpy makes timedelta64 an integer: an int frame would drop the unit.
        np.timedelta64(3, "ns"),
        np.timedelta64(3, "s"),
    ]
)


_values = st.recursive(
    _scalars | _REFUSED | _SURROGATES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(_keys | _SURROGATES, children, max_size=3),
    max_leaves=8,
)
#: Nesting around the codec's 32 levels, and so around the 30 an input has
#: inside a request, around any value.
_deep = st.builds(
    _nested,
    st.integers(29, 34),
    _values,
    st.sampled_from([lambda v: [v], lambda v: (v,), lambda v: {"k": v}]),
)
#: Ints at int64's bounds, on their own.
_edges = st.integers(-(2**64), 2**64) | st.sampled_from(
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, np.uint64(2**64 - 1)]
)
VALUES = _values | _deep | _edges


def _outcome(path, value, refusal):
    try:
        return path(value)
    except refusal as exc:
        return exc


class TestOneValueModel:
    @given(VALUES)
    @example(np.timedelta64(3, "s"))  # an int() that raises TypeError
    @example({"\ud800": [1]})
    @example(_nested(31, 0, lambda v: [v]))  # 33 deep inside the request
    def test_the_key_is_the_frame_the_request_carries_or_both_refuse(self, value):
        request = predict_request(0, [value])
        digest = _outcome(hash_input, value, ValidationError)
        frame = _outcome(serialize, request, SerializationError)
        copied = _outcome(wire_copy, request, SerializationError)
        refused = isinstance(frame, SerializationError)
        assert isinstance(digest, ValidationError) == refused
        assert isinstance(copied, SerializationError) == refused
        if refused:
            return
        assert digest == hashlib.sha1(serialize(value)).hexdigest()
        assert_same(copied, deserialize(frame))
