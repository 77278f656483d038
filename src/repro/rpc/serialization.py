"""Binary serialization for RPC payloads.

The format is a small, self-describing tagged binary encoding built on
``struct``: it supports the value types that flow across the
Clipper-to-container boundary — numpy arrays (the common case), Python
scalars, strings, bytes, lists/tuples and dicts.  It deliberately avoids
``pickle`` so that the wire format is language-neutral in spirit, matching
the paper's cross-language RPC goal, and so that deserialization of
untrusted bytes cannot execute code.

Columnar batches
----------------
A *homogeneous* list of ndarrays — every element the same dtype and shape,
which is what a prediction batch looks like on the wire — is encoded as one
``NDARRAY_BATCH`` frame: a single dtype/shape header followed by the
elements' raw bytes back to back (equivalent to ``np.stack``'s buffer),
instead of ``N`` individually tagged arrays each carrying its own header.
The rows leave as one joined payload.  Heterogeneous lists transparently
fall back to the tagged ``LIST`` encoding, so every value the tagged format
could represent still round-trips.

The ``NDARRAY_BATCH`` frame layout is::

    u8   tag (9)
    u8   len(dtype)   dtype string, ascii (numpy ``dtype.str``, e.g. "<f4")
    u8   ndim         element ndim (>= 1)
    i64  × ndim       element shape
    u32  count        number of elements in the batch
    u64  nbytes       total payload size (count × element nbytes)
    raw  payload      elements' contiguous bytes, concatenated

A list of two or more values whose exact types are all written as int64
(``int``, ``np.int32``/``int64``/``uint8``) or all as float64 (``float``,
``np.float32``/``float64``), such as a batch's budgets or outputs, is one
*column* frame, written by one ``array(...)`` and read by one ``tolist()``;
bools, single values, mixed lists and ints past int64 stay tagged::

    u8   tag          10 (``I64_COLUMN``) or 11 (``F64_COLUMN``)
    u32  count        number of values (>= 2)
    raw  count × 8    little-endian int64 or float64 values

Zero-copy
---------
Both directions avoid materialising intermediate ``bytes``:

* **Encode** — :func:`serialize_buffers` returns a *list* of buffer segments
  (small control bytes interleaved with ``memoryview`` s of the original
  array payloads) suitable for ``writev``-style transports; a large array
  payload is never copied into the frame (a batch's rows are, once, into
  their joined payload).  :func:`serialize` remains the
  join-to-one-``bytes`` convenience.  The returned views alias the caller's
  arrays, so they must be consumed (written or joined) before those arrays
  are mutated.
* **Decode** — ndarray payloads are returned as **read-only**
  ``np.frombuffer`` views into the received frame (no ``bytes()`` slice, no
  ``array.copy()``).  Callers that need to mutate a decoded array copy it
  explicitly (`array.copy()`); everyone else reads it in place.

Layouts
-------
A dict frame seen twice is read, and a dict seen twice written, by a
*layout* built from the frame's *shape*: one ``struct.Struct`` over the
frame read by its tags, whose constant runs hold every header, key and tag
and whose fields hold scalars, bytes and strs (array, batch and column
payloads are skipped and read apart, as views and lists).  A *reader*, keyed
by entry count and frame length, is one ``unpack_from``, one comparison of
the constant runs and the values built from the fields.  A *writer*, keyed by
the dict's key tuple, packs the same fields over the control bytes alone:
exact ints, floats and bools in its slots, ``str`` values, lists of them and
None constant, array payloads inline or cut around as the generic encoder
puts them; any other value keeps the dict on the generic encoder.  Whatever
does not match takes the generic path, with its bytes and values.  A layout
that matched and then misses twice in a row is learned again from what
missed.
"""

from __future__ import annotations

import operator
import re
import struct
import sys
from array import array
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import SerializationError

#: Media type under which this format travels over HTTP (the REST edge's
#: binary lane and the client SDK negotiate it via ``Content-Type``/
#: ``Accept``).  Defined here — next to the format itself — so the client
#: SDK can name the format without importing the serving engine's API layer.
COLUMNAR_CONTENT_TYPE = "application/x-clipper-columnar"

# One-byte type tags.
_TAG_NONE = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_BOOL = 3
_TAG_STR = 4
_TAG_BYTES = 5
_TAG_LIST = 6
_TAG_DICT = 7
_TAG_NDARRAY = 8
_TAG_NDARRAY_BATCH = 9
_TAG_I64_COLUMN = 10
_TAG_F64_COLUMN = 11

_MAX_DEPTH = 32

#: The ``dtype.kind`` of every array the wire carries, written and read:
#: bools, numbers, bytes and text.  Objects (addresses, not content),
#: datetimes and timedeltas (no buffer), and structured or void records
#: (fields the wire does not name) are refused at both ends.
ARRAY_KINDS = "biufcSU"

#: Payloads smaller than this are copied inline into the control buffer;
#: larger ones are emitted as standalone zero-copy segments.  Tiny segments
#: would make writev-style sends slower than one small copy.
_INLINE_PAYLOAD_MAX = 512


def serialize(value: Any) -> bytes:
    """Encode ``value`` into one contiguous tagged-binary frame."""
    return b"".join(serialize_buffers(value))


def serialize_buffers(value: Any, layouts: bool = True, depth: int = 0) -> List[Any]:
    """Encode ``value`` as a list of buffer segments (writev-style).

    Joining the segments yields exactly :func:`serialize`'s output, but a
    gather-capable transport can write them without ever materialising the
    frame.  Large ndarray/bytes payload segments are read-only views of the
    caller's data — consume them before mutating the originals.  With
    ``layouts=False`` the generic encoder writes the same bytes and no
    writer layout is read or learned: the prediction cache keys an input by
    them, so hashing distinct inputs never evicts the RPC lanes' writers.
    ``value`` is judged as an item ``depth`` containers down in a frame.
    """
    key = layout = None
    if layouts and type(value) is dict and len(value) <= _WRITER_KEYS_MAX:
        key = (*value,)
        layout = _WRITERS.get(key)
        if layout is not None:
            segments = layout(value)
            if segments is _STALE:  # learned again from this dict
                layout = _seen_once
            elif segments is not _MISMATCH:
                return segments
    segments: List[Any] = []
    # Control bytes (tags, lengths, headers, small payloads) gather in one
    # scratch bytearray; a large payload flushes it and is spliced in as a
    # zero-copy view of the caller's data.
    scratch = bytearray()
    try:
        (_ENCODERS.get(type(value)) or _encoder_for(value))(value, scratch, segments, depth)
    except (struct.error, UnicodeEncodeError) as exc:  # past a field's range; a surrogate
        raise SerializationError(f"value not encodable: {exc}") from exc
    if scratch:
        segments.append(scratch)
    if key is not None and layout in (None, _seen_once):
        _remember(_WRITERS, key, layout, _writer, segments, value, segments)
    return segments


def wire_copy(value: Any, _depth: int = 0) -> Any:
    """What ``deserialize(serialize(value))`` returns, built without bytes.

    The in-process RPC lane hands this to a container instead of a decoded
    frame: a private copy in which every ndarray is fresh, C-ordered and
    read-only (a homogeneous batch: rows of one stacked array, as decoded),
    numpy scalars are Python scalars, tuples lists and bytearrays bytes.
    The encoder is chosen as :func:`serialize` chooses it and the same rules
    hold (an array or a numpy scalar of a kind outside :data:`ARRAY_KINDS`,
    an int past int64, a ``str`` that is not UTF-8, a key that is not a
    ``str``, nesting past 32 levels), so ``wire_copy(x)`` equals
    ``deserialize(serialize(x))``, or both raise :class:`SerializationError`.
    """
    if _depth > _MAX_DEPTH:  # an item of a non-empty container at the limit
        raise SerializationError("value nesting exceeds maximum depth")
    encode = _ENCODERS.get(type(value)) or _encoder_for(value)
    if encode is _encode_dict:
        copy = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError("dict keys must be strings")
            copy[_text(key)] = wire_copy(item, _depth + 1)
        return copy
    if encode is _encode_str:
        return _text(value)
    if encode is _encode_int:
        number = int(value)
        if not -(1 << 63) <= number < 1 << 63:
            raise SerializationError(f"value out of range: {number} is not a 64-bit int")
        return number
    if encode is _encode_float:
        return float(value)
    if encode is _encode_list:
        column = _column(value)
        if column is not None:
            return column.tolist()
        batch = _homogeneous_batch_shape(value)
        if batch is not None:
            return list(_read_only(np.array(value, dtype=batch[0])))
        return [wire_copy(item, _depth + 1) for item in value]
    if encode is _encode_ndarray:
        if value.dtype.kind not in ARRAY_KINDS:
            raise SerializationError(f"{value.dtype} arrays are not serializable")
        # ndmin=1: the encoder's np.ascontiguousarray sends a 0-d array as (1,).
        return _read_only(np.array(value, order="C", ndmin=1))
    return bytes(value) if encode is _encode_bytes else value  # or None, a bool


def _text(text: str) -> str:
    """``text`` as a frame carries it (a subclass's ``encode()`` included),
    or refused as the encoder refuses a ``str`` that is not UTF-8 (one
    holding a surrogate)."""
    try:  # exact ASCII text is its own frame's text; ``isascii()`` reads a flag
        return text if type(text) is str and text.isascii() else str(text.encode("utf-8"), "utf-8")
    except UnicodeEncodeError as exc:
        raise SerializationError(f"value not encodable: {exc}") from exc


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def serialized_nbytes(buffers: List[Any]) -> int:
    """Total size in bytes of a :func:`serialize_buffers` segment list."""
    return sum(map(len, buffers))


def deserialize(data) -> Any:
    """Decode a value previously produced by :func:`serialize`.

    ``data`` may be any contiguous bytes-like object (``bytes``,
    ``bytearray``, ``memoryview``).  Decoded ndarrays are read-only views
    into ``data`` — they keep it alive and copy only on demand.  A frame
    the format cannot hold raises :class:`SerializationError`, nothing else.
    """
    view = memoryview(data)
    if view.format != "B":
        view = view.cast("B")
    size = len(view)
    key = (_unpack_u32(view, 1)[0], size) if size > 4 and view[0] == _TAG_DICT else None
    layout = _LAYOUTS.get(key) if key else None
    try:
        if layout is not None:
            value = layout(view)
            if value is _STALE:  # learned again from this frame
                layout = _seen_once
            elif value is not _MISMATCH:
                return value
        value, offset = _decode(view, 0, depth=0)
    except (struct.error, UnicodeDecodeError) as exc:
        raise SerializationError(f"truncated or corrupt frame: {exc}") from exc
    if offset != size:
        raise SerializationError(f"trailing bytes after decoded value: {size - offset} left")
    if key and layout in (None, _seen_once):
        _remember(_LAYOUTS, key, layout, _reader, [view])
    return value


# -- encode ----------------------------------------------------------------------
#
# One encoder per value type, ``encoder(value, scratch, segments, depth)``,
# found by exact ``type()`` in ``_ENCODERS``; subclasses and numpy scalars
# take the ``isinstance`` chain in ``_encoder_for``.  Tag and value leave in
# one pre-compiled ``Struct.pack``.

_pack_int = struct.Struct("<Bq").pack
_pack_float = struct.Struct("<Bd").pack
_pack_len = struct.Struct("<BI").pack  # tag + u32 length or count
_pack_count_nbytes = struct.Struct("<IQ").pack

#: ``str`` -> its whole frame (tag, length, utf-8).  Dict keys and short
#: strings recur message after message ("query_id", "m:1"); the strings come
#: from outside the process, so the cache is bounded and starts over when full.
_STR_FRAMES: dict = {}
_STR_FRAMES_MAX = 1024
_CACHED_STR_MAX = 64
#: ``(shape, dtype)`` -> an array frame's head, bounded alike: rendering a
#: dtype's name costs more than the rest of a small array's frame.
_ARRAY_HEADS: dict = {}


def _payload(buffer, scratch: bytearray, segments: List[Any]) -> None:
    """Append one payload: inline when small, else as a zero-copy segment."""
    view = memoryview(buffer)
    nbytes = view.nbytes
    if nbytes == 0:
        return
    if nbytes < _INLINE_PAYLOAD_MAX:
        scratch += view.cast("B")
        return
    if scratch:
        segments.append(bytes(scratch))
        del scratch[:]
    segments.append(view.cast("B").toreadonly())


def _encode_none(value, scratch, segments, depth) -> None:
    scratch.append(_TAG_NONE)


def _encode_bool(value, scratch, segments, depth) -> None:
    scratch += b"\x03\x01" if value else b"\x03\x00"


def _encode_int(value, scratch, segments, depth) -> None:
    scratch += _pack_int(_TAG_INT, int(value))  # int(): numpy scalars, subclasses


def _encode_float(value, scratch, segments, depth) -> None:
    scratch += _pack_float(_TAG_FLOAT, float(value))


def _encode_str(value, scratch, segments, depth) -> None:
    # Only exact ``str`` is cached: a subclass may encode as it likes.
    exact = type(value) is str
    frame = _STR_FRAMES.get(value) if exact else None
    if frame is None:
        encoded = value.encode("utf-8")
        frame = _pack_len(_TAG_STR, len(encoded))
        if len(encoded) >= _INLINE_PAYLOAD_MAX:
            scratch += frame
            _payload(encoded, scratch, segments)
            return
        frame += encoded
        if exact and len(encoded) <= _CACHED_STR_MAX:
            if len(_STR_FRAMES) >= _STR_FRAMES_MAX:
                _STR_FRAMES.clear()
            _STR_FRAMES[value] = frame
    scratch += frame


def _encode_bytes(value, scratch, segments, depth) -> None:
    scratch += _pack_len(_TAG_BYTES, len(value))
    _payload(value, scratch, segments)


def _encode_list(value, scratch, segments, depth) -> None:
    column = _column(value)
    if column is not None:
        scratch += _pack_len(_COLUMN_TAGS[column.typecode], len(column))
        if _BIG_ENDIAN:
            column.byteswap()
        scratch += column
        return
    if _homogeneous_batch_shape(value) is not None:
        _encode_ndarray_batch(value, scratch, segments)
        return
    scratch += _pack_len(_TAG_LIST, len(value))
    if value and depth >= _MAX_DEPTH:
        raise SerializationError("value nesting exceeds maximum depth")
    depth += 1
    lookup = _ENCODERS.get
    for item in value:
        (lookup(type(item)) or _encoder_for(item))(item, scratch, segments, depth)


def _encode_dict(value, scratch, segments, depth) -> None:
    scratch += _pack_len(_TAG_DICT, len(value))
    too_deep = depth >= _MAX_DEPTH
    depth += 1
    lookup = _ENCODERS.get
    frames = _STR_FRAMES.get
    for key, item in value.items():
        if not isinstance(key, str):
            raise SerializationError("dict keys must be strings")
        if too_deep:
            raise SerializationError("value nesting exceeds maximum depth")
        frame = frames(key) if type(key) is str else None
        if frame is not None:
            scratch += frame  # the common case, without a call
        else:
            _encode_str(key, scratch, segments, depth)
        (lookup(type(item)) or _encoder_for(item))(item, scratch, segments, depth)


def _encode_ndarray(array, scratch, segments, depth) -> None:
    contiguous = np.ascontiguousarray(array)
    scratch += array_head(contiguous)
    _payload(contiguous, scratch, segments)


def array_head(array: np.ndarray) -> bytes:
    """What the frame of a (1-d or more) ``array`` holds before its C-ordered
    buffer: tag, dtype, shape and payload size, memoised per layout in
    ``_ARRAY_HEADS``.  The prediction cache's key joins it to the buffer too."""
    head = _ARRAY_HEADS.get((array.shape, array.dtype))
    if head is None:
        if array.dtype.kind not in ARRAY_KINDS:
            raise SerializationError(f"{array.dtype} arrays are not serializable")
        name, ndim = array.dtype.str.encode("ascii"), array.ndim
        fmt = f"<BB{len(name)}sB{ndim}qQ"  # tag, dtype name, shape, payload size
        head = struct.pack(fmt, _TAG_NDARRAY, len(name), name, ndim, *array.shape, array.nbytes)
        if len(_ARRAY_HEADS) >= _STR_FRAMES_MAX:
            _ARRAY_HEADS.clear()
        _ARRAY_HEADS[array.shape, array.dtype] = head
    return head


#: The ``isinstance`` chain, in the order that decides ties: ``bool`` before
#: ``int`` (bool is a subclass of int), numpy scalars beside the builtins.
_FALLBACK_ENCODERS = (
    (bool, _encode_bool),
    ((int, np.integer), _encode_int),
    ((float, np.floating), _encode_float),
    (str, _encode_str),
    ((bytes, bytearray), _encode_bytes),
    (np.ndarray, _encode_ndarray),
    ((list, tuple), _encode_list),
    (dict, _encode_dict),
)


def _encoder_for(value: Any):
    """The encoder of a value whose exact type is not in ``_ENCODERS``.  A
    numpy scalar is carried only when an array of its kind would be: numpy
    makes ``timedelta64`` an integer, whose unit an int frame would drop."""
    if not isinstance(value, np.generic) or value.dtype.kind in ARRAY_KINDS:
        for types, encoder in _FALLBACK_ENCODERS:
            if isinstance(value, types):
                return encoder
    raise SerializationError(f"cannot serialize value of type {type(value).__name__}")


_ENCODERS = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    np.ndarray: _encode_ndarray,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
}
# Model outputs and latencies arrive as numpy scalars as often as builtins.
_ENCODERS.update((t, _encode_int) for t in (np.int32, np.int64, np.uint8))
_ENCODERS.update((t, _encode_float) for t in (np.float32, np.float64))

#: Exact type -> the ``array`` typecode its column is written with.
_COLUMN_CODES = {t: "q" for t, encode in _ENCODERS.items() if encode is _encode_int}
_COLUMN_CODES.update((t, "d") for t, encode in _ENCODERS.items() if encode is _encode_float)
_COLUMN_TAGS = {"q": _TAG_I64_COLUMN, "d": _TAG_F64_COLUMN}
_COLUMN_CODES_BY_TAG = {tag: code for code, tag in _COLUMN_TAGS.items()}
_BIG_ENDIAN = sys.byteorder == "big"


def _column(items) -> Optional[array]:
    """``items`` as one int64 or float64 ``array`` when it is a column, else None."""
    if len(items) < 2:
        return None
    codes = {_COLUMN_CODES.get(kind) for kind in {*map(type, items)}}
    if len(codes) != 1 or None in codes:
        return None
    try:
        return array(codes.pop(), items)
    except OverflowError:  # past int64: the tagged path refuses it
        return None


def _column_values(payload: memoryview, code: str) -> list:
    """The values of a column's payload, as Python ints or floats."""
    if _BIG_ENDIAN:
        column = array(code, bytes(payload))
        column.byteswap()
        return column.tolist()
    return payload.cast(code).tolist()


def _homogeneous_batch_shape(items) -> Optional[Tuple[Any, tuple]]:
    """The shared (dtype, shape) when ``items`` is a columnar-eligible batch.

    Eligible means: at least two elements, every element an ndarray of one
    dtype and one shape, ``ndim >= 1`` (0-d arrays keep their per-element
    tagged round-trip) and of a kind the wire carries.  Anything else returns
    None and falls back to the tagged LIST encoding.
    """
    if len(items) < 2:
        return None
    first = items[0]
    if not (isinstance(first, np.ndarray) and first.ndim and first.dtype.kind in ARRAY_KINDS):
        return None
    dtype = first.dtype
    shape = first.shape
    for item in items:
        if not isinstance(item, np.ndarray) or item.dtype != dtype or item.shape != shape:
            return None
    return dtype, shape


def _encode_ndarray_batch(arrays, scratch, segments) -> None:
    first = arrays[0]
    scratch.append(_TAG_NDARRAY_BATCH)
    scratch += array_head(first)[1:-8]  # the dtype and shape an array frame writes
    scratch += _pack_count_nbytes(len(arrays), first.nbytes * len(arrays))
    try:
        rows = b"".join(arrays)
    except TypeError:  # a strided row: joined from C-ordered copies
        rows = b"".join([np.ascontiguousarray(row) for row in arrays])
    _payload(rows, scratch, segments)


def _decode(view: memoryview, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise SerializationError("value nesting exceeds maximum depth")
    if offset >= len(view):
        raise SerializationError("unexpected end of buffer")
    tag = view[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    scalar = _SCALARS.get(tag)
    if scalar:  # ``?`` reads any non-zero byte as True
        return scalar.unpack_from(view, offset)[0], offset + scalar.size
    if tag == _TAG_NDARRAY or tag == _TAG_NDARRAY_BATCH:
        dtype, shape, offset, end = _ndarray_span(view, offset, tag)
        array = _ndarray_view(view[offset:end], dtype, shape)
        # A batch is the rows of one (count, *shape) view: each aliases the frame.
        return (list(array) if tag == _TAG_NDARRAY_BATCH else array), end
    (length,) = _unpack_u32(view, offset)  # any other tag: a length, or a count of items
    offset += 4
    if tag == _TAG_STR or tag == _TAG_BYTES:
        end = offset + length
        if end > len(view):
            raise SerializationError("truncated str or bytes payload")
        # Straight from the bounds-checked view slice: no intermediate bytes().
        payload = view[offset:end]
        return (str(payload, "utf-8") if tag == _TAG_STR else bytes(payload)), end
    if tag == _TAG_LIST:
        items = []
        for _ in range(length):
            item, offset = _decode(view, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        result = {}
        for _ in range(length):
            if offset < len(view) and view[offset] != _TAG_STR:
                raise SerializationError("dict keys must be strings")
            key, offset = _decode(view, offset, depth + 1)
            value, offset = _decode(view, offset, depth + 1)
            result[key] = value
        return result, offset
    code = _COLUMN_CODES_BY_TAG.get(tag)
    if code:
        end = offset + 8 * length
        if length < 2 or end > len(view):
            raise SerializationError(f"column of {length} values is short or truncated")
        return _column_values(view[offset:end], code), end
    raise SerializationError(f"unknown type tag {tag}")


def _ndarray_span(view: memoryview, offset: int, tag: int) -> Tuple[str, tuple, int, int]:
    """The ndarray or batch header after the tag at ``offset - 1``: its dtype
    name, its shape (a batch's count first) and its payload's bounds."""
    if offset >= len(view) or offset + 1 + view[offset] >= len(view):
        raise SerializationError("truncated ndarray header")
    end = offset + 1 + view[offset]
    if not _DTYPE_NAME.fullmatch(view[offset + 1 : end]):
        raise SerializationError("ndarray dtype is not a numpy dtype.str")
    dtype = str(view[offset + 1 : end], "ascii")
    ndim = view[end]
    shape = struct.unpack_from(f"<{ndim}q", view, end + 1)
    offset = end + 1 + 8 * ndim
    if tag == _TAG_NDARRAY_BATCH:
        shape = (*_unpack_u32(view, offset), *shape)
        offset += 4
    if min(shape, default=0) < 0:
        raise SerializationError(f"negative ndarray dimension in {shape}")
    (nbytes,) = _unpack_u64(view, offset)
    end = offset + 8 + nbytes
    if end > len(view):
        raise SerializationError("truncated ndarray payload")
    return dtype, shape, offset + 8, end


def _ndarray_view(payload: memoryview, dtype, shape) -> np.ndarray:
    """A read-only ndarray view over ``payload`` (zero-copy)."""
    try:
        array = np.frombuffer(payload, dtype)
        if array.shape != shape:
            array = array.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"invalid ndarray payload: {exc}") from exc
    # A view over ``bytes`` is read-only already; one over a bytearray is not.
    return _read_only(array) if array.flags.writeable else array


_SCALARS = {_TAG_BOOL: struct.Struct("<?"), _TAG_INT: struct.Struct("<q"),
            _TAG_FLOAT: struct.Struct("<d")}
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_u64 = struct.Struct("<Q").unpack_from
#: What ``dtype.str`` of a carried array looks like (byte order, kind, item
#: size): any other name would reach numpy's dtype-string parser.
_DTYPE_NAME = re.compile(rb"[<>|][%b]\d+" % ARRAY_KINDS.encode())

# -- layouts ---------------------------------------------------------------------
#
# A reader and a writer are two uses of one ``_Shape``.  Frames with equal
# constant runs are read alike by ``_decode``.

#: (entry count, frame length) -> its reader, or one of the two functions
#: below, which match nothing.  A layout returns ``_MISMATCH`` for a frame
#: (or dict) it does not match, and ``_STALE`` for its second such frame in
#: a row after it matched one: that frame is learned in its place.
#: Threads share it unlocked: a lost write costs a re-learning, not a value.
_LAYOUTS: dict = {}
_LAYOUTS_MAX = 64
#: Bytes a layout may hold as fields (constants and slots, not payloads).
_LAYOUT_FIELD_BYTES_MAX = 4096
_MISMATCH, _STALE = object(), object()


def _seen_once(subject) -> Any:
    return _MISMATCH


def _unlearnable(subject) -> Any:
    return _MISMATCH


def _remember(memo: dict, key, layout, learn, segments: List[Any], *args) -> None:
    """The memo step after the generic path read or wrote, under ``key``, the
    frame ``segments`` join to, with ``layout`` (None or ``_seen_once``) in
    ``memo``: noted at a first sighting; else its shape is compiled and
    ``learn(shape, *args)`` builds the layout, within the field budget.  A
    full memo starts over."""
    if layout is None:
        if len(memo) >= _LAYOUTS_MAX:
            memo.clear()
        memo[key] = _seen_once
        return
    shape = _Shape(memoryview(segments[0] if len(segments) == 1 else b"".join(segments)))
    fits = sum(map(len, shape.learned)) <= _LAYOUT_FIELD_BYTES_MAX
    memo[key] = learn(shape, *args) if fits else _unlearnable


def _missed(misses: list) -> Any:
    """What a layout answers for a frame or dict it does not match;
    ``misses[0]`` counts those in a row since its last match (-1: it never
    matched, and stays)."""
    if misses[0] >= 0:
        misses[0] += 1
    return _STALE if misses[0] >= 2 else _MISMATCH


#: Node kinds.  A dict is a ``_LIST`` node whose spec is its keys.
_SLOT, _TEXT, _NONE, _LIST, _ARRAY, _BATCH, _COLUMN = range(7)


class _Shape:
    """A dict frame ``_decode`` accepted, read by its tags: its ``Struct``
    (``struct``, format ``codes``), the bytes of its non-payload fields
    (``learned``; the constant runs are at ``constants``) and its node tree
    (``root``).  Containers' headers, keys and every value's head (tag,
    length, ndarray header) join constant runs; a value's tail is a field."""

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.codes = ["<"]
        self.learned = []
        self.constants = []
        self.start = 0  # where the open constant run began
        self.root = self.node(0)[0]
        self.field(len(view), "0s")  # a last field: an itemgetter of it picks a tuple
        self.struct = struct.Struct("".join(self.codes))

    def field(self, offset: int, code: str):
        """Close the constant run at ``offset``, then add the field ``code``
        there: its index in an unpacked frame, or a payload's bounds."""
        if offset > self.start:
            self.constants.append(len(self.learned))
            self.field(self.start, f"{offset - self.start}s")
        self.codes.append(code)
        self.start = offset + struct.calcsize(code)
        if code.endswith("x"):
            return slice(offset, self.start)
        self.learned.append(bytes(self.view[offset : self.start]))
        return len(self.learned) - 1

    def node(self, offset: int) -> Tuple[tuple, int]:
        """The node of the value at ``offset``, and where it ends."""
        view = self.view
        tag = view[offset]
        if tag == _TAG_NONE:  # all head
            return (_NONE, None, None), offset + 1
        scalar = _SCALARS.get(tag)
        if scalar:
            return (_SLOT, self.field(offset + 1, scalar.format[-1]), None), self.start
        if tag == _TAG_NDARRAY or tag == _TAG_NDARRAY_BATCH:
            dtype, shape, start, end = _ndarray_span(view, offset + 1, tag)
            kind = _BATCH if tag == _TAG_NDARRAY_BATCH else _ARRAY
            return (kind, self.field(start, f"{end - start}x"), (np.dtype(dtype), shape)), end
        (count,) = _unpack_u32(view, offset + 1)  # a length, or a count of items
        offset += 5
        if tag == _TAG_STR:
            return (_TEXT, self.field(offset, f"{count}s"), None), self.start
        if tag == _TAG_BYTES:  # a slot no writer fills
            return (_SLOT, self.field(offset, f"{count}s"), bytes), self.start
        code = _COLUMN_CODES_BY_TAG.get(tag)
        if code:
            return (_COLUMN, self.field(offset, f"{8 * count}x"), code), self.start
        children = []
        keys = []
        for _ in range(count):
            if tag == _TAG_DICT:  # the key's frame stays in the constant run
                key, offset = _decode(view, offset, 0)
                keys.append(key)
            child, offset = self.node(offset)
            children.append(child)
        return (_LIST, tuple(children), tuple(keys) if tag == _TAG_DICT else None), offset


def _reader(shape: _Shape):
    """The layout of a dict frame ``_decode`` accepted, from its ``shape``: a
    function of a frame of the same length that decodes it, or returns
    ``_MISMATCH`` when that frame's constants differ."""
    unpack = shape.struct.unpack_from
    pick = operator.itemgetter(*shape.constants)
    expected = pick(shape.learned)
    _, children, keys = shape.root
    misses = [-1]

    def read(view: memoryview) -> Any:
        fields = unpack(view)
        if pick(fields) != expected:
            return _missed(misses)
        misses[0] = 0
        return dict(zip(keys, _build(children, fields, view)))

    return read


#: Key tuple -> the layout that writes a dict with those keys, or one of
#: the two functions above; bounded and shared like ``_LAYOUTS``.
_WRITERS: dict = {}
#: More keys than fit the field budget (an entry takes 6 bytes or more).
_WRITER_KEYS_MAX = _LAYOUT_FIELD_BYTES_MAX // 6


def _writer(shape: _Shape, value: dict, segments: List[Any]):
    """The layout that writes ``value`` as the generic encoder wrote it into
    ``segments``, from that frame's ``shape``: a function of a dict of the
    same keys, exact value types and constants that returns segments cut
    alike and joining to the same bytes, or ``_MISMATCH``."""
    if not value or None in map(_ENCODERS.get, map(type, value.values())):
        return _unlearnable
    items = (*value, *value.values())
    slots = {}
    checked = [0]
    lists = []
    arrays = []
    for i, ((kind, at, spec), item) in enumerate(zip(shape.root[1], value.values()), len(value)):
        if kind == _SLOT and spec is None:
            slots[at] = i
        elif kind == _ARRAY:
            arrays.append((i, spec, at.stop - at.start < _INLINE_PAYLOAD_MAX))
        elif kind == _TEXT or kind == _NONE or type(item) is list and {*map(type, item)} <= {str}:
            checked.append(i)
            if kind == _LIST and item:  # ``==`` compares items, not their types
                lists.append((i, [str] * len(item)))
        else:
            return _unlearnable
    # The shape's fields over the control bytes alone; the arguments are the
    # dict's items, its inline array payloads, then the shape's fields.
    inline = len(items)
    base = inline + sum(small for *_, small in arrays)
    fmt = ["<"]
    picks = []
    cuts = []
    smalls = iter(arrays)
    field = 0
    for code in shape.codes[1:]:
        if not code.endswith("x"):
            fmt.append(code)
            picks.append(slots.get(field, base + field))
            field += 1
        elif next(smalls)[2]:  # an inline payload, as ``_payload`` puts it
            fmt.append(f"{code[:-1]}s")
            picks.append(inline)
            inline += 1
        else:  # a zero-copy segment, cut into the packed control bytes
            cuts.append(struct.calcsize("".join(fmt)))
    if len(cuts) != sum(isinstance(segment, memoryview) for segment in segments):
        return _unlearnable  # a long key or ``str`` left as a segment of its own
    pack = struct.Struct("".join(fmt)).pack
    pick = operator.itemgetter(*picks)
    learned = (*shape.learned,)
    # Bytes with no slot and no inline payload in them are the same every time.
    constant = None if slots or base > len(items) else pack(*pick(items + learned))
    check = operator.itemgetter(*checked)  # the first key keeps a tuple here
    expected = check([[*item] if type(item) is list else item for item in items])
    types = [*map(type, items)]
    misses = [-1]

    def write(value: dict) -> Any:
        items = (*value, *value.values())
        if [*map(type, items)] != types or check(items) != expected:
            return _missed(misses)
        for i, kinds in lists:
            if [*map(type, items[i])] != kinds:
                return _missed(misses)
        views = []
        for i, spec, small in arrays:
            array = np.ascontiguousarray(items[i])
            if (array.dtype, array.shape) != spec:
                return _missed(misses)
            if small:
                items += (array.tobytes(),)
            else:
                views.append(memoryview(array).cast("B").toreadonly())
        try:
            packed = constant or pack(*pick(items + learned))
        except struct.error:  # an int past int64: the generic encoder refuses it
            return _MISMATCH
        misses[0] = 0
        if not views:
            return [packed]
        segments = []
        start = 0
        for cut, view in zip(cuts, views):
            segments += (packed[start:cut], view)
            start = cut
        if start < len(packed):
            segments.append(packed[start:])
        return segments

    return write


def _build(nodes: tuple, fields: tuple, view: memoryview) -> list:
    """The values of a layout's ``nodes``, from a frame's unpacked fields."""
    values = []
    for kind, at, spec in nodes:
        if kind == _SLOT:
            values.append(fields[at])
        elif kind == _TEXT:
            values.append(str(fields[at], "utf-8"))
        elif kind == _NONE:
            values.append(None)
        elif kind == _LIST:
            items = _build(at, fields, view)
            values.append(items if spec is None else dict(zip(spec, items)))
        elif kind == _COLUMN:
            values.append(_column_values(view[at], spec))
        else:
            array = _ndarray_view(view[at], *spec)
            values.append(list(array) if kind == _BATCH else array)
    return values
