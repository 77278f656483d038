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
Heterogeneous lists transparently fall back to the tagged ``LIST`` encoding,
so every value the tagged format could represent still round-trips.

The ``NDARRAY_BATCH`` frame layout is::

    u8   tag (9)
    u8   len(dtype)   dtype string, ascii (numpy ``dtype.str``, e.g. "<f4")
    u8   ndim         element ndim (>= 1)
    i64  × ndim       element shape
    u32  count        number of elements in the batch
    u64  nbytes       total payload size (count × element nbytes)
    raw  payload      elements' contiguous bytes, concatenated

Zero-copy
---------
Both directions avoid materialising intermediate ``bytes``:

* **Encode** — :func:`serialize_buffers` returns a *list* of buffer segments
  (small control bytes interleaved with ``memoryview`` s of the original
  array payloads) suitable for ``writev``-style transports; large array
  payloads are never copied into the frame.  :func:`serialize` remains the
  join-to-one-``bytes`` convenience.  The returned views alias the caller's
  arrays, so they must be consumed (written or joined) before those arrays
  are mutated.
* **Decode** — ndarray payloads are returned as **read-only**
  ``np.frombuffer`` views into the received frame (no ``bytes()`` slice, no
  ``array.copy()``).  Callers that need to mutate a decoded array copy it
  explicitly (`array.copy()`); everyone else reads it in place.
"""

from __future__ import annotations

import struct
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

_MAX_DEPTH = 32

#: Payloads smaller than this are copied inline into the control buffer;
#: larger ones are emitted as standalone zero-copy segments.  Tiny segments
#: would make writev-style sends slower than one small copy.
_INLINE_PAYLOAD_MAX = 512


def serialize(value: Any) -> bytes:
    """Encode ``value`` into one contiguous tagged-binary frame."""
    return b"".join(serialize_buffers(value))


def serialize_buffers(value: Any) -> List[Any]:
    """Encode ``value`` as a list of buffer segments (writev-style).

    Joining the segments yields exactly :func:`serialize`'s output, but a
    gather-capable transport can write them without ever materialising the
    frame.  Large ndarray/bytes payload segments are read-only views of the
    caller's data — consume them before mutating the originals.
    """
    segments: List[Any] = []
    # Control bytes (tags, lengths, headers, small payloads) gather in one
    # scratch bytearray; a large payload flushes it and is spliced in as a
    # zero-copy view of the caller's data.
    scratch = bytearray()
    try:
        (_ENCODERS.get(type(value)) or _encoder_for(value))(value, scratch, segments, 0)
    except struct.error as exc:  # an int or a length past its field's range
        raise SerializationError(f"value out of range: {exc}") from exc
    if scratch:
        segments.append(scratch)
    return segments


def wire_copy(value: Any, _depth: int = 0) -> Any:
    """What ``deserialize(serialize(value))`` returns, built without bytes.

    The in-process RPC lane hands this to a container instead of a decoded
    frame: a private copy in which every ndarray is fresh, C-ordered and
    read-only (a homogeneous batch: rows of one stacked array, as decoded),
    numpy scalars are Python scalars, tuples lists and bytearrays bytes.
    The encoder is chosen as :func:`serialize` chooses it, so a value the
    codec refuses raises the same :class:`SerializationError`.
    """
    encode = _ENCODERS.get(type(value)) or _encoder_for(value)
    if encode is _encode_dict:
        if value and _depth >= _MAX_DEPTH:
            raise SerializationError("value nesting exceeds maximum depth")
        copy = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError("dict keys must be strings")
            copy[str.__str__(key)] = wire_copy(item, _depth + 1)
        return copy
    if encode is _encode_str:
        return str.__str__(value)
    if encode is _encode_int:
        number = int(value)
        if not -(1 << 63) <= number < 1 << 63:
            raise SerializationError(f"value out of range: {number} is not a 64-bit int")
        return number
    if encode is _encode_float:
        return float(value)
    if encode is _encode_list:
        batch = _homogeneous_batch_shape(value)
        if batch is not None:
            return list(_read_only(np.array(value, dtype=batch[0])))
        if value and _depth >= _MAX_DEPTH:
            raise SerializationError("value nesting exceeds maximum depth")
        return [wire_copy(item, _depth + 1) for item in value]
    if encode is _encode_ndarray:
        if value.dtype.hasobject:
            raise SerializationError("object-dtype arrays are not serializable")
        # ndmin=1: the encoder's np.ascontiguousarray sends a 0-d array as (1,).
        return _read_only(np.array(value, order="C", ndmin=1))
    return bytes(value) if encode is _encode_bytes else value  # or None, a bool


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def serialized_nbytes(buffers: List[Any]) -> int:
    """Total size in bytes of a :func:`serialize_buffers` segment list."""
    return sum(len(segment) for segment in buffers)


def deserialize(data) -> Any:
    """Decode a value previously produced by :func:`serialize`.

    ``data`` may be any contiguous bytes-like object (``bytes``,
    ``bytearray``, ``memoryview``).  Decoded ndarrays are read-only views
    into ``data`` — they keep it alive and copy only on demand.
    """
    view = memoryview(data)
    if view.format != "B":
        view = view.cast("B")
    try:
        value, offset = _decode(view, 0, depth=0)
    except struct.error as exc:
        raise SerializationError(f"truncated or corrupt frame: {exc}") from exc
    if offset != len(view):
        raise SerializationError(
            f"trailing bytes after decoded value: {len(view) - offset} left"
        )
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
_pack_dim = struct.Struct("<q").pack
_pack_nbytes = struct.Struct("<Q").pack
_pack_count_nbytes = struct.Struct("<IQ").pack

#: ``str`` -> its whole frame (tag, length, utf-8).  Dict keys and short
#: strings recur message after message ("query_id", "m:1"); the strings come
#: from outside the process, so the cache is bounded and starts over when full.
_STR_FRAMES: dict = {}
_STR_FRAMES_MAX = 1024
_CACHED_STR_MAX = 64


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
    if array.dtype.hasobject:
        raise SerializationError("object-dtype arrays are not serializable")
    contiguous = np.ascontiguousarray(array)
    _ndarray_header(_TAG_NDARRAY, contiguous.dtype, contiguous.shape, scratch)
    scratch += _pack_nbytes(contiguous.nbytes)
    _payload(contiguous, scratch, segments)


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
    """The encoder of a value whose exact type is not in ``_ENCODERS``."""
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


def _homogeneous_batch_shape(items) -> Optional[Tuple[Any, tuple]]:
    """The shared (dtype, shape) when ``items`` is a columnar-eligible batch.

    Eligible means: at least two elements, every element an ndarray of one
    dtype and one shape, ``ndim >= 1`` (0-d arrays keep their per-element
    tagged round-trip) and not an object dtype.  Anything else returns None
    and falls back to the tagged LIST encoding.
    """
    if len(items) < 2:
        return None
    first = items[0]
    if not isinstance(first, np.ndarray) or first.ndim == 0 or first.dtype.hasobject:
        return None
    dtype = first.dtype
    shape = first.shape
    for item in items:
        if not isinstance(item, np.ndarray) or item.dtype != dtype or item.shape != shape:
            return None
    return dtype, shape


def _ndarray_header(tag: int, dtype: np.dtype, shape: tuple, scratch: bytearray) -> None:
    dtype_name = dtype.str.encode("ascii")
    scratch.append(tag)
    scratch.append(len(dtype_name))
    scratch += dtype_name
    scratch.append(len(shape))
    for dim in shape:
        scratch += _pack_dim(dim)


def _encode_ndarray_batch(arrays, scratch, segments) -> None:
    first = arrays[0]
    _ndarray_header(_TAG_NDARRAY_BATCH, first.dtype, first.shape, scratch)
    elem_nbytes = first.dtype.itemsize * first.size
    scratch += _pack_count_nbytes(len(arrays), elem_nbytes * len(arrays))
    for array in arrays:
        contiguous = array if array.flags.c_contiguous else np.ascontiguousarray(array)
        _payload(contiguous, scratch, segments)


def _decode(view: memoryview, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise SerializationError("value nesting exceeds maximum depth")
    if offset >= len(view):
        raise SerializationError("unexpected end of buffer")
    tag = view[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BOOL:
        if offset >= len(view):
            raise SerializationError("truncated bool payload")
        return bool(view[offset]), offset + 1
    if tag == _TAG_INT:
        (value,) = struct.unpack_from("<q", view, offset)
        return int(value), offset + 8
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack_from("<d", view, offset)
        return float(value), offset + 8
    if tag == _TAG_STR:
        (length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        end = offset + length
        if end > len(view):
            raise SerializationError("truncated string payload")
        # Decode straight from the bounds-checked view slice: no
        # intermediate bytes() materialisation.
        return str(view[offset:end], "utf-8"), end
    if tag == _TAG_BYTES:
        (length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        end = offset + length
        if end > len(view):
            raise SerializationError("truncated bytes payload")
        return bytes(view[offset:end]), end
    if tag == _TAG_LIST:
        (length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        items = []
        for _ in range(length):
            item, offset = _decode(view, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        (length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        result = {}
        for _ in range(length):
            key, offset = _decode(view, offset, depth + 1)
            value, offset = _decode(view, offset, depth + 1)
            result[key] = value
        return result, offset
    if tag == _TAG_NDARRAY:
        return _decode_ndarray(view, offset)
    if tag == _TAG_NDARRAY_BATCH:
        return _decode_ndarray_batch(view, offset)
    raise SerializationError(f"unknown type tag {tag}")


def _decode_ndarray_header(view: memoryview, offset: int) -> Tuple[str, list, int]:
    if offset >= len(view):
        raise SerializationError("truncated ndarray header")
    (dtype_len,) = struct.unpack_from("<B", view, offset)
    offset += 1
    if offset + dtype_len > len(view):
        raise SerializationError("truncated ndarray header")
    dtype_name = str(view[offset : offset + dtype_len], "ascii")
    offset += dtype_len
    (ndim,) = struct.unpack_from("<B", view, offset)
    offset += 1
    if offset + 8 * ndim > len(view):
        raise SerializationError("truncated ndarray header")
    shape = []
    for _ in range(ndim):
        (dim,) = struct.unpack_from("<q", view, offset)
        shape.append(int(dim))
        offset += 8
    return dtype_name, shape, offset


def _ndarray_view(payload: memoryview, dtype_name: str, shape) -> np.ndarray:
    """A read-only ndarray view over ``payload`` (zero-copy)."""
    try:
        array = np.frombuffer(payload, dtype=np.dtype(dtype_name)).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"invalid ndarray payload: {exc}") from exc
    array.flags.writeable = False
    return array


def _decode_ndarray(view: memoryview, offset: int) -> Tuple[np.ndarray, int]:
    dtype_name, shape, offset = _decode_ndarray_header(view, offset)
    (nbytes,) = struct.unpack_from("<Q", view, offset)
    offset += 8
    end = offset + nbytes
    if end > len(view):
        raise SerializationError("truncated ndarray payload")
    return _ndarray_view(view[offset:end], dtype_name, shape), end


def _decode_ndarray_batch(view: memoryview, offset: int) -> Tuple[List[np.ndarray], int]:
    dtype_name, shape, offset = _decode_ndarray_header(view, offset)
    (count,) = struct.unpack_from("<I", view, offset)
    offset += 4
    (nbytes,) = struct.unpack_from("<Q", view, offset)
    offset += 8
    end = offset + nbytes
    if end > len(view):
        raise SerializationError("truncated ndarray batch payload")
    batch = _ndarray_view(view[offset:end], dtype_name, [count, *shape])
    # Rows of the read-only (count, *shape) view: each element aliases the
    # frame, no per-element copies.
    return list(batch), end
