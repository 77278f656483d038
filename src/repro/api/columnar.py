"""Columnar binary wire format for the REST edge.

The RPC layer's tagged binary serialization (single-frame ndarray batches,
see :mod:`repro.rpc.serialization`) as the edge's second content type beside
JSON, so a binary-speaking client and the serving engine exchange the **same
zero-copy buffers** that cross the container RPC boundary — no
JSON→list→ndarray round-trip at the edge:

* **Requests** (``Content-Type: application/x-clipper-columnar``) decode
  with :func:`repro.rpc.serialization.deserialize`: ndarray payloads land as
  read-only ``np.frombuffer`` views into the received body, and the predict
  handler's fast path passes them to the frontend as-is.
* **Responses** (negotiated via ``Accept``) encode with
  :func:`repro.rpc.serialization.serialize_buffers`: the encoder returns the
  writev-style *segment list*, which :class:`~repro.api.http.HttpApiServer`
  hands to the transport with its head in one ``writelines`` — the body is
  never concatenated with its headers (or into one frame-sized ``bytes``).

A malformed frame is a client error: the decoder maps every
:class:`~repro.core.exceptions.SerializationError` (corrupt tag, truncated
payload, trailing bytes) to a structured 400
:class:`~repro.api.errors.BadRequestError`, never a 500.  Bodies the binary
format cannot represent verbatim (e.g. tuples-of-sets some handler might
return) are passed through :func:`~repro.api.schema.json_safe` first, so
every endpoint — not just predict — can answer a columnar ``Accept``.
"""

from __future__ import annotations

from typing import Any, List

from repro.api.errors import BadRequestError
from repro.api.schema import json_safe
from repro.core.exceptions import SerializationError
from repro.rpc.serialization import (
    COLUMNAR_CONTENT_TYPE,
    deserialize,
    serialize_buffers,
)

__all__ = [
    "COLUMNAR_CONTENT_TYPE",
    "decode_columnar",
    "encode_columnar",
]


def encode_columnar(body: Any) -> List[Any]:
    """Encode a response body as a columnar frame (writev segment list)."""
    try:
        return serialize_buffers(body)
    except SerializationError:
        # Handler payloads are JSON-shaped by construction; anything the
        # binary format cannot take verbatim goes through the same
        # canonicalisation the JSON encoder applies.
        return serialize_buffers(json_safe(body))


def decode_columnar(data: bytes) -> Any:
    """Decode a columnar request body; malformed frames are a structured 400."""
    try:
        return deserialize(data)
    except SerializationError as exc:
        raise BadRequestError(
            f"request body is not a valid columnar frame: {exc}",
            detail={"content_type": COLUMNAR_CONTENT_TYPE},
        ) from None
