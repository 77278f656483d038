"""RPC message types and the container envelope.

A message is a single serialized dict, framed on the wire by the transports
(:func:`repro.rpc.transport.frame_message` owns the 4-byte length prefix and
the frame size limit).  Every message carries ``type`` (a
:class:`MessageType`) and ``request_id``; a frame carries no other key than
the ones its receiver reads.  The prediction envelope is written in one
place, :func:`predict_request` and :func:`predict_reply`:

* a request is ``{type, request_id, inputs}``, plus ``stamp`` when the batch
  carries traced queries (it asks for the container's evaluation window) and
  ``budgets_ms`` when an entry has a deadline;
* a reply is ``{type, request_id, outputs, error, container_latency_ms}``,
  plus ``eval_start``/``eval_end`` when the request asked for a stamp and
  ``skipped`` when the container declined expired entries.

``HEARTBEAT`` / ``HEARTBEAT_RESPONSE`` (``healthy``) are the liveness probe.
Homogeneous ndarray batches inside the payload use the columnar
``NDARRAY_BATCH`` encoding (one dtype/shape header for the whole batch — see
:mod:`repro.rpc.serialization`); heterogeneous batches fall back to the
per-element tagged format.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core import clock
from repro.core.exceptions import SerializationError


class MessageType(enum.IntEnum):
    """Wire message discriminator."""

    PREDICT = 1
    PREDICT_RESPONSE = 2
    HEARTBEAT = 3
    HEARTBEAT_RESPONSE = 4


_PREDICT = int(MessageType.PREDICT)
_PREDICT_RESPONSE = int(MessageType.PREDICT_RESPONSE)


def predict_request(
    request_id: int,
    inputs: List[Any],
    deadlines: Optional[Sequence[float]] = None,
    stamp: bool = False,
) -> dict:
    """The PREDICT message for one batch.

    ``inputs`` is shared, not copied: every lane hands the receiver a copy (a
    decoded frame, or the in-process lane's ``wire_copy``).  ``deadlines``
    are absolute on the sender's ``clock.now()``, aligned with ``inputs``
    (0.0 = none).  That clock has no origin two hosts share, so each entry
    crosses as the budget it has left now, in ms (``inf`` = none), which the
    server counts down from the request's arrival on its own clock.
    """
    payload = {"type": _PREDICT, "request_id": request_id, "inputs": inputs}
    if stamp:
        payload["stamp"] = True
    if deadlines:
        now = clock.now()
        payload["budgets_ms"] = [
            (deadline - now) * 1000.0 if deadline else math.inf for deadline in deadlines
        ]
    return payload


def predict_reply(
    request_id: int,
    outputs: List[Any],
    error: Optional[str],
    container_latency_ms: float,
    window: Optional[Tuple[float, float]] = None,
    skipped: Sequence[int] = (),
) -> dict:
    """The PREDICT_RESPONSE message: ``outputs`` aligned with the request's
    inputs less ``skipped`` (indices whose deadline expired on arrival), and
    ``window``, the container's ``clock.now()`` evaluation start and end, when
    the request asked for a stamp."""
    payload = {
        "type": _PREDICT_RESPONSE,
        "request_id": request_id,
        "outputs": outputs,
        "error": error,
        "container_latency_ms": container_latency_ms,
    }
    if window is not None:
        payload["eval_start"], payload["eval_end"] = window
    if skipped:
        payload["skipped"] = list(skipped)
    return payload


@dataclass
class RpcResponse:
    """A batch prediction response as the client reads it (see :func:`predict_reply`)."""

    request_id: int
    outputs: List[Any]
    error: Optional[str] = None
    container_latency_ms: float = 0.0
    eval_start: float = 0.0
    eval_end: float = 0.0
    skipped: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    @staticmethod
    def from_payload(payload: dict) -> "RpcResponse":
        if payload.get("type") != _PREDICT_RESPONSE:
            raise SerializationError(f"not a prediction reply: type {payload.get('type')!r}")
        return RpcResponse(
            request_id=int(payload["request_id"]),
            outputs=list(payload.get("outputs", [])),
            error=payload.get("error"),
            container_latency_ms=float(payload.get("container_latency_ms", 0.0)),
            eval_start=float(payload.get("eval_start", 0.0)),
            eval_end=float(payload.get("eval_end", 0.0)),
            skipped=tuple(payload.get("skipped", ())),
        )


def message_type(payload: dict) -> MessageType:
    """Return the :class:`MessageType` of a decoded payload."""
    try:
        return MessageType(int(payload["type"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"invalid message type: {exc}") from exc
