"""RPC message types and wire framing.

A message is a single serialized dict with a fixed envelope::

    {"type": <int>, "request_id": <int>, ...payload fields}

framed on the wire by the transports (:func:`repro.rpc.transport.frame_message`
owns the 4-byte length prefix and the frame size limit).  Three message
types cover the container protocol: ``PREDICT`` (a batch of inputs),
``PREDICT_RESPONSE`` (a batch of outputs or an error) and ``HEARTBEAT``
(liveness checks used by the container runtime).  Homogeneous ndarray
batches inside the payload use the columnar ``NDARRAY_BATCH`` encoding (one
dtype/shape header for the whole batch — see :mod:`repro.rpc.serialization`);
heterogeneous batches fall back to the per-element tagged format.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.core import clock
from repro.core.exceptions import SerializationError


class MessageType(enum.IntEnum):
    """Wire message discriminator."""

    PREDICT = 1
    PREDICT_RESPONSE = 2
    HEARTBEAT = 3
    HEARTBEAT_RESPONSE = 4


@dataclass
class RpcRequest:
    """A batch prediction request sent from Clipper to one container replica."""

    request_id: int
    model_name: str
    inputs: List[Any]
    metadata: dict = field(default_factory=dict)
    #: Trace ids of the queries in this batch that own one (sampled, or
    #: tail-captured already).  Optional header field: omitted from the wire
    #: payload when empty, so untraced and all-shadow batches pay zero bytes.
    trace: tuple = ()
    #: Absolute deadlines on the sender's ``clock.now()``, aligned with
    #: ``inputs`` (0.0 = none for that entry).  That clock has no origin two
    #: hosts share, so what crosses the wire is each entry's remaining budget
    #: in ms when the request is sent (``budgets_ms``, ``inf`` = none), which
    #: the container server compares with the time since arrival on its own
    #: clock.  Optional header field like ``trace``: omitted when no entry
    #: carries a deadline.  Lets the container skip evaluating entries whose
    #: deadline already passed in transit.
    deadlines: Sequence[float] = ()
    #: Asks for the container's evaluation window (``eval_start``/
    #: ``eval_end`` on the response): set for a batch that carries traced
    #: queries, id or not.  One header field, omitted when false.
    stamp: bool = False

    def to_payload(self) -> dict:
        # ``inputs`` is shared, not copied: every lane hands the receiver a
        # copy (a decoded frame, or the in-process lane's ``wire_copy``).
        payload = {
            "type": int(MessageType.PREDICT),
            "request_id": self.request_id,
            "model_name": self.model_name,
            "inputs": self.inputs,
            "metadata": self.metadata,
        }
        if self.trace:
            payload["trace"] = list(self.trace)
        if self.stamp:
            payload["stamp"] = True
        if self.deadlines:
            now = clock.now()
            payload["budgets_ms"] = [
                (deadline - now) * 1000.0 if deadline else math.inf
                for deadline in self.deadlines
            ]
        return payload


@dataclass
class RpcResponse:
    """A batch prediction response (outputs aligned with the request inputs)."""

    request_id: int
    outputs: List[Any]
    error: Optional[str] = None
    container_latency_ms: float = 0.0
    #: Echo of the request's trace header, and the container's ``clock.now()``
    #: evaluation window when the request asked for it (``stamp``) or carried
    #: trace ids; only present on the wire for traced batches.
    trace: tuple = ()
    eval_start: float = 0.0
    eval_end: float = 0.0
    #: Request indices the container declined to evaluate because their
    #: deadline had already expired on arrival.  ``outputs`` holds results
    #: for the remaining indices in order; omitted from the wire when empty.
    skipped: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_payload(self) -> dict:
        payload = {
            "type": int(MessageType.PREDICT_RESPONSE),
            "request_id": self.request_id,
            "outputs": self.outputs,
            "error": self.error,
            "container_latency_ms": float(self.container_latency_ms),
        }
        if self.trace:
            payload["trace"] = list(self.trace)
        if self.eval_end:
            payload["eval_start"] = float(self.eval_start)
            payload["eval_end"] = float(self.eval_end)
        if self.skipped:
            payload["skipped"] = list(self.skipped)
        return payload

    @staticmethod
    def from_payload(payload: dict) -> "RpcResponse":
        return RpcResponse(
            request_id=int(payload["request_id"]),
            outputs=list(payload.get("outputs", [])),
            error=payload.get("error"),
            container_latency_ms=float(payload.get("container_latency_ms", 0.0)),
            trace=tuple(payload.get("trace", ())),
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
