"""Fundamental value types flowing through the serving path.

The paper's Figure 2 describes the prediction life-cycle: an application
issues a *query*, Clipper renders a *prediction* (with a confidence
estimate) and the application may later return *feedback* about the true
outcome.  These three records, plus the :class:`ModelId` naming scheme for
deployed models, are the vocabulary shared by every layer of the system.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

#: Monotonically increasing query id generator shared process-wide.
_QUERY_COUNTER = itertools.count()


def next_query_id() -> int:
    """Return the next unique query id."""
    return next(_QUERY_COUNTER)


@dataclass(frozen=True)
class ModelId:
    """Identifier of a deployed model: a name plus a version.

    Clipper treats the (name, version) pair as the key for prediction
    caching, batching queues and selection-policy arms, mirroring the
    ``Predict(m: ModelId, x: X) -> y: Y`` signature of §4.2.
    """

    name: str
    version: int = 1

    def __str__(self) -> str:
        return f"{self.name}:{self.version}"

    @staticmethod
    def parse(text: str) -> "ModelId":
        """Parse ``"name:version"`` (version optional) into a :class:`ModelId`."""
        if ":" in text:
            name, _, version = text.rpartition(":")
            return ModelId(name, int(version))
        return ModelId(text, 1)


#: Memoised head of an array's hash per ``(shape, dtype)``: rendering a numpy
#: dtype as a string walks numpy's type hierarchy and would dominate the
#: hashing cost for small arrays.  A serving process sees a handful of
#: layouts; the bound keeps an untyped application with free-form shapes from
#: growing the table without limit.
_ARRAY_HEADS: Dict[Any, bytes] = {}
_ARRAY_HEADS_LIMIT = 1024


def _array_head(shape: tuple, dtype: Any) -> bytes:
    """``b"a"``, then the length-prefixed ``str(shape) + str(dtype)``."""
    head = _ARRAY_HEADS.get((shape, dtype))
    if head is None:
        layout = f"{shape}{dtype}".encode()
        head = b"a" + len(layout).to_bytes(4, "big") + layout
        if len(_ARRAY_HEADS) < _ARRAY_HEADS_LIMIT:
            _ARRAY_HEADS[shape, dtype] = head
    return head


def _tagged(x: Any) -> bytes:
    """The bytes :func:`hash_input` digests: a tag naming ``x``'s kind, then ``x``.

    The tag keeps values of different kinds apart (``"ab"`` / ``b"ab"``,
    ``1`` / ``"1"``); the length in front of every sequence item keeps
    ``["ab", "c"]`` apart from ``["a", "bc"]`` and a one-item list apart from
    its item.  Lists and tuples share a tag: JSON has one sequence type.
    """
    if isinstance(x, np.ndarray):
        return _array_head(x.shape, x.dtype) + x.tobytes()
    if isinstance(x, (bytes, bytearray)):
        return b"b" + x
    if isinstance(x, str):
        return b"s" + x.encode()
    if isinstance(x, (list, tuple)):
        parts = [b"l"]
        for item in x:
            body = _tagged(item)
            parts.append(len(body).to_bytes(8, "big"))
            parts.append(body)
        return b"".join(parts)
    return b"r" + repr(x).encode()


def hash_input(x: Any) -> str:
    """Return a stable content hash of a query input.

    The contract is *equal hash ⇒ equal input, kind included*: the digest is
    the prediction-cache key, so two inputs that hash alike are served each
    other's predictions.  Numpy arrays are hashed over shape, dtype and raw
    bytes; strings, bytes and sequences over their content; anything else
    over its ``repr`` — each behind a tag byte naming the kind (see
    :func:`_tagged`).  The hash is deterministic across processes.

    This sits on the serving hot path — :meth:`Query.input_hash` is computed
    once per query and reused for every per-model cache lookup — so an array
    costs one memoised head and one pass of SHA-1 over its buffer, without a
    ``tobytes`` copy when it is C-contiguous.
    """
    if isinstance(x, np.ndarray):
        hasher = hashlib.sha1(_array_head(x.shape, x.dtype))
        hasher.update(x.data if x.flags.c_contiguous else np.ascontiguousarray(x).data)
        return hasher.hexdigest()
    return hashlib.sha1(_tagged(x)).hexdigest()


@dataclass
class Query:
    """A single prediction request issued by an application.

    Parameters
    ----------
    app_name:
        The application the query belongs to; each application has its own
        latency SLO, candidate models and selection-policy state.
    input:
        The query input (typically a 1-D numpy feature vector).
    user_id:
        Optional context key used by the contextualization support of the
        selection layer (§5.3).  ``None`` selects the application-wide state.
    latency_slo_ms:
        Optional per-query latency objective overriding the application SLO.
    arrival_time:
        When the request reached the application (``time.monotonic()``), for
        callers that track it; the engine times a query from the start of
        ``predict`` and never reads this.
    metadata:
        What the caller attached to the query, or ``None``; the frontend puts
        the edge's trace spans here under ``"pre_spans"``.
    """

    app_name: str
    input: Any
    user_id: Optional[str] = None
    latency_slo_ms: Optional[float] = None
    query_id: int = field(default_factory=_QUERY_COUNTER.__next__)
    arrival_time: Optional[float] = None
    metadata: Optional[Dict[str, Any]] = None
    trace_id: Optional[str] = None
    _input_hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def input_hash(self) -> str:
        """Content hash of the query input, used for prediction caching.

        Computed lazily on first call and memoised: the serving engine hashes
        each query exactly once and reuses the digest for every per-model
        cache fetch, insert and straggler late-completion.  The input must
        not be mutated after the first call.
        """
        digest = self._input_hash
        if digest is None:
            digest = self._input_hash = hash_input(self.input)
        return digest


@dataclass(slots=True)
class Prediction:
    """The response returned to the application for one query."""

    query_id: int
    app_name: str
    output: Any
    confidence: float = 1.0
    latency_ms: float = 0.0
    default_used: bool = False
    models_used: tuple = ()
    models_missing: tuple = ()
    from_cache: bool = False
    metadata: Optional[Dict[str, Any]] = None
    trace_id: Optional[str] = None


@dataclass
class Feedback:
    """Ground-truth feedback returned by the application for a past query."""

    app_name: str
    input: Any
    label: Any
    user_id: Optional[str] = None
    query_id: Optional[int] = None
    timestamp: float = field(default_factory=time.monotonic)
    _input_hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def input_hash(self) -> str:
        """Content hash of the feedback input, used to join with cached predictions.

        Memoised like :meth:`Query.input_hash`; computed at most once.
        """
        digest = self._input_hash
        if digest is None:
            digest = self._input_hash = hash_input(self.input)
        return digest


@dataclass(slots=True)
class BatchStats:
    """Summary of one dispatched batch, reported by the batching layer."""

    model_id: ModelId
    replica_id: int
    batch_size: int
    latency_ms: float
    queue_time_ms: float
    timestamp: float = field(default_factory=time.monotonic)


#: Health states of one container replica.
REPLICA_HEALTHY = "healthy"
REPLICA_QUARANTINED = "quarantined"  # out of dispatch, awaiting restart
REPLICA_RECOVERING = "recovering"    # restart in progress


@dataclass
class ReplicaHealth:
    """Running health record of one container replica.

    Carried by the replica's dispatcher, so a restarted replica keeps it and
    a scaled-away one takes it along; written by the
    :class:`~repro.management.health.HealthMonitor`.  ``state`` is one of
    ``REPLICA_HEALTHY``/``REPLICA_QUARANTINED``/``REPLICA_RECOVERING``.
    """

    replica_name: str
    model_key: str
    replica_id: int
    state: str = REPLICA_HEALTHY
    consecutive_failures: int = 0
    probes: int = 0
    failures: int = 0
    quarantines: int = 0
    restarts: int = 0
    last_probe_latency_ms: Optional[float] = None
    since: float = field(default_factory=time.monotonic)

    def mark(self, state: str) -> None:
        """Transition to ``state`` and restamp the transition time."""
        if state != self.state:
            self.state = state
            self.since = time.monotonic()
