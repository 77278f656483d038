"""Fundamental value types flowing through the serving path.

The paper's Figure 2 describes the prediction life-cycle: an application
issues a *query*, Clipper renders a *prediction* (with a confidence
estimate) and the application may later return *feedback* about the true
outcome.  These three records, plus the :class:`ModelId` naming scheme for
deployed models, are the vocabulary shared by every layer of the system.
Each query draws its id from one process-wide counter; the only thing a
caller attaches to a query besides its input is the edge's trace spans
(:attr:`Query.pre_spans`).  :func:`hash_input` is the prediction cache's key.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.exceptions import SerializationError, ValidationError
from repro.rpc.serialization import ARRAY_KINDS, serialize_buffers

#: Monotonically increasing query id generator shared process-wide.
_QUERY_COUNTER = itertools.count()


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

#: The builtins besides ``int`` whose ``repr`` is their value (a subclass's
#: may be anything); a NaN's is not, it drops the payload the wire carries.
_BY_REPR = frozenset({float, bool, type(None)})


def _array_head(shape: tuple, dtype: Any) -> bytes:
    """``b"a"``, then the length-prefixed ``str(shape) + str(dtype)``; empty
    for a kind the wire refuses (:data:`~repro.rpc.serialization.ARRAY_KINDS`)."""
    head = _ARRAY_HEADS.get((shape, dtype))
    if head is None:
        head = _sized(b"a", f"{shape}{dtype}".encode()) if dtype.kind in ARRAY_KINDS else b""
        if len(_ARRAY_HEADS) < _ARRAY_HEADS_LIMIT:
            _ARRAY_HEADS[shape, dtype] = head
    return head


def _sized(tag: bytes, layout: bytes) -> bytes:
    return tag + len(layout).to_bytes(4, "big") + layout


def _tagged(x: Any) -> bytes:
    """The bytes :func:`hash_input` digests: ``x`` as the wire carries it.

    The kinds the serving path sees most are keyed by encodings of their
    own, behind a tag byte naming the kind: an ndarray of a carried kind by
    its layout and buffer, ``str`` and ``bytes``/``bytearray`` by their
    content, an ``int`` inside int64, a ``float`` (not NaN), a ``bool`` or
    ``None`` by its ``repr``.  Any other value is keyed by the bytes the RPC
    codec's generic encoder writes for it, behind ``b"w"``; a value the
    codec refuses is refused here, as
    :class:`~repro.core.exceptions.ValidationError`.
    """
    if isinstance(x, np.ndarray):
        head = _array_head(x.shape, x.dtype)
        if head:  # joined from the buffer itself: no numpy call when C-contiguous
            return b"".join((head, x.data if x.flags.c_contiguous else x.tobytes()))
    elif isinstance(x, (bytes, bytearray)):
        return b"b" + x
    elif isinstance(x, str):
        return b"s" + x.encode()
    elif (type(x) is int and -(1 << 63) <= x < 1 << 63) or (type(x) in _BY_REPR and x == x):
        return b"r" + repr(x).encode()
    try:
        return b"".join([b"w", *serialize_buffers(x, layouts=False)])
    except SerializationError as error:
        raise ValidationError(
            f"cannot key the prediction cache by an input of type {type(x).__name__}: {error}"
        ) from error


def hash_input(x: Any) -> str:
    """Return a stable content hash of a query input.

    The contract is *equal hash ⇒ every container is sent equal bytes*: the
    digest is the prediction-cache key, so two inputs that hash alike are
    served each other's predictions.  The bytes digested are
    :func:`_tagged`'s: an encoding of its own for the common kinds, the RPC
    codec's bytes for the rest.  So ``np.float32(1.5)`` and
    ``np.float64(1.5)``, which both arrive as the float 1.5, are one input,
    and an input the codec would refuse (a set, an object, an int past
    int64, a datetime array, nesting past 32 levels) is refused here with
    :class:`~repro.core.exceptions.ValidationError`, before any queue holds
    it.  Inputs the wire delivers alike may still hash apart (a dict in
    another order, ``1.5`` and ``np.float64(1.5)``), which costs a miss,
    never a wrong answer; every digest is the same across processes and
    hash seeds.

    ``PredictionCache.digest``, the serving path's memoising twin, returns
    exactly this.  An array costs one memoised head and one pass of SHA-1
    over its buffer, without a copy when it is C-contiguous.
    """
    if isinstance(x, np.ndarray):
        head = _array_head(x.shape, x.dtype)
        if head:
            hasher = hashlib.sha1(head)
            hasher.update(x.data if x.flags.c_contiguous else np.ascontiguousarray(x).data)
            return hasher.hexdigest()
    return hashlib.sha1(_tagged(x)).hexdigest()


def _input_hash_once(self, digest: Optional[Callable[[Any], str]] = None) -> str:
    """``input_hash`` of :class:`Query` and :class:`Feedback`: the input's
    cache key, ``digest(input)`` (default :func:`hash_input`; the engine
    passes its cache's memoising ``digest``), computed on the first call and
    memoised.  The input must not be mutated after the first call."""
    value = self._input_hash
    if value is None:
        value = self._input_hash = (digest or hash_input)(self.input)
    return value


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
    pre_spans:
        Spans the edge stamped before the engine's clock started (the
        frontend's input validation), joined to the query's trace when it
        is sampled; ``None`` otherwise.
    """

    app_name: str
    input: Any
    user_id: Optional[str] = None
    latency_slo_ms: Optional[float] = None
    query_id: int = field(default_factory=_QUERY_COUNTER.__next__)
    pre_spans: Optional[tuple] = None
    trace_id: Optional[str] = None
    _input_hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    input_hash = _input_hash_once


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
    trace_id: Optional[str] = None


@dataclass
class Feedback:
    """Ground-truth feedback returned by the application for a past query."""

    app_name: str
    input: Any
    label: Any
    user_id: Optional[str] = None
    query_id: Optional[int] = None
    _input_hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    input_hash = _input_hash_once


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
