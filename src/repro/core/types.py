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
from typing import Any, Callable, Optional

import numpy as np

from repro.core.exceptions import SerializationError, ValidationError
from repro.rpc.serialization import ARRAY_KINDS, array_head, serialize_buffers

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


#: Where a predict request carries an input, in ``{"inputs": [x, ...]}``
#: (:func:`~repro.rpc.protocol.predict_request`): the key judges it there.
REQUEST_DEPTH = 2


def _tagged(x: Any) -> bytes:
    """The bytes :func:`hash_input` digests: exactly ``serialize(x)``.

    An ndarray of a carried kind with ``ndim >= 1`` is the codec's memoised
    head (:func:`~repro.rpc.serialization.array_head`) joined to its buffer
    (a 0-d array is sent with shape (1,), so it is not one); any other value
    is ``serialize_buffers(x, layouts=False)`` judged at
    :data:`REQUEST_DEPTH`, and a value the codec refuses there is refused
    here, as :class:`~repro.core.exceptions.ValidationError`.
    """
    if isinstance(x, np.ndarray) and x.ndim and x.dtype.kind in ARRAY_KINDS:
        # Joined from the buffer itself: no numpy call when C-contiguous.
        return b"".join((array_head(x), x.data if x.flags.c_contiguous else x.tobytes()))
    try:
        return b"".join(serialize_buffers(x, layouts=False, depth=REQUEST_DEPTH))
    except SerializationError as error:
        raise ValidationError(
            f"cannot key the prediction cache by an input of type {type(x).__name__}: {error}"
        ) from error


def hash_input(x: Any) -> str:
    """Return a stable content hash of a query input.

    The digest is the prediction-cache key, and it is the SHA-1 of the wire
    frame: ``hashlib.sha1(serialize(x)).hexdigest()``, the bytes a container
    is sent for ``x``, so two inputs served each other's predictions are two
    inputs every container is sent alike, and inputs the wire delivers alike
    are one key (``1.5`` and ``np.float64(1.5)``, ``3`` and ``np.int64(3)``).
    An input the codec refuses where a predict request carries it
    (:data:`REQUEST_DEPTH`: a set, an object, an int past int64, a
    datetime, a lone surrogate, nesting past 30 levels) is refused here
    with :class:`~repro.core.exceptions.ValidationError`, before any queue
    holds it.  A dict in another key order is another frame, so another key:
    a miss, never a wrong answer.  Every digest is the same across processes
    and hash seeds.

    ``PredictionCache.digest``, the serving path's memoising twin, returns
    exactly this.  An array costs one memoised head and one pass of SHA-1
    over its buffer, without a copy when it is C-contiguous.
    """
    if isinstance(x, np.ndarray) and x.ndim and x.dtype.kind in ARRAY_KINDS:
        hasher = hashlib.sha1(array_head(x))
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
