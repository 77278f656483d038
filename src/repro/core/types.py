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


#: Memoised ``str(dtype).encode()`` per dtype.  Rendering a numpy dtype as a
#: string walks numpy's type hierarchy and dominates the hashing cost for
#: small arrays; the set of dtypes seen by a serving process is tiny.
_DTYPE_TOKENS: Dict[Any, bytes] = {}


def _dtype_token(dtype: Any) -> bytes:
    token = _DTYPE_TOKENS.get(dtype)
    if token is None:
        token = str(dtype).encode()
        _DTYPE_TOKENS[dtype] = token
    return token


def hash_input(x: Any) -> str:
    """Return a stable content hash of a query input.

    Numpy arrays are hashed over their raw bytes together with shape and
    dtype; other values fall back to ``repr``.  The hash is used as the
    prediction-cache key so it must be deterministic across processes.

    This sits on the serving hot path — :meth:`Query.input_hash` is computed
    once per query and reused for every per-model cache lookup — so the
    array branch avoids the two hidden costs of the naive implementation:
    the dtype string is memoised and C-contiguous arrays are hashed through
    their buffer without a ``tobytes`` copy.
    """
    hasher = hashlib.sha1()
    if isinstance(x, np.ndarray):
        hasher.update(str(x.shape).encode())
        hasher.update(_dtype_token(x.dtype))
        if x.flags.c_contiguous:
            hasher.update(x.data)
        else:
            hasher.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bytes, bytearray)):
        hasher.update(bytes(x))
    elif isinstance(x, str):
        hasher.update(x.encode())
    elif isinstance(x, (list, tuple)):
        for item in x:
            hasher.update(hash_input(item).encode())
    else:
        hasher.update(repr(x).encode())
    return hasher.hexdigest()


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
    """

    app_name: str
    input: Any
    user_id: Optional[str] = None
    latency_slo_ms: Optional[float] = None
    query_id: int = field(default_factory=next_query_id)
    arrival_time: float = field(default_factory=time.monotonic)
    metadata: Dict[str, Any] = field(default_factory=dict)
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
    metadata: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None

    @property
    def is_confident(self) -> bool:
        """Whether every contributing model agreed with the final output."""
        return self.confidence >= 1.0 - 1e-12


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
