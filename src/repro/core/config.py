"""Configuration objects for the Clipper serving engine.

Configuration is split by layer: :class:`BatchingConfig` controls the model
abstraction layer's adaptive batching (§4.3), :class:`ModelDeployment`
describes one deployed model (container factory, replicas, batching policy)
and :class:`ClipperConfig` collects the application-level settings (latency
SLO, selection policy, cache sizing, straggler mitigation).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, Mapping, Optional, get_args, get_type_hints

from repro.core.exceptions import ConfigurationError, ManagementError

#: Default application latency service-level objective in milliseconds.  The
#: paper uses a 20 ms SLO for most microbenchmarks.
DEFAULT_SLO_MS = 20.0


def _spec_fields(cls: Any) -> list:
    """The fields of a config dataclass that a spec carries: all but those
    declared ``metadata={"spec": False}`` (a callable cannot be stored)."""
    return [f for f in fields(cls) if f.metadata.get("spec", True)]


def _to_spec(config: Any) -> Dict[str, Any]:
    """A config dataclass as a JSON-friendly dict, nested configs included."""
    spec = {}
    for f in _spec_fields(config):
        value = getattr(config, f.name)
        spec[f.name] = _to_spec(value) if is_dataclass(value) else value
    return spec


def _from_spec(cls: type, spec: Any, **extra: Any) -> Any:
    """Build config dataclass ``cls`` from what :func:`_to_spec` produced.

    Specs also arrive from outside the process (the REST deploy body, a
    store directory), so every name and type is checked against the
    dataclass's own fields; a violation is a :class:`ConfigurationError`.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a {cls.__name__} spec must be an object")
    unknown = sorted(set(spec) - {f.name for f in _spec_fields(cls)})
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__} has no parameter(s) {unknown}",
            detail={"given": sorted(spec)},
        )
    hints = get_type_hints(cls)
    kwargs = dict(extra)
    for name, value in spec.items():
        hint = hints[name]
        if type(None) in get_args(hint) and value is not None:
            hint = get_args(hint)[0]  # Optional[X] holding an X
        if is_dataclass(hint):
            value = _from_spec(hint, value)
        elif hint in (int, float, str, bool):
            # JSON has one number type; a bool is never a number.
            accepted = (int, float) if hint is float else hint
            if isinstance(value, bool) != (hint is bool) or not isinstance(
                value, accepted
            ):
                raise ConfigurationError(
                    f"{cls.__name__} parameter '{name}' must be of type "
                    f"{hint.__name__}, got {value!r}"
                )
            value = hint(value)
        kwargs[name] = value
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in kwargs:
            raise ConfigurationError(f"{cls.__name__} requires parameter '{f.name}'")
    return cls(**kwargs)


@dataclass
class BatchingConfig:
    """Configuration of one model's adaptive batching queue.

    Parameters
    ----------
    policy:
        Batch-size control policy: ``"aimd"`` (default), ``"quantile"``,
        ``"fixed"`` or ``"none"``.
    initial_batch_size:
        Starting maximum batch size for the adaptive controllers, and the
        static size for the ``"fixed"`` policy.
    additive_increase:
        AIMD additive increment applied while batches complete under the SLO.
    backoff_fraction:
        AIMD multiplicative backoff (paper: reduce by 10% → 0.9).
    max_batch_size:
        Hard upper bound on the batch size regardless of the controller.
    batch_wait_timeout_ms:
        Delayed-batching timeout (§4.3.2): how long a dispatcher waits for
        additional queries when the queue holds fewer than the target batch.
    quantile:
        Latency quantile targeted by the quantile-regression controller.
    max_queue_depth:
        Bound on the model's batching queue (0 = unbounded, the default).
        With a bound, the overload layer's shed policy decides what happens
        when a query arrives at a full queue: reject with 429, degrade to the
        default output, or evict the entry closest to deadline expiry.
    """

    policy: str = "aimd"
    initial_batch_size: int = 1
    additive_increase: int = 1
    backoff_fraction: float = 0.9
    max_batch_size: int = 4096
    batch_wait_timeout_ms: float = 0.0
    quantile: float = 0.99
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        valid = {"aimd", "quantile", "fixed", "none"}
        if self.policy not in valid:
            raise ConfigurationError(
                f"unknown batching policy '{self.policy}', expected one of {sorted(valid)}"
            )
        if self.initial_batch_size < 1:
            raise ConfigurationError("initial_batch_size must be >= 1")
        if not 0.0 < self.backoff_fraction <= 1.0:
            raise ConfigurationError("backoff_fraction must be in (0, 1]")
        if self.max_batch_size < self.initial_batch_size:
            raise ConfigurationError("max_batch_size must be >= initial_batch_size")
        if self.batch_wait_timeout_ms < 0:
            raise ConfigurationError("batch_wait_timeout_ms must be non-negative")
        if not 0.0 < self.quantile < 1.0:
            raise ConfigurationError("quantile must be in (0, 1)")
        if self.max_queue_depth < 0:
            raise ConfigurationError("max_queue_depth must be non-negative")


@dataclass
class OverloadConfig:
    """Admission-control configuration for one application.

    The admission gate sits in front of the batching queues and sheds work
    *before* it consumes engine resources — the fast, local complement to
    the slower control loops (health monitor, future autoscaler).

    Parameters
    ----------
    rate_limit_qps:
        Token-bucket refill rate in admitted queries/second (0 = unlimited).
    burst:
        Token-bucket capacity: how many queries above the sustained rate may
        be admitted back-to-back.  0 derives ``max(1, rate_limit_qps)``.
    max_concurrency:
        Maximum queries simultaneously in flight past admission
        (0 = unlimited).
    shed_policy:
        What happens to a query the gate cannot admit: ``"reject"`` raises
        :class:`~repro.core.exceptions.OverloadError` (HTTP 429 +
        ``Retry-After``), ``"degrade"`` answers immediately with the
        application's default output (``default: true`` flag set), and
        ``"drop-oldest"`` evicts the queued entry closest to deadline expiry
        to make room (falling back to reject when nothing is evictable).
    retry_after_s:
        Baseline ``Retry-After`` hint when the gate cannot compute one from
        the token bucket (e.g. pure concurrency saturation).
    """

    rate_limit_qps: float = 0.0
    burst: int = 0
    max_concurrency: int = 0
    shed_policy: str = "reject"
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_limit_qps < 0:
            raise ConfigurationError("rate_limit_qps must be non-negative")
        if self.burst < 0:
            raise ConfigurationError("burst must be non-negative")
        if self.max_concurrency < 0:
            raise ConfigurationError("max_concurrency must be non-negative")
        valid = {"reject", "degrade", "drop-oldest"}
        if self.shed_policy not in valid:
            raise ConfigurationError(
                f"unknown shed_policy '{self.shed_policy}', "
                f"expected one of {sorted(valid)}"
            )
        if self.retry_after_s <= 0:
            raise ConfigurationError("retry_after_s must be positive")


@dataclass
class CircuitBreakerConfig:
    """Per-model circuit-breaker thresholds.

    The breaker trips open when the recent error rate crosses
    ``error_rate_threshold`` (over at least ``min_samples`` of the last
    ``window`` outcomes) or after ``consecutive_timeouts`` deadline misses in
    a row.  While open, queries fast-fail to the default output instead of
    paying the model's timeout.  After ``open_duration_s`` the breaker lets
    ``half_open_probes`` trial queries trickle through: all succeeding closes
    it, any failing reopens it.
    """

    error_rate_threshold: float = 0.5
    window: int = 20
    min_samples: int = 10
    consecutive_timeouts: int = 5
    open_duration_s: float = 1.0
    half_open_probes: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.error_rate_threshold <= 1.0:
            raise ConfigurationError("error_rate_threshold must be in (0, 1]")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        if self.consecutive_timeouts < 1:
            raise ConfigurationError("consecutive_timeouts must be >= 1")
        if self.open_duration_s <= 0:
            raise ConfigurationError("open_duration_s must be positive")
        if self.half_open_probes < 1:
            raise ConfigurationError("half_open_probes must be >= 1")


@dataclass
class ModelDeployment:
    """Description of one model deployed behind the model abstraction layer.

    Parameters
    ----------
    name:
        Unique model name within the Clipper instance.
    container_factory:
        Zero-argument callable returning a fresh
        :class:`repro.containers.base.ModelContainer`; called once per replica
        so that replicas do not share mutable state.
    num_replicas:
        Number of container replicas (each gets its own batching queue, §4.4.1).
    batching:
        Per-model batching configuration.
    version:
        Model version; bumping the version creates a distinct :class:`ModelId`.
    serialize_rpc:
        Whether an ``"inprocess"`` replica round-trips every message through
        the binary codec: True models a container written against the Python
        bindings (serialization paid in Python, Fig. 11); False (default)
        hands over a private read-only copy equal to what the codec delivers.
    max_batch_retries:
        How many times a query may be re-enqueued after a replica fails its
        batch before the failure is surfaced to the caller.  With multiple
        replicas this lets a healthy sibling absorb the work of a sick one
        while the health monitor quarantines it.
    factory_name:
        Name of the server-side container factory this deployment was built
        from, when it came through the factory registry.  Recorded in the
        registry's deploy spec so a cold-start restore can rebuild the
        deployment; ``None`` for ad-hoc in-process factories.
    transport:
        Which RPC lane connects Clipper to this model's replicas:
        ``"inprocess"`` (default: a call into the container's server, what
        crosses set by ``serialize_rpc``), ``"shm"`` (same-host shared-memory
        rings, see :mod:`repro.rpc.shm`) or ``"tcp"`` (loopback sockets).  The
        shm and tcp lanes always serialize — a real container boundary.
    circuit_breaker:
        Per-model circuit-breaker thresholds, overriding the application's
        :attr:`ClipperConfig.breaker` default.  ``None`` inherits the
        application-level setting (which may itself be ``None`` = no breaker).
    """

    name: str
    container_factory: Callable[[], object] = field(metadata={"spec": False})
    num_replicas: int = 1
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    version: int = 1
    serialize_rpc: bool = False
    max_batch_retries: int = 3
    factory_name: Optional[str] = None
    transport: str = "inprocess"
    circuit_breaker: Optional[CircuitBreakerConfig] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("model deployment requires a non-empty name")
        if self.num_replicas < 1:
            raise ConfigurationError("num_replicas must be >= 1")
        if self.max_batch_retries < 0:
            raise ConfigurationError("max_batch_retries must be non-negative")
        valid_transports = {"inprocess", "shm", "tcp"}
        if self.transport not in valid_transports:
            raise ConfigurationError(
                f"unknown transport '{self.transport}', "
                f"expected one of {sorted(valid_transports)}"
            )

    def to_spec(self) -> Dict[str, Any]:
        """Everything about this deployment that can be stored or sent.

        Every field but the factory callable, nested configs as dicts;
        :meth:`from_spec` is the inverse.
        """
        return _to_spec(self)

    @classmethod
    def from_spec(
        cls, spec: Mapping[str, Any], factories: Mapping[str, Callable[[], object]]
    ) -> "ModelDeployment":
        """Rebuild a deployment from :meth:`to_spec` output and named factories.

        Model containers cannot be serialized; a spec names its container
        factory instead (``factory_name``, or the bare model name for an
        in-process deploy that never named one).  A name ``factories`` does
        not hold is a :class:`ManagementError`.
        """
        factory_name = spec.get("factory_name") or spec.get("name")
        factory = factories.get(factory_name) if isinstance(factory_name, str) else None
        if factory is None:
            raise ManagementError(
                f"no container factory named '{factory_name}' is registered",
                detail={"registered": sorted(factories)},
            )
        return _from_spec(cls, dict(spec), container_factory=factory)


@dataclass
class TracingConfig:
    """Configuration of the request-tracing layer.

    Parameters
    ----------
    enabled:
        Master switch.  When False, :meth:`Tracer.begin` returns ``None``
        after a single attribute check and every instrumentation point in
        the engine is one dead branch.
    sample_every:
        Head-sampling period: one query in every ``sample_every`` carries a
        fully-spanned, always-committed trace (default 1/256).  A
        caller-supplied trace id (``X-Clipper-Trace-Id``) forces sampling
        for that query regardless.
    tail_capture:
        When True (default), unsampled queries carry a lightweight shadow
        context that is committed only if the query turns out interesting —
        SLO miss, default-output fallback, straggler, retried batch or
        container error — so the slow tail is never lost to sampling.
    ring_capacity:
        Committed traces retained per component ring buffer.
    """

    enabled: bool = True
    sample_every: int = 256
    tail_capture: bool = True
    ring_capacity: int = 512

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigurationError("sample_every must be >= 1")
        if self.ring_capacity < 1:
            raise ConfigurationError("ring_capacity must be >= 1")


@dataclass
class ClipperConfig:
    """Application-level configuration for a Clipper instance.

    Parameters
    ----------
    app_name:
        Name of the application registered with the query frontend.
    latency_slo_ms:
        Latency service-level objective; drives both adaptive batching and
        the straggler-mitigation deadline.
    selection_policy:
        Name of the selection policy: ``"exp3"``, ``"exp4"``, ``"single"``,
        ``"epsilon_greedy"`` or ``"ucb"``.
    cache_size:
        Maximum number of entries in the prediction cache (0 disables it).
    straggler_mitigation:
        Whether to render predictions at the deadline with whatever subset of
        model predictions is available (§5.2.2).
    default_output:
        Sensible default returned when no model prediction is available by the
        deadline and the application opted into robust defaults.  When an
        ``output_type`` is declared the default is validated against it at
        construction, so a contradiction surfaces before serving starts.
    input_type:
        Declared input type of the application — ``"ints"``, ``"floats"``,
        ``"doubles"``, ``"bytes"`` or ``"strings"``, per the paper's
        application registration.  ``None`` (default) leaves the application
        untyped: inputs pass through unvalidated.  With a declared type,
        every query input — in-process or HTTP — is validated and coerced at
        the frontend edge before a ``Query`` is built.
    input_shape:
        Optional exact input shape enforced together with ``input_type``
        (e.g. ``(196,)`` for a 196-feature vector).
    output_type:
        Declared output type (same vocabulary as ``input_type``), used to
        validate ``default_output`` and reported through the admin API.
    routing_seed:
        Seed mixed into the routing layer's traffic-split assignment hash.
        Two instances with the same seed split the same key population
        identically; changing the seed re-partitions which routing keys land
        on a canary arm.
    overload:
        Admission-control configuration (:class:`OverloadConfig`).  ``None``
        (default) disables the admission gate entirely — the overload layer
        adds zero work to the serve path.
    breaker:
        Application-default circuit-breaker thresholds applied to every
        deployed model unless the deployment carries its own
        ``circuit_breaker``.  ``None`` (default) means no breakers.
    """

    app_name: str = "default-app"
    latency_slo_ms: float = DEFAULT_SLO_MS
    selection_policy: str = "exp4"
    cache_size: int = 65536
    straggler_mitigation: bool = True
    default_output: Optional[object] = None
    input_type: Optional[str] = None
    input_shape: Optional[tuple] = None
    output_type: Optional[str] = None
    confidence_threshold: float = 0.0
    routing_seed: int = 0
    tracing: TracingConfig = field(default_factory=TracingConfig)
    overload: Optional[OverloadConfig] = None
    breaker: Optional[CircuitBreakerConfig] = None
    # A cluster ingress boots with zero deployed models (deploys arrive over
    # the admin API); the default keeps the loud in-process failure mode.
    allow_empty_start: bool = False

    def __post_init__(self) -> None:
        if self.latency_slo_ms <= 0:
            raise ConfigurationError("latency_slo_ms must be positive")
        if self.cache_size < 0:
            raise ConfigurationError("cache_size must be non-negative")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigurationError("confidence_threshold must be in [0, 1]")
        # The typed-schema vocabulary lives in the API layer; the import is
        # deferred to construction time to keep the core free of import
        # cycles (repro.api builds on repro.core).
        from repro.api.schema import check_output_value, check_type_name

        if self.input_type is not None:
            check_type_name(self.input_type)
        if self.output_type is not None:
            check_type_name(self.output_type)
        if self.input_shape is not None:
            shape = tuple(self.input_shape)
            if not shape or not all(
                isinstance(dim, int) and not isinstance(dim, bool) and dim > 0
                for dim in shape
            ):
                raise ConfigurationError(
                    "input_shape must be a non-empty tuple of positive ints"
                )
            self.input_shape = shape
            if self.input_type is None:
                raise ConfigurationError(
                    "input_shape requires a declared input_type"
                )
            if self.input_type in {"bytes", "strings"}:
                raise ConfigurationError(
                    f"input_shape does not apply to input_type '{self.input_type}'"
                )
        if self.default_output is not None and self.output_type is not None:
            check_output_value(
                self.output_type, self.default_output, what="default_output"
            )
