"""Overload control: admission gating, load shedding and circuit breaking.

This package is the fast, local protection layer under the slower global
control loops (the `HealthMonitor`'s quarantine, the future autoscaler):
it decides in microseconds whether a query is admitted, shed, degraded to
the default output, or fast-failed past a tripped model — so the latency
SLO survives flash crowds and sick models alike.

* :class:`OverloadControl` — the one object the serving engine talks to:
  it owns the two mechanisms below, the shed policy, the shed counters and
  events, and hands each query that leaves the cache a :class:`Ticket`
  settled exactly once on every exit path (:mod:`repro.overload.control`).
* :class:`AdmissionController` — per-application token-bucket + concurrency
  gate applied at the first cache miss (cache hits never pay for it).
* :class:`CircuitBreaker` — per-model closed/open/half-open breaker on
  error-rate and consecutive-timeout thresholds.

Configuration lives beside the rest of the engine's knobs in
:mod:`repro.core.config` (:class:`~repro.core.config.OverloadConfig`,
:class:`~repro.core.config.CircuitBreakerConfig`).
"""
