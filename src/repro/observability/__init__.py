"""Observability plane: request tracing, Prometheus exposition, JSON logs.

Three pieces share this package:

* :mod:`repro.observability.tracing` — per-query span capture with head
  sampling plus tail-based capture of SLO misses / fallbacks / stragglers,
  joined into trace trees by a :class:`TraceRegistry`.
* :mod:`repro.observability.prometheus` — text-format (0.0.4) exposition of
  any :class:`~repro.core.metrics.MetricsRegistry`, plus the minimal parser
  used by CI to validate it.
* :mod:`repro.observability.logging` — structured JSON logging with
  trace-id correlation and an idempotent process-wide setup.
"""
