"""Evaluation harness: reusable experiment drivers for every table and figure.

Each module implements the measurement logic of one family of experiments so
that the ``benchmarks/`` targets stay thin (parameters + printing) and the
experiments themselves are unit-testable:

* :mod:`repro.evaluation.profiles` — latency-vs-batch-size profiles (Fig. 3).
* :mod:`repro.evaluation.serving` — live serving throughput/latency runs used
  by the batching-strategy, delayed-batching and TF-Serving comparisons
  (Figs. 4, 5, 11).
* :mod:`repro.evaluation.online` — selection-layer experiments: ensemble
  accuracy and confidence (Fig. 7), model-failure recovery (Fig. 8),
  straggler mitigation (Fig. 9) and dialect personalization (Fig. 10).
* :mod:`repro.evaluation.reporting` — plain-text table rendering shared by
  the benchmark targets and the examples.

The serving engine's own overhead is measured by ``benchmarks/serving/``.
"""

from repro.evaluation.profiles import LatencyProfile, max_batch_under_slo, measure_latency_profile
from repro.evaluation.reporting import format_table
from repro.evaluation.serving import ServingMeasurement, run_clipper_serving, run_tfserving_baseline

__all__ = [
    "LatencyProfile",
    "measure_latency_profile",
    "max_batch_under_slo",
    "format_table",
    "ServingMeasurement",
    "run_clipper_serving",
    "run_tfserving_baseline",
]
