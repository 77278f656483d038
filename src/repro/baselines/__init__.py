"""Baseline systems the paper compares against.

* :mod:`repro.baselines.tfserving` — a TensorFlow-Serving-like server:
  single model, tightly coupled (in-process, no RPC/serialization), static
  hand-tuned batch sizes with timeout-based dispatch (Figure 11).
* :mod:`repro.baselines.selection` — the non-adaptive model-selection
  baseline: classical A/B testing (§2.2's discussion of why A/B testing is
  statistically inefficient).
"""

from repro.baselines.tfserving import TFServingLikeServer
from repro.baselines.selection import ABTestingSelection

__all__ = ["TFServingLikeServer", "ABTestingSelection"]
