"""Adaptive batching demo: AIMD vs quantile regression vs no batching (§4.3).

Serves the same linear-SVM container under the three batching strategies the
paper compares in Figure 4 and prints the throughput / P99-latency trade-off
each achieves under a 20 ms SLO, plus the batch sizes the adaptive
controllers converged to.

Run with::

    python examples/adaptive_batching_demo.py
"""

from __future__ import annotations

from repro.containers.adapters import ClassifierContainer
from repro.core.config import BatchingConfig
from repro.datasets import load_mnist_like
from repro.evaluation.reporting import format_table
from repro.evaluation.serving import run_clipper_serving
from repro.mlkit import LinearSVM

SLO_MS = 20.0


def main() -> None:
    dataset = load_mnist_like(n_samples=1500, n_features=196, random_state=0)
    svm = LinearSVM(epochs=4, random_state=0).fit(dataset.X_train, dataset.y_train)
    inputs = [dataset.X_test[i] for i in range(64)]

    strategies = {
        "adaptive (AIMD)": BatchingConfig(policy="aimd", additive_increase=4),
        "quantile regression": BatchingConfig(policy="quantile", additive_increase=4),
        "no batching": BatchingConfig(policy="none"),
    }
    rows = []
    for label, batching in strategies.items():
        measurement = run_clipper_serving(
            container_factory=lambda: ClassifierContainer(svm, framework="sklearn"),
            inputs=inputs,
            label=label,
            num_queries=600,
            latency_slo_ms=SLO_MS,
            batching=batching,
            concurrency=64,
        )
        rows.append(measurement.as_row())

    print(format_table(rows, title=f"Batching strategies under a {SLO_MS:.0f} ms SLO"))
    baseline = next(row for row in rows if row["label"] == "no batching")
    best = max(rows, key=lambda row: row["throughput_qps"])
    speedup = best["throughput_qps"] / baseline["throughput_qps"]
    print(f"\nbest adaptive strategy ({best['label']}) delivers {speedup:.1f}x the "
          "throughput of the no-batching baseline")


if __name__ == "__main__":
    main()
