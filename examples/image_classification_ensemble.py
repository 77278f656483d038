"""Object-recognition ensemble with confidence-gated predictions.

Reproduces the workflow behind the paper's Figure 7 at application level: a
CIFAR-like object-recognition service deploys five models of varying
quality, combines them with the Exp4 ensemble policy, and uses the
agreement-based confidence score to decide when to fall back to a sensible
default (the "robust predictions" pattern of §5.2.1).

Run with::

    python examples/image_classification_ensemble.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import Clipper, ClipperConfig, Feedback, ModelDeployment, Query
from repro.containers.adapters import ClassifierContainer
from repro.datasets import load_cifar_like
from repro.evaluation.suites import heterogeneous_ensemble

#: Applications with a costly failure mode can decline to predict below this
#: agreement level and take a default action instead.
CONFIDENCE_THRESHOLD = 0.8
DEFAULT_ACTION = -1  # "show a generic result" sentinel


async def main() -> None:
    dataset = load_cifar_like(n_samples=2000, n_features=256, random_state=1)
    models = heterogeneous_ensemble(dataset, n_models=5, random_state=0)
    print("trained ensemble members:")
    for name, model in models.items():
        print(f"  {name}: test accuracy {model.score(dataset.X_test, dataset.y_test):.3f}")

    clipper = Clipper(
        ClipperConfig(
            app_name="object-recognition",
            latency_slo_ms=50.0,
            selection_policy="exp4",
            confidence_threshold=CONFIDENCE_THRESHOLD,
            default_output=DEFAULT_ACTION,
        )
    )
    for name, model in models.items():
        clipper.deploy_model(
            ModelDeployment(
                name=name,
                container_factory=lambda model=model: ClassifierContainer(model),
            )
        )
    await clipper.start()

    confident, declined, confident_correct = 0, 0, 0
    n_queries = 300
    for i in range(n_queries):
        idx = i % dataset.X_test.shape[0]
        x, truth = dataset.X_test[idx], int(dataset.y_test[idx])
        prediction = await clipper.predict(Query(app_name="object-recognition", input=x))
        if prediction.default_used:
            declined += 1
        else:
            confident += 1
            confident_correct += int(prediction.output == truth)
        await clipper.feedback(Feedback(app_name="object-recognition", input=x, label=truth))

    print(f"\nserved {n_queries} queries with confidence threshold {CONFIDENCE_THRESHOLD}")
    print(f"confident predictions: {confident} ({confident / n_queries:.1%}), "
          f"accuracy among them {confident_correct / max(confident, 1):.3f}")
    print(f"declined (default action used): {declined} ({declined / n_queries:.1%})")
    await clipper.stop()


if __name__ == "__main__":
    asyncio.run(main())
