"""Personalized speech recognition with per-user selection state (§5.3).

The paper's Figure 10 experiment: a speech service hosts one model per
dialect plus a dialect-oblivious model.  Each user's session maintains its
own selection-policy state, so after a handful of feedback interactions the
service routes a user's queries to the models that work best *for that
user* — without ever being told the user's dialect.

Run with::

    PYTHONPATH=src:benchmarks python examples/speech_personalization.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from paperkit.datasets.speech import load_timit_like, utterances_to_fixed_features
from paperkit.suites import dialect_model_suite
from repro import Clipper, ClipperConfig, Feedback, ModelDeployment, Query
from repro.containers.adapters import ClassifierContainer


async def main() -> None:
    corpus = load_timit_like(n_speakers=48, utterances_per_speaker=10, random_state=7)
    models, global_name = dialect_model_suite(corpus, random_state=0)
    print(f"trained {len(models) - 1} dialect models plus '{global_name}'")

    clipper = Clipper(
        ClipperConfig(app_name="speech", latency_slo_ms=50.0, selection_policy="exp4")
    )
    for name, model in models.items():
        clipper.deploy_model(
            ModelDeployment(
                name=name,
                container_factory=lambda model=model: ClassifierContainer(model),
            )
        )
    await clipper.start()

    per_round_errors: dict = {}
    speakers = corpus.test_speakers()
    for speaker in speakers:
        utterances = corpus.utterances_for_speaker(speaker)[:8]
        if not utterances:
            continue
        X, y = utterances_to_fixed_features(utterances)
        user_id = f"speaker-{speaker}"
        for step in range(X.shape[0]):
            prediction = await clipper.predict(
                Query(app_name="speech", input=X[step], user_id=user_id)
            )
            per_round_errors.setdefault(step, []).append(
                0.0 if prediction.output == y[step] else 1.0
            )
            await clipper.feedback(
                Feedback(app_name="speech", input=X[step], label=int(y[step]), user_id=user_id)
            )

    print("\nmean error by number of feedback interactions (Clipper selection policy):")
    for step in sorted(per_round_errors):
        errors = per_round_errors[step]
        print(f"  after {step} feedback updates: error {np.mean(errors):.3f} "
              f"({len(errors)} users)")

    example_user = f"speaker-{speakers[0]}"
    state = clipper.selection_manager.get_state(example_user)
    weights = clipper.selection_manager.policy.model_weights(state)
    top = sorted(weights.items(), key=lambda kv: -kv[1])[:3]
    print(f"\ntop models learned for {example_user}: "
          + ", ".join(f"{name} ({weight:.2f})" for name, weight in top))
    await clipper.stop()


if __name__ == "__main__":
    asyncio.run(main())
