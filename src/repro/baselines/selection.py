"""The non-adaptive model-selection baseline.

The paper motivates online bandit selection by contrasting it with how
practitioners pick a model today (§2.2): pick once offline and never revisit
(the serving system's ``single`` policy), or **A/B testing** — split traffic
between candidates and pick the winner once enough samples accumulate.  The
paper notes this is statistically inefficient (data requirements grow with
the number of candidates) and the resulting choice is still static.
:class:`ABTestingSelection` implements a classical fixed-allocation A/B test
over the model set, with a ``select``/``observe``/``current_choice`` surface
the Figure 8 bench can replay a feedback stream through.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np


class ABTestingSelection:
    """Fixed-allocation A/B test over the candidate models.

    Traffic is split uniformly at random until each candidate has received
    ``min_samples_per_arm`` labelled outcomes; then the empirically best
    candidate takes all traffic.  No further adaptation occurs — exactly the
    failure mode the paper's Figure 8 experiment exposes when a model later
    degrades.
    """

    def __init__(
        self,
        model_keys: Sequence[str],
        min_samples_per_arm: int = 200,
        random_state: Optional[int] = 0,
    ) -> None:
        if not model_keys:
            raise ValueError("model_keys must be non-empty")
        if min_samples_per_arm < 1:
            raise ValueError("min_samples_per_arm must be >= 1")
        self.model_keys = list(model_keys)
        self.min_samples_per_arm = min_samples_per_arm
        self._rng = np.random.default_rng(random_state)
        self._losses: Dict[str, float] = {key: 0.0 for key in self.model_keys}
        self._counts: Dict[str, int] = {key: 0 for key in self.model_keys}
        self._winner: Optional[str] = None

    @property
    def experiment_complete(self) -> bool:
        return self._winner is not None

    def select(self, x: Any = None) -> str:
        if self._winner is not None:
            return self._winner
        # Uniformly randomise during the experiment phase.
        return self.model_keys[int(self._rng.integers(0, len(self.model_keys)))]

    def observe(self, model_key: str, loss: float) -> None:
        """Record one labelled outcome for the arm that served the query."""
        if model_key not in self._losses:
            raise ValueError(f"unknown model '{model_key}'")
        if self._winner is not None:
            return
        self._losses[model_key] += float(loss)
        self._counts[model_key] += 1
        if all(self._counts[key] >= self.min_samples_per_arm for key in self.model_keys):
            self._winner = min(
                self.model_keys,
                key=lambda key: self._losses[key] / max(self._counts[key], 1),
            )

    def current_choice(self) -> Optional[str]:
        return self._winner

    def mean_losses(self) -> Dict[str, float]:
        """Observed mean loss per arm (NaN for arms with no samples)."""
        return {
            key: (self._losses[key] / self._counts[key]) if self._counts[key] else float("nan")
            for key in self.model_keys
        }
