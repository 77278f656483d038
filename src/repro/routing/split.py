"""Weighted traffic splits with deterministic, seeded arm assignment.

A :class:`TrafficSplit` describes how one model name's traffic is divided
between deployed versions.  Stable 100/0 serving is just the degenerate
split with a single arm; a canary rollout is a two-arm split whose second
arm carries the canary weight.  Splits are immutable — every routing change
builds a new split and swaps it into the routing table atomically — so a
query either sees the old configuration or the new one, never a half-applied
mix.

Arm assignment is *deterministic and seeded*: the routing key (the query's
user id, or its input hash when anonymous) is hashed together with the
split's seed into a fraction in ``[0, 1)`` and mapped onto the cumulative
arm weights.  A given key therefore always lands on the same arm for a given
split, which keeps per-user behaviour stable during a canary (the same user
is never flapped between versions) and makes rollout experiments
reproducible across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import RoutingError

#: 53 bits of hash mapped into [0, 1) — the largest fraction a float holds
#: exactly, so the arm boundaries are placed without rounding surprises.
_FRACTION_BITS = 53
_FRACTION_DENOM = float(1 << _FRACTION_BITS)


def assignment_fraction(seed: int, routing_key: str) -> float:
    """Deterministic hash of ``(seed, routing_key)`` into ``[0, 1)``.

    SHA-1 keeps the assignment stable across processes and Python builds
    (``hash()`` is salted per process); the seed lets two independent splits
    partition the same key population differently.
    """
    digest = hashlib.sha1(f"{seed}:{routing_key}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") >> (64 - _FRACTION_BITS)) / _FRACTION_DENOM


@dataclass(frozen=True)
class TrafficSplit:
    """Immutable weighted assignment of one model name's traffic to versions.

    Parameters
    ----------
    arms:
        ``(model_key, weight)`` pairs in priority order; weights are
        normalized fractions summing to 1.0.  Build instances through
        :meth:`single` / :meth:`canary_split` rather than directly.
    stable:
        The stable (baseline) arm's model key — the version an abort
        restores and the version ``active_version`` reports.
    canary:
        The canary arm's model key while a rollout is in flight, else None.
    seed:
        Seed mixed into the assignment hash.
    """

    arms: Tuple[Tuple[str, float], ...]
    stable: str
    canary: Optional[str] = None
    seed: int = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def single(cls, model_key: str, seed: int = 0) -> "TrafficSplit":
        """The degenerate split: every query routes to ``model_key``."""
        return cls(arms=((model_key, 1.0),), stable=model_key, seed=seed)

    @classmethod
    def canary_split(
        cls, stable_key: str, canary_key: str, weight: float, seed: int = 0
    ) -> "TrafficSplit":
        """A two-arm split sending ``weight`` of traffic to the canary."""
        if stable_key == canary_key:
            raise RoutingError(
                f"canary arm '{canary_key}' cannot equal the stable arm"
            )
        _validate_weight(weight)
        return cls(
            arms=((stable_key, 1.0 - weight), (canary_key, weight)),
            stable=stable_key,
            canary=canary_key,
            seed=seed,
        )

    def with_weight(self, weight: float) -> "TrafficSplit":
        """A copy of an in-flight canary split with an adjusted weight."""
        if self.canary is None:
            raise RoutingError("cannot adjust weight: no canary is in flight")
        return TrafficSplit.canary_split(self.stable, self.canary, weight, self.seed)

    # -- assignment ------------------------------------------------------------

    def arm_for(self, routing_key: str) -> str:
        """The model key serving ``routing_key`` — deterministic per split."""
        arms = self.arms
        if len(arms) == 1:
            return arms[0][0]
        fraction = assignment_fraction(self.seed, routing_key)
        cumulative = 0.0
        for model_key, weight in arms:
            cumulative += weight
            if fraction < cumulative:
                return model_key
        return arms[-1][0]  # guard against float accumulation at the boundary

    # -- introspection ---------------------------------------------------------

    def keys(self) -> Tuple[str, ...]:
        """Every arm's model key, stable arm first."""
        return tuple(key for key, _ in self.arms)

    def weight_of(self, model_key: str) -> float:
        """The traffic fraction on one arm (0.0 for keys not in the split)."""
        for key, weight in self.arms:
            if key == model_key:
                return weight
        return 0.0

    # -- persistence -----------------------------------------------------------

    def to_record(self) -> Dict[str, Any]:
        """JSON-friendly record for the model registry."""
        return {
            "arms": [[key, weight] for key, weight in self.arms],
            "stable": self.stable,
            "canary": self.canary,
            "seed": self.seed,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TrafficSplit":
        """Rebuild a split from its registry record."""
        return cls(
            arms=tuple((str(key), float(weight)) for key, weight in record["arms"]),
            stable=str(record["stable"]),
            canary=record.get("canary"),
            seed=int(record.get("seed", 0)),
        )


def _validate_weight(weight: float) -> None:
    if not 0.0 < weight <= 1.0:
        raise RoutingError(
            f"canary weight must be in (0, 1], got {weight!r}"
        )
