"""Metrics-driven canary promotion and abort.

Starting a canary hands the rollout decision to data: the routing layer
attributes every query's latency and outcome to the arm that served it, and
the :class:`CanaryController` periodically compares the canary arm against
the stable arm.  A canary that matches the stable arm's error rate and tail
latency for enough consecutive checks is *promoted* (it becomes the sole
serving version, the old stable kept for rollback); a canary whose error
rate or p99 degrades beyond the configured deltas is *aborted* (all traffic
snaps back to the stable arm).

The controller also reads the health plane: it finds each canary replica's
:class:`~repro.core.types.ReplicaHealth` on the version's records
(``clipper.model_records()``), where the health monitor writes it, and a
canary replica leaving the healthy state (quarantined by probes or by the
dispatcher's passive failure signal) aborts the rollout immediately — a
sick canary should never poison the fleet while the metrics window fills.

The promote/abort actions are callables the caller supplies; the management
frontend passes its registry-recording verbs and runs :meth:`evaluate_once`
on its sweep every ``check_interval_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.core.deployed import quarantines_for, statuses_for
from repro.core.exceptions import RoutingError
from repro.core.types import REPLICA_HEALTHY
from repro.observability.logging import get_logger
from repro.observability.tracing import TRACE_CANARY
from repro.routing.split import TrafficSplit

logger = get_logger("routing.controller")

#: A canary is aborted when its error rate exceeds the stable arm's by more
#: than this absolute fraction.
MAX_ERROR_RATE_DELTA = 0.02

#: Decision verbs recorded in the controller's ledger.
DECISION_PROMOTE = "promote"
DECISION_ABORT = "abort"


@dataclass
class _CanaryWatch:
    """Per-rollout bookkeeping: metric baselines and consecutive clean checks.

    Arm metrics are cumulative across rollouts of the same version key, so
    every judgement reads each arm since its mark (``ArmMetrics.mark``):
    the requests, errors and latency samples after the watch began or after
    the last clean check.
    """

    canary_key: str
    stable_key: str
    canary_mark: Tuple[int, int, int] = (0, 0, 0)
    stable_mark: Tuple[int, int, int] = (0, 0, 0)
    base_quarantines: int = 0
    healthy_checks: int = 0


@dataclass
class CanaryDecision:
    """One promote/abort decision taken by the controller."""

    model_name: str
    action: str
    canary_key: str
    reason: str
    checks: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


class CanaryController:
    """Watches in-flight canaries and auto-promotes or auto-aborts them.

    Parameters
    ----------
    clipper:
        The serving instance whose routing table and replica health are
        watched.
    promote / abort:
        Async callables ``(model_name) -> None`` performing the action.
    check_interval_s:
        Delay between evaluation sweeps.
    min_requests:
        Queries the canary arm must serve (since the watch began) before
        metric comparisons count — promotion never outruns the evidence.
    p99_ratio_limit / p99_slack_ms:
        Abort when ``canary_p99 > stable_p99 * ratio + slack`` (the slack
        keeps microsecond-scale baselines from tripping the ratio on noise).
    healthy_checks_to_promote:
        Consecutive clean evaluations (each with fresh traffic) required
        before the canary is promoted.
    """

    def __init__(
        self,
        clipper,
        promote: Callable[[str], Awaitable[Any]],
        abort: Callable[[str], Awaitable[Any]],
        check_interval_s: float = 0.05,
        min_requests: int = 50,
        p99_ratio_limit: float = 3.0,
        p99_slack_ms: float = 5.0,
        healthy_checks_to_promote: int = 3,
    ) -> None:
        self.clipper = clipper
        self._promote = promote
        self._abort = abort
        self.check_interval_s = check_interval_s
        self.min_requests = min_requests
        self.p99_ratio_limit = p99_ratio_limit
        self.p99_slack_ms = p99_slack_ms
        self.healthy_checks_to_promote = healthy_checks_to_promote

        metrics = clipper.metrics
        self._check_counter = metrics.counter("canary.checks")
        self._promotion_counter = metrics.counter("canary.auto_promotions")
        self._abort_counter = metrics.counter("canary.auto_aborts")

        self._watches: Dict[str, _CanaryWatch] = {}
        self.decisions: List[CanaryDecision] = []

    # -- evaluation ------------------------------------------------------------

    async def evaluate_once(self) -> List[CanaryDecision]:
        """Judge every in-flight canary once; returns the decisions taken."""
        canaries = self.clipper.routing.canaries()
        # Drop watches whose rollout ended (promoted/aborted/replaced).
        for name in [n for n in self._watches if n not in canaries]:
            del self._watches[name]
        decisions: List[CanaryDecision] = []
        for name, split in canaries.items():
            watch = self._watches.get(name)
            if watch is None or watch.canary_key != split.canary:
                watch = self._begin_watch(split)
                self._watches[name] = watch
                continue  # judge from the next sweep so deltas reflect traffic
            self._check_counter.increment()
            decision = await self._judge(name, split, watch)
            if decision is not None:
                decisions.append(decision)
        return decisions

    def _begin_watch(self, split: TrafficSplit) -> _CanaryWatch:
        arm_metrics = self.clipper.routing.arm_metrics
        return _CanaryWatch(
            canary_key=split.canary,
            stable_key=split.stable,
            canary_mark=arm_metrics(split.canary).mark(),
            stable_mark=arm_metrics(split.stable).mark(),
            base_quarantines=quarantines_for(self.clipper.model_records(), split.canary),
        )

    async def _judge(
        self, name: str, split: TrafficSplit, watch: _CanaryWatch
    ) -> Optional[CanaryDecision]:
        # Health signal first: a quarantined canary replica ends the rollout
        # immediately, before the metrics window has a chance to fill.
        sick = self._canary_health_violation(watch)
        if sick is not None:
            return await self._act(DECISION_ABORT, name, watch, sick)

        canary_arm = self.clipper.routing.arm_metrics(watch.canary_key)
        stable_arm = self.clipper.routing.arm_metrics(watch.stable_key)
        canary_requests, canary_errors, canary_p99 = canary_arm.since(watch.canary_mark)
        if canary_requests < self.min_requests:
            return None  # not enough evidence yet
        canary_error_rate = canary_errors / canary_requests
        stable_requests, stable_errors, stable_p99 = stable_arm.since(watch.stable_mark)
        stable_error_rate = stable_errors / stable_requests if stable_requests else 0.0

        if canary_error_rate > stable_error_rate + MAX_ERROR_RATE_DELTA:
            return await self._act(
                DECISION_ABORT,
                name,
                watch,
                "error rate "
                f"{canary_error_rate:.4f} vs stable {stable_error_rate:.4f}",
                canary_error_rate=canary_error_rate,
                stable_error_rate=stable_error_rate,
            )

        if (
            canary_p99 == canary_p99  # not NaN: the arm has latency samples
            and stable_p99 == stable_p99
            and canary_p99 > stable_p99 * self.p99_ratio_limit + self.p99_slack_ms
        ):
            return await self._act(
                DECISION_ABORT,
                name,
                watch,
                f"p99 {canary_p99:.3f} ms vs stable {stable_p99:.3f} ms",
                canary_p99=canary_p99,
                stable_p99=stable_p99,
            )

        watch.healthy_checks += 1
        if watch.healthy_checks >= self.healthy_checks_to_promote:
            return await self._act(
                DECISION_PROMOTE,
                name,
                watch,
                f"{watch.healthy_checks} consecutive healthy checks "
                f"over {canary_requests} canary queries",
                canary_error_rate=canary_error_rate,
                canary_p99=canary_p99,
            )
        # Reset the baselines so the next check requires fresh traffic: a
        # stalled canary must not be promoted on stale evidence.
        watch.canary_mark, watch.stable_mark = canary_arm.mark(), stable_arm.mark()
        return None

    def _canary_health_violation(self, watch: _CanaryWatch) -> Optional[str]:
        """A reason string when the canary's replicas look sick, else None."""
        records = self.clipper.model_records()
        for status in statuses_for(records, watch.canary_key):
            if status.state != REPLICA_HEALTHY:
                return f"replica '{status.replica_name}' is {status.state}"
        if quarantines_for(records, watch.canary_key) > watch.base_quarantines:
            return "canary replica was quarantined during the rollout"
        return None

    async def _act(
        self, action: str, name: str, watch: _CanaryWatch, reason: str, **extra
    ) -> Optional[CanaryDecision]:
        try:
            if action == DECISION_PROMOTE:
                await self._promote(name)
                self._promotion_counter.increment()
            else:
                await self._abort(name)
                self._abort_counter.increment()
        except RoutingError:
            # The rollout ended under us (operator promoted/aborted first).
            self._watches.pop(name, None)
            return None
        self._watches.pop(name, None)
        decision = CanaryDecision(
            model_name=name,
            action=action,
            canary_key=watch.canary_key,
            reason=reason,
            checks=watch.healthy_checks,
            extra=extra,
        )
        # Promote/abort decisions are tail-captured as standalone event
        # traces (a canary abort is exactly the interesting 0.1%), so they
        # are queryable via GET /api/v1/trace/<id> next to request traces.
        trace_id = self.clipper.tracer.capture_event(
            f"canary.{action}",
            meta={
                "model": name,
                "canary_key": watch.canary_key,
                "stable_key": watch.stable_key,
                "reason": reason,
                **{k: v for k, v in extra.items() if isinstance(v, (int, float, str))},
            },
            flags=TRACE_CANARY,
            component="routing",
        )
        if trace_id is not None:
            decision.extra["trace_id"] = trace_id
        logger.info(
            "canary %s: %s",
            action,
            name,
            extra={
                "action": action,
                "model": name,
                "canary_key": watch.canary_key,
                "reason": reason,
                "checks": watch.healthy_checks,
                "trace_id": decision.extra.get("trace_id"),
            },
        )
        self.decisions.append(decision)
        return decision
