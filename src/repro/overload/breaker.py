"""Per-model circuit breaker: closed / open / half-open.

A sick model container without a breaker inflicts its full timeout (or
error path) on every query routed to it until the `HealthMonitor`'s
heartbeat loop quarantines a replica — seconds of SLO damage.  The breaker
is the microsecond-scale complement: it watches per-query outcomes inline,
trips **open** on an error-rate or consecutive-timeout threshold, and while
open the engine skips the model entirely (falling through to the
default-output path, exactly as if the model were not deployed).  After a
cool-down the breaker turns **half-open** and lets a trickle of probe
queries through; all probes succeeding closes it, any probe failing snaps
it back open for another cool-down.

The breaker is intentionally not thread-safe: it is only touched from the
owning Clipper's event loop, like every other per-query structure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.core import clock
from repro.core.config import CircuitBreakerConfig


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Outcome-driven breaker guarding one deployed model."""

    __slots__ = (
        "config",
        "state",
        "on_transition",
        "_outcomes",
        "_consecutive_timeouts",
        "_opened_at",
        "_probes_inflight",
        "_probes_succeeded",
    )

    def __init__(
        self,
        config: CircuitBreakerConfig,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.config = config
        self.state = CLOSED
        self.on_transition = on_transition
        self._outcomes: Deque[bool] = deque(maxlen=config.window)
        self._consecutive_timeouts = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._probes_succeeded = 0

    # ------------------------------------------------------------------
    # Gate
    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """May a query be sent to this model right now?

        In half-open state a True return *reserves a probe slot*: the caller
        must follow up with exactly one of :meth:`record_success`,
        :meth:`record_failure` or :meth:`abandon`.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if clock.now() - self._opened_at < self.config.open_duration_s:
                return False
            self._transition(HALF_OPEN)
        # Half-open: trickle at most half_open_probes concurrent trials.
        if self._probes_inflight < self.config.half_open_probes:
            self._probes_inflight += 1
            return True
        return False

    def abandon(self) -> None:
        """Give back a half-open probe slot without recording an outcome.

        For when ``allow()`` said yes but the query never actually reached
        the model (e.g. submission failed for an unrelated reason).
        """
        if self.state == HALF_OPEN and self._probes_inflight > 0:
            self._probes_inflight -= 1

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            if self._probes_inflight > 0:
                self._probes_inflight -= 1
            self._probes_succeeded += 1
            if self._probes_succeeded >= self.config.half_open_probes:
                self._reset_window()
                self._transition(CLOSED)
            return
        self._consecutive_timeouts = 0
        self._outcomes.append(True)

    def record_failure(self, timeout: bool = False) -> None:
        if self.state == HALF_OPEN:
            # A failed probe snaps straight back open for another cool-down.
            if self._probes_inflight > 0:
                self._probes_inflight -= 1
            self._trip()
            return
        if self.state == OPEN:
            return
        self._outcomes.append(False)
        if timeout:
            self._consecutive_timeouts += 1
            if self._consecutive_timeouts >= self.config.consecutive_timeouts:
                self._trip()
                return
        config = self.config
        outcomes = self._outcomes
        if len(outcomes) >= config.min_samples:
            failures = sum(1 for ok in outcomes if not ok)
            if failures / len(outcomes) >= config.error_rate_threshold:
                self._trip()

    # ------------------------------------------------------------------
    # Internals / introspection
    # ------------------------------------------------------------------

    def _trip(self) -> None:
        self._reset_window()
        self._transition(OPEN)

    def _reset_window(self) -> None:
        self._outcomes.clear()
        self._consecutive_timeouts = 0
        self._probes_inflight = 0
        self._probes_succeeded = 0

    def _transition(self, new_state: str) -> None:
        old_state = self.state
        if new_state == old_state:
            return
        self.state = new_state
        if new_state == OPEN:
            self._opened_at = clock.now()
        callback = self.on_transition
        if callback is not None:
            callback(old_state, new_state)

    def error_rate(self) -> float:
        outcomes = self._outcomes
        if not outcomes:
            return 0.0
        return sum(1 for ok in outcomes if not ok) / len(outcomes)

    def describe(self) -> dict:
        return {
            "state": self.state,
            "error_rate": round(self.error_rate(), 4),
            "consecutive_timeouts": self._consecutive_timeouts,
            "samples": len(self._outcomes),
        }
