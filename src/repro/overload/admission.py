"""Per-application admission control: token bucket + concurrency gate.

The controller answers one question on the cache-miss path — "may this
query enter the batching layer?" — in a handful of float operations, with
no locks (the serving engine is single-threaded per event loop) and no
timers (the bucket refills lazily from the elapsed time at each check).

Two independent limits compose:

* a **token bucket** (``rate_limit_qps`` refill, ``burst`` capacity)
  bounding the sustained admission rate while absorbing short bursts, and
* a **concurrency gate** (``max_concurrency``) bounding how many admitted
  queries are simultaneously in flight.

Either limit at 0 is disabled.  ``saturated()`` is the *non-consuming*
variant used by the HTTP edge to reject before any parsing/validation work;
``try_acquire()`` is the consuming check made once per query at its first
cache miss, paired with ``release()`` when the query completes.
"""

from __future__ import annotations

from repro.core import clock
from repro.core.config import OverloadConfig


class AdmissionController:
    """Token-bucket + concurrency admission gate for one application."""

    __slots__ = (
        "config",
        "_inflight",
        "_rate",
        "_capacity",
        "_tokens",
        "_refilled_at",
        "admitted",
        "forced",
    )

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self._inflight = 0
        self._rate = float(config.rate_limit_qps)
        if self._rate > 0:
            self._capacity = float(config.burst) if config.burst else max(1.0, self._rate)
        else:
            self._capacity = 0.0
        self._tokens = self._capacity
        self._refilled_at = clock.now()
        #: Lifetime admission counts, for introspection (``overload_state``).
        self.admitted = 0
        self.forced = 0

    # ------------------------------------------------------------------
    # Consuming path (engine, once per query at first cache miss)
    # ------------------------------------------------------------------

    def _refill(self, now: float) -> float:
        tokens = self._tokens + (now - self._refilled_at) * self._rate
        if tokens > self._capacity:
            tokens = self._capacity
        self._tokens = tokens
        self._refilled_at = now
        return tokens

    def try_acquire(self) -> bool:
        """Consume one admission slot; False when the gate is saturated."""
        config = self.config
        if config.max_concurrency and self._inflight >= config.max_concurrency:
            return False
        if self._rate > 0:
            tokens = self._refill(clock.now())
            if tokens < 1.0:
                return False
            self._tokens = tokens - 1.0
        self._inflight += 1
        self.admitted += 1
        return True

    def force_acquire(self) -> None:
        """Admit without a token — used after drop-oldest made room."""
        self._inflight += 1
        self.admitted += 1
        self.forced += 1

    def release(self) -> None:
        """Return the concurrency slot taken by ``try_acquire``/``force_acquire``."""
        if self._inflight > 0:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Non-consuming observers (HTTP edge precheck, metrics, Retry-After)
    # ------------------------------------------------------------------

    def saturated(self) -> bool:
        """True when ``try_acquire`` would currently fail (consumes nothing)."""
        config = self.config
        if config.max_concurrency and self._inflight >= config.max_concurrency:
            return True
        if self._rate > 0 and self._refill(clock.now()) < 1.0:
            return True
        return False

    def saturation(self) -> float:
        """Pressure gauge in [0, 1]: the tighter of the two limits."""
        pressure = 0.0
        config = self.config
        if config.max_concurrency:
            pressure = min(1.0, self._inflight / config.max_concurrency)
        if self._rate > 0 and self._capacity > 0:
            tokens = self._refill(clock.now())
            depletion = 1.0 - min(1.0, tokens / self._capacity)
            if depletion > pressure:
                pressure = depletion
        return pressure

    def retry_after_s(self) -> float:
        """Seconds until the gate expects to admit again (Retry-After hint)."""
        if self._rate > 0:
            tokens = self._refill(clock.now())
            if tokens < 1.0:
                return (1.0 - tokens) / self._rate
        return self.config.retry_after_s

    @property
    def inflight(self) -> int:
        return self._inflight

    def state(self) -> dict:
        """Introspection snapshot for the admin ``describe`` surface."""
        config = self.config
        return {
            "shed_policy": config.shed_policy,
            "rate_limit_qps": config.rate_limit_qps,
            "max_concurrency": config.max_concurrency,
            "inflight": self._inflight,
            "saturation": round(self.saturation(), 4),
            "admitted": self.admitted,
            "forced": self.forced,
        }
