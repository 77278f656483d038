"""The per-query overload decision, owned by one object per application.

:class:`OverloadControl` is everything the serving engine asks of this
package.  It is built once when the application is configured and answers:

* **at the edge** — :meth:`OverloadControl.precheck`, the non-consuming
  early refusal in front of input validation;
* **when a query leaves the cache** — :meth:`OverloadControl.admit`, which
  takes the query's admission slot (or sheds it under the configured
  policy) and returns the query's :class:`Ticket`;
* **per model** — :meth:`Ticket.allow` (circuit-breaker gate),
  :meth:`Ticket.succeeded` / :meth:`Ticket.failed` (breaker outcomes) and
  :meth:`Ticket.make_room` (a bounded model queue is full);
* **once per query, on every exit path** — :meth:`Ticket.settle`, which
  returns the admission slot and every breaker probe slot that got no
  outcome.  Nothing else releases either, so a shed, a timeout or a
  cancellation mid-ensemble cannot leak one.

The shed policy (``reject`` / ``degrade`` / ``drop-oldest``), the shed
counters and trace events, and the ``Retry-After`` hint are known only
here.  Every shed, whether the admission gate or a full bounded queue
caused it, counts in the registered ``overload.shed{policy=...}`` family,
which every application exports.  A query the policy refuses raises
:class:`~repro.core.exceptions.OverloadError`; one the ``degrade`` policy
answers with the default output raises :class:`Degraded`.

With no :class:`~repro.core.config.OverloadConfig` and no breaker on any
version a ticket would hold nothing, so ``admit`` hands every query the one
stateless :class:`_OpenTicket`, which only sheds by policy when a bounded
queue is full.  Work that is never shed (feedback re-evaluation) passes
:data:`UNGUARDED` in the control's place.  A fully cached query calls neither.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.batching.deadline import expire
from repro.core.config import ClipperConfig
from repro.core.exceptions import OverloadError
from repro.core.metrics import Counter, MetricsRegistry
from repro.observability.tracing import Tracer
from repro.overload.admission import AdmissionController
from repro.overload.breaker import CircuitBreaker


_SHED_POLICIES = ("reject", "degrade", "drop-oldest")


class Degraded(Exception):
    """The query was shed and is to be answered with the default output."""


class Ticket:
    """One query's claims on the overload layer, from admission to settle."""

    __slots__ = ("_control", "_admitted", "_probing")

    def __init__(self, control: "OverloadControl", admitted: bool) -> None:
        self._control = control
        self._admitted = admitted
        # Breakers whose allow() said yes and that have no outcome yet: in
        # half-open state each holds a reserved probe slot.
        self._probing: Dict[str, CircuitBreaker] = {}

    def allow(self, model_key: str) -> bool:
        """May this query be sent to ``model_key``?  False = breaker open.

        A refused model is fast-failed without touching its queue; the query
        renders from the remaining models or the default output, exactly
        like a missing model.
        """
        record = self._control.versions.get(model_key)
        breaker = record.breaker if record is not None else None
        if breaker is None:
            return True
        if breaker.allow():
            self._probing[model_key] = breaker
            return True
        self._control._fastfail_counter.increment()
        return False

    def succeeded(self, model_key: str) -> None:
        breaker = self._probing.pop(model_key, None)
        if breaker is not None:
            breaker.record_success()

    def failed(self, model_key: str, timeout: bool = False) -> None:
        breaker = self._probing.pop(model_key, None)
        if breaker is not None:
            breaker.record_failure(timeout=timeout)

    def make_room(self, model_key: str, query_id: Any = None) -> bool:
        """``model_key``'s bounded queue is full: make room or shed the query."""
        return self._control._make_room(model_key, query_id)

    def settle(self) -> None:
        """Give back whatever the query still holds (idempotent)."""
        for breaker in self._probing.values():
            breaker.abandon()
        self._probing.clear()
        if self._admitted:
            self._admitted = False
            self._control._admission.release()


class _Unguarded:
    """Stands in for the control and its ticket where nothing is ever shed.

    Every model is allowed, outcomes go nowhere, and a full bounded queue is
    waited on (``make_room`` answers False) instead of shed.
    """

    __slots__ = ()

    def admit(self, model_key: str, query_id: Any) -> "_Unguarded":
        return self

    def allow(self, model_key: str) -> bool:
        return True

    def succeeded(self, model_key: str) -> None:
        pass

    def failed(self, model_key: str, timeout: bool = False) -> None:
        pass

    def make_room(self, model_key: str, query_id: Any = None) -> bool:
        return False

    def settle(self) -> None:
        pass


UNGUARDED = _Unguarded()


class _OpenTicket(_Unguarded):
    """Every query's ticket while nothing gates: stateless, so shared.  A full
    bounded queue is still never waited on."""

    __slots__ = ("_control",)

    def __init__(self, control: "OverloadControl") -> None:
        self._control = control

    def make_room(self, model_key: str, query_id: Any = None) -> bool:
        return self._control._make_room(model_key, query_id)


class OverloadControl:
    """Admission, shed policy and circuit breakers of one application."""

    def __init__(
        self, config: ClipperConfig, metrics: MetricsRegistry, tracer: Tracer
    ) -> None:
        self._app_name = config.app_name
        self._metrics = metrics
        self._tracer = tracer
        self._default_breaker = config.breaker
        overload = config.overload
        self._admission = AdmissionController(overload) if overload is not None else None
        self._policy = overload.shed_policy if overload is not None else "reject"
        # ``degrade`` needs something to answer with; without a default
        # output it falls back to refusing.
        self._degrades = self._policy == "degrade" and config.default_output is not None
        family = metrics.counter_family("overload.shed", label="policy")
        self._shed_counters = {p: family.labels(p) for p in _SHED_POLICIES}
        if self._admission is not None:
            metrics.gauge("overload.saturation", fn=self._admission.saturation)
        #: The application's deployed versions by model key: the model
        #: layer's own dict, shared by the engine, never a copy.  A version's
        #: breaker and queue are read off its record, so nothing here has to
        #: be undone when one leaves.
        self.versions: Mapping[str, Any] = {}
        self._transition_family = None
        self._fastfail_counter: Optional[Counter] = None
        self._open_ticket = _OpenTicket(self)

    # -- deployed models ---------------------------------------------------------

    def guard(self, record: Any) -> None:
        """Start guarding one deployed version and watching its queue.

        What is built here hangs off ``record`` (a
        :class:`~repro.core.deployed.DeployedModel`) and leaves with it: the
        queue gauges go through its metric scope, the breaker is its
        ``breaker``.  The deployment's own breaker config wins over the
        application-wide default; with neither there is no breaker.
        """
        model_key, queue = str(record.model_id), record.queue
        # Pressure observability: callback gauges read the queue only at
        # scrape/snapshot time, so the enqueue path pays nothing.
        record.metrics.gauge(
            f'queue.saturation{{model="{model_key}"}}', fn=queue.saturation
        )
        record.metrics.gauge(f'queue.depth{{model="{model_key}"}}', fn=queue.qsize)
        breaker_config = record.deployment.circuit_breaker or self._default_breaker
        if breaker_config is None:
            return
        if self._transition_family is None:
            self._transition_family = self._metrics.counter_family(
                "breaker.transitions", label="state"
            )
            self._fastfail_counter = self._metrics.counter("overload.breaker_fastfail")
        family = self._transition_family

        def on_transition(old_state: str, new_state: str) -> None:
            family.labels(new_state).increment()
            self._tracer.capture_event(
                "breaker.transition",
                meta={"model": model_key, "from": old_state, "to": new_state},
                component="overload",
            )

        record.breaker = CircuitBreaker(breaker_config, on_transition=on_transition)

    @property
    def breakers(self) -> Dict[str, CircuitBreaker]:
        """Live circuit breakers by model key (only versions that have one)."""
        return {
            key: record.breaker
            for key, record in self.versions.items()
            if record.breaker is not None
        }

    # -- the per-query decision --------------------------------------------------

    def precheck(self) -> None:
        """Edge precheck: refuse obviously-doomed requests before any work.

        Called by the HTTP frontend ahead of input validation.  Only the
        ``reject`` policy short-circuits here (non-consuming ``saturated()``
        peek — :meth:`admit` still makes the real decision); ``degrade`` and
        ``drop-oldest`` must reach the engine to produce their answer.
        """
        admission = self._admission
        if admission is None or self._policy != "reject" or not admission.saturated():
            return
        self._shed_counters["reject"].increment()
        self._shed_event({"policy": "reject", "stage": "edge"})
        raise OverloadError(
            "application is overloaded", retry_after_s=admission.retry_after_s()
        )

    def admit(self, model_key: str, query_id: Any) -> Any:
        """Take the admission slot of a query at its first cache miss.

        One slot per query, held until :meth:`Ticket.settle`.  A saturated
        gate sheds the query by policy: ``drop-oldest`` evicts the entry
        nearest its deadline from ``model_key``'s queue (the first model the
        query needs) and force-admits the newcomer; ``degrade`` raises
        :class:`Degraded`; ``reject`` raises :class:`OverloadError`.
        """
        admission = self._admission
        if admission is None:
            # (the counter exists once ``guard`` gave some version a breaker)
            return self._open_ticket if self._fastfail_counter is None else Ticket(self, False)
        if admission.try_acquire():
            return Ticket(self, True)
        if self._policy == "drop-oldest" and self._drop_oldest(model_key):
            admission.force_acquire()
            return Ticket(self, True)
        raise self._shed(query_id)

    def _make_room(self, model_key: str, query_id: Any) -> bool:
        """The prediction path never waits on a full queue.  True means the
        ``drop-oldest`` policy evicted a queued entry and the caller may
        enqueue; otherwise the query is shed (raises)."""
        if self._policy == "drop-oldest" and self._drop_oldest(model_key):
            return True
        raise self._shed(query_id)

    def _drop_oldest(self, model_key: str) -> bool:
        """Evict the queued entry closest to deadline expiry to make room.

        The victim's future expires (:data:`~repro.batching.deadline.DEADLINE_MISS`),
        so from its caller's perspective the dropped query looks exactly like
        a straggler (rendered from the remaining models or the default output).
        """
        record = self.versions.get(model_key)
        victim = record.queue.evict_expiring() if record is not None else None
        if victim is None:
            return False
        expire(victim.future)
        self._shed_counters["drop-oldest"].increment()
        self._shed_event(
            {"policy": "drop-oldest", "victim_query_id": victim.query_id,
             "model": model_key}
        )
        return True

    def _shed(self, query_id: Any) -> Exception:
        """Count and record one shed query; returns the exception to raise.

        Under ``degrade`` (with a default output configured) the caller
        answers immediately with the default prediction flagged
        ``default_used``; every other case is an :class:`OverloadError`,
        which the HTTP frontend renders as a structured 429 with a
        ``Retry-After`` hint.
        """
        policy = "degrade" if self._degrades else "reject"
        self._shed_counters[policy].increment()
        self._shed_event({"policy": policy, "query_id": query_id})
        if self._degrades:
            return Degraded()
        admission = self._admission
        return OverloadError(
            f"application '{self._app_name}' is overloaded",
            retry_after_s=admission.retry_after_s() if admission is not None else 1.0,
        )

    def _shed_event(self, meta: dict) -> None:
        self._tracer.capture_event("overload.shed", meta=meta, component="overload")

    # -- introspection -----------------------------------------------------------

    def state(self) -> dict:
        """Pressure snapshot for the management plane's ``describe``."""
        admission = self._admission
        return {
            "admission": admission.state() if admission is not None else None,
            "breakers": {
                key: breaker.describe() for key, breaker in self.breakers.items()
            },
            "queues": {
                key: {
                    "depth": record.queue.qsize(),
                    "max_depth": record.queue.maxsize,
                    "saturation": round(record.queue.saturation(), 4),
                }
                for key, record in self.versions.items()
            },
        }
