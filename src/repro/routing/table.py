"""The routing table: which deployed version serves each query.

This is the model-selection layer's traffic-shifting half, extracted from
the serving engine so rollout policy can grow independently of the predict
hot path.  A :class:`RoutingTable` maps each model *name* to a
:class:`~repro.routing.split.TrafficSplit` over deployed *versions*, plus
the previously-active version kept for rollback.  The table state lives in
an immutable snapshot swapped atomically on every routing change — readers
(the predict path, the feedback path, the health monitor) always observe a
complete, consistent configuration, the same checked-transition discipline
the registry applies to its durable records.

Per query, the table resolves a :class:`RoutePlan`: the concrete model key
combination serving that query's routing key, the selection-state namespace
owned by that combination, and — while a canary is in flight — the
pre-resolved :class:`~repro.core.metrics.ArmMetrics` handles the engine uses
to attribute the query's latency/error to its arm.  Plans are cached per
snapshot, so the common no-canary case costs one attribute read and one
dict hit on the hot path.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.exceptions import DeploymentError, RoutingError
from repro.core.metrics import ArmMetrics, MetricsRegistry
from repro.core.types import ModelId
from repro.routing.split import TrafficSplit

#: Selection-state namespaces are derived from the table's scope (the
#: application name) and the serving-set combination, so each combination of
#: serving versions keeps its own policy state — and two applications
#: sharing one state store can never touch each other's namespaces, even
#: when they reuse bare model names.
SELECTION_NAMESPACE_PREFIX = "selection-state@"


def selection_namespace(scope: str, serving_keys: Iterable[str]) -> str:
    """The selection-state namespace owned by one serving-set combination."""
    return f"{SELECTION_NAMESPACE_PREFIX}{scope}@" + "|".join(serving_keys)


def parse_namespace_keys(namespace: str, scope: str) -> Optional[List[str]]:
    """The model keys referenced by one of ``scope``'s selection namespaces.

    Returns None for namespaces outside the prefix *or belonging to another
    scope* — the pruning path must never touch a sibling application's
    state in a shared store.
    """
    prefix = f"{SELECTION_NAMESPACE_PREFIX}{scope}@"
    if not namespace.startswith(prefix):
        return None
    body = namespace[len(prefix):]
    return body.split("|") if body else []


class RoutePlan:
    """One resolved arm combination for a single query.

    ``serving_keys`` holds the model key chosen for each routed name, in
    activation order; ``namespace`` is the selection-state namespace of this
    combination; ``tracked_arms`` carries ``(model_key, ArmMetrics)`` pairs
    for the arms of in-flight splits only, so attribution is free when no
    canary is running.
    """

    __slots__ = ("serving_keys", "namespace", "tracked_arms")

    def __init__(
        self,
        serving_keys: List[str],
        namespace: str,
        tracked_arms: Tuple[Tuple[str, ArmMetrics], ...] = (),
    ) -> None:
        self.serving_keys = serving_keys
        self.namespace = namespace
        self.tracked_arms = tracked_arms


class _Snapshot:
    """Immutable routing state: splits + rollback pointers + plan cache.

    The plan cache is keyed by the chosen-arm combination; it only ever
    grows (bounded by the product of arm counts, i.e. tiny) and lives on the
    snapshot so a table swap naturally invalidates it.
    """

    __slots__ = ("splits", "previous", "has_splits", "plans", "default_plan")

    def __init__(
        self, splits: Dict[str, TrafficSplit], previous: Dict[str, str]
    ) -> None:
        self.splits = splits
        self.previous = previous
        self.has_splits = any(len(s.arms) > 1 for s in splits.values())
        self.plans: Dict[Tuple[str, ...], RoutePlan] = {}
        self.default_plan: Optional[RoutePlan] = None


class RoutingTable:
    """Maps model names to traffic splits; every change is an atomic swap.

    ``scope`` (normally the application name) namespaces the selection state
    the table owns, isolating instances that share one state store.
    ``arms(model_key)`` returns a version's attribution handles: the serving
    engine passes a lookup of the deployed version's own (they leave with
    the version); a table on its own keeps them in a private registry.
    """

    def __init__(
        self,
        arms: Optional[Callable[[str], ArmMetrics]] = None,
        seed: int = 0,
        scope: str = "",
    ) -> None:
        #: The per-arm attribution handles for one model key.
        self.arm_metrics = arms or MetricsRegistry().arm
        self.seed = seed
        self.scope = scope
        self._snapshot = _Snapshot({}, {})

    # -- resolution (the hot path) ---------------------------------------------

    def plan_for(self, routing_key: str) -> RoutePlan:
        """The arm combination serving ``routing_key`` under the current table."""
        snapshot = self._snapshot
        if not snapshot.has_splits:
            return self._default_plan(snapshot)
        choices = tuple(
            split.arms[0][0] if len(split.arms) == 1 else split.arm_for(routing_key)
            for split in snapshot.splits.values()
        )
        plan = snapshot.plans.get(choices)
        if plan is None:
            tracked = tuple(
                (choice, self.arm_metrics(choice))
                for choice, split in zip(choices, snapshot.splits.values())
                if len(split.arms) > 1
            )
            plan = RoutePlan(
                list(choices), selection_namespace(self.scope, choices), tracked
            )
            snapshot.plans[choices] = plan
        return plan

    def default_plan(self) -> RoutePlan:
        """The all-stable-arms plan (what serves when no canary is in flight)."""
        return self._default_plan(self._snapshot)

    def _default_plan(self, snapshot: _Snapshot) -> RoutePlan:
        plan = snapshot.default_plan
        if plan is None:
            keys = [split.stable for split in snapshot.splits.values()]
            plan = RoutePlan(keys, selection_namespace(self.scope, keys))
            snapshot.default_plan = plan
        return plan

    def resolve_key(self, model: str, deployed_keys: Iterable[str]) -> str:
        """Map a ``"name:version"`` key or bare name to a deployed key."""
        keys = set(deployed_keys)
        if model in keys:
            return model
        split = self._snapshot.splits.get(model)
        if split is not None:
            return split.stable
        matches = [key for key in keys if ModelId.parse(key).name == model]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise DeploymentError(
                f"model name '{model}' is ambiguous between versions {sorted(matches)}"
            )
        raise DeploymentError(f"model '{model}' is not deployed")

    # -- introspection ---------------------------------------------------------

    def names(self) -> List[str]:
        """Model names currently routed, in activation order."""
        return list(self._snapshot.splits)

    def serving_keys(self) -> List[str]:
        """Every model key receiving traffic (all arms of every split)."""
        keys: List[str] = []
        for split in self._snapshot.splits.values():
            keys.extend(split.keys())
        return keys

    def split_for(self, name: str) -> Optional[TrafficSplit]:
        """The split routing one model name (None when not routed)."""
        return self._snapshot.splits.get(name)

    def active_key(self, name: str) -> Optional[str]:
        """The stable serving key of one model name (None when not routed)."""
        split = self._snapshot.splits.get(name)
        return split.stable if split is not None else None

    def canary_key(self, name: str) -> Optional[str]:
        """The in-flight canary key of one model name, if any."""
        split = self._snapshot.splits.get(name)
        return split.canary if split is not None else None

    def previous_key(self, name: str) -> Optional[str]:
        """The previously-active key kept for rollback, if any."""
        return self._snapshot.previous.get(name)

    def canaries(self) -> Dict[str, TrafficSplit]:
        """Every in-flight (multi-arm) split, keyed by model name."""
        return {
            name: split
            for name, split in self._snapshot.splits.items()
            if split.canary is not None
        }

    def reachable_keys(self) -> set:
        """Model keys the table can still route to: arms + rollback targets."""
        snapshot = self._snapshot
        keys = {key for split in snapshot.splits.values() for key in split.keys()}
        keys.update(snapshot.previous.values())
        return keys

    def describe(self) -> Dict[str, Dict]:
        """JSON-friendly snapshot of the table for operators."""
        snapshot = self._snapshot
        return {
            name: {
                "arms": [[key, weight] for key, weight in split.arms],
                "stable": split.stable,
                "canary": split.canary,
                "previous": snapshot.previous.get(name),
            }
            for name, split in snapshot.splits.items()
        }

    # -- mutation (each builds a new snapshot and swaps it in) -----------------

    def _edit(self) -> Tuple[Dict[str, TrafficSplit], Dict[str, str]]:
        """Copies of the splits and rollback pointers for a mutation to change."""
        snapshot = self._snapshot
        return dict(snapshot.splits), dict(snapshot.previous)

    def _swap(self, splits: Dict[str, TrafficSplit], previous: Dict[str, str]) -> None:
        # A single attribute assignment: readers racing this swap see either
        # the complete old snapshot or the complete new one.
        self._snapshot = _Snapshot(splits, previous)

    def activate(self, name: str, model_key: str) -> None:
        """Make ``model_key`` the sole serving version of ``name``.

        The previously-stable key (if any, and if different) becomes the
        rollback target.  An in-flight canary for the name is discarded.
        """
        splits, previous = self._edit()
        current = splits.get(name)
        if current is not None and current.stable != model_key:
            previous[name] = current.stable
        splits[name] = TrafficSplit.single(model_key, seed=self.seed)
        self._swap(splits, previous)

    def forget(self, name: str) -> None:
        """Stop routing ``name`` entirely (its versions were undeployed)."""
        splits, previous = self._edit()
        splits.pop(name, None)
        previous.pop(name, None)
        self._swap(splits, previous)

    def drop_previous(self, name: str) -> None:
        """Forget the rollback target of ``name`` (it was undeployed)."""
        splits, previous = self._edit()
        if previous.pop(name, None) is not None:
            self._swap(splits, previous)

    def start_canary(self, name: str, canary_key: str, weight: float) -> TrafficSplit:
        """Begin shifting ``weight`` of ``name``'s traffic onto ``canary_key``."""
        splits, previous = self._edit()
        current = splits.get(name)
        if current is None:
            raise RoutingError(
                f"cannot start a canary for '{name}': no version is serving"
            )
        if current.canary is not None:
            raise RoutingError(
                f"a canary ('{current.canary}') is already in flight for '{name}'"
            )
        split = TrafficSplit.canary_split(
            current.stable, canary_key, weight, seed=self.seed
        )
        splits[name] = split
        self._swap(splits, previous)
        return split

    def adjust_canary(self, name: str, weight: float) -> TrafficSplit:
        """Change the traffic weight of an in-flight canary."""
        splits, previous = self._edit()
        current = splits.get(name)
        if current is None or current.canary is None:
            raise RoutingError(f"no canary is in flight for '{name}'")
        split = current.with_weight(weight)
        splits[name] = split
        self._swap(splits, previous)
        return split

    def promote(self, name: str) -> str:
        """Make the in-flight canary the sole serving version; returns its key.

        The displaced stable key becomes the rollback target.
        """
        splits, previous = self._edit()
        current = splits.get(name)
        if current is None or current.canary is None:
            raise RoutingError(f"no canary is in flight for '{name}' to promote")
        previous[name] = current.stable
        splits[name] = TrafficSplit.single(current.canary, seed=self.seed)
        self._swap(splits, previous)
        return current.canary

    def abort(self, name: str) -> str:
        """Discard the in-flight canary; returns the aborted canary key.

        All traffic returns to the stable arm; the rollback target is
        untouched.
        """
        splits, previous = self._edit()
        current = splits.get(name)
        if current is None or current.canary is None:
            raise RoutingError(f"no canary is in flight for '{name}' to abort")
        splits[name] = TrafficSplit.single(current.stable, seed=self.seed)
        self._swap(splits, previous)
        return current.canary

    def restore(
        self, name: str, split: Optional[TrafficSplit], previous_key: Optional[str]
    ) -> None:
        """Reinstall a previously-observed split and rollback pointer for ``name``.

        Used to reinstall a configuration wholesale: the stored routing
        record on a cold-start restore, and what :meth:`split_for` /
        :meth:`previous_key` returned before a deploy whose version then
        failed to start.  ``split=None`` removes the name's routing.
        """
        splits, previous = self._edit()
        if split is None:
            splits.pop(name, None)
        else:
            splits[name] = split
        if previous_key is None:
            previous.pop(name, None)
        else:
            previous[name] = previous_key
        self._swap(splits, previous)

    def rollback(self, name: str) -> str:
        """Swap ``name`` back to its previously-active key; returns that key.

        The displaced stable key becomes the new rollback target, so a
        second rollback undoes the first.  An in-flight canary must be
        aborted first (the serving engine's rollback verb does this).
        """
        splits, previous = self._edit()
        previous_key = previous.get(name)
        if previous_key is None:
            raise RoutingError(f"no previous version of '{name}' to roll back to")
        current = splits.get(name)
        splits[name] = TrafficSplit.single(previous_key, seed=self.seed)
        if current is not None:
            previous[name] = current.stable
        else:
            del previous[name]
        self._swap(splits, previous)
        return previous_key
