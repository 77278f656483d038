"""Unit tests for the routing layer's splits and table.

Covers the weighted-split determinism and statistics required by the
routing issue — the same query key always routes to the same arm, and over
10k seeded keys the observed weights sit within 2% of the configured ones —
plus the table's atomic-snapshot semantics and the version-resolution logic
that moved out of the serving engine.
"""

import pytest

from repro.core.exceptions import DeploymentError, RoutingError
from repro.routing import (
    RoutingTable,
    TrafficSplit,
    assignment_fraction,
    parse_namespace_keys,
    selection_namespace,
)


class TestAssignmentFraction:
    def test_deterministic_and_in_range(self):
        values = [assignment_fraction(0, f"user-{i}") for i in range(200)]
        assert values == [assignment_fraction(0, f"user-{i}") for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_seed_repartitions_keys(self):
        keys = [f"user-{i}" for i in range(500)]
        a = [assignment_fraction(0, k) for k in keys]
        b = [assignment_fraction(1, k) for k in keys]
        assert a != b


class TestTrafficSplit:
    def test_single_split_routes_everything_to_one_arm(self):
        split = TrafficSplit.single("m:1")
        assert split.keys() == ("m:1",)
        assert split.canary is None
        assert all(split.arm_for(f"k{i}") == "m:1" for i in range(50))

    def test_same_key_always_lands_on_the_same_arm(self):
        split = TrafficSplit.canary_split("m:1", "m:2", weight=0.3, seed=7)
        first = {f"user-{i}": split.arm_for(f"user-{i}") for i in range(1000)}
        for _ in range(3):
            for key, arm in first.items():
                assert split.arm_for(key) == arm
        # A rebuilt split with identical parameters assigns identically
        # (process-independent hash, not Python's salted hash()).
        rebuilt = TrafficSplit.canary_split("m:1", "m:2", weight=0.3, seed=7)
        assert all(rebuilt.arm_for(k) == arm for k, arm in first.items())

    @pytest.mark.parametrize("weight", [0.1, 0.25, 0.5, 0.9])
    def test_observed_weights_within_two_percent_over_10k_keys(self, weight):
        split = TrafficSplit.canary_split("m:1", "m:2", weight=weight, seed=42)
        hits = sum(split.arm_for(f"query-{i}") == "m:2" for i in range(10_000))
        assert abs(hits / 10_000 - weight) < 0.02

    def test_adjusting_weight_moves_a_superset_of_keys(self):
        """Growing the canary weight keeps every already-canaried key on the
        canary (the assignment fraction is per-key, the boundary moves)."""
        small = TrafficSplit.canary_split("m:1", "m:2", weight=0.1, seed=3)
        large = small.with_weight(0.5)
        canaried_small = {
            f"u{i}" for i in range(2000) if small.arm_for(f"u{i}") == "m:2"
        }
        canaried_large = {
            f"u{i}" for i in range(2000) if large.arm_for(f"u{i}") == "m:2"
        }
        assert canaried_small <= canaried_large
        assert len(canaried_large) > len(canaried_small)

    def test_weight_validation(self):
        with pytest.raises(RoutingError):
            TrafficSplit.canary_split("m:1", "m:2", weight=0.0)
        with pytest.raises(RoutingError):
            TrafficSplit.canary_split("m:1", "m:2", weight=1.5)
        with pytest.raises(RoutingError):
            TrafficSplit.canary_split("m:1", "m:1", weight=0.5)

    def test_full_weight_canary_takes_all_traffic(self):
        split = TrafficSplit.canary_split("m:1", "m:2", weight=1.0)
        assert all(split.arm_for(f"k{i}") == "m:2" for i in range(100))

    def test_record_round_trip(self):
        split = TrafficSplit.canary_split("m:1", "m:2", weight=0.25, seed=9)
        rebuilt = TrafficSplit.from_record(split.to_record())
        assert rebuilt == split
        assert rebuilt.weight_of("m:2") == 0.25
        assert rebuilt.keys() == ("m:1", "m:2")

    def test_namespace_round_trip(self):
        namespace = selection_namespace("app", ["a:1", "b:2"])
        assert parse_namespace_keys(namespace, "app") == ["a:1", "b:2"]
        assert parse_namespace_keys(namespace, "other-app") is None
        assert parse_namespace_keys("unrelated-namespace", "app") is None


class TestRoutingTableLifecycle:
    def make_table(self):
        return RoutingTable(seed=0)

    def test_activate_and_previous_tracking(self):
        table = self.make_table()
        table.activate("m", "m:1")
        assert table.active_key("m") == "m:1"
        assert table.previous_key("m") is None
        table.activate("m", "m:2")
        assert table.active_key("m") == "m:2"
        assert table.previous_key("m") == "m:1"

    def test_rollback_swaps_active_and_previous(self):
        table = self.make_table()
        table.activate("m", "m:1")
        table.activate("m", "m:2")
        assert table.rollback("m") == "m:1"
        assert table.active_key("m") == "m:1"
        assert table.previous_key("m") == "m:2"
        with pytest.raises(RoutingError):
            self.make_table().rollback("m")

    def test_canary_lifecycle_promote(self):
        table = self.make_table()
        table.activate("m", "m:1")
        split = table.start_canary("m", "m:2", weight=0.2)
        assert split.canary == "m:2"
        assert table.canaries() == {"m": split}
        adjusted = table.adjust_canary("m", weight=0.6)
        assert adjusted.weight_of("m:2") == 0.6
        assert table.promote("m") == "m:2"
        assert table.active_key("m") == "m:2"
        assert table.previous_key("m") == "m:1"
        assert table.canaries() == {}

    def test_canary_lifecycle_abort(self):
        table = self.make_table()
        table.activate("m", "m:1")
        table.activate("m", "m:2")  # previous = m:1
        table.start_canary("m", "m:3", weight=0.5)
        assert table.abort("m") == "m:3"
        assert table.active_key("m") == "m:2"
        # The rollback target is untouched by an aborted canary.
        assert table.previous_key("m") == "m:1"

    def test_canary_misuse_rejected(self):
        table = self.make_table()
        with pytest.raises(RoutingError):
            table.start_canary("m", "m:2", weight=0.5)  # nothing serving
        table.activate("m", "m:1")
        table.start_canary("m", "m:2", weight=0.5)
        with pytest.raises(RoutingError):
            table.start_canary("m", "m:3", weight=0.5)  # one already in flight
        table.promote("m")
        with pytest.raises(RoutingError):
            table.adjust_canary("m", weight=0.9)
        with pytest.raises(RoutingError):
            table.abort("m")
        with pytest.raises(RoutingError):
            table.promote("m")

    def test_serving_keys_cover_all_arms(self):
        table = self.make_table()
        table.activate("a", "a:1")
        table.activate("b", "b:1")
        table.start_canary("b", "b:2", weight=0.3)
        assert table.serving_keys() == ["a:1", "b:1", "b:2"]
        assert table.reachable_keys() == {"a:1", "b:1", "b:2"}

    def test_plans_are_cached_and_consistent_per_key(self):
        table = self.make_table()
        table.activate("a", "a:1")
        table.activate("b", "b:1")
        table.start_canary("b", "b:2", weight=0.5)
        plans = {table.plan_for(f"user-{i}").namespace for i in range(200)}
        assert plans == {
            selection_namespace("", ["a:1", "b:1"]),
            selection_namespace("", ["a:1", "b:2"]),
        }
        one = table.plan_for("user-3")
        assert table.plan_for("user-3") is one  # snapshot-level plan cache
        # Only split arms are tracked for attribution.
        assert [key for key, _ in one.tracked_arms] in (["b:1"], ["b:2"])

    def test_swap_is_atomic_for_held_plans(self):
        """A plan resolved before a table swap stays internally consistent."""
        table = self.make_table()
        table.activate("m", "m:1")
        before = table.plan_for("user-1")
        table.activate("m", "m:2")
        assert before.serving_keys == ["m:1"]  # old snapshot untouched
        assert table.plan_for("user-1").serving_keys == ["m:2"]

    def test_forget_and_drop_previous(self):
        table = self.make_table()
        table.activate("m", "m:1")
        table.activate("m", "m:2")
        table.drop_previous("m")
        assert table.previous_key("m") is None
        table.forget("m")
        assert table.active_key("m") is None
        assert table.names() == []


class TestResolveKey:
    def make_table(self):
        table = RoutingTable()
        table.activate("m", "m:2")
        return table

    def test_exact_key_wins(self):
        table = self.make_table()
        assert table.resolve_key("m:1", ["m:1", "m:2"]) == "m:1"

    def test_bare_name_resolves_to_active_version(self):
        table = self.make_table()
        assert table.resolve_key("m", ["m:1", "m:2"]) == "m:2"

    def test_unroutable_name_with_single_deployment_resolves(self):
        table = self.make_table()
        assert table.resolve_key("other", ["m:2", "other:1"]) == "other:1"

    def test_ambiguous_name_rejected(self):
        table = RoutingTable()
        with pytest.raises(DeploymentError, match="ambiguous"):
            table.resolve_key("m", ["m:1", "m:2"])

    def test_unknown_model_rejected(self):
        table = self.make_table()
        with pytest.raises(DeploymentError, match="not deployed"):
            table.resolve_key("ghost", ["m:1", "m:2"])
