"""Tests for the contextualized selection-state manager (§5.3)."""

import copy

import numpy as np
import pytest

from helpers import run_async

from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Feedback, ModelId, Query
from repro.selection.exp4 import Exp4Policy
from repro.selection.manager import DEFAULT_CONTEXT, SelectionStateManager
from repro.state import DurableKeyValueStore
from repro.state.kvstore import KeyValueStore

MODELS = [ModelId("a"), ModelId("b")]


class TestStateLifecycle:
    def test_state_created_lazily_per_context(self):
        manager = SelectionStateManager(Exp4Policy(), MODELS)
        assert manager.contexts() == []
        manager.get_state("user-1")
        manager.get_state("user-2")
        assert sorted(manager.contexts()) == ["user-1", "user-2"]

    def test_default_context_used_when_none(self):
        manager = SelectionStateManager(Exp4Policy(), MODELS)
        manager.get_state(None)
        assert manager.contexts() == [DEFAULT_CONTEXT]

    def test_states_are_independent_across_contexts(self):
        manager = SelectionStateManager(Exp4Policy(eta=1.0), MODELS)
        manager.observe(None, 1, {"a:1": 0, "b:1": 1}, context="alice")
        alice = manager.get_state("alice")
        bob = manager.get_state("bob")
        assert alice["weights"]["a:1"] < alice["weights"]["b:1"]
        assert bob["weights"]["a:1"] == bob["weights"]["b:1"]

    def test_reset_single_context(self):
        manager = SelectionStateManager(Exp4Policy(eta=1.0), MODELS)
        manager.observe(None, 1, {"a:1": 0, "b:1": 1}, context="alice")
        manager.reset("alice")
        fresh = manager.get_state("alice")
        assert fresh["weights"]["a:1"] == fresh["weights"]["b:1"]

    def test_reset_all_contexts(self):
        manager = SelectionStateManager(Exp4Policy(), MODELS)
        manager.get_state("u1")
        manager.get_state("u2")
        manager.reset()
        assert manager.contexts() == []

    def test_external_store_is_used(self):
        store = KeyValueStore()
        manager = SelectionStateManager(Exp4Policy(), MODELS, store=store)
        manager.get_state("user-9")
        assert store.keys("selection-state") == ["user-9"]


class TestPrune:
    def test_prune_keeps_only_named_contexts(self):
        manager = SelectionStateManager(Exp4Policy(), MODELS)
        for user in ("alice", "bob", "carol"):
            manager.get_state(user)
        dropped = manager.prune(keep_contexts=["bob"])
        assert sorted(dropped) == ["alice", "carol"]
        assert manager.contexts() == ["bob"]

    def test_prune_maps_none_to_default_context(self):
        manager = SelectionStateManager(Exp4Policy(), MODELS)
        manager.get_state(None)
        manager.get_state("alice")
        dropped = manager.prune(keep_contexts=[None])
        assert dropped == ["alice"]
        assert manager.contexts() == [DEFAULT_CONTEXT]

    def test_prune_everything_clears_the_namespace(self):
        store = KeyValueStore()
        manager = SelectionStateManager(Exp4Policy(), MODELS, store=store)
        for user in ("alice", "bob"):
            manager.get_state(user)
        assert len(manager.prune(())) == 2
        assert manager.contexts() == []
        assert store.keys(manager.namespace) == []

    def test_prune_leaves_other_namespaces_alone(self):
        store = KeyValueStore()
        keep = SelectionStateManager(Exp4Policy(), MODELS, store=store, namespace="ns-a")
        victim = SelectionStateManager(Exp4Policy(), MODELS, store=store, namespace="ns-b")
        keep.get_state("alice")
        victim.get_state("alice")
        victim.prune(())
        assert keep.contexts() == ["alice"]


class TestPolicyOperations:
    def test_select_combine_observe_round_trip(self):
        manager = SelectionStateManager(Exp4Policy(), MODELS)
        selected = manager.select(x=0, context="u")
        assert sorted(selected) == ["a:1", "b:1"]
        output, confidence = manager.combine(0, {"a:1": 1, "b:1": 1}, context="u")
        assert output == 1
        assert confidence == 1.0
        state = manager.observe(0, 1, {"a:1": 1, "b:1": 0}, context="u")
        assert state["n_feedback"] == 1

    def test_personalization_diverges_between_users(self):
        """Each user's feedback shapes only that user's selection state."""
        manager = SelectionStateManager(Exp4Policy(eta=0.8), MODELS)
        for _ in range(50):
            manager.observe(0, 1, {"a:1": 1, "b:1": 0}, context="likes-a")
            manager.observe(0, 1, {"a:1": 0, "b:1": 1}, context="likes-b")
        state_a = manager.get_state("likes-a")
        state_b = manager.get_state("likes-b")
        assert state_a["weights"]["a:1"] > state_a["weights"]["b:1"]
        assert state_b["weights"]["b:1"] > state_b["weights"]["a:1"]


class DisagreesThenRaises:
    """A label whose second comparison raises — what an array-valued label
    does to the 0/1 loss (``truth value of an array ...``), here after the
    first model's loss has already been taken."""

    def __init__(self) -> None:
        self.compared = 0

    def __eq__(self, other) -> bool:
        self.compared += 1
        if self.compared > 1:
            raise ValueError("the truth value of this label is ambiguous")
        return False


class TestFailedFeedback:
    @pytest.mark.parametrize("policy", ["exp4", "exp3"])
    def test_feedback_that_raises_part_way_leaves_the_stored_state_as_journaled(
        self, tmp_path, policy
    ):
        async def scenario():
            store = DurableKeyValueStore(str(tmp_path), fsync="never")
            clipper = Clipper(
                ClipperConfig(app_name="app", selection_policy=policy), state_store=store
            )
            for name in ("a", "b", "c"):
                clipper.deploy_model(ModelDeployment(name, NoOpContainer, serialize_rpc=False))
            await clipper.start()
            x = np.arange(4.0)
            await clipper.predict(Query(app_name="app", input=x))
            await clipper.feedback(Feedback(app_name="app", input=x, label=1))
            manager = clipper.selection_manager
            stored = manager.get_state()
            before = copy.deepcopy(stored)

            label = DisagreesThenRaises()
            with pytest.raises(ValueError, match="ambiguous"):
                await clipper.feedback(Feedback(app_name="app", input=x, label=label))
            assert label.compared == 2  # the first model's loss was taken

            assert manager.get_state() is stored and stored == before
            await clipper.stop()
            store.close()
            with DurableKeyValueStore(str(tmp_path), fsync="never") as reopened:
                assert reopened.get(manager.namespace, DEFAULT_CONTEXT) == before

        run_async(scenario())
