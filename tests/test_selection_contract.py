"""The written contract of every registered selection policy: state is a value.

``KeyValueStore.get`` hands the stored state object to lock-free readers on
the promise that entries are replaced, never mutated, and a durable store
journals what ``put_state`` is given.  So, for every name ``make_policy``
registers: ``select``, ``combine`` and ``observe`` leave the state they were
handed equal to a deep copy taken before the call, ``observe`` returns a
different object sharing no mutable column with it, and a query — ``select``
plus ``combine`` — writes nothing to the store.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from helpers import run_async

from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import ModelId, Query
from repro.selection.manager import SelectionStateManager
from repro.selection.policy import POLICIES, make_policy

MODELS = [ModelId("a"), ModelId("b"), ModelId("c")]
KEYS = [str(model) for model in MODELS]


@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(5))
def test_no_call_mutates_the_state_it_was_handed(name, seed):
    policy = make_policy(name)
    rng = np.random.default_rng(seed)
    state = policy.init(MODELS)
    for _ in range(60):
        before = copy.deepcopy(state)
        selected = policy.select(state, None)
        assert state == before, "select"
        assert selected and set(selected) <= set(KEYS)
        # Some selected models straggle; a stranger's answer may ride along.
        answered = [key for key in selected if rng.random() < 0.8] or selected[:1]
        predictions = {key: int(rng.integers(0, 3)) for key in answered}
        if rng.random() < 0.2:
            predictions["stranger:1"] = 1
        policy.combine(state, None, predictions)
        assert state == before, "combine"
        updated = policy.observe(state, None, int(rng.integers(0, 3)), predictions)
        assert state == before, "observe"
        assert updated is not state and updated != before
        # A later update to the new state must not reach the old one either.
        policy.observe(updated, None, 0, predictions)
        assert state == before, "observe of the successor"
        state = updated
    assert state["n_feedback"] == 60


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_a_query_writes_no_state_and_feedback_writes_one(name):
    manager = SelectionStateManager(make_policy(name), MODELS)
    manager.get_state("u")  # the lazy init is the context's one write
    writes = []
    put_state = manager.put_state
    manager.put_state = lambda state, context=None: (
        writes.append(context), put_state(state, context))[1]
    stored = manager.get_state("u")
    for _ in range(20):
        selected, state = manager.select_with_state(0, "u")
        manager.combine(0, dict.fromkeys(selected, 1), "u", state=state)
    assert writes == [] and manager.get_state("u") is stored
    updated = manager.observe(0, 1, dict.fromkeys(selected, 1), "u")
    assert writes == ["u"] and manager.get_state("u") is updated is not stored


def test_predict_on_an_exp3_application_performs_zero_store_writes():
    async def scenario():
        clipper = Clipper(ClipperConfig(app_name="app", selection_policy="exp3"))
        for name in ("a", "b"):
            clipper.deploy_model(ModelDeployment(name, NoOpContainer))
        await clipper.start()
        try:
            await clipper.predict(Query("app", np.zeros(4)))  # creates the state
            manager = clipper.selection_manager
            writes = []
            put_state = manager.put_state
            manager.put_state = lambda *args: (writes.append(args), put_state(*args))[1]
            for i in range(50):
                await clipper.predict(Query("app", np.full(4, float(i % 5))))
            return writes
        finally:
            await clipper.stop()

    assert run_async(scenario()) == []
