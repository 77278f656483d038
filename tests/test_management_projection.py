"""The registry is a projection of the live configuration — checked, not assumed.

ROADMAP's correctness aim states "routing is identical before and after a
crash".  This walks random sequences of management verbs — including ones
that must be refused — against a :class:`ManagementFrontend` on a
:class:`DurableKeyValueStore`, and after **every** step checks:

(i)   what the registry reads back equals what the live routing table and
      deployed versions imply;
(ii)  a refused verb changed nothing, live or stored;
(iii) a crash image of the store, restored into a fresh :class:`Clipper`,
      routes identically, with the same replica counts and deployment specs.

A seeded walk rather than a ``hypothesis`` state machine: every verb is a
coroutine on one event loop that also runs the serving machinery.
"""

from __future__ import annotations

import copy
import random
import shutil

import pytest

from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import (
    BatchingConfig,
    CircuitBreakerConfig,
    ClipperConfig,
    ModelDeployment,
)
from repro.core.exceptions import ClipperError, ManagementError
from repro.core.types import ModelId
from repro.management.frontend import ManagementFrontend
from repro.management.registry import NAMESPACE
from repro.state.durable import DurableKeyValueStore

APP = "app"
NAMES = ("a", "b")
FACTORIES = {"noop": NoOpContainer}
STEPS = 40


def make_config():
    return ClipperConfig(app_name=APP, selection_policy="single", routing_seed=7)


def make_frontend(directory):
    store = DurableKeyValueStore(str(directory), fsync="never")
    return ManagementFrontend(store=store, monitor_health=False, manage_canaries=False)


def deployment(rng, name, version):
    return ModelDeployment(
        name,
        NoOpContainer,
        version=version,
        factory_name="noop",
        num_replicas=rng.randint(1, 2),
        batching=BatchingConfig(max_queue_depth=rng.choice([0, 64])),
        circuit_breaker=rng.choice([None, CircuitBreakerConfig(window=7)]),
    )


def replica_counts(clipper):
    return {str(r.model_id): len(r.replicas) for r in clipper.model_records()}


def live_state(clipper):
    return (
        clipper.routing.describe(),
        [str(m) for m in clipper.deployed_models()],
        replica_counts(clipper),
    )


def stored_state(mgmt):
    store = mgmt.registry.store
    return copy.deepcopy(
        {key: store.get(NAMESPACE, key) for key in store.keys(NAMESPACE)}
    )


def version_of(key):
    return None if key is None else ModelId.parse(key).version


def check_projection(mgmt, clipper):
    """(i): the read model is a function of the live configuration."""
    describe = clipper.routing.describe()
    counts = replica_counts(clipper)
    for name, model in mgmt.models(APP).items():
        live = describe.get(name)
        if live is None:
            assert model["routing"] is None
            live = {"stable": None, "canary": None, "previous": None}
        else:
            assert model["routing"] == {**live, "seed": clipper.config.routing_seed}
        assert model["active_version"] == version_of(live["stable"])
        assert model["previous_version"] == version_of(live["previous"])
        if live["canary"] is None:
            assert "traffic_split" not in model
        else:
            assert model["traffic_split"]["arms"] == live["arms"]
        for vkey, record in model["versions"].items():
            key = f"{name}:{vkey}"
            if key not in counts:
                expected = "undeployed"
            elif key == live["stable"]:
                expected = "serving"
            elif key == live["canary"]:
                expected = "canary"
            elif key == live["previous"]:
                expected = "retired"
            else:
                expected = "staged"
            assert record["state"] == expected, (key, record["state"], expected)
            if key in counts:
                assert record["num_replicas"] == counts[key]


async def check_restore(mgmt, clipper, directory, scratch):
    """(iii): a crash image restores to the same routing, replicas and specs."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(directory, scratch)
    restored = Clipper(make_config())
    report = await make_frontend(scratch).restore_application(restored, FACTORIES)
    assert report.complete, report.to_dict()
    assert restored.routing.describe() == clipper.routing.describe()
    registered = {
        f"{name}:{vkey}"
        for name, model in mgmt.models(APP).items()
        for vkey in model["versions"]
    }
    managed = {k: n for k, n in replica_counts(clipper).items() if k in registered}
    assert replica_counts(restored) == managed
    for key in managed:
        was = clipper.model_record(key).deployment.to_spec()
        now = restored.model_record(key).deployment.to_spec()
        # The replica count of a restored version is the live one (above).
        was.pop("num_replicas"), now.pop("num_replicas")
        assert now == was


class Walk:
    """One seeded sequence of verbs; each returns (coroutine, must_refuse)."""

    def __init__(self, rng, mgmt, clipper):
        self.rng = rng
        self.mgmt = mgmt
        self.clipper = clipper
        self.next_version = {name: 1 for name in NAMES}

    def registered(self, name):
        """{version: undeployed?} of one name, per the registry."""
        model = self.mgmt.models(APP).get(name, {"versions": {}})
        return {int(v): rec["undeployed"] for v, rec in model["versions"].items()}

    def any_version(self, name):
        """Mostly a managed version; otherwise a number of any standing —
        undeployed, unregistered (deployed behind the frontend's back) or
        never seen — so refusals are met too."""
        registered = self.registered(name)
        managed = [v for v, gone in registered.items() if not gone]
        behind_back = [
            m.version
            for m in self.clipper.model_versions(name)
            if m.version not in registered
        ]
        draw = self.rng.random()
        if managed and draw < 0.6:
            return self.rng.choice(managed)
        if behind_back and draw < 0.85:
            return self.rng.choice(behind_back)
        return self.rng.randint(1, self.next_version[name])

    def managed(self, name, version):
        return self.registered(name).get(version) is False

    def fresh(self, name):
        version = self.next_version[name]
        self.next_version[name] += 1
        return version

    def step(self):
        rng, mgmt, clipper = self.rng, self.mgmt, self.clipper
        name = rng.choice(NAMES)
        routing = clipper.routing
        verbs = [
            "deploy", "deploy_active", "deploy_reused", "behind_back", "rollout",
            "rollback", "start_canary", "start_canary", "undeploy", "scale",
        ]
        if routing.canary_key(name) is None or rng.random() < 0.2:
            verbs += ["adjust_canary", "promote", "abort_canary"]
        else:  # a canary is in flight: mostly drive it
            verbs = ["adjust_canary", "promote", "abort_canary", "undeploy", "rollback"]
        verb = rng.choice(verbs)
        if verb in ("deploy", "deploy_active"):
            activate = True if verb == "deploy_active" else None
            dep = deployment(rng, name, self.fresh(name))
            return verb, mgmt.deploy_model(APP, dep, activate=activate), False
        if verb == "deploy_reused":
            taken = sorted(self.registered(name))
            if not taken:
                return self.step()
            dep = deployment(rng, name, rng.choice(taken))
            return verb, mgmt.deploy_model(APP, dep), True
        if verb == "behind_back":
            # Staged only: a first version would start serving, and routing
            # the registry has never been told of cannot be restored.
            if routing.active_key(name) is None:
                return self.step()
            dep = deployment(rng, name, self.fresh(name))
            return verb, clipper.deploy_model_async(dep), False
        version = self.any_version(name)
        key = f"{name}:{version}"
        if verb == "rollout":
            refuse = not self.managed(name, version)
            return verb, mgmt.rollout(APP, name, version), refuse
        if verb == "rollback":
            return verb, mgmt.rollback(APP, name), routing.previous_key(name) is None
        if verb == "start_canary":
            refuse = (
                not self.managed(name, version)
                or routing.active_key(name) in (None, key)
                or routing.canary_key(name) is not None
            )
            weight = rng.choice([0.125, 0.25, 0.5, 1.0])
            return verb, mgmt.start_canary(APP, name, version, weight), refuse
        no_canary = routing.canary_key(name) is None
        if verb == "adjust_canary":
            return verb, mgmt.adjust_canary(APP, name, rng.choice([0.25, 0.75])), no_canary
        if verb == "promote":
            return verb, mgmt.promote(APP, name), no_canary
        if verb == "abort_canary":
            return verb, mgmt.abort_canary(APP, name), no_canary
        if verb == "undeploy":
            last_serving = routing.names() == [name] and routing.active_key(name) == key
            refuse = not self.managed(name, version) or last_serving
            return verb, mgmt.undeploy_model(APP, key), refuse
        assert verb == "scale"
        refuse = not self.managed(name, version)
        return verb, mgmt.set_num_replicas(APP, key, rng.randint(1, 3)), refuse


@pytest.mark.parametrize("seed", range(6))
def test_registry_is_a_projection_that_survives_a_crash(seed, tmp_path):
    async def scenario():
        directory, scratch = tmp_path / "store", tmp_path / "image"
        mgmt = make_frontend(directory)
        clipper = Clipper(make_config())
        mgmt.register_application(clipper)
        walk = Walk(random.Random(seed), mgmt, clipper)
        for name in NAMES:
            await mgmt.deploy_model(APP, deployment(walk.rng, name, walk.fresh(name)))
        await mgmt.start()
        refused = 0
        try:
            for _ in range(STEPS):
                before = live_state(clipper), stored_state(mgmt)
                verb, operation, must_refuse = walk.step()
                try:
                    await operation
                except ClipperError as error:
                    refused += 1
                    # (ii) a refusal is total, live and stored.
                    assert (live_state(clipper), stored_state(mgmt)) == before, verb
                    if verb == "deploy_reused":
                        assert isinstance(error, ManagementError)
                else:
                    assert not must_refuse, f"{verb} should have been refused"
                check_projection(mgmt, clipper)
                await check_restore(mgmt, clipper, directory, scratch)
        finally:
            await mgmt.stop()
        return refused

    # The walk is only a test of refusals if it meets some.
    assert run_async(scenario()) > 0
