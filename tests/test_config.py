"""Tests for configuration validation, and the pinned set of options."""

import argparse
import dataclasses
import importlib.util
import json
import pathlib
from typing import get_args, get_type_hints

import pytest

import repro.cluster.ingress
import repro.cluster.worker
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import (
    BatchingConfig,
    CircuitBreakerConfig,
    ClipperConfig,
    ModelDeployment,
    OverloadConfig,
)
from repro.core.exceptions import ConfigurationError, ManagementError

#: Every option of the serving system, by name.  A change here is a change to
#: what tests and benchmarks have to cover: add a field only when two callers
#: outside ``tests/`` and ``examples/`` need different values, and lower the
#: "config fields only go down" bound in CI when one leaves.
CONFIG_FIELDS = {
    BatchingConfig: {
        "policy", "initial_batch_size", "additive_increase", "backoff_fraction",
        "max_batch_size", "batch_wait_timeout_ms", "quantile", "max_queue_depth",
    },
    OverloadConfig: {
        "rate_limit_qps", "burst", "max_concurrency", "shed_policy", "retry_after_s",
    },
    CircuitBreakerConfig: {
        "error_rate_threshold", "window", "min_samples", "consecutive_timeouts",
        "open_duration_s", "half_open_probes",
    },
    ModelDeployment: {
        "name", "container_factory", "num_replicas", "batching", "version",
        "serialize_rpc", "max_batch_retries", "factory_name", "transport",
        "circuit_breaker",
    },
    ClipperConfig: {
        "app_name", "latency_slo_ms", "selection_policy", "cache_size",
        "straggler_mitigation", "default_output", "input_type", "input_shape",
        "output_type", "confidence_threshold", "tracing",
        "overload", "breaker", "allow_empty_start",
    },
}

CLUSTER_UP = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "cluster_up.py"


def _cluster_up_main():
    spec = importlib.util.spec_from_file_location("cluster_up", CLUSTER_UP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


#: The flags of each process entry point (``--help`` aside).
PARSER_FLAGS = {
    "worker": (
        lambda: repro.cluster.worker.main([]),
        {
            "--cluster-dir", "--worker-id", "--host", "--port", "--ttl",
            "--factories", "--no-shm",
        },
    ),
    "ingress": (
        lambda: repro.cluster.ingress.main([]),
        {
            "--cluster-dir", "--app", "--host", "--port", "--factories",
        },
    ),
    "cluster_up": (
        lambda: _cluster_up_main()(),
        {"--workers", "--cluster-dir", "--app", "--factories", "--no-shm"},
    ),
}


class TestPinnedOptions:
    @pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda cls: cls.__name__)
    def test_config_dataclass_fields(self, cls):
        assert {f.name for f in dataclasses.fields(cls)} == CONFIG_FIELDS[cls]

    def test_field_total_matches_the_ci_bound(self):
        assert sum(len(names) for names in CONFIG_FIELDS.values()) == 43

    @pytest.mark.parametrize("entry", list(PARSER_FLAGS))
    def test_process_entry_point_flags(self, entry, monkeypatch):
        run_main, expected = PARSER_FLAGS[entry]

        class Parsed(Exception):
            pass

        def capture(parser, *args, **kwargs):
            raise Parsed(parser)

        # Each ``main`` builds its parser and parses at once; stop it there.
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(Parsed) as caught:
            run_main()
        (parser,) = caught.value.args
        flags = {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert flags == expected


class TestBatchingConfig:
    def test_defaults_are_valid(self):
        config = BatchingConfig()
        assert config.policy == "aimd"
        assert config.initial_batch_size == 1

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(policy="magic")

    def test_rejects_nonpositive_initial_batch(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(initial_batch_size=0)

    def test_rejects_bad_backoff(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(backoff_fraction=0.0)
        with pytest.raises(ConfigurationError):
            BatchingConfig(backoff_fraction=1.5)

    # What the batch-size controllers refuse is refused here, so that a spec
    # accepted by ``from_spec`` (a deploy body, a stored record) deploys.
    def test_rejects_a_backoff_that_does_not_back_off(self):
        with pytest.raises(ConfigurationError, match="backoff_fraction"):
            BatchingConfig(backoff_fraction=1.0)

    def test_rejects_an_additive_increase_below_one(self):
        with pytest.raises(ConfigurationError, match="additive_increase"):
            BatchingConfig(additive_increase=0)

    @pytest.mark.parametrize("policy", ["aimd", "quantile"])  # the policies that read them
    @pytest.mark.parametrize(
        "edge", [{"backoff_fraction": 0.999}, {"backoff_fraction": 1e-3}, {"additive_increase": 1}]
    )
    def test_every_accepted_edge_deploys(self, policy, edge):
        clipper = Clipper(ClipperConfig(app_name="edge"))
        clipper.deploy_model(
            ModelDeployment("noop", NoOpContainer, batching=BatchingConfig(policy=policy, **edge))
        )

    def test_rejects_max_batch_below_initial(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(initial_batch_size=10, max_batch_size=5)

    def test_rejects_negative_wait_timeout(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(batch_wait_timeout_ms=-1)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(quantile=1.0)

    @pytest.mark.parametrize("policy", ["aimd", "quantile", "fixed", "none"])
    def test_all_policies_accepted(self, policy):
        assert BatchingConfig(policy=policy).policy == policy


class TestModelDeployment:
    def test_requires_name(self):
        with pytest.raises(ConfigurationError):
            ModelDeployment(name="", container_factory=NoOpContainer)

    def test_requires_positive_replicas(self):
        with pytest.raises(ConfigurationError):
            ModelDeployment(name="m", container_factory=NoOpContainer, num_replicas=0)

    def test_defaults(self):
        deployment = ModelDeployment(name="m", container_factory=NoOpContainer)
        assert deployment.num_replicas == 1
        assert deployment.version == 1
        assert deployment.batching.policy == "aimd"


#: Non-default values for the fields a generic perturbation cannot guess.
_CHOSEN = {"name": "m", "factory_name": "noop", "policy": "quantile", "transport": "tcp"}


def _default_of(field):
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return None


def non_default(cls, **given):
    """An instance of config dataclass ``cls`` with *no* field at its default.

    Walks ``dataclasses.fields`` so a field added later is covered without
    anyone remembering this test: ints move by 3, floats are halved and
    shifted (inside every (0, 1] range the configs check), bools flip,
    nested configs recurse.
    """
    hints = get_type_hints(cls)
    kwargs = dict(given)
    for field in dataclasses.fields(cls):
        if field.name in kwargs:
            continue
        default = _default_of(field)
        hint = hints[field.name]
        hint = next((a for a in get_args(hint) if a is not type(None)), hint)
        if field.name in _CHOSEN:
            value = _CHOSEN[field.name]
        elif dataclasses.is_dataclass(hint):
            value = non_default(hint)
        elif isinstance(default, bool):
            value = not default
        elif isinstance(default, int):
            value = default + 3
        elif isinstance(default, float):
            value = default * 0.5 + 0.125
        else:
            raise AssertionError(
                f"{cls.__name__}.{field.name}: teach this test a non-default value"
            )
        assert value != default, f"{cls.__name__}.{field.name} stayed at its default"
        kwargs[field.name] = value
    return cls(**kwargs)


class TestDeploymentSpec:
    """``to_spec``/``from_spec`` is the one codec for deployments: the REST
    deploy body, the registry's version record and cold-start restore."""

    @pytest.mark.parametrize("cls", [BatchingConfig, CircuitBreakerConfig])
    def test_nested_configs_can_be_made_fully_non_default(self, cls):
        config = non_default(cls)
        assert all(
            getattr(config, f.name) != _default_of(f) for f in dataclasses.fields(cls)
        )

    def test_every_field_survives_the_round_trip(self):
        factory = NoOpContainer
        deployment = non_default(ModelDeployment, container_factory=factory)
        spec = deployment.to_spec()
        assert "container_factory" not in spec
        # Every other field is in the spec, nested configs field for field.
        assert set(spec) == {
            f.name for f in dataclasses.fields(ModelDeployment)
        } - {"container_factory"}
        assert set(spec["batching"]) == {f.name for f in dataclasses.fields(BatchingConfig)}
        assert set(spec["circuit_breaker"]) == {
            f.name for f in dataclasses.fields(CircuitBreakerConfig)
        }
        stored = json.loads(json.dumps(spec))  # what a store or a request holds
        rebuilt = ModelDeployment.from_spec(stored, {"noop": factory})
        assert rebuilt == deployment
        assert rebuilt.container_factory is factory

    def test_defaults_round_trip_too(self):
        deployment = ModelDeployment("noop", NoOpContainer)
        rebuilt = ModelDeployment.from_spec(deployment.to_spec(), {"noop": NoOpContainer})
        assert rebuilt == deployment
        assert rebuilt.circuit_breaker is None and rebuilt.factory_name is None

    def test_a_partial_spec_takes_defaults(self):
        rebuilt = ModelDeployment.from_spec(
            {"name": "noop", "batching": {"max_queue_depth": 64}}, {"noop": NoOpContainer}
        )
        assert rebuilt.batching == BatchingConfig(max_queue_depth=64)
        assert rebuilt.num_replicas == 1

    def test_unknown_factory_is_a_management_error(self):
        with pytest.raises(ManagementError) as excinfo:
            ModelDeployment.from_spec({"name": "m", "factory_name": "ghost"}, {"noop": 1})
        assert excinfo.value.detail == {"registered": ["noop"]}

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "noop", "replicas": 2},  # unknown parameter
            {"name": "noop", "container_factory": "noop"},  # not a spec field
            {"name": "noop", "batching": {"policy": "aimd", "bogus": 1}},
            {"name": "noop", "batching": ["aimd"]},  # not an object
            {"name": "noop", "batching": None},  # not optional
            {"name": "noop", "version": "2"},
            {"name": "noop", "version": True},  # a bool is not an int
            {"name": "noop", "serialize_rpc": 1},
            {"name": "noop", "transport": 7},
            {"name": "noop", "batching": {"quantile": "0.9"}},
            {"name": "noop", "batching": {"backoff_fraction": 1.0}},  # AIMD's check
            {"name": "noop", "batching": {"additive_increase": 0}},
            {"name": "noop", "num_replicas": 0},  # the config's own check
            {"factory_name": "noop"},  # no name
        ],
    )
    def test_malformed_specs_are_configuration_errors(self, spec):
        with pytest.raises(ConfigurationError):
            ModelDeployment.from_spec(spec, {"noop": NoOpContainer})

    def test_an_int_is_accepted_where_a_float_is_declared(self):
        rebuilt = ModelDeployment.from_spec(
            {"name": "noop", "batching": {"batch_wait_timeout_ms": 2}},
            {"noop": NoOpContainer},
        )
        assert rebuilt.batching.batch_wait_timeout_ms == 2.0
        assert isinstance(rebuilt.batching.batch_wait_timeout_ms, float)


class TestClipperConfig:
    def test_defaults_are_valid(self):
        config = ClipperConfig()
        assert config.latency_slo_ms == 20.0

    @pytest.mark.parametrize("tracing", [True, False])
    def test_tracing_is_one_switch_the_engine_obeys(self, tracing):
        tracer = Clipper(ClipperConfig(tracing=tracing)).tracer
        assert tracer.active is tracing
        assert (tracer.begin(trace_id="forced") is not None) is tracing

    def test_rejects_nonpositive_slo(self):
        with pytest.raises(ConfigurationError):
            ClipperConfig(latency_slo_ms=0)

    @pytest.mark.parametrize(
        "config, kwargs",
        [
            (ClipperConfig, {"latency_slo_ms": float("nan")}),
            (BatchingConfig, {"batch_wait_timeout_ms": float("nan")}),
            (OverloadConfig, {"retry_after_s": float("nan")}),
            (CircuitBreakerConfig, {"open_duration_s": float("nan")}),
        ],
    )
    def test_a_nan_fails_every_check(self, config, kwargs):
        """The engine reads the application's SLO as validated positive:
        a NaN, which no comparison passes, is refused like any other."""
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            config(**kwargs)

    def test_rejects_negative_cache(self):
        with pytest.raises(ConfigurationError):
            ClipperConfig(cache_size=-1)

    def test_rejects_bad_confidence_threshold(self):
        with pytest.raises(ConfigurationError):
            ClipperConfig(confidence_threshold=1.5)
