"""Smoke test of the benchmark itself.

Not part of tier-1 (``testpaths = tests``); run it explicitly::

    python -m pytest benchmarks/serving/test_bench_smoke.py -q

``--quick`` runs (two 0.25 s windows, one set-up) of all seven workloads,
untraced and traced, each in a process of its own as the driver runs them.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.serving import trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]
HIT_WORKLOADS = {"inproc_hit", "inproc_ensemble", "http_json_hit", "http_binary_hit"}
MISS_WORKLOADS = {"inproc_miss_tcp", "cluster_miss"}
#: Differences, not measurements: may dip below zero by timer noise.
SIGNED = {"unattributed_share", "trace_overhead_share"}


def _run(name: str, trace_flag: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--quick",
            "--seed", "3", "--trace", str(trace_flag),
        ],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "http server st" not in done.stdout + done.stderr, "program logs leaked"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def test_spec_matches_the_code():
    assert NAMES == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [cls.why for cls in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        trace.PER_LAYER
    )
    assert SPEC["paths"] == [str(HERE.relative_to(ROOT))]
    assert sum(m["name"] == "setup_s" for m in SPEC["end_to_end"]) == 1
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for name in NAMES:
        first, again, other = (
            workloads.make(name, seed).input_digest(500) for seed in (11, 11, 12)
        )
        assert first == again, name
        assert first != other, name
    schedule = workloads.make("open_slo", 11).arrivals(2.0)
    assert (schedule == workloads.make("open_slo", 11).arrivals(2.0)).all()
    assert len(schedule) != len(workloads.make("open_slo", 12).arrivals(2.0)) or (
        schedule != workloads.make("open_slo", 12).arrivals(2.0)
    ).any()


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    metrics = _run(name, 0)
    assert list(metrics) == [metric["name"] for metric in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        value = metrics[metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_ledger(name):
    metrics = _run(name, 1)
    assert list(metrics) == [metric["name"] for metric in SPEC["per_layer"]]
    value = {key: entry["value"] for key, entry in metrics.items()}
    for key, number in value.items():
        assert math.isfinite(number), key
        assert number >= 0 or key in SIGNED, key
    # A quick run spends a visible share in its one-off collections and the
    # gaps between its few slices; a full-length run stays under 0.15.
    assert value["unattributed_share"] < 0.25
    assert value["traced_qps"] > 0 and value["loadgen.self_us"] > 0
    assert value["core.predict_self_us"] > 0 and value["cache.fetch_us"] > 0

    if name in HIT_WORKLOADS:
        assert value["cache.hit_ratio"] > 0.99
        assert value["cache.evictions"] == 0
        assert value["cache.put_us"] == 0
    if name in MISS_WORKLOADS:
        # Too short to overflow the 65 536-entry cache: the writes show, the
        # evictions only in a full-length run.
        assert value["cache.hit_ratio"] < 0.01
        assert value["cache.put_us"] > 0
        assert value["batching.batch_size_mean"] > 4
        assert value["rpc.encode_us"] > 0 and value["rpc.bytes_per_query"] > 1024
    if name == "open_slo":
        assert value["batching.batch_size_mean"] > 4
        assert value["batching.queue_wait_p50_ms"] > 0
        assert value["containers.compute_ms"] >= 2.0
    if name == "inproc_ensemble":
        assert value["selection.observe_us"] > 0 and value["selection.state_writes"] > 0
        assert value["selection.combine_us"] > value["selection.select_us"]
    else:
        assert value["selection.state_writes"] == 0
    assert (value["cluster.remote_self_us"] > 0) == (name == "cluster_miss")
    api = {key: value[key] for key in ("api.framing_us", "api.codec_us", "api.validate_us")}
    if name == "http_json_hit":
        assert max(api, key=api.get) == "api.codec_us"
        assert value["client.encode_us"] > value["client.decode_us"]
    elif name == "http_binary_hit":
        assert max(api, key=api.get) != "api.codec_us"
    else:
        assert not any(api.values()) or name == "open_slo"

    document = json.loads((HERE / "out" / f"trace_{name}.json").read_text(encoding="utf-8"))
    columns = document["span_columns"]
    spans = {span[columns.index("id")]: dict(zip(columns, span)) for span in document["spans"]}
    assert spans
    for span in spans.values():
        assert 0 <= span["self_ns"] <= span["busy_ns"] <= span["end_ns"] - span["start_ns"]
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / HERE.relative_to(ROOT),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "inproc_hit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
