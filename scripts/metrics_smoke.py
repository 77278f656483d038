#!/usr/bin/env python
"""CI smoke test of the Prometheus metrics exposition endpoint.

Starts the stdlib HTTP server with one no-op application, drives a handful
of predictions through the REST edge so the registries hold live samples,
then fetches ``GET /api/v1/metrics?format=prometheus`` over a raw socket,
twice with more traffic in between, and checks each response with the
minimal exposition parser/validator in
:mod:`repro.observability.prometheus`:

- the Content-Type is the Prometheus text format (version 0.0.4),
- every sample line parses (names, labels, float values),
- every exposed family has HELP/TYPE lines,
- histogram bucket counts are cumulative and end with ``+Inf == _count``,
- no histogram series (``_bucket``, ``_sum``, ``_count``) falls from the
  first scrape to the second: the buckets count the histogram's lifetime,
- ``clipper_predict_latency_ms_count`` equals ``clipper_predict_count_total``,
- the core predict counters, the shed counters (registered for every
  application, overload control configured or not) and the dispatcher's
  pipeline-depth gauges are present.

Exits non-zero (with a message) on any failure — wire it as a CI step after
the HTTP smoke::

    PYTHONPATH=src python scripts/metrics_smoke.py
"""

from __future__ import annotations

import asyncio
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.http import create_server  # noqa: E402
from repro.client import AsyncClipperClient  # noqa: E402
from repro.containers.noop import NoOpContainer  # noqa: E402
from repro.core.clipper import Clipper  # noqa: E402
from repro.core.config import (  # noqa: E402
    BatchingConfig,
    ClipperConfig,
    ModelDeployment,
)
from repro.core.frontend import QueryFrontend  # noqa: E402
from repro.observability.prometheus import (  # noqa: E402
    PROMETHEUS_CONTENT_TYPE,
    validate,
)

NUM_FEATURES = 16


async def _raw_get(host: str, port: int, target: str) -> "tuple[int, dict, str]":
    """One HTTP/1.1 GET over a raw socket: (status, headers, body text)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode("utf-8")


async def _scrape(port: int) -> "tuple[dict, str]":
    """The validated families of one Prometheus scrape, and its text."""
    status, headers, body = await _raw_get(
        "127.0.0.1", port, "/api/v1/metrics?format=prometheus"
    )
    if status != 200:
        raise SystemExit(f"metrics endpoint returned HTTP {status}")
    content_type = headers.get("content-type", "")
    if content_type != PROMETHEUS_CONTENT_TYPE:
        raise SystemExit(
            f"unexpected Content-Type {content_type!r} "
            f"(want {PROMETHEUS_CONTENT_TYPE!r})"
        )
    return validate(body), body


def _histogram_series(families: dict) -> dict:
    """Every histogram sample by (name, labels): its value."""
    return {
        (sample["name"], tuple(sorted(sample["labels"].items()))): sample["value"]
        for info in families.values()
        if info.get("type") == "histogram"
        for sample in info["samples"]
    }


async def main() -> int:
    clipper = Clipper(
        ClipperConfig(
            app_name="smoke",
            latency_slo_ms=500.0,
            selection_policy="single",
            input_type="doubles",
            input_shape=(NUM_FEATURES,),
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            name="noop",
            container_factory=lambda: NoOpContainer(output=1),
            batching=BatchingConfig(policy="fixed", initial_batch_size=4),
        )
    )
    frontend = QueryFrontend()
    frontend.register_application(clipper)
    server = create_server(frontend)
    await server.start()
    try:
        scrapes = []
        async with AsyncClipperClient("127.0.0.1", server.port) as client:
            for offset in (0.0, 1.0):
                x = [float(i) + offset for i in range(NUM_FEATURES)]
                for _ in range(5):
                    await client.predict("smoke", x)
                scrapes.append(await _scrape(server.port))
        first, (families, body) = scrapes[0][0], scrapes[1]
        before, after = _histogram_series(first), _histogram_series(families)
        for key, value in before.items():
            if after.get(key, -1.0) < value:
                raise SystemExit(f"histogram series {key} fell from {value} to {after.get(key)}")
        names = {
            sample["name"]
            for info in families.values()
            for sample in info.get("samples", [])
        }
        for required in (
            "clipper_predict_count_total",
            "clipper_predict_latency_ms_count",
            "clipper_overload_shed_total",
            # The dispatcher's measured pipeline depth and its two estimates.
            "clipper_model_noop:1_pipeline_depth",
            "clipper_model_noop:1_rpc_overhead_ms",
            "clipper_model_noop:1_eval_ms",
        ):
            if required not in names:
                raise SystemExit(f"required metric {required} missing from exposition")
        for scrape, _ in scrapes:
            (answered,) = scrape["clipper_predict_count_total"]["samples"]
            count = _histogram_series(scrape)[
                ("clipper_predict_latency_ms_count", tuple(answered["labels"].items()))
            ]
            if count != answered["value"]:
                raise SystemExit(
                    f"clipper_predict_latency_ms_count {count} != "
                    f"clipper_predict_count_total {answered['value']}"
                )
        num_samples = sum(len(info.get("samples", [])) for info in families.values())
        print(
            f"metrics smoke OK: {len(families)} families, {num_samples} samples, "
            f"{len(body.splitlines())} lines"
        )
    finally:
        await server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(asyncio.run(main()))
