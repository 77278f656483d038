"""Quickstart: deploy two models behind Clipper and serve them over REST.

This example walks through the complete life-cycle from the paper's Figure 2
— with the real HTTP boundary in the middle.  The *server side* trains and
deploys models and binds the REST API; the *client side* is an ordinary
application that imports **only the client SDK** (``repro.client``) and
talks to Clipper exactly the way the paper's applications do: two verbs,
``predict`` and ``update``, over HTTP.

1. *Train* two models (a linear SVM and a logistic regression) with the
   bundled ``repro.mlkit`` framework on an MNIST-like dataset.
2. *Deploy* each model in its own container behind the model abstraction
   layer and bind the query + admin API to a loopback HTTP server.
3. *Serve* queries through the Exp4 ensemble selection policy with a 20 ms
   latency SLO — every query crossing request parsing, schema validation
   (the app declares 196-feature ``doubles`` input) and the JSON wire.
4. *Send feedback* over the same wire so the selection layer learns which
   model to trust, then read the server's metrics through the admin API.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import asyncio

# -- server-side imports: the serving engine ----------------------------------
from repro import Clipper, ClipperConfig, ManagementFrontend, ModelDeployment, QueryFrontend
from repro.api.http import create_server
from repro.containers.adapters import ClassifierContainer
from repro.core.config import BatchingConfig
from repro.datasets import load_mnist_like
from repro.mlkit import LinearSVM, LogisticRegression


def build_server():
    """Train, deploy, and wrap everything in an HTTP server (not yet started)."""
    dataset = load_mnist_like(n_samples=2000, n_features=196, random_state=0)
    svm = LinearSVM(epochs=5, random_state=0).fit(dataset.X_train, dataset.y_train)
    logreg = LogisticRegression(epochs=5, random_state=1).fit(
        dataset.X_train, dataset.y_train
    )
    print(
        f"offline accuracy: svm={svm.score(dataset.X_test, dataset.y_test):.3f} "
        f"logreg={logreg.score(dataset.X_test, dataset.y_test):.3f}"
    )

    clipper = Clipper(
        ClipperConfig(
            app_name="digits",
            latency_slo_ms=20.0,
            selection_policy="exp4",
            input_type="doubles",          # validated at the REST edge
            input_shape=(196,),
            output_type="ints",
            default_output=0,              # rendered on SLO misses
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            name="linear-svm",
            container_factory=lambda: ClassifierContainer(svm, framework="sklearn"),
            batching=BatchingConfig(policy="aimd"),
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            name="logreg",
            container_factory=lambda: ClassifierContainer(logreg, framework="sklearn"),
        )
    )

    query = QueryFrontend()
    query.register_application(clipper)
    # The server starts/stops the management frontend too, so health
    # monitoring and canary control run for as long as the API serves.
    admin = ManagementFrontend()
    admin.register_application(clipper)
    server = create_server(query=query, admin=admin)

    # Hand the client plain Python data — it has no numpy/dataset imports.
    samples = [
        (dataset.X_test[i].tolist(), int(dataset.y_test[i]))
        for i in range(dataset.X_test.shape[0])
    ]
    return server, samples


async def run_client(port: int, samples, n_queries: int = 200) -> None:
    """The application: drives Clipper purely through the client SDK.

    Note the imports — ``repro.client`` only.  This function could run
    unchanged in a separate process or on another machine.
    """
    from repro.client import AsyncAdminClient, AsyncClipperClient

    async with AsyncClipperClient("127.0.0.1", port) as client:
        apps = await client.applications()
        print(f"server hosts: {[app['app_name'] for app in apps]}")

        correct = 0
        for i in range(n_queries):
            x, truth = samples[i % len(samples)]
            prediction = await client.predict("digits", x)
            correct += int(prediction.output == truth)
            await client.update("digits", x, label=truth)
        print(f"served {n_queries} queries over HTTP, "
              f"online accuracy {correct / n_queries:.3f}")

    async with AsyncAdminClient("127.0.0.1", port) as admin:
        metrics = await admin.metrics("digits")
        latency = metrics["histograms"]["predict.latency_ms"]
        print(f"server-side latency mean={latency['mean']:.2f} ms  "
              f"p99={latency['p99']:.2f} ms")
        health = await admin.health("digits")
        print(f"serving models: {health['serving']}  started={health['started']}")


async def main() -> None:
    server, samples = build_server()
    await server.start()
    print(f"REST API listening on {server.address}")
    try:
        await run_client(server.port, samples)
    finally:
        await server.stop()
    assert not server.is_serving
    print("clean shutdown: listener closed, applications stopped")


if __name__ == "__main__":
    asyncio.run(main())
