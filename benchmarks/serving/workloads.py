"""The seven workloads: seeded inputs, set-up, one operation, expected output.

Every workload draws all of its randomness (inputs, Zipf ranks, feedback
labels, Poisson gaps) from one ``numpy`` ``Generator`` seeded from
``(--seed, workload index)``; the program under test only ever sees the
generated inputs.  ``prepare(i)`` is a pure function of the operation index,
so the stream of requests is the same whatever the timing of a run, and the
first 10 000 requests can be hashed for the determinism record.

A workload is driven by :mod:`benchmarks.serving.harness` through four
calls: ``setup`` / ``teardown`` build and destroy one instance of the
program (set-up is timed, and repeated, for ``setup_s``), ``prepare(i)``
produces request ``i`` (load-generator work, outside the latency clock) and
``fire(request, client)`` sends it and checks the answer (inside the clock).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import shutil
import signal
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.api.http import create_server
from repro.client import AsyncClipperClient
from repro.cluster.ingress import IngressTier
from repro.cluster.registry import WorkerRegistry
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import BatchingConfig, ClipperConfig, ModelDeployment
from repro.core.frontend import QueryFrontend
from repro.core.types import Feedback, Query

from benchmarks.serving import host
from benchmarks.serving.containers import SleepContainer

APP = "bench"

#: Inputs the hit workloads draw from: far fewer than ``cache_size`` (65 536),
#: so after warm-up every lookup hits.
HOT_SET = 4096
#: Popularity skew of the hot set (rank ``k`` drawn with weight ``k**-1.1``).
ZIPF_EXPONENT = 1.1
#: MNIST-sized double vector: large enough that input hashing is measurable.
FEATURES = 784
#: Payload of the serialized workloads: 256 float32, 1 KiB on the wire.
WIDE_FEATURES = 256
#: Pre-drawn choices (ranks, labels, hot-or-unique) repeat after this many
#: operations; more than any run at 100k operations/s performs.
DRAWS = 1 << 20
#: Distinct random rows the unique-input workloads stamp a counter into.
POOL = 2048

#: Closed-loop SLO: generous, so that these workloads measure steady-state
#: cost and not the straggler deadline.
CLOSED_SLO_MS = 500.0
#: ``open_slo`` uses the paper's SLO.
PAPER_SLO_MS = 20.0

#: What ``fire`` reports for one operation.
FAIL, OK, AUX_OK, DEFAULTED = 0, 1, 2, 3

#: Where run artefacts (trace files, per-run detail, the cluster directory)
#: go; listed in this directory's ``.gitignore``.
OUT_DIR = Path(__file__).resolve().parent / "out"

_AIMD = dict(policy="aimd", initial_batch_size=4)


def _compact(values: np.ndarray) -> array:
    """Pre-drawn small integers as an ``array`` of unsigned shorts.

    Indexing yields a plain ``int`` as fast as a list would, and unlike a
    million-element list it is invisible to the garbage collector, whose full
    collections would otherwise stall the event loop for milliseconds.
    """
    return array("H", values.astype(np.uint16).tobytes())


def _zipf_ranks(rng: np.random.Generator, population: int) -> array:
    weights = np.arange(1, population + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return _compact(rng.choice(population, size=DRAWS, p=weights / weights.sum()))


async def _in_waves(call, count: int, width: int) -> None:
    """Await ``call(j)`` for ``j < count``, ``width`` at a time."""
    for start in range(0, count, width):
        await asyncio.gather(*(call(j) for j in range(start, min(count, start + width))))


class Workload:
    """Base class: error bookkeeping and the determinism digest."""

    name = ""
    why = ""
    #: ``"closed"``: each client sends its next request when the previous one
    #: completes.  ``"open"``: requests are sent on a schedule.
    loop = "closed"
    #: Concurrent callers (closed loop).
    clients = 1
    #: The constant every correct answer carries.
    expected: Any = 1

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.errors: List[str] = []
        #: Index of the next request; runs on one workload object continue
        #: the stream, so a unique input is never sent twice.
        self.indices = itertools.count()

    # -- driven by the harness -------------------------------------------------

    async def setup(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    @property
    def app(self) -> Clipper:
        """The ``Clipper`` of the instance that is currently set up."""
        raise NotImplementedError

    def prepare(self, i: int) -> Tuple[Any, Any]:
        """Request ``i`` as ``(input, label)``; ``label`` is None for a predict."""
        raise NotImplementedError

    async def fire(self, request: Tuple[Any, Any], client: int) -> int:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def _failed(self) -> int:
        """Record the active exception (the first few in full) and report FAIL."""
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc())
        return FAIL

    def _check(self, prediction: Any) -> int:
        if prediction.output == self.expected and not prediction.default_used:
            return OK
        if len(self.errors) < 3:
            self.errors.append(f"unexpected answer: {prediction!r}")
        return FAIL

    def input_digest(self, count: int = 10_000, schedule: Optional[np.ndarray] = None) -> str:
        """SHA-1 over the first ``count`` generated requests and arrival gaps."""
        digest = hashlib.sha1()
        for i in range(count):
            x, label = self.prepare(i)
            digest.update(np.ascontiguousarray(x).data)
            digest.update(repr(label).encode())
        if schedule is not None:
            digest.update(np.diff(schedule[:count]).tobytes())
        return digest.hexdigest()


class _HotSetMixin:
    """Inputs drawn Zipf(1.1) from a hot set, shared by the four hit workloads."""

    def _make_hot_set(self, features: int, dtype: Any) -> None:
        matrix = self.rng.standard_normal((HOT_SET, features)).astype(dtype)
        self.hot = list(matrix)
        self.ranks = _zipf_ranks(self.rng, HOT_SET)

    def prepare(self, i: int) -> Tuple[Any, Any]:
        return self.hot[self.ranks[i % DRAWS]], None


class _UniqueMixin:
    """Every input distinct: a random row with the operation index stamped in.

    Indices below 2**24 are exact in float32, which is more operations than
    any run performs; set-up warms with negative indices.
    """

    def _make_pool(self, features: int, dtype: Any) -> None:
        self.pool = self.rng.standard_normal((POOL, features)).astype(dtype)

    def _unique(self, i: int) -> np.ndarray:
        x = self.pool[i % POOL].copy()
        x[0] = i
        return x

    def prepare(self, i: int) -> Tuple[Any, Any]:
        return self._unique(i), None


class _InProcess(Workload):
    """Closed loop on ``Clipper.predict`` of one in-process instance."""

    clipper: Optional[Clipper] = None

    @property
    def app(self) -> Clipper:
        return self.clipper

    def _build(self) -> Clipper:
        raise NotImplementedError

    async def _warm(self) -> None:
        """Fill the cache with the hot set (overridden where there is none)."""
        await _in_waves(lambda j: self._predict(self.hot[j]), HOT_SET, 64)

    async def setup(self) -> None:
        self.clipper = self._build()
        await self.clipper.start()
        await self._warm()

    async def teardown(self) -> None:
        if self.clipper is not None:
            await self.clipper.stop()
            self.clipper = None

    async def _predict(self, x: Any) -> int:
        try:
            return self._check(await self.clipper.predict(Query(APP, x)))
        except Exception:
            return self._failed()

    async def fire(self, request: Tuple[Any, Any], client: int) -> int:
        return await self._predict(request[0])


def _noop(name: str, **kwargs: Any) -> ModelDeployment:
    return ModelDeployment(
        name=name,
        container_factory=lambda: NoOpContainer(output=1),
        batching=BatchingConfig(**_AIMD),
        **kwargs,
    )


class InprocHit(_HotSetMixin, _InProcess):
    name = "inproc_hit"
    why = (
        "framework floor: core, input hashing and cache reads only; "
        "bypasses batching, rpc and api"
    )

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._make_hot_set(FEATURES, np.float64)

    def _build(self) -> Clipper:
        clipper = Clipper(
            ClipperConfig(
                app_name=APP, latency_slo_ms=CLOSED_SLO_MS, selection_policy="single"
            )
        )
        clipper.deploy_model(_noop("noop"))
        return clipper



class InprocEnsemble(_HotSetMixin, _InProcess):
    name = "inproc_ensemble"
    why = (
        "exp4 over 4 models on cached inputs with feedback every 10th operation: "
        "selection does the work and writes state beside its reads"
    )
    width = 4
    feedback_every = 10

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._make_hot_set(FEATURES, np.float64)
        # Mostly agreeing labels; a disagreeing one still updates every weight.
        self.labels = _compact(rng.random(DRAWS) < 0.9)

    def prepare(self, i: int) -> Tuple[Any, Any]:
        x = self.hot[self.ranks[i % DRAWS]]
        if i % self.feedback_every == self.feedback_every - 1:
            return x, self.labels[i % DRAWS]
        return x, None

    def _build(self) -> Clipper:
        clipper = Clipper(
            ClipperConfig(
                app_name=APP, latency_slo_ms=CLOSED_SLO_MS, selection_policy="exp4"
            )
        )
        for k in range(self.width):
            clipper.deploy_model(_noop(f"noop-{k}"))
        return clipper


    async def fire(self, request: Tuple[Any, Any], client: int) -> int:
        x, label = request
        if label is None:
            return await self._predict(x)
        try:
            await self.clipper.feedback(Feedback(APP, x, label))
            return AUX_OK
        except Exception:
            return self._failed()


class InprocMissTcp(_UniqueMixin, _InProcess):
    name = "inproc_miss_tcp"
    why = (
        "32 in flight, every input unique, replica behind loopback tcp: batching, "
        "dispatch, serialization and socket do the work; the cache writes and evicts"
    )
    clients = 32

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._make_pool(WIDE_FEATURES, np.float32)

    def _build(self) -> Clipper:
        clipper = Clipper(
            ClipperConfig(
                app_name=APP, latency_slo_ms=CLOSED_SLO_MS, selection_policy="single"
            )
        )
        clipper.deploy_model(_noop("noop", transport="tcp", serialize_rpc=True))
        return clipper

    async def _warm(self) -> None:
        await _in_waves(lambda j: self._predict(self._unique(-1 - j)), 1024, 32)


class _Http(_HotSetMixin, Workload):
    """Closed loop of keep-alive SDK clients against an in-loop HTTP server."""

    clients = 2
    binary = False
    input_type = "doubles"
    features = FEATURES
    dtype: Any = np.float64

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._make_hot_set(self.features, self.dtype)
        self.server = None
        self.frontend: Optional[QueryFrontend] = None
        self.sdk: List[AsyncClipperClient] = []

    @property
    def app(self) -> Clipper:
        return self.frontend.application(APP)

    async def setup(self) -> None:
        clipper = Clipper(
            ClipperConfig(
                app_name=APP,
                latency_slo_ms=CLOSED_SLO_MS,
                selection_policy="single",
                input_type=self.input_type,
                input_shape=(self.features,),
            )
        )
        clipper.deploy_model(_noop("noop"))
        self.frontend = QueryFrontend()
        self.frontend.register_application(clipper)
        self.server = create_server(query=self.frontend)  # binds port 0
        await self.server.start()
        # Fill the cache in-process (same validated array, same hash as the
        # edge produces), then open and warm the connections over the wire.
        await _in_waves(
            lambda j: self.frontend.predict(APP, self.hot[j]), HOT_SET, 64
        )
        self.sdk = [
            AsyncClipperClient("127.0.0.1", self.server.port, binary=self.binary)
            for _ in range(self.clients)
        ]
        for client in range(self.clients):
            for j in range(8):
                await self.fire((self.hot[j], None), client)

    async def teardown(self) -> None:
        for client in self.sdk:
            await client.close()
        self.sdk = []
        if self.server is not None:
            await self.server.stop()
            self.server = None

    async def fire(self, request: Tuple[Any, Any], client: int) -> int:
        sdk = self.sdk[client]
        try:
            result = await sdk.predict(APP, request[0])
        except Exception:
            return self._failed()
        if sdk.binary != self.binary:
            if len(self.errors) < 3:
                self.errors.append("client fell back from columnar to JSON")
            return FAIL
        return self._check(result)


class HttpJsonHit(_Http):
    name = "http_json_hit"
    why = (
        "2 keep-alive SDK clients, JSON doubles x784, server-side cache hit: "
        "client, HTTP framing, JSON codec and validation own the time"
    )


class HttpBinaryHit(_Http):
    name = "http_binary_hit"
    why = (
        "the same edge over the columnar content type, floats x256: with "
        "http_json_hit it separates codec cost from framing and loop cost"
    )
    binary = True
    input_type = "floats"
    features = WIDE_FEATURES
    dtype = np.float32


class OpenSlo(_UniqueMixin, Workload):
    name = "open_slo"
    why = (
        "open loop, Poisson 3000 q/s, 20 ms SLO, model sleeping 2 ms per batch: "
        "only adaptive batching carries the rate; queue wait sets the tail"
    )
    loop = "open"
    rate_qps = 3000.0
    slo_ms = PAPER_SLO_MS
    hot_share = 0.3
    hot_inputs = 1024

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._make_pool(FEATURES, np.float64)
        self.hot = list(rng.standard_normal((self.hot_inputs, FEATURES)))
        self.is_hot = _compact(rng.random(DRAWS) < self.hot_share)
        self.hot_pick = _compact(rng.integers(self.hot_inputs, size=DRAWS))
        self.frontend: Optional[QueryFrontend] = None

    def arrivals(self, duration_s: float) -> np.ndarray:
        """Due times of a Poisson process, seconds from the start of the run."""
        count = int(self.rate_qps * duration_s * 1.2) + 1000
        due = np.cumsum(self.rng.exponential(1.0 / self.rate_qps, size=count))
        return due[due < duration_s]

    def prepare(self, i: int) -> Tuple[Any, Any]:
        if self.is_hot[i % DRAWS]:
            return self.hot[self.hot_pick[i % DRAWS]], None
        return self._unique(i), None

    @property
    def app(self) -> Clipper:
        return self.frontend.application(APP)

    async def setup(self) -> None:
        clipper = Clipper(
            ClipperConfig(
                app_name=APP,
                latency_slo_ms=self.slo_ms,
                selection_policy="single",
                # A query whose model misses the deadline is answered with
                # this, and counted as defaulted rather than as an error.
                default_output=-1,
                input_type="doubles",
                input_shape=(FEATURES,),
            )
        )
        clipper.deploy_model(
            ModelDeployment(
                name="sleep",
                container_factory=SleepContainer,
                batching=BatchingConfig(**_AIMD),
            )
        )
        self.frontend = QueryFrontend()
        self.frontend.register_application(clipper)
        await self.frontend.start()
        # Narrow waves: at the initial batch size a wider one would overrun
        # the SLO before the batch size has grown.
        await _in_waves(
            lambda j: self.frontend.predict(APP, self.hot[j]), self.hot_inputs, 16
        )

    async def teardown(self) -> None:
        if self.frontend is not None:
            await self.frontend.stop()
            self.frontend = None

    async def fire(self, request: Tuple[Any, Any], client: int) -> int:
        try:
            prediction = await self.frontend.predict(APP, request[0])
        except Exception:
            return self._failed()
        if prediction.default_used:
            return DEFAULTED
        return self._check(prediction)


class ClusterMiss(_UniqueMixin, Workload):
    name = "cluster_miss"
    why = (
        "inproc_miss_tcp's work through an ingress, WorkerPlacer and RemoteReplica "
        "to 2 no-op replicas in a worker process: the remote seam is the difference"
    )
    clients = 32
    expected = 0  # the worker's built-in "noop" factory answers 0
    replicas = 2

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._make_pool(WIDE_FEATURES, np.float32)
        self.worker: Optional[subprocess.Popen] = None
        self.ingress: Optional[IngressTier] = None
        self.cluster_dir: Optional[Path] = None
        self._instances = 0

    @property
    def app(self) -> Clipper:
        return self.ingress.clipper

    async def setup(self) -> None:
        self._instances += 1
        self.cluster_dir = OUT_DIR / f"cluster-{os.getpid()}-{self._instances}"
        self.cluster_dir.mkdir(parents=True)
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The tcp lane is forced: a shared-memory ring lives in /dev/shm and
        # its doorbell sockets may fall back to the system temp directory,
        # and a run may write only under this checkout.
        self.worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster.worker",
                "--cluster-dir", str(self.cluster_dir),
                "--worker-id", "bench-0",
                "--no-shm",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        os.sched_setaffinity(self.worker.pid, {host.WORKER_CPU})
        registry = WorkerRegistry(str(self.cluster_dir))
        deadline = asyncio.get_running_loop().time() + 30.0
        while not registry.live_workers():
            if self.worker.poll() is not None:
                raise RuntimeError(f"worker exited with {self.worker.returncode}")
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError("worker never announced itself")
            await asyncio.sleep(0.01)
        self.ingress = IngressTier(
            str(self.cluster_dir),
            config=ClipperConfig(
                app_name=APP,
                latency_slo_ms=CLOSED_SLO_MS,
                selection_policy="single",
                allow_empty_start=True,
            ),
        )
        self.ingress.clipper.deploy_model(
            ModelDeployment(
                name="noop",
                container_factory=NoOpContainer,
                factory_name="noop",
                num_replicas=self.replicas,
                transport="tcp",
                batching=BatchingConfig(**_AIMD),
            )
        )
        await self.ingress.start()  # the HTTP listener binds port 0
        await _in_waves(lambda j: self._predict(self._unique(-1 - j)), 1024, 32)

    async def teardown(self) -> None:
        """Stop the ingress, then always reap the worker and remove its directory."""
        try:
            if self.ingress is not None:
                await self.ingress.stop()
        finally:
            self.ingress = None
            worker, self.worker = self.worker, None
            if worker is not None:
                if worker.poll() is None:
                    worker.send_signal(signal.SIGTERM)
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
            if self.cluster_dir is not None:
                shutil.rmtree(self.cluster_dir, ignore_errors=True)
                self.cluster_dir = None

    async def _predict(self, x: Any) -> int:
        try:
            return self._check(await self.app.predict(Query(APP, x)))
        except Exception:
            return self._failed()

    async def fire(self, request: Tuple[Any, Any], client: int) -> int:
        return await self._predict(request[0])


#: Order fixes each workload's seed stream; append, never reorder.
WORKLOADS = (
    InprocHit,
    InprocEnsemble,
    InprocMissTcp,
    HttpJsonHit,
    HttpBinaryHit,
    OpenSlo,
    ClusterMiss,
)

NAMES = tuple(cls.name for cls in WORKLOADS)


def make(name: str, seed: int) -> Workload:
    """Build the named workload with its own generator seeded from ``seed``."""
    index = NAMES.index(name)
    return WORKLOADS[index](np.random.default_rng([seed, index]))
