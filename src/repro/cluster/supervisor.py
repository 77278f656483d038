"""The cluster supervisor: spawn, restart, drain — on the event loop.

:class:`Child` is the one way a cluster process is spawned: an
``asyncio`` subprocess whose ``<KIND>_READY <port>`` line is its
synchronization point.  :class:`Supervisor` spawns N worker daemons and one
ingress (the same ``python -m repro.cluster.worker`` / ``-m
repro.cluster.ingress`` entry points an operator would run by hand), learns
the ingress port from its ready line, keeps one task per worker that
respawns it under the same id when it exits, and drains the ingress *first*
(the edge stops taking traffic before its backends go away), then the
workers.  The ingress is not respawned: a new one would hold no deployments
and might bind another port, so its exit ends the fleet (``ingress_exited``).
``scripts/cluster_up.py`` runs it as a process through
:func:`repro.cluster.worker.serve_until_signalled`.
"""

from __future__ import annotations

import asyncio
import collections
import os
import sys
from typing import Dict, List, Optional, Sequence

import repro
from repro.cluster.worker import DRAIN_TIMEOUT_S
from repro.core.exceptions import ClipperError

#: src/ directory the children need on PYTHONPATH to import repro.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: How long a spawned child may take to print its ready line.
READY_TIMEOUT_S = 30.0
#: How long a stopped child may take to exit before it is killed: longer
#: than its own drain, so a drain that runs to its limit is not cut short.
STOP_TIMEOUT_S = DRAIN_TIMEOUT_S + 5.0
#: Lines of a child's output kept for error messages.
TAIL_LINES = 20


class Child:
    """One child process on the running loop, with the tail of its output."""

    def __init__(self, name: str, proc: asyncio.subprocess.Process) -> None:
        self.name = name
        self.proc = proc
        self.tail: collections.deque = collections.deque(maxlen=TAIL_LINES)

    @classmethod
    async def spawn(cls, name: str, argv: Sequence[str]) -> "Child":
        """Start ``argv`` with ``repro`` importable; stderr joins stdout."""
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=_SRC_DIR + (os.pathsep + path if path else ""))
        proc = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        return cls(name, proc)

    async def _read(self, marker: Optional[str]) -> Optional[int]:
        """Read lines into the tail until ``<marker>_READY <port>`` (its port)
        or end of output (None)."""
        prefix = f"{marker}_READY " if marker else None
        async for raw in self.proc.stdout:
            line = raw.decode(errors="replace").rstrip()
            self.tail.append(line)
            if prefix and line.startswith(prefix):
                return int(line[len(prefix):])
        return None

    async def ready(self, marker: str) -> int:
        """The port from the child's ``<marker>_READY <port>`` line.

        Raises :class:`ClipperError` naming the child, with its last output,
        when it exits or stays silent for :data:`READY_TIMEOUT_S` first.
        """
        try:
            async with asyncio.timeout(READY_TIMEOUT_S):
                port = await self._read(marker)
        except TimeoutError:
            port = None
        if port is None:
            raise ClipperError(
                f"{self.name} did not become ready: " + "\n".join(self.tail)
            )
        return port

    async def wait(self) -> int:
        """Read the child's output to its end; its exit code."""
        await self._read(None)
        return await self.proc.wait()

    async def stop(self, timeout_s: float) -> int:
        """SIGTERM, then SIGKILL after ``timeout_s``; the exit code."""
        if self.proc.returncode is None:
            self.proc.terminate()
        try:
            async with asyncio.timeout(timeout_s):
                return await self.wait()
        except TimeoutError:
            self.proc.kill()
            return await self.wait()


class Supervisor:
    """Spawns and keeps N worker daemons plus one ingress process."""

    def __init__(
        self,
        cluster_dir: str,
        num_workers: int = 2,
        app_name: str = "default-app",
        factories_spec: str = "",
        no_shm: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ClipperError("num_workers must be >= 1")
        self.cluster_dir = os.path.abspath(cluster_dir)
        self.num_workers = num_workers
        self.app_name = app_name
        self.factories_spec = factories_spec
        self.no_shm = no_shm
        self.workers: Dict[str, Child] = {}
        self.ingress: Optional[Child] = None
        #: The ingress's HTTP port, once :meth:`start` returns.
        self.port: Optional[int] = None
        #: Set when the ingress exits on its own (not when :meth:`drain` stops it).
        self.ingress_exited = asyncio.Event()
        self._tasks: List[asyncio.Task] = []

    def _argv(self, module: str, *flags: str) -> List[str]:
        argv = [sys.executable, "-m", f"repro.cluster.{module}"]
        argv += ["--cluster-dir", self.cluster_dir, *flags]
        if self.factories_spec:
            argv += ["--factories", self.factories_spec]
        return argv

    async def _spawn_worker(self, worker_id: str) -> None:
        flags = ["--worker-id", worker_id] + (["--no-shm"] if self.no_shm else [])
        self.workers[worker_id] = await Child.spawn(worker_id, self._argv("worker", *flags))

    async def start(self) -> None:
        """Bring up the fleet and set :attr:`port`.  On failure every child
        already spawned is stopped before the error propagates."""
        try:
            for index in range(self.num_workers):
                await self._spawn_worker(f"worker-{index}")
            for child in self.workers.values():
                await child.ready("WORKER")
            self.ingress = await Child.spawn(
                "ingress", self._argv("ingress", "--app", self.app_name)
            )
            self.port = await self.ingress.ready("INGRESS")
        except BaseException:
            await self._stop_children()
            raise
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._read_ingress())]
        self._tasks += [loop.create_task(self._keep(w)) for w in self.workers]

    async def _read_ingress(self) -> None:
        """Read the ingress's output to its end, so that it never fills the
        pipe and blocks it; then report that it exited."""
        await self.ingress.wait()
        self.ingress_exited.set()

    async def _keep(self, worker_id: str) -> None:
        """Respawn ``worker_id`` under the same id each time it exits."""
        while True:
            await self.workers[worker_id].wait()
            await self._spawn_worker(worker_id)

    async def _stop_children(self) -> None:
        if self.ingress is not None:
            await self.ingress.stop(STOP_TIMEOUT_S)
        await asyncio.gather(
            *(child.stop(STOP_TIMEOUT_S) for child in self.workers.values())
        )

    async def drain(self) -> None:
        """Stop restarting, then stop the ingress, then the workers."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        await self._stop_children()
