"""The cluster supervisor: spawn, monitor, restart, drain.

Spawns N worker daemons and one ingress as child processes (the same
``python -m repro.cluster.worker`` / ``-m repro.cluster.ingress`` entry
points an operator would run by hand), waits for each child's
``<KIND>_READY <port>`` line on stdout (the ingress's is how the supervisor
learns its port), restarts workers that die unexpectedly, and on shutdown
drains the ingress *first* (the edge stops taking traffic before its
backends go away) and then the workers.  ``scripts/cluster_up.py`` is the CLI.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from typing import Dict, List, Optional

import repro
from repro.core import clock
from repro.core.exceptions import ClipperError

#: src/ directory the children need on PYTHONPATH to import repro.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: How long a spawned child may take to print its ready marker.
READY_TIMEOUT_S = 30.0


class _Child:
    """One supervised child process with a line pump and a ready line."""

    def __init__(self, name: str, argv: List[str], ready_marker: str) -> None:
        self.name = name
        self.ready_marker = ready_marker
        self.lines: List[str] = []
        self.ready_line: Optional[str] = None
        self.ready = threading.Event()
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._pump = threading.Thread(target=self._pump_lines, daemon=True)
        self._pump.start()

    def _pump_lines(self) -> None:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self.lines.append(line)
            if self.ready_line is None and line.startswith(self.ready_marker):
                self.ready_line = line
                self.ready.set()
        self.ready.set()  # EOF: unblock waiters either way

    def wait_ready(self, timeout_s: float) -> Optional[str]:
        """The ready line, or None when the child died or timed out first."""
        self.ready.wait(timeout_s)
        return self.ready_line if self.alive else None

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def terminate(self) -> None:
        if self.alive:
            self.proc.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        if self.alive:
            self.proc.kill()

    def wait(self, timeout_s: float) -> Optional[int]:
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return None


class Supervisor:
    """Spawns and babysits N worker daemons plus one ingress process."""

    def __init__(
        self,
        cluster_dir: str,
        num_workers: int = 2,
        app_name: str = "default-app",
        factories_spec: str = "",
        no_shm: bool = False,
        python: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ClipperError("num_workers must be >= 1")
        self.cluster_dir = os.path.abspath(cluster_dir)
        self.num_workers = num_workers
        self.app_name = app_name
        self.factories_spec = factories_spec
        self.no_shm = no_shm
        self.python = python or sys.executable
        self.workers: Dict[str, _Child] = {}
        self.ingress: Optional[_Child] = None
        self._shutting_down = False

    # -- spawning ----------------------------------------------------------------

    def _worker_argv(self, worker_id: str) -> List[str]:
        argv = [
            self.python,
            "-m",
            "repro.cluster.worker",
            "--cluster-dir",
            self.cluster_dir,
            "--worker-id",
            worker_id,
        ]
        if self.factories_spec:
            argv += ["--factories", self.factories_spec]
        if self.no_shm:
            argv.append("--no-shm")
        return argv

    def _spawn_worker(self, worker_id: str) -> _Child:
        child = _Child(worker_id, self._worker_argv(worker_id), "WORKER_READY")
        self.workers[worker_id] = child
        return child

    def start(self) -> int:
        """Bring up the fleet; returns the ingress port."""
        os.makedirs(self.cluster_dir, exist_ok=True)
        for index in range(self.num_workers):
            self._spawn_worker(f"worker-{index}")
        for child in self.workers.values():
            if not child.wait_ready(READY_TIMEOUT_S):
                self.shutdown(timeout_s=5.0)
                raise ClipperError(
                    f"worker {child.name} did not become ready: "
                    + "\n".join(child.lines[-10:])
                )
        argv = [
            self.python,
            "-m",
            "repro.cluster.ingress",
            "--cluster-dir",
            self.cluster_dir,
            "--app",
            self.app_name,
        ]
        if self.factories_spec:
            argv += ["--factories", self.factories_spec]
        self.ingress = _Child("ingress", argv, "INGRESS_READY")
        ready = self.ingress.wait_ready(READY_TIMEOUT_S)
        if ready is None:
            self.shutdown(timeout_s=5.0)
            raise ClipperError(
                "ingress did not become ready: " + "\n".join(self.ingress.lines[-10:])
            )
        return int(ready.split()[-1])

    # -- monitoring --------------------------------------------------------------

    def poll(self) -> None:
        """Restart any worker that died unexpectedly (once per call)."""
        if self._shutting_down:
            return
        for worker_id, child in list(self.workers.items()):
            if not child.alive:
                replacement = self._spawn_worker(worker_id)
                replacement.wait_ready(READY_TIMEOUT_S)

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Drain the fleet: ingress first, then workers, kill stragglers."""
        self._shutting_down = True
        deadline = clock.now() + timeout_s
        if self.ingress is not None:
            self.ingress.terminate()
            if self.ingress.wait(max(0.1, deadline - clock.now())) is None:
                self.ingress.kill()
                self.ingress.wait(5.0)
        for child in self.workers.values():
            child.terminate()
        for child in self.workers.values():
            if child.wait(max(0.1, deadline - clock.now())) is None:
                child.kill()
                child.wait(5.0)

    def run_forever(self, poll_interval_s: float = 0.5) -> None:
        """Monitor loop used by the CLI: poll until told to shut down."""
        stop = threading.Event()

        def _on_signal(signum, frame) -> None:
            stop.set()

        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
            signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
        }
        try:
            while not stop.is_set():
                self.poll()
                stop.wait(poll_interval_s)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.shutdown()
