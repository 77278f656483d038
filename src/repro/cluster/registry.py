"""The shared on-disk worker registry.

Workers advertise themselves to the cluster by writing one durable JSON
record each into a shared directory; the ingress (and the supervisor)
discover live workers by scanning the same directory.  Heartbeats are
re-announcements with a fresh ``heartbeat_at``, and each worker announces
its own liveness TTL: a worker whose ``heartbeat_at`` stops changing for
longer than that (crash, SIGKILL, partition) silently ages out of
:meth:`WorkerRegistry.live_workers`.

Why files, not the WAL-backed :class:`~repro.state.durable.DurableKeyValueStore`:
the WAL is strictly single-writer, and the registry has one writer *per
record* but many writers per directory.  One file per worker, replaced
with :func:`~repro.state.durable.write_atomic`, gives each record exactly
one writer — a last-writer-wins register per worker — so concurrent
announcements never interleave and a torn write is impossible to observe.
That single-writer-per-key shape is deliberately the one a replicated
registry (PAPERS.md, "Verifying Strong Eventual Consistency") can later
replace: LWW registers keyed by worker id converge trivially.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import clock
from repro.state.durable import write_atomic

#: Subdirectory of the cluster dir holding one announcement file per worker.
WORKERS_SUBDIR = "workers"

#: Default liveness TTL a worker announces: readers count it dead once its
#: heartbeat has not changed for this many seconds.  Workers heartbeat at a
#: small fraction of it.
DEFAULT_TTL_S = 5.0


@dataclass
class WorkerAnnouncement:
    """One worker's advertisement: identity, endpoints, and liveness stamp."""

    worker_id: str
    host: str
    pid: int
    tcp_host: str
    tcp_port: int
    shm_supported: bool = False
    ttl_s: float = DEFAULT_TTL_S
    heartbeat_at: float = 0.0

    def to_record(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_record(record: dict) -> "WorkerAnnouncement":
        return WorkerAnnouncement(
            worker_id=str(record["worker_id"]),
            host=str(record["host"]),
            pid=int(record["pid"]),
            tcp_host=str(record["tcp_host"]),
            tcp_port=int(record["tcp_port"]),
            shm_supported=bool(record.get("shm_supported", False)),
            ttl_s=float(record.get("ttl_s", DEFAULT_TTL_S)),
            heartbeat_at=float(record.get("heartbeat_at", 0.0)),
        )

    def same_host_as(self, hostname: Optional[str] = None) -> bool:
        """Whether this worker runs on the given (default: local) host."""
        return self.host == (hostname or socket.gethostname())


class WorkerRegistry:
    """Durable worker announcements in a shared cluster directory."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self._workers_dir = os.path.join(self.directory, WORKERS_SUBDIR)
        os.makedirs(self._workers_dir, exist_ok=True)
        #: worker id -> (its last ``heartbeat_at``, monotonic time it changed)
        self._beats: Dict[str, Tuple[float, float]] = {}
        self._scanned_at = float("-inf")  # monotonic time of the last scan

    def _path_for(self, worker_id: str) -> str:
        if not worker_id or "/" in worker_id or worker_id.startswith("."):
            raise ValueError(f"invalid worker id {worker_id!r}")
        return os.path.join(self._workers_dir, f"{worker_id}.json")

    # -- the worker side ---------------------------------------------------------

    def announce(self, announcement: WorkerAnnouncement) -> None:
        """Durably publish (or refresh) one worker's announcement."""
        announcement.heartbeat_at = clock.wall()
        record = json.dumps(announcement.to_record(), separators=(",", ":"))
        write_atomic(self._path_for(announcement.worker_id), record.encode("utf-8"))

    def withdraw(self, worker_id: str) -> None:
        """Remove a worker's announcement (graceful shutdown)."""
        try:
            os.remove(self._path_for(worker_id))
        except FileNotFoundError:
            pass

    # -- the ingress / supervisor side -------------------------------------------

    def workers(self) -> Dict[str, WorkerAnnouncement]:
        """Every parseable announcement on disk, live or stale."""
        found: Dict[str, WorkerAnnouncement] = {}
        try:
            names = os.listdir(self._workers_dir)
        except FileNotFoundError:
            return found
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._workers_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                announcement = WorkerAnnouncement.from_record(record)
            except (OSError, ValueError, KeyError, TypeError):
                continue  # mid-replace race or junk file; skip this scan
            found[announcement.worker_id] = announcement
        return found

    def live_workers(self) -> List[WorkerAnnouncement]:
        """Workers heard from within their announced TTL, sorted by id.

        A worker's age is the monotonic time since this reader saw its
        ``heartbeat_at`` change, so between scans closer together than the
        TTL a step of either host's wall clock moves no worker in or out.
        The wall clock places a heartbeat this reader cannot date itself: at
        first sight, or when it changed since a scan older than the TTL (the
        worker may have died long after that scan and long before this one).
        """
        now = clock.now()
        since_scan = now - self._scanned_at
        beats: Dict[str, Tuple[float, float]] = {}
        live = []
        for worker_id, announcement in sorted(self.workers().items()):
            beat = announcement.heartbeat_at
            last = self._beats.get(worker_id)
            if last is not None and last[0] == beat:
                changed_at = last[1]
            elif last is not None and since_scan <= announcement.ttl_s:
                changed_at = now
            else:
                changed_at = now - max(0.0, clock.wall() - beat)
            beats[worker_id] = (beat, changed_at)
            if now - changed_at <= announcement.ttl_s:
                live.append(announcement)
        self._beats = beats
        self._scanned_at = now
        return live
