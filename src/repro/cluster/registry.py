"""The shared on-disk worker registry.

Workers advertise themselves to the cluster by writing one durable JSON
record each into a shared directory; the ingress (and the supervisor)
discover live workers by scanning the same directory.  Heartbeats are
re-announcements with a fresh timestamp, and liveness is a TTL over that
timestamp — a worker that stops heartbeating (crash, SIGKILL, partition)
silently ages out of :meth:`WorkerRegistry.live_workers`.

Why files, not the WAL-backed :class:`~repro.state.durable.DurableKeyValueStore`:
the WAL is strictly single-writer, and the registry has one writer *per
record* but many writers per directory.  One file per worker, written with
the repo's tmp + fsync + atomic-rename discipline, gives each record exactly
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
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: Subdirectory of the cluster dir holding one announcement file per worker.
WORKERS_SUBDIR = "workers"

#: Default liveness TTL: a worker whose announcement is older than this many
#: seconds is considered dead.  Workers heartbeat at a small fraction of it.
DEFAULT_TTL_S = 5.0


def write_json_atomic(path: str, record: dict) -> None:
    """Replace ``path`` with ``record`` as JSON: tmp + fsync + atomic rename.

    Readers only ever observe a complete record; a failed write leaves the
    previous file (or nothing) and no tmp file.  The directory is not
    fsynced: a rename lost to a power cut costs one heartbeat.
    """
    data = json.dumps(record, separators=(",", ":"))
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


@dataclass
class WorkerAnnouncement:
    """One worker's advertisement: identity, endpoints, and liveness stamp."""

    worker_id: str
    host: str
    pid: int
    tcp_host: str
    tcp_port: int
    shm_supported: bool = False
    started_at: float = 0.0
    heartbeat_at: float = 0.0
    models: List[str] = field(default_factory=list)

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
            started_at=float(record.get("started_at", 0.0)),
            heartbeat_at=float(record.get("heartbeat_at", 0.0)),
            models=list(record.get("models", [])),
        )

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat."""
        return (now if now is not None else time.time()) - self.heartbeat_at

    def same_host_as(self, hostname: Optional[str] = None) -> bool:
        """Whether this worker runs on the given (default: local) host."""
        return self.host == (hostname or socket.gethostname())


class WorkerRegistry:
    """Durable worker announcements in a shared cluster directory."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self._workers_dir = os.path.join(self.directory, WORKERS_SUBDIR)
        os.makedirs(self._workers_dir, exist_ok=True)

    def _path_for(self, worker_id: str) -> str:
        if not worker_id or "/" in worker_id or worker_id.startswith("."):
            raise ValueError(f"invalid worker id {worker_id!r}")
        return os.path.join(self._workers_dir, f"{worker_id}.json")

    # -- the worker side ---------------------------------------------------------

    def announce(self, announcement: WorkerAnnouncement) -> None:
        """Durably publish (or refresh) one worker's announcement."""
        announcement.heartbeat_at = time.time()
        if not announcement.started_at:
            announcement.started_at = announcement.heartbeat_at
        write_json_atomic(self._path_for(announcement.worker_id), announcement.to_record())

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

    def live_workers(self, ttl_s: float = DEFAULT_TTL_S) -> List[WorkerAnnouncement]:
        """Workers whose last heartbeat is within ``ttl_s``, sorted by id."""
        now = time.time()
        return [
            announcement
            for worker_id, announcement in sorted(self.workers().items())
            if announcement.age_s(now) <= ttl_s
        ]

    def worker(self, worker_id: str) -> Optional[WorkerAnnouncement]:
        """One worker's announcement, or None when it never announced."""
        return self.workers().get(worker_id)


__all__ = ["DEFAULT_TTL_S", "WorkerAnnouncement", "WorkerRegistry", "write_json_atomic"]
