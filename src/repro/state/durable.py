"""Durable key-value store: the in-memory store plus a write-ahead log.

:class:`DurableKeyValueStore` is a drop-in :class:`KeyValueStore` whose
every mutation is journaled to an append-only, CRC-framed WAL
(:mod:`repro.state.wal`) before the call returns, and which rebuilds its
full state — entries, versions, the CAS sequence — from
disk on construction.  The in-memory store stays the default everywhere;
this tier exists for state that must survive a crash: the management
plane's registry of applications, model versions, replica counts, traffic
splits and canary lifecycle, which is exactly what
:meth:`repro.management.frontend.ManagementFrontend.restore_application`
replays after a restart.

Layout (one directory per store)::

    <directory>/snapshot.json   # last compaction: full state at one seq
    <directory>/wal.log         # every mutation since that snapshot

Records carry the store-wide mutation sequence number, so replay after an
interrupted compaction is idempotent: records at or below the snapshot's
sequence are skipped.  A snapshot row is ``[namespace, key, value,
version]``; rows written before TTLs were removed carry a fifth slot that
was always null, and load the same.

Values must be JSON-serializable (numpy scalars are unwrapped); a put of
an unserializable value raises :class:`StateStoreError` *before* touching
the in-memory state, so the store and its journal can never diverge.

:func:`write_atomic` is the one whole-file replace of the repo: the
snapshot lands through it, and so does each cluster worker's announcement.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.exceptions import StateStoreError
from repro.state.kvstore import KeyValueStore, _Entry
from repro.state.wal import WalRecovery, WalWriter, read_records

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.log"


def write_atomic(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``: tmp + fsync + rename + directory fsync.

    Readers see the old file or the new one, never a mix.  Any failure
    (a full disk raising from ``fsync`` included) removes the tmp file and
    re-raises, leaving the previous file — or none — in place.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
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
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; the rename is still atomic
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _json_default(value: Any) -> Any:
    # Unwrap numpy scalars (np.float64 etc.) without importing numpy here.
    item = getattr(value, "item", None)
    if callable(item) and type(value).__module__ == "numpy":
        return item()
    raise TypeError(
        f"value of type {type(value).__name__} is not JSON-serializable"
    )


def _encode(record: Any) -> bytes:
    try:
        return json.dumps(
            record, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StateStoreError(
            f"durable store requires JSON-serializable values: {exc}"
        ) from None


@dataclass
class StoreRecovery:
    """What one cold start found on disk (surfaced through health APIs)."""

    snapshot_entries: int = 0
    snapshot_seq: int = 0
    wal_records: int = 0
    replayed: int = 0
    skipped: int = 0
    wal: WalRecovery = field(default_factory=WalRecovery)

    @property
    def clean(self) -> bool:
        """True when nothing had to be repaired (no torn tail)."""
        return not self.wal.truncated

    def to_dict(self) -> dict:
        return {
            "snapshot_entries": self.snapshot_entries,
            "snapshot_seq": self.snapshot_seq,
            "wal_records": self.wal_records,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "clean": self.clean,
            "wal": self.wal.to_dict(),
        }


class DurableKeyValueStore(KeyValueStore):
    """A :class:`KeyValueStore` journaled to a write-ahead log.

    Parameters
    ----------
    directory:
        Home of the snapshot and WAL files; created when missing.  Opening
        a directory with existing files restores their state.
    fsync:
        The WAL durability policy (see :mod:`repro.state.wal`).
    auto_compact_records:
        When set, a snapshot is taken (and the WAL truncated) automatically
        once this many records accumulate since the last compaction.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "always",
        auto_compact_records: Optional[int] = None,
    ) -> None:
        super().__init__()
        # Compaction can be triggered from inside the commit hook (which
        # runs under the store lock), so the lock must be reentrant.
        self._lock = threading.RLock()
        self.directory = directory
        self._auto_compact = auto_compact_records
        self._records_since_compact = 0
        os.makedirs(directory, exist_ok=True)
        self._snapshot_path = os.path.join(directory, SNAPSHOT_FILE)
        self._wal_path = os.path.join(directory, WAL_FILE)
        self.recovery = self._load()
        self.wal = WalWriter(self._wal_path, fsync=fsync)
        self._replaying = False

    # -- recovery --------------------------------------------------------------

    def _load(self) -> StoreRecovery:
        recovery = StoreRecovery()
        max_seq = 0

        if os.path.exists(self._snapshot_path):
            try:
                with open(self._snapshot_path, "r", encoding="utf-8") as handle:
                    snapshot = json.load(handle)
            except (OSError, ValueError) as exc:
                # The snapshot is written via atomic rename, so a broken one
                # is not a crash artefact — refuse to silently drop state.
                raise StateStoreError(
                    f"corrupt snapshot at '{self._snapshot_path}': {exc}"
                ) from None
            recovery.snapshot_seq = int(snapshot.get("seq", 0))
            max_seq = recovery.snapshot_seq
            for ns, key, value, version, *_ in snapshot.get("entries", []):
                recovery.snapshot_entries += 1
                max_seq = max(max_seq, int(version))
                self._data[(ns, key)] = _Entry(value, int(version))

        records, recovery.wal = read_records(self._wal_path)
        recovery.wal_records = len(records)
        if recovery.wal.truncated:
            # Repair the tail: cut the log back to its last valid frame so
            # new appends continue from there instead of hiding behind the
            # torn bytes (which would doom every later record on next load).
            with open(self._wal_path, "rb+") as handle:
                handle.truncate(recovery.wal.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        for raw in records:
            record = json.loads(raw.decode("utf-8"))
            seq = int(record["seq"])
            max_seq = max(max_seq, seq)
            if seq <= recovery.snapshot_seq:
                # A crash between snapshot rename and WAL truncation leaves
                # already-compacted records behind; replay stays idempotent.
                recovery.skipped += 1
                continue
            recovery.replayed += 1
            op = record["op"]
            if op == "put":
                self._data[(record["ns"], record["key"])] = _Entry(record["value"], seq)
            elif op == "del":
                self._data.pop((record["ns"], record["key"]), None)
            elif op == "clear":
                ns = record.get("ns")
                if ns is None:
                    self._data.clear()
                else:
                    for doomed in [k for k in self._data if k[0] == ns]:
                        del self._data[doomed]
        self._seq = max_seq
        return recovery

    # -- journaling ------------------------------------------------------------

    def put(self, namespace, key, value):
        _encode(value)  # refuse unserializable values before mutating
        return super().put(namespace, key, value)

    def put_if_version(self, namespace, key, value, expected_version):
        _encode(value)
        return super().put_if_version(namespace, key, value, expected_version)

    def _on_commit(self, op, seq, namespace, key, value):
        record = {"op": op, "seq": seq, "ns": namespace}
        if op != "clear":
            record["key"] = key
        if op == "put":
            record["value"] = value
        self.wal.append(_encode(record))
        self._records_since_compact += 1
        if (
            self._auto_compact is not None
            and self._records_since_compact >= self._auto_compact
        ):
            self.compact()

    # -- compaction ------------------------------------------------------------

    def compact(self) -> int:
        """Snapshot the full state and truncate the WAL; returns entry count.

        The snapshot lands via :func:`write_atomic`, then the WAL is
        truncated.  A crash between the two steps is safe: the leftover
        records carry sequence numbers at or below the snapshot's and are
        skipped on the next load.  A failed snapshot write leaves the old
        snapshot and the WAL as they were.
        """
        with self._lock:
            entries: List[list] = [
                [ns, key, entry.value, entry.version]
                for (ns, key), entry in self._data.items()
            ]
            write_atomic(self._snapshot_path, _encode({"seq": self._seq, "entries": entries}))
            self.wal.reset()
            self._records_since_compact = 0
            return len(entries)

    # -- lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """Force journaled records to disk regardless of the fsync policy."""
        self.wal.sync()

    def close(self) -> None:
        """Flush and close the journal (the store stays readable)."""
        self.wal.close()

    def __enter__(self) -> "DurableKeyValueStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
