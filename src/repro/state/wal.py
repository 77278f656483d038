"""Append-only, CRC-framed write-ahead log.

The durability tier's lowest layer: a :class:`WalWriter` appends opaque
payloads to a log file, each wrapped in a fixed frame::

    magic (2 bytes) | payload length (4 bytes BE) | crc32 (4 bytes BE) | payload

and :func:`read_records` replays them back, treating the first frame that
fails validation as the end of the log.  That is exactly the recovery
semantics a crash demands: a process killed mid-append leaves a torn or
truncated final frame, and the loader must drop it (and anything after it)
rather than refuse the whole log — the records before the tear were
acknowledged and must survive.  The loader reports what it dropped in a
:class:`WalRecovery` so callers can surface the repair instead of hiding it.

Every append is flushed to the OS, so a process crash (the ``kill -9``
case) loses nothing acknowledged.  With ``fsync=True`` (the default) it is
also ``os.fsync``-ed — an acknowledged write survives a machine crash, at
the cost of one disk flush per mutation; ``fsync=False`` skips that flush,
which is enough for the crash-injection tests.

``fault_hook`` is the crash-injection seam: when set, every frame passes
through it before touching the file.  A hook may return a truncated frame
(simulating a torn write), raise, or simply ``os._exit`` — the chaos tests
use it to die at named byte offsets.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.exceptions import StateStoreError

#: Frame magic: lets the loader distinguish "torn tail" from "not a WAL".
MAGIC = b"WR"

_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32

#: Refuse absurd lengths instead of attempting a multi-gigabyte read when a
#: corrupt length field happens to pass the magic check.
MAX_RECORD_BYTES = 64 * 1024 * 1024


@dataclass
class WalRecovery:
    """What :func:`read_records` found — and what it had to drop."""

    records: int = 0
    valid_bytes: int = 0
    dropped_bytes: int = 0
    truncated: bool = False
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "valid_bytes": self.valid_bytes,
            "dropped_bytes": self.dropped_bytes,
            "truncated": self.truncated,
            "reason": self.reason,
        }


def frame(payload: bytes) -> bytes:
    """Wrap one payload in the WAL frame (magic, length, CRC)."""
    if len(payload) > MAX_RECORD_BYTES:
        raise StateStoreError(
            f"WAL record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit"
        )
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def read_records(path: str) -> Tuple[List[bytes], WalRecovery]:
    """Replay every valid record of one log file, tolerating a torn tail.

    Validation walks frame by frame; the first frame whose magic, length,
    or CRC fails marks the end of the log.  Everything before it is
    returned, everything from it on is reported as dropped in the
    :class:`WalRecovery`.  A missing file is an empty log.
    """
    recovery = WalRecovery()
    records: List[bytes] = []
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return records, recovery
    offset = 0
    total = len(data)
    while offset < total:
        header = data[offset: offset + _HEADER.size]
        if len(header) < _HEADER.size:
            recovery.truncated = True
            recovery.reason = "truncated frame header at tail"
            break
        magic, length, crc = _HEADER.unpack(header)
        if magic != MAGIC or length > MAX_RECORD_BYTES:
            recovery.truncated = True
            recovery.reason = f"invalid frame header at byte {offset}"
            break
        start = offset + _HEADER.size
        payload = data[start: start + length]
        if len(payload) < length:
            recovery.truncated = True
            recovery.reason = "torn record at tail"
            break
        if zlib.crc32(payload) != crc:
            recovery.truncated = True
            recovery.reason = f"CRC mismatch at byte {offset}"
            break
        records.append(payload)
        offset = start + length
        recovery.records += 1
        recovery.valid_bytes = offset
    recovery.dropped_bytes = total - recovery.valid_bytes
    return records, recovery


@dataclass
class WalWriter:
    """Appends framed records to one log file.

    Opens lazily in binary-append mode; callers serialize access (the
    durable store appends under its own lock).
    """

    path: str
    #: ``os.fsync`` after every append (survives a machine crash).
    fsync: bool = True
    #: Crash-injection seam: maps the frame about to be written to the bytes
    #: actually written.  May raise or exit instead of returning.
    fault_hook: Optional[Callable[[bytes], bytes]] = None
    _handle: Optional[object] = field(default=None, repr=False)

    def _file(self):
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, payload: bytes) -> None:
        """Frame and append one record, fsync-ed when :attr:`fsync` says so."""
        data = frame(payload)
        if self.fault_hook is not None:
            data = self.fault_hook(data)
        handle = self._file()
        handle.write(data)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def sync(self) -> None:
        """Force everything written so far to disk."""
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    @property
    def size(self) -> int:
        """Bytes currently in the log file (0 when absent)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            self._handle.close()
        self._handle = None

    def reset(self) -> None:
        """Truncate the log to empty (used after a snapshot compacts it)."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
