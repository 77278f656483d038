"""In-memory key-value store with namespaces and versioning.

The paper stores per-user / per-session selection-policy state in Redis
(§5.3).  This module provides the same role for the reproduction: a
thread-safe in-memory store with

* namespaced keys (``namespace, key`` pairs, like Redis key prefixes),
* a monotonically increasing version per entry enabling optimistic
  concurrency (``put_if_version``), and
* simple scan/keys operations for diagnostics.

Versions are drawn from one store-wide monotonic sequence, so a version
number is never reissued, not even after a ``delete``.  That makes the
compare-and-swap ABA-safe: a writer holding a version observed before an
entry was deleted and re-created can never win ``put_if_version`` against
the re-created entry, because the new entry necessarily carries a strictly
larger version.

Values are stored by reference; callers that need isolation should store
copies (the selection-state manager stores small plain dicts).

Subclasses adding durability hook :meth:`KeyValueStore._on_commit`, which
is invoked under the store lock with a description of every applied
mutation (in apply order), giving a journal exactly as serialized as the
store itself — see :class:`repro.state.durable.DurableKeyValueStore`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.exceptions import StateStoreError


@dataclass
class _Entry:
    value: Any
    version: int


class KeyValueStore:
    """Thread-safe namespaced in-memory key-value store."""

    def __init__(self) -> None:
        self._data: Dict[Tuple[str, str], _Entry] = {}
        self._lock = threading.Lock()
        # Store-wide monotonic sequence: every mutation consumes one number,
        # and entry versions are the sequence value of their last write.
        self._seq = 0

    # -- journaling hook -------------------------------------------------------

    def _on_commit(
        self,
        op: str,
        seq: int,
        namespace: Optional[str],
        key: Optional[str],
        value: Any,
    ) -> None:
        """Called under the store lock after each applied mutation.

        ``op`` is ``"put"`` (covering both :meth:`put` and a successful
        :meth:`put_if_version`, with ``seq`` the entry's new version),
        ``"del"`` or ``"clear"`` (where ``namespace`` may be None for a
        full clear).  The base store journals nothing.
        """

    # -- basic operations ----------------------------------------------------

    def put(self, namespace: str, key: str, value: Any) -> int:
        """Store ``value``; returns the entry's new version number.

        Versions come from the store-wide monotonic sequence: they strictly
        increase per key but are not required to be contiguous.
        """
        self._validate(namespace, key)
        with self._lock:
            self._seq += 1
            version = self._seq
            self._data[(namespace, key)] = _Entry(value, version)
            self._on_commit("put", version, namespace, key, value)
            return version

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        """Return the stored value, or ``default`` if absent.

        One ``dict.get``, atomic under the GIL and taken without the lock:
        entries are replaced, never mutated, so a reader sees the value
        before or after a concurrent write, never a mix.  Only a stored key
        can be found, so the arguments are validated on a miss alone.
        """
        entry = self._data.get((namespace, key))
        if entry is not None:
            return entry.value
        self._validate(namespace, key)
        return default

    def get_with_version(self, namespace: str, key: str) -> Tuple[Any, Optional[int]]:
        """Return ``(value, version)``; version is ``None`` when absent."""
        self._validate(namespace, key)
        with self._lock:
            entry = self._data.get((namespace, key))
            if entry is None:
                return None, None
            return entry.value, entry.version

    def put_if_version(
        self, namespace: str, key: str, value: Any, expected_version: Optional[int]
    ) -> bool:
        """Optimistic update: store only if the current version matches.

        ``expected_version=None`` means "only insert if the key is absent".
        Returns True on success.  An insert after a delete succeeds with a
        version strictly greater than any the key ever carried, so a CAS
        against the deleted entry's version can never win.
        """
        self._validate(namespace, key)
        with self._lock:
            entry = self._data.get((namespace, key))
            current_version = None if entry is None else entry.version
            if current_version != expected_version:
                return False
            self._seq += 1
            version = self._seq
            self._data[(namespace, key)] = _Entry(value, version)
            self._on_commit("put", version, namespace, key, value)
            return True

    def delete(self, namespace: str, key: str) -> bool:
        """Remove a key; returns True when something was removed."""
        self._validate(namespace, key)
        with self._lock:
            removed = self._data.pop((namespace, key), None) is not None
            if removed:
                self._seq += 1
                self._on_commit("del", self._seq, namespace, key, None)
            return removed

    def contains(self, namespace: str, key: str) -> bool:
        sentinel = object()
        return self.get(namespace, key, sentinel) is not sentinel

    # -- scanning --------------------------------------------------------------

    def keys(self, namespace: str) -> List[str]:
        """All keys in one namespace."""
        with self._lock:
            return sorted(key for (ns, key) in self._data if ns == namespace)

    def namespaces(self) -> List[str]:
        with self._lock:
            return sorted({ns for (ns, _) in self._data})

    def size(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self, namespace: Optional[str] = None) -> None:
        """Remove everything, or only one namespace's entries."""
        with self._lock:
            if namespace is None:
                changed = bool(self._data)
                self._data.clear()
            else:
                doomed = [k for k in self._data if k[0] == namespace]
                changed = bool(doomed)
                for key in doomed:
                    del self._data[key]
            if changed:
                self._seq += 1
                self._on_commit("clear", self._seq, namespace, None, None)

    @staticmethod
    def _validate(namespace: str, key: str) -> None:
        if not namespace or not isinstance(namespace, str):
            raise StateStoreError("namespace must be a non-empty string")
        if not key or not isinstance(key, str):
            raise StateStoreError("key must be a non-empty string")
