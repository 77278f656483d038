"""Durability tier: WAL framing, torn tails, snapshots, and restore fidelity."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.exceptions import StateStoreError
from repro.state.durable import DurableKeyValueStore, write_atomic
from repro.state.kvstore import KeyValueStore
from repro.state.wal import MAGIC, WalWriter, frame, read_records


def _disk_full(fd):
    raise OSError(28, "No space left on device")


def wal_path(directory):
    return os.path.join(str(directory), "wal.log")


def entries(store):
    """Every ``(namespace, key)`` the store holds."""
    return [(ns, key) for ns in store.namespaces() for key in store.keys(ns)]


class TestWalFraming:
    def test_round_trip(self, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, fsync=False)
        payloads = [b"one", b"two", b"", b"x" * 10_000]
        for payload in payloads:
            writer.append(payload)
        writer.close()
        records, recovery = read_records(path)
        assert records == payloads
        assert recovery.records == len(payloads)
        assert not recovery.truncated
        assert recovery.dropped_bytes == 0

    def test_missing_file_is_empty_log(self, tmp_path):
        records, recovery = read_records(wal_path(tmp_path))
        assert records == []
        assert not recovery.truncated

    @pytest.mark.parametrize(
        "kwargs, synced",
        [({}, 3), ({"fsync": True}, 3), ({"fsync": False}, 0)],
        ids=["default", "on", "off"],
    )
    def test_fsync_flushes_each_append_to_disk_only_when_set(
        self, tmp_path, monkeypatch, kwargs, synced
    ):
        calls = []
        monkeypatch.setattr(os, "fsync", calls.append)
        writer = WalWriter(wal_path(tmp_path), **kwargs)
        for payload in (b"a", b"b", b"c"):
            writer.append(payload)
        writer.close()
        assert len(calls) == synced
        assert read_records(wal_path(tmp_path))[0] == [b"a", b"b", b"c"]

    def test_torn_final_record_dropped(self, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, fsync=False)
        writer.append(b"intact")
        writer.close()
        # A crash mid-append leaves a half-written frame at the tail.
        torn = frame(b"this record was torn mid-write")[:-7]
        with open(path, "ab") as handle:
            handle.write(torn)
        records, recovery = read_records(path)
        assert records == [b"intact"]
        assert recovery.truncated
        assert recovery.dropped_bytes == len(torn)
        assert "torn" in recovery.reason

    def test_truncated_header_at_tail(self, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, fsync=False)
        writer.append(b"intact")
        writer.close()
        with open(path, "ab") as handle:
            handle.write(MAGIC + b"\x00")  # not even a full header
        records, recovery = read_records(path)
        assert records == [b"intact"]
        assert recovery.truncated
        assert "header" in recovery.reason

    def test_corrupt_crc_ends_the_log(self, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, fsync=False)
        writer.append(b"first")
        writer.append(b"second")
        writer.append(b"third")
        writer.close()
        # Flip one payload byte of the second record: its CRC no longer
        # matches, so it and everything after it must be dropped.
        first_len = len(frame(b"first"))
        data = bytearray(open(path, "rb").read())
        data[first_len + 10 + 3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        records, recovery = read_records(path)
        assert records == [b"first"]
        assert recovery.truncated
        assert "CRC" in recovery.reason
        assert recovery.dropped_bytes > 0

    def test_garbage_magic_ends_the_log(self, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, fsync=False)
        writer.append(b"good")
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"ZZ" + b"\x00" * 20)
        records, recovery = read_records(path)
        assert records == [b"good"]
        assert recovery.truncated
        assert "invalid frame header" in recovery.reason


class TestDurableStore:
    def make(self, tmp_path, **kwargs):
        kwargs.setdefault("fsync", False)
        return DurableKeyValueStore(str(tmp_path), **kwargs)

    def test_restart_restores_everything(self, tmp_path):
        store = self.make(tmp_path)
        v1 = store.put("management", "applications", {"app": {"x": 1}})
        assert store.put_if_version("management", "applications", {"app": {"x": 2}}, v1)
        store.put("other", "key", [1, 2, 3])
        store.put("other", "doomed", "bye")
        store.delete("other", "doomed")
        store.close()

        reopened = self.make(tmp_path)
        assert reopened.get("management", "applications") == {"app": {"x": 2}}
        assert reopened.get("other", "key") == [1, 2, 3]
        assert ("other", "doomed") not in entries(reopened)
        assert reopened.recovery.clean
        assert reopened.recovery.replayed == 5

    def test_versions_and_cas_survive_restart(self, tmp_path):
        store = self.make(tmp_path)
        store.put("ns", "k", "a")
        _, version = store.get_with_version("ns", "k")
        store.close()

        reopened = self.make(tmp_path)
        _, recovered_version = reopened.get_with_version("ns", "k")
        assert recovered_version == version
        # CAS against the pre-crash version must succeed exactly once.
        assert reopened.put_if_version("ns", "k", "b", recovered_version)
        assert not reopened.put_if_version("ns", "k", "c", recovered_version)

    @pytest.mark.parametrize("compact", [False, True], ids=["wal", "snapshot"])
    def test_a_version_is_never_reissued_across_a_restart(self, tmp_path, compact):
        store = self.make(tmp_path)
        old = store.put("ns", "k", 1)
        store.delete("ns", "k")
        if compact:
            store.compact()
        store.close()

        reopened = self.make(tmp_path)
        assert not reopened.put_if_version("ns", "k", 2, old)
        assert reopened.put_if_version("ns", "k", 2, None)
        _, version = reopened.get_with_version("ns", "k")
        assert version > old + 1  # the delete consumed a number too

    def test_torn_tail_loses_only_final_record(self, tmp_path):
        store = self.make(tmp_path)
        store.put("ns", "committed", 1)
        store.close()
        torn = frame(json.dumps({"op": "put", "seq": 99, "ns": "ns",
                                 "key": "lost", "value": 2}).encode())[:-3]
        with open(wal_path(tmp_path), "ab") as handle:
            handle.write(torn)

        reopened = self.make(tmp_path)
        assert reopened.get("ns", "committed") == 1
        assert ("ns", "lost") not in entries(reopened)
        assert not reopened.recovery.clean
        assert reopened.recovery.wal.truncated
        # Appending after the repair must produce a readable log again.
        reopened.put("ns", "after", 3)
        reopened.close()
        final = self.make(tmp_path)
        assert final.get("ns", "after") == 3

    def test_snapshot_replay_equivalence(self, tmp_path):
        store = self.make(tmp_path)
        for i in range(10):
            store.put("ns", f"k{i}", i)
        store.delete("ns", "k3")
        expected = {key: store.get("ns", key) for key in store.keys("ns")}

        replayed = self.make(tmp_path / "copy")  # fresh dir: emptiness sanity
        assert len(entries(replayed)) == 0

        # State rebuilt purely from the WAL...
        from_wal = self.make(tmp_path)
        assert {k: from_wal.get("ns", k) for k in from_wal.keys("ns")} == expected
        # ...equals state rebuilt from snapshot (+ empty WAL) after compaction.
        from_wal.compact()
        assert from_wal.wal.size == 0
        from_wal.close()
        from_snapshot = self.make(tmp_path)
        assert from_snapshot.recovery.snapshot_entries == 9
        assert from_snapshot.recovery.wal_records == 0
        assert {
            k: from_snapshot.get("ns", k) for k in from_snapshot.keys("ns")
        } == expected

    def test_interrupted_compaction_replay_is_idempotent(self, tmp_path):
        store = self.make(tmp_path)
        store.put("ns", "a", 1)
        store.put("ns", "b", 2)
        # Simulate a crash after the snapshot renamed but before the WAL was
        # truncated: take the snapshot, then put the journaled records back.
        wal_before = open(wal_path(tmp_path), "rb").read()
        store.compact()
        store.close()
        with open(wal_path(tmp_path), "wb") as handle:
            handle.write(wal_before)

        reopened = self.make(tmp_path)
        # The leftover records carry seqs <= the snapshot's and are skipped.
        assert reopened.recovery.skipped == 2
        assert reopened.recovery.replayed == 0
        assert reopened.get("ns", "a") == 1
        assert reopened.get("ns", "b") == 2
        _, version = reopened.get_with_version("ns", "b")
        assert reopened.put_if_version("ns", "b", 3, version)

    def test_auto_compaction_truncates_wal(self, tmp_path):
        store = self.make(tmp_path, auto_compact_records=5)
        for i in range(12):
            store.put("ns", f"k{i}", i)
        # Two automatic compactions have run; the WAL holds < 5 records.
        records, _ = read_records(wal_path(tmp_path))
        assert len(records) < 5
        store.close()
        reopened = self.make(tmp_path)
        assert len(entries(reopened)) == 12

    def test_directory_written_before_ttls_were_removed_loads_the_same(self, tmp_path):
        """Snapshot rows used to carry a fifth, ttl slot and the snapshot a
        ``wall`` stamp; nothing ever wrote a ttl, so the slot is always null
        and WAL records never had the key.  (Bytes as the parent commit wrote
        them for put a / put b / put c / delete b / compact / put a /
        insert d / clear other.)"""
        with open(os.path.join(str(tmp_path), "snapshot.json"), "w") as handle:
            handle.write(
                '{"seq":4,"wall":1790509262.854948,"entries":'
                '[["ns","a",{"w":[1,2.5]},1,null],["other","c",3,3,null]]}'
            )
        writer = WalWriter(wal_path(tmp_path), fsync=False)
        for record in (
            b'{"op":"put","seq":5,"ns":"ns","key":"a","value":{"w":[2]}}',
            b'{"op":"put","seq":6,"ns":"ns","key":"d","value":true}',
            b'{"op":"clear","seq":7,"ns":"other"}',
        ):
            writer.append(record)
        writer.close()
        store = self.make(tmp_path)
        assert store.recovery.snapshot_entries == 2 and store.recovery.replayed == 3
        assert store.namespaces() == ["ns"] and store.keys("ns") == ["a", "d"]
        assert store.get_with_version("ns", "a") == ({"w": [2]}, 5)
        assert store.get_with_version("ns", "d") == (True, 6)
        assert store.put("ns", "e", 0) == 8  # the sequence resumes after the clear
        # ... and what this store compacts, it loads again.
        store.compact()
        store.close()
        reopened = self.make(tmp_path)
        assert reopened.get_with_version("ns", "a") == ({"w": [2]}, 5)
        assert reopened.get_with_version("ns", "e") == (0, 8)

    def test_failed_snapshot_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        store = self.make(tmp_path)
        store.put("ns", "a", 1)
        store.compact()
        store.put("ns", "b", 2)

        monkeypatch.setattr(os, "fsync", _disk_full)
        with pytest.raises(OSError):
            store.compact()
        monkeypatch.undo()

        assert sorted(os.listdir(str(tmp_path))) == ["snapshot.json", "wal.log"]
        store.close()
        reopened = self.make(tmp_path)
        assert {k: reopened.get("ns", k) for k in reopened.keys("ns")} == {"a": 1, "b": 2}

    def test_unserializable_value_rejected_before_mutation(self, tmp_path):
        store = self.make(tmp_path)
        store.put("ns", "k", 1)
        with pytest.raises(StateStoreError):
            store.put("ns", "k", object())
        assert store.get("ns", "k") == 1  # store and journal both untouched
        store.close()
        assert len(entries(self.make(tmp_path / "b"))) == 0
        reopened = self.make(tmp_path)
        assert reopened.get("ns", "k") == 1

    def test_numpy_scalars_round_trip_as_numbers(self, tmp_path):
        np = pytest.importorskip("numpy")
        store = self.make(tmp_path)
        store.put("ns", "f", np.float64(0.5))
        store.put("ns", "i", np.int64(7))
        store.close()
        reopened = self.make(tmp_path)
        assert reopened.get("ns", "f") == 0.5
        assert reopened.get("ns", "i") == 7

    def test_clear_is_journaled(self, tmp_path):
        store = self.make(tmp_path)
        store.put("a", "k", 1)
        store.put("b", "k", 2)
        store.clear("a")
        store.close()
        reopened = self.make(tmp_path)
        assert ("a", "k") not in entries(reopened)
        assert reopened.get("b", "k") == 2

    def test_drop_in_for_in_memory_store(self, tmp_path):
        durable = self.make(tmp_path)
        memory = KeyValueStore()
        for store in (durable, memory):
            v = store.put("ns", "k", {"x": 1})
            assert store.put_if_version("ns", "k", {"x": 2}, v) is True
            assert store.put_if_version("ns", "k", {"x": 3}, v) is False
            assert store.get("ns", "k") == {"x": 2}
            assert store.keys("ns") == ["k"]
        durable.close()


class TestAtomicWrite:
    def test_failed_fsync_leaves_old_file_and_no_tmp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "record.json")
        write_atomic(path, b'{"port":1}')

        monkeypatch.setattr(os, "fsync", _disk_full)
        with pytest.raises(OSError):
            write_atomic(path, b'{"port":2}')
        monkeypatch.undo()

        with open(path, "rb") as handle:
            assert handle.read() == b'{"port":1}'
        assert os.listdir(str(tmp_path)) == ["record.json"]

    def test_failed_rename_leaves_no_tmp_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            write_atomic(str(target), b"data")
        assert os.listdir(str(tmp_path)) == ["occupied"]
