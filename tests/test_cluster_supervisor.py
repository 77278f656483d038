"""The supervisor's lifecycle, through a fake :class:`Child` on the loop.

The tests substitute ``repro.cluster.supervisor.Child`` with
:class:`FakeChild`, which lives on the event loop and logs every spawn and
stop, so the supervisor's decisions — respawn, drain order, cleanup after a
failed start — are checked without a process, and so is
``scripts/cluster_up.py``'s answer to an ingress that exits.
:class:`TestChild` runs the real seam on two tiny interpreters.  Each test
names a mutant that fails it.
"""

from __future__ import annotations

import asyncio
import importlib.util
import os
import signal
import sys

import pytest

from helpers import run_async
from repro.cluster import supervisor
from repro.cluster.supervisor import Child, Supervisor
from repro.core.exceptions import ClipperError

PORT = 8080
CLUSTER_UP = os.path.join(os.path.dirname(__file__), "..", "scripts", "cluster_up.py")


class FakeChild:
    """A child that exits when stopped or when its test sets ``exited``."""

    log: list
    unready: set

    def __init__(self, name, argv):
        self.name, self.argv = name, argv
        self.exited = asyncio.Event()
        self.tail = [f"{name} is up", f"{name} says goodbye"]

    @classmethod
    async def spawn(cls, name, argv):
        cls.log.append(("spawn", name))
        return cls(name, argv)

    async def ready(self, marker):
        if self.name in self.unready:
            raise ClipperError(f"{self.name} did not become ready: exited")
        return PORT

    async def wait(self):
        self.log.append(("wait", self.name))
        await self.exited.wait()
        return 0

    async def stop(self, timeout_s):
        self.log.append(("stop", self.name))
        self.exited.set()
        return 0


@pytest.fixture
def fake(monkeypatch):
    class Fake(FakeChild):
        log = []
        unready = set()

    monkeypatch.setattr(supervisor, "Child", Fake)
    return Fake


async def settle():
    """Let every task woken so far run to its next suspension."""
    for _ in range(5):
        await asyncio.sleep(0)


def events(log, kind):
    return [name for k, name in log if k == kind]


class TestSupervisor:
    def test_a_dead_worker_is_respawned_under_its_id_and_not_after_drain(
        self, fake, tmp_path
    ):
        # Mutants: `_keep` returns after one wait (no respawn), or `drain`
        # stops the children before cancelling the restart tasks.
        async def main():
            fleet = Supervisor(str(tmp_path), num_workers=2)
            await fleet.start()
            assert fleet.port == PORT
            dead = fleet.workers["worker-1"]
            dead.exited.set()
            await settle()
            again = fleet.workers["worker-1"]
            assert again is not dead and again.argv == dead.argv
            again.exited.set()
            await settle()
            assert fleet.workers["worker-1"] is not again
            await fleet.drain()
            await settle()

        run_async(main())
        spawned = ["worker-0", "worker-1", "ingress", "worker-1", "worker-1"]
        assert events(fake.log, "spawn") == spawned
        last_spawn = max(i for i, (kind, _) in enumerate(fake.log) if kind == "spawn")
        first_stop = fake.log.index(("stop", "ingress"))
        assert last_spawn < first_stop
        assert sorted(events(fake.log, "stop")) == ["ingress", "worker-0", "worker-1"]

    def test_every_child_is_read_while_the_fleet_runs(self, fake, tmp_path):
        # A child whose output nobody reads blocks once the pipe fills.
        # Mutant: `start` creates no task that reads the ingress.
        async def main():
            fleet = Supervisor(str(tmp_path), num_workers=2)
            await fleet.start()
            await settle()
            assert sorted(events(fake.log, "wait")) == ["ingress", "worker-0", "worker-1"]
            await fleet.drain()

        run_async(main())

    def test_drain_stops_the_ingress_before_any_worker(self, fake, tmp_path):
        # Mutant: `_stop_children` stops the workers first.
        async def main():
            fleet = Supervisor(str(tmp_path), num_workers=3)
            await fleet.start()
            await fleet.drain()

        run_async(main())
        stops = events(fake.log, "stop")
        assert stops[0] == "ingress"
        assert sorted(stops[1:]) == ["worker-0", "worker-1", "worker-2"]

    def test_a_worker_that_never_gets_ready_fails_start_and_stops_the_rest(
        self, fake, tmp_path
    ):
        # Mutant: `start` lets the error propagate without `_stop_children`.
        fake.unready = {"worker-1"}

        async def main():
            fleet = Supervisor(str(tmp_path), num_workers=3)
            with pytest.raises(ClipperError, match="worker-1"):
                await fleet.start()
            assert fleet.port is None and fleet.ingress is None
            await settle()

        run_async(main())
        assert sorted(events(fake.log, "stop")) == ["worker-0", "worker-1", "worker-2"]
        assert ("spawn", "ingress") not in fake.log


class TestClusterUp:
    def test_an_ingress_that_exits_stops_the_workers_and_fails_the_script(
        self, fake, tmp_path, capsys
    ):
        # Mutant: the script waits only for a signal, so it keeps running
        # with no ingress (the wait below times out), or it respawns one.
        spec = importlib.util.spec_from_file_location("cluster_up", CLUSTER_UP)
        cluster_up = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cluster_up)

        async def main():
            fleet = Supervisor(str(tmp_path), num_workers=2)
            serving = asyncio.ensure_future(cluster_up.serve(fleet))
            await settle()
            assert fleet.port == PORT
            fleet.ingress.exited.set()
            return await asyncio.wait_for(serving, 5.0)

        assert run_async(main()) == 1
        assert events(fake.log, "spawn") == ["worker-0", "worker-1", "ingress"]
        assert sorted(events(fake.log, "stop")) == ["ingress", "worker-0", "worker-1"]
        out, err = capsys.readouterr()
        assert f"CLUSTER_READY {PORT}" in out and "CLUSTER_DRAINED" not in out
        assert "ingress says goodbye" in err


class TestChild:
    def test_exit_before_the_ready_line_raises_naming_the_child(self):
        # Mutant: `ready` returns None at end of output instead of raising.
        async def main():
            child = await Child.spawn(
                "worker-9", [sys.executable, "-c", "print('no port today')"]
            )
            with pytest.raises(ClipperError, match="worker-9") as caught:
                await child.ready("WORKER")
            assert "no port today" in str(caught.value)
            assert await child.wait() == 0

        run_async(main())

    def test_ready_reads_the_port_and_stop_kills_a_child_that_ignores_sigterm(self):
        # Mutant: `stop` only sends SIGTERM (the wait below then times out).
        stubborn = (
            "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
            "print('X_READY 4242', flush=True); time.sleep(30)"
        )

        async def main():
            child = await Child.spawn("stubborn", [sys.executable, "-c", stubborn])
            assert await child.ready("X") == 4242
            return await asyncio.wait_for(child.stop(0.2), 10.0)

        assert run_async(main()) == -signal.SIGKILL
