"""Shared-memory ring transport for same-host container replicas.

The fastest path between Clipper and a co-located container is the one that
never crosses the kernel's network stack: a pair of single-producer /
single-consumer byte rings living in one ``multiprocessing.shared_memory``
block, with one doorbell connection for wakeups.  :class:`ShmRingTransport`
is one end, drop-in behind the same seam as
:class:`~repro.rpc.transport.TcpTransport`, so the pipelined
:class:`~repro.rpc.client.RpcClient`, heartbeats and evaluation stamps all
work unchanged.

Design
------
* **One shm block, two rings.**  Each direction is an SPSC ring: a small
  control header (monotonic ``head``/``tail`` byte counters plus a closed
  flag) followed by a circular data region.  Frames are a 4-byte length
  prefix plus the serializer's bytes, written at byte granularity with
  wraparound — a frame larger than the ring streams through in chunks as
  the consumer drains, so capacity bounds memory, not message size.
* **Segments in, never re-serialized.**  ``send`` feeds the writev-style
  segment list from :func:`~repro.rpc.serialization.serialize_buffers`
  straight into the ring — the frame is never joined into one ``bytes``
  and large ndarray payloads are copied exactly once (source buffer →
  ring).  ``recv`` copies the frame out of the ring (the slot is recycled,
  so decoded zero-copy views must not alias it) and hands the copy to the
  zero-copy decoder.
* **One doorbell, rung only on edges.**  The two ends share one stream
  connection, which each end reads as an asyncio protocol.  A ``_DATA``
  byte tells the peer "the ring you read has data", a ``_SPACE`` byte "the
  ring you write has room"; a byte that arrives while nobody is parked is
  latched.  The producer rings after publishing into an empty ring and the
  consumer after draining a full one.  "Empty" and "full" are judged from
  the peer's counter as read *after* the own counter was published, so a
  peer that parked in between is still woken.  In steady
  state — a pipelined dispatcher keeping the ring busy — neither side pays
  a doorbell syscall per frame.  End of stream marks both rings closed: a
  SIGKILLed peer never sets the shared closed flags, but the kernel closes
  its end of the connection, so parked reads and writes fail with "closed
  by peer" instead of hanging (the cluster's crash-detection path).
* **SPSC + same-memory-model assumption.**  One sender task and one
  receiver task per ring (exactly what ``RpcClient``'s send lock and
  single receive pump guarantee).  Counters are plain 8-byte stores; a
  pair inside one process runs on one event loop (no parallelism), and the
  cross-process story assumes a total-store-order host (x86).

Building a lane: :func:`shm_pair` builds both ends inside one process over
a ``socket.socketpair()``, like :func:`~repro.rpc.transport.tcp_pair` for
the socket lane.  Across processes the container's side calls
:func:`host_shm_endpoint`, which creates the block, announces its
descriptor and accepts the one doorbell connection on a throwaway UNIX
socket; Clipper's side calls :func:`attach_shm_endpoint`, which maps the
block by name and connects.  Each end opens its doorbell on the event loop
that will wait on it.  Every ring holds :data:`RING_CAPACITY` bytes.

Availability is platform-dependent: ``HAS_SHARED_MEMORY`` is False where
``multiprocessing.shared_memory`` is unavailable, and building a lane
there raises :class:`~repro.core.exceptions.RpcError`.
"""

from __future__ import annotations

import asyncio
import os
import socket
import tempfile
from typing import Optional, Tuple

from repro.core.exceptions import RpcError
from repro.rpc.serialization import deserialize
from repro.rpc.transport import Transport, frame_length, frame_message

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory

    HAS_SHARED_MEMORY = True
except ImportError:  # pragma: no cover
    _resource_tracker = _shared_memory = None
    HAS_SHARED_MEMORY = False


def start_resource_tracker() -> None:
    """Boot ``multiprocessing``'s resource tracker now, not under a query.

    The first ``SharedMemory`` a process creates *or attaches* spawns the
    tracker: a fresh interpreter that takes ~60 ms to boot and, on a small
    host, every other scheduler slice (4 ms) from the event loop that
    spawned it while it does.  Left to the first launch, that lands on the
    first queries of a cold worker and its ingress at once — 5–16 ms each
    against a 20 ms SLO.  A process that will serve the shm lane calls this
    as it starts, so the boot overlaps its own bring-up instead.
    """
    if HAS_SHARED_MEMORY:
        _resource_tracker.ensure_running()


#: Per-direction ring capacity (bytes of frame data in flight), read when a
#: block is created.
RING_CAPACITY = 1 << 20

#: Per-ring control header: head u64, tail u64, closed u8, padding.
_CONTROL_BYTES = 32

_HEAD_INDEX = 0  # in 8-byte words
_TAIL_INDEX = 1
_CLOSED_OFFSET = 16  # in bytes

#: Doorbell bytes: "the ring you read has data" / "the ring you write has room".
_DATA = b"\x01"
_SPACE = b"\x02"


class _Ring:
    """One SPSC byte ring mapped over a slice of the shared-memory block.

    ``head``/``tail`` are monotonically increasing byte counters (they never
    wrap; positions are ``counter % capacity``), so ``head - tail`` is always
    the number of unread bytes and full/empty are unambiguous.
    """

    __slots__ = ("_control", "_counters", "_data", "capacity")

    def __init__(self, control: memoryview, data: memoryview) -> None:
        self._control = control
        # Read by one process while the other writes: every access must be
        # one aligned native 8-byte load or store.  (``struct`` with an
        # explicit byte order moves a byte at a time, and a reader catching
        # a carry half-written sees a head *behind* its own tail.)
        self._counters = control.cast("Q")
        self._data = data
        self.capacity = len(data)

    @property
    def head(self) -> int:
        return self._counters[_HEAD_INDEX]

    @head.setter
    def head(self, value: int) -> None:
        self._counters[_HEAD_INDEX] = value

    @property
    def tail(self) -> int:
        return self._counters[_TAIL_INDEX]

    @tail.setter
    def tail(self, value: int) -> None:
        self._counters[_TAIL_INDEX] = value

    @property
    def closed(self) -> bool:
        return self._control[_CLOSED_OFFSET] != 0

    def mark_closed(self) -> None:
        self._control[_CLOSED_OFFSET] = 1

    def write_at(self, position: int, chunk: memoryview) -> None:
        """Copy ``chunk`` into the ring starting at absolute ``position``."""
        start = position % self.capacity
        first = min(len(chunk), self.capacity - start)
        self._data[start : start + first] = chunk[:first]
        if first < len(chunk):
            self._data[0 : len(chunk) - first] = chunk[first:]

    def read_at(self, position: int, out: memoryview) -> None:
        """Copy ``len(out)`` ring bytes starting at absolute ``position``."""
        start = position % self.capacity
        first = min(len(out), self.capacity - start)
        out[:first] = self._data[start : start + first]
        if first < len(out):
            out[first:] = self._data[0 : len(out) - first]

    def release(self) -> None:
        self._counters.release()
        self._control.release()
        self._data.release()


class _Wakeup:
    """A parked task's wakeup, latched while nobody waits: a bell that comes
    before its waiter parks is not lost."""

    __slots__ = ("_latched", "_future")

    def __init__(self) -> None:
        self._latched = False
        self._future: Optional[asyncio.Future] = None

    def set(self) -> None:
        future = self._future
        if future is None:
            self._latched = True
        elif not future.done():
            future.set_result(None)

    async def wait(self) -> None:
        if self._latched:
            self._latched = False
            return
        self._future = asyncio.get_running_loop().create_future()
        try:
            await self._future
        finally:
            self._future = None


class ShmRingTransport(Transport, asyncio.BufferedProtocol):
    """One endpoint of a shared-memory ring pair (see module docstring).

    The instance is also the protocol of its doorbell connection: the
    callbacks below wake the parked sender or receiver.  Bells are read into
    a small buffer of its own: a plain ``Protocol`` receives each into a
    fresh 256 KiB ``bytes``: 10-18 µs a bell more on a 2-vCPU x86 VM, ~1 µs once
    the process has freed a block past glibc's mmap threshold (whether a worker
    or the ingress has, by the time it serves, is unmeasured: CHANGES.md).
    """

    def __init__(self, out_ring: _Ring, in_ring: _Ring, release_cb) -> None:
        self._out = out_ring
        self._in = in_ring
        self._release_cb = release_cb
        self._bell: Optional[asyncio.Transport] = None
        self._bells = bytearray(64)
        self._data = _Wakeup()  # the in ring has data (or the lane ended)
        self._space = _Wakeup()  # the out ring has room (or the lane ended)
        self._closed = False

    @classmethod
    async def open(cls, descriptor: dict, bell: socket.socket, shm=None) -> "ShmRingTransport":
        """One end over the connected doorbell socket ``bell``, opened on the
        running loop.  The block's creator passes its own mapping ``shm`` and
        writes ring B; the peer maps the block by name and writes ring A."""
        capacity = int(descriptor["capacity"])
        if shm is None:
            shm = _shared_memory.SharedMemory(name=str(descriptor["shm_name"]))
            ring_out, ring_in = _rings_over(shm.buf, capacity)
        else:
            ring_in, ring_out = _rings_over(shm.buf, capacity)
        lane = cls(ring_out, ring_in, lambda: _release_mapping(shm))
        await asyncio.get_running_loop().connect_accepted_socket(lambda: lane, bell)
        return lane

    # -- the doorbell (asyncio.Protocol) ---------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._bell = transport

    def get_buffer(self, sizehint: int) -> bytearray:
        return self._bells

    def buffer_updated(self, nbytes: int) -> None:
        bells = self._bells[:nbytes]
        if _DATA in bells:
            self._data.set()
        if _SPACE in bells:
            self._space.set()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # End of stream: the peer closed or died.  Both directions die, and
        # whatever is parked wakes to re-check the flags.  After our own
        # ``close`` the rings' memory is released: leave the flags alone.
        if not self._closed:
            self._out.mark_closed()
            self._in.mark_closed()
        self._data.set()
        self._space.set()

    # -- Transport interface ---------------------------------------------------

    async def send(self, payload: dict) -> None:
        if self._closed or self._out.closed:
            raise RpcError("transport is closed")
        # The frame (length prefix + serializer segments) streams into the
        # ring segment by segment — it is never joined into one bytes object.
        segments, length = frame_message(payload)
        views = []
        for segment in segments:
            view = memoryview(segment)
            views.append(view if view.format == "B" else view.cast("B"))
        await self._write_frame(views, 4 + length)

    async def recv(self) -> dict:
        header = bytearray(4)
        await self._read_exact(memoryview(header))
        length = frame_length(header)
        # The frame is copied out of the ring before decoding: the decoder's
        # zero-copy ndarray views alias this private buffer, not ring memory
        # that the producer will recycle.
        frame = bytearray(length)
        await self._read_exact(memoryview(frame))
        return deserialize(frame)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Both directions die, like a closed socket: the flags stop the peer
        # at once, and end of stream wakes it wherever it is parked.
        self._out.mark_closed()
        self._in.mark_closed()
        self._bell.close()
        # Our own parked tasks wake and re-check ``_closed``.
        self._data.set()
        self._space.set()
        self._out.release()
        self._in.release()
        self._release_cb()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- ring plumbing ---------------------------------------------------------

    async def _write_frame(self, views, total: int) -> None:
        """Stream a frame's segment list into the out ring.

        The common case — the whole frame fits in free space — costs one
        head/tail read, one copy per segment and one head publish.  A frame
        larger than the free space streams through in passes as the consumer
        drains, so ring capacity bounds memory, not message size.
        """
        ring = self._out
        index = 0
        seg_offset = 0
        written = 0
        while written < total:
            if self._closed or ring.closed:
                raise RpcError("transport is closed")
            head = ring.head
            tail = ring.tail
            free = ring.capacity - (head - tail)
            if free == 0:
                # Ring full: the consumer rings for space when it drains a
                # full ring, so parking here cannot be missed.
                await self._space.wait()
                continue
            published = head
            budget = min(free, total - written)
            while budget > 0:
                view = views[index]
                take = len(view) - seg_offset
                if take > budget:
                    take = budget
                    ring.write_at(head, view[seg_offset : seg_offset + take])
                    seg_offset += take
                else:
                    chunk = view[seg_offset:] if seg_offset else view
                    ring.write_at(head, chunk)
                    index += 1
                    seg_offset = 0
                head += take
                budget -= take
                written += take
            ring.head = head
            if ring.tail == published:
                # Edge-triggered data bell: a consumer parks only after
                # catching up with everything published before this pass.
                # The tail is read *after* the publish: the snapshot above
                # can predate a consumer in another process draining the
                # ring and parking, and a bell skipped then is never rung.
                self._bell.write(_DATA)

    async def _read_exact(self, out: memoryview) -> None:
        ring = self._in
        offset = 0
        total = len(out)
        while offset < total:
            if self._closed:
                raise RpcError("transport is closed")
            head = ring.head
            tail = ring.tail
            available = head - tail
            if available == 0:
                if ring.closed:
                    raise RpcError("transport closed by peer")
                await self._data.wait()
                continue
            take = min(available, total - offset)
            ring.read_at(tail, out[offset : offset + take])
            ring.tail = tail + take
            if ring.head - tail == ring.capacity:
                # Edge-triggered space bell: the producer parks only after
                # observing a full ring; the head is read after the publish
                # for the same reason as the tail in ``_write_frame``.
                self._bell.write(_SPACE)
            offset += take


# -- building a lane -------------------------------------------------------------


def _release_mapping(shm) -> None:
    """Close one side's mapping and best-effort unlink the block.

    Both sides try to unlink: whichever closes first actually removes the
    segment (a SIGKILLed peer never does), and the loser's FileNotFoundError
    is expected.  A failed unlink still unregisters from the resource
    tracker so interpreter exit does not warn about a segment the peer
    already removed.  The tracker holds one entry per name and process and
    complains about an unregister it has no entry for, so when both ends
    live in one process the entry the first unlink removed is put back
    first (a no-op when the peer is another process).
    """
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        try:  # pragma: no cover - depends on peer teardown order
            _resource_tracker.register("/" + shm.name, "shared_memory")
            _resource_tracker.unregister("/" + shm.name, "shared_memory")
        except OSError:
            pass  # the tracker's pipe is gone: nothing is left to warn


def _rings_over(buf, capacity: int) -> Tuple[_Ring, _Ring]:
    """The (ring A, ring B) views over one process's mapping of the block."""
    span = _CONTROL_BYTES + capacity
    ring_a = _Ring(buf[0:_CONTROL_BYTES], buf[_CONTROL_BYTES:span])
    ring_b = _Ring(
        buf[span : span + _CONTROL_BYTES], buf[span + _CONTROL_BYTES : 2 * span]
    )
    return ring_a, ring_b


def create_block():
    """A new ring pair's block, and the descriptor its peer maps it by."""
    if not HAS_SHARED_MEMORY:
        raise RpcError("multiprocessing.shared_memory is unavailable on this platform")
    shm = _shared_memory.SharedMemory(create=True, size=2 * (_CONTROL_BYTES + RING_CAPACITY))
    return shm, {"shm_name": shm.name, "capacity": RING_CAPACITY}


async def shm_pair():
    """(client, server) ends of a lane inside this process, on the running loop."""
    shm, descriptor = create_block()
    client_bell, server_bell = socket.socketpair()
    server = await ShmRingTransport.open(descriptor, server_bell, shm)
    return await ShmRingTransport.open(descriptor, client_bell), server


async def host_shm_endpoint(announce, timeout_s: float) -> ShmRingTransport:
    """The container's end of a lane whose peer is another process.

    Creates the block and a throwaway UNIX listener in the system temp dir,
    awaits ``announce(descriptor)`` (the descriptor carries the listener's
    ``bell_path``), then opens the end over the one doorbell connection that
    arrives within ``timeout_s``.
    """
    shm, descriptor = create_block()
    # Socket paths are capped (~107 bytes): name it after the shm segment.
    path = os.path.join(tempfile.gettempdir(), f"{shm.name.lstrip('/')}.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    bell = None
    try:
        listener.bind(path)
        listener.listen(1)
        listener.setblocking(False)
        await announce({**descriptor, "bell_path": path})
        async with asyncio.timeout(timeout_s):
            bell, _ = await asyncio.get_running_loop().sock_accept(listener)
    except (OSError, RpcError) as exc:  # TimeoutError is an OSError
        raise RpcError(f"no shm peer attached within {timeout_s}s: {exc!r}") from exc
    finally:
        listener.close()
        try:
            os.unlink(path)
        except OSError:
            pass
        if bell is None:
            _release_mapping(shm)
    return await ShmRingTransport.open(descriptor, bell, shm)


async def attach_shm_endpoint(descriptor: dict) -> ShmRingTransport:
    """Clipper's end of a host's lane: map the block by name, ring its listener."""
    bell = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        bell.setblocking(False)
        await asyncio.get_running_loop().sock_connect(bell, str(descriptor["bell_path"]))
        return await ShmRingTransport.open(descriptor, bell)
    except BaseException as exc:
        bell.close()
        if isinstance(exc, OSError):
            raise RpcError(f"could not attach shm endpoint: {exc}") from exc
        raise

