"""Shared-memory ring transport for same-host container replicas.

The fastest path between Clipper and a co-located container is the one that
never crosses the kernel's network stack: a pair of single-producer /
single-consumer byte rings living in one ``multiprocessing.shared_memory``
block, with socket doorbells for wakeups.  :class:`ShmHostEndpoint` and
:func:`attach_shm_endpoint` build the two connected :class:`Transport`
endpoints, drop-in behind the same seam as
:class:`~repro.rpc.transport.TcpTransport`, so the pipelined
:class:`~repro.rpc.client.RpcClient`, heartbeats and trace-id propagation
all work unchanged.  There is one way to build a pair, whether its two ends
share a process (a local ``transport="shm"`` replica) or not (a worker
daemon and its ingress).

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
* **Doorbells, rung only on edges.**  Each ring gets one non-blocking
  UNIX-domain connection: the producer rings it after publishing into an
  empty ring (a consumer might be parked) and the consumer rings it after
  draining a full ring (the producer might be parked).  "Empty" and "full"
  are judged from the peer's counter as read *after* the own counter was
  published, so a peer that parked in between is still woken.  In steady
  state — a pipelined dispatcher keeping the ring busy — neither side pays
  a doorbell syscall per frame.  ``os.eventfd`` would serve the same role
  on Linux; sockets keep the lane portable and deliver EOF when a peer dies.
* **SPSC + same-memory-model assumption.**  One sender task and one
  receiver task per ring (exactly what ``RpcClient``'s send lock and
  single receive pump guarantee).  Counters are plain 8-byte stores; a
  pair inside one process runs on one event loop (no parallelism), and the
  cross-process story assumes a total-store-order host (x86).

Availability is platform-dependent: ``HAS_SHARED_MEMORY`` is False where
``multiprocessing.shared_memory`` is unavailable, and building an endpoint
there raises :class:`~repro.core.exceptions.RpcError`.
"""

from __future__ import annotations

import asyncio
import os
import socket
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


#: Default per-direction ring capacity (bytes of frame data in flight).
DEFAULT_RING_CAPACITY = 1 << 20

#: Per-ring control header: head u64, tail u64, closed u8, padding.
_CONTROL_BYTES = 32

_HEAD_INDEX = 0  # in 8-byte words
_TAIL_INDEX = 1
_CLOSED_OFFSET = 16  # in bytes


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


def _ring_bell(bell: socket.socket) -> None:
    """Wake the peer parked on the other end; never blocks, never raises."""
    try:
        bell.send(b"\x01")
    except (BlockingIOError, InterruptedError):
        pass  # buffer full: the peer already has wakeup bytes pending
    except OSError:
        pass  # peer hung up; its closed flag is what matters now


class _BellWaiter:
    """Parks a task on a doorbell socket without per-wait epoll churn.

    ``loop.sock_recv`` registers and unregisters the fd with the selector on
    *every* call — two ``epoll_ctl`` syscalls per park, which dominates the
    transport cost under a pipelined dispatcher.  Instead the fd is added to
    the selector once, permanently; the readiness callback drains the bell
    and latches a signal.  ``wait`` consumes the latch if a ring arrived
    while nobody was parked (preserving the persistent-bell-byte semantics
    the edge-trigger protocol relies on) and otherwise parks on a future the
    callback resolves.
    """

    __slots__ = ("_sock", "_loop", "_future", "_signaled", "_registered", "_on_eof")

    def __init__(self, sock: socket.socket, on_eof=None) -> None:
        self._sock = sock
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._future: Optional[asyncio.Future] = None
        self._signaled = False
        self._registered = False
        self._on_eof = on_eof

    async def wait(self) -> None:
        if self._signaled:
            self._signaled = False
            return
        loop = asyncio.get_running_loop()
        if not self._registered:
            loop.add_reader(self._sock.fileno(), self._on_readable)
            self._registered = True
            self._loop = loop
        self._future = loop.create_future()
        try:
            await self._future
        finally:
            self._future = None

    def _on_readable(self) -> None:
        at_eof = False
        try:
            at_eof = not self._sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            at_eof = True
        if at_eof:
            # Peer hung up: the fd stays readable forever, so stop watching
            # it (the close flags in shared memory carry the shutdown now).
            self._unregister()
            if self._on_eof is not None:
                self._on_eof()
        future = self._future
        if future is not None:
            if not future.done():
                future.set_result(None)
        else:
            self._signaled = True

    def _unregister(self) -> None:
        if self._registered and self._loop is not None:
            try:
                self._loop.remove_reader(self._sock.fileno())
            except (OSError, ValueError):  # pragma: no cover - loop closing
                pass
        self._registered = False

    def close(self) -> None:
        """Stop watching and wake any parked task (it re-checks the flags)."""
        self._unregister()
        future = self._future
        if future is not None and not future.done():
            future.set_result(None)


class ShmRingTransport(Transport):
    """One endpoint of a shared-memory ring pair (see module docstring)."""

    def __init__(
        self,
        out_ring: _Ring,
        in_ring: _Ring,
        bell_out: socket.socket,
        bell_in: socket.socket,
        release_cb,
        hangup_marks_closed: bool = False,
    ) -> None:
        self._out = out_ring
        self._in = in_ring
        # ``bell_out``: send data bells / await space bells for the out ring.
        # ``bell_in``: await data bells / send space bells for the in ring.
        self._bell_out = bell_out
        self._bell_in = bell_in
        # Cross-process endpoints opt into treating doorbell EOF as a peer
        # death signal: a SIGKILLed peer never sets the shared closed flags,
        # but the kernel closes its bell sockets, so EOF is the one reliable
        # crash notification.  Marking the rings closed wakes parked reads
        # and writes with "closed by peer" instead of hanging forever.
        on_eof = self._peer_hangup if hangup_marks_closed else None
        self._space_waiter = _BellWaiter(bell_out, on_eof=on_eof)
        self._data_waiter = _BellWaiter(bell_in, on_eof=on_eof)
        self._release_cb = release_cb
        self._closed = False

    def _peer_hangup(self) -> None:
        self._out.mark_closed()
        self._in.mark_closed()

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
        if self._closed:
            raise RpcError("transport is closed")
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
        # Both directions die, like a closed socket: mark both rings and wake
        # the peer whichever ring it is parked on.
        self._out.mark_closed()
        self._in.mark_closed()
        _ring_bell(self._bell_out)
        _ring_bell(self._bell_in)
        # Wake our own parked waiters (they re-check the closed flags) and
        # drop the fds from the selector before closing the sockets.
        self._space_waiter.close()
        self._data_waiter.close()
        self._bell_out.close()
        self._bell_in.close()
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
                # Ring full: the consumer rings the space bell when it
                # drains a full ring, so parking here cannot be missed.
                await self._space_waiter.wait()
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
                _ring_bell(self._bell_out)

    async def _read_exact(self, out: memoryview) -> None:
        ring = self._in
        offset = 0
        total = len(out)
        while offset < total:
            head = ring.head
            tail = ring.tail
            available = head - tail
            if available == 0:
                if self._closed:
                    raise RpcError("transport is closed")
                if ring.closed:
                    raise RpcError("transport closed by peer")
                await self._data_waiter.wait()
                continue
            take = min(available, total - offset)
            ring.read_at(tail, out[offset : offset + take])
            ring.tail = tail + take
            if ring.head - tail == ring.capacity:
                # Edge-triggered space bell: the producer parks only after
                # observing a full ring; the head is read after the publish
                # for the same reason as the tail in ``_write_frame``.
                _ring_bell(self._bell_in)
            offset += take


# -- building a pair -----------------------------------------------------------
#
# The shared-memory block is attached by name and the doorbells are two
# UNIX-domain connections (one per ring, each bidirectional: data bells one
# way, space bells the other), so the two ends need not share a process:
#
# * the **host** (container) side creates the block and listens on a throwaway
#   UNIX socket; its ``descriptor()`` (shm name, bell path, capacity) travels
#   to the peer — over the worker's control connection, or as a plain dict
#   inside one process,
# * the **attacher** (Clipper) side maps ``SharedMemory(name=...)`` and opens
#   two bell connections, identifying each ring with a one-byte preamble.
#
# Both sides enable ``hangup_marks_closed``: a SIGKILLed peer never sets the
# shared closed flags, but the kernel closing its bell sockets delivers EOF,
# which the transport converts into a normal "closed by peer" RpcError — the
# crash-detection path the cluster health monitor depends on.

_RING_A_PREAMBLE = b"\x01"
_RING_B_PREAMBLE = b"\x02"


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


class ShmHostEndpoint:
    """Creator (server) side of a shared-memory ring pair.

    Built where the container lives when the shm lane is asked for: creates
    the block and the bell listener up front so :meth:`descriptor` can
    travel in the launch reply, then :meth:`accept` waits for the peer's
    two bell connections and returns the server-side transport.
    """

    def __init__(self, bell_dir: str, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if not HAS_SHARED_MEMORY:
            raise RpcError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        if capacity < 64:
            raise RpcError("ring capacity must be at least 64 bytes")
        self.capacity = capacity
        span = _CONTROL_BYTES + capacity
        self._shm = _shared_memory.SharedMemory(create=True, size=2 * span)
        self.shm_name = self._shm.name
        os.makedirs(bell_dir, exist_ok=True)
        # Socket path length is capped (~107 bytes); derive a short name from
        # the (already unique) shm segment name.
        self.bell_path = os.path.join(bell_dir, f"{self.shm_name.lstrip('/')}.sock")
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._listener.bind(self.bell_path)
            self._listener.listen(2)
            self._listener.setblocking(False)
        except BaseException:
            self._listener.close()
            self._cleanup_paths()
            _release_mapping(self._shm)
            raise

    def descriptor(self) -> dict:
        """The attach instructions to send to the peer."""
        return {
            "shm_name": self.shm_name,
            "bell_path": self.bell_path,
            "capacity": self.capacity,
        }

    def _cleanup_paths(self) -> None:
        try:
            os.unlink(self.bell_path)
        except OSError:
            pass

    async def accept(self, timeout_s: float = 10.0) -> ShmRingTransport:
        """Wait for the peer's two bell connections; return the server side."""
        loop = asyncio.get_running_loop()
        bells: dict = {}
        try:
            async with asyncio.timeout(timeout_s):
                while len(bells) < 2:
                    conn, _ = await loop.sock_accept(self._listener)
                    conn.setblocking(False)
                    preamble = await loop.sock_recv(conn, 1)
                    if preamble == _RING_A_PREAMBLE and "a" not in bells:
                        bells["a"] = conn
                    elif preamble == _RING_B_PREAMBLE and "b" not in bells:
                        bells["b"] = conn
                    else:
                        conn.close()
        except BaseException:
            for conn in bells.values():
                conn.close()
            self.abort()
            raise RpcError(
                f"peer did not complete the shm bell handshake within {timeout_s}s"
            ) from None
        self._listener.close()
        self._cleanup_paths()
        ring_a, ring_b = _rings_over(self._shm.buf, self.capacity)
        shm = self._shm
        return ShmRingTransport(
            out_ring=ring_b,
            in_ring=ring_a,
            bell_out=bells["b"],
            bell_in=bells["a"],
            release_cb=lambda: _release_mapping(shm),
            hangup_marks_closed=True,
        )

    def abort(self) -> None:
        """Tear everything down when the peer never attached."""
        self._listener.close()
        self._cleanup_paths()
        _release_mapping(self._shm)


async def attach_shm_endpoint(descriptor: dict) -> ShmRingTransport:
    """Attach the client side of a host's ring pair from its descriptor."""
    if not HAS_SHARED_MEMORY:
        raise RpcError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    shm_name = str(descriptor["shm_name"])
    bell_path = str(descriptor["bell_path"])
    capacity = int(descriptor["capacity"])
    loop = asyncio.get_running_loop()
    shm = _shared_memory.SharedMemory(name=shm_name)
    bells = []
    try:
        for preamble in (_RING_A_PREAMBLE, _RING_B_PREAMBLE):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.setblocking(False)
            bells.append(sock)
            await loop.sock_connect(sock, bell_path)
            await loop.sock_sendall(sock, preamble)
    except BaseException as exc:
        for sock in bells:
            sock.close()
        shm.close()
        raise RpcError(f"could not attach shm endpoint: {exc}") from exc
    ring_a, ring_b = _rings_over(shm.buf, capacity)
    return ShmRingTransport(
        out_ring=ring_a,
        in_ring=ring_b,
        bell_out=bells[0],
        bell_in=bells[1],
        release_cb=lambda: _release_mapping(shm),
        hangup_marks_closed=True,
    )


__all__ = [
    "DEFAULT_RING_CAPACITY",
    "HAS_SHARED_MEMORY",
    "ShmHostEndpoint",
    "ShmRingTransport",
    "attach_shm_endpoint",
    "start_resource_tracker",
]
