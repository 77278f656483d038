"""The REST edge's wire contract, written down as raw-socket tests.

Everything here talks to :class:`HttpApiServer` (and, in the last classes,
to the SDK's ``_HttpConnection``) through plain sockets and hand-written
bytes, so the contract — size limits, what is refused and how, keep-alive
and EOF behaviour, pipelining, flow control — holds for whatever parser sits
behind the socket.  Every refusal is the structured 400 followed by a close:
a byte stream that failed to parse cannot be re-synchronised.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from helpers import run_async
from repro.api.http import HttpApiServer
from repro.api.routes import ApiResponse, RouteTable
from repro.client.client import TransportError, _HttpConnection

READ_TIMEOUT_S = 5.0


class Edge:
    """An ``HttpApiServer`` over two trivial routes, recording handler calls."""

    def __init__(self, **server_kwargs) -> None:
        self.calls = []
        self.gate = None  # set to an Event to hold POST /echo handlers
        table = RouteTable()
        table.add("POST", "/echo", "echo", self._echo)
        table.add("GET", "/ping", "ping", self._ping)
        table.add("GET", "/blob/{size}", "blob", self._blob)
        self.server = HttpApiServer(table, **server_kwargs)

    async def _echo(self, params, body):
        self.calls.append(body)
        if self.gate is not None:
            await self.gate.wait()
        return ApiResponse(200, {"echo": body})

    async def _ping(self, params, body):
        self.calls.append("ping")
        return ApiResponse(200, {"pong": len(self.calls)})

    async def _blob(self, params, body):
        self.calls.append("blob")
        return ApiResponse(
            200, b"x" * int(params["size"]), {"Content-Type": "application/octet-stream"}
        )

    async def __aenter__(self) -> "Edge":
        await self.server.start()
        self.port = self.server.port
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.server.stop()

    async def open(self):
        return await asyncio.open_connection("127.0.0.1", self.port)

    async def exchange(self, data: bytes, half_close: bool = False) -> bytes:
        """Send ``data``, then read until the server closes the connection."""
        reader, writer = await self.open()
        try:
            writer.write(data)
            await writer.drain()
            if half_close:
                writer.write_eof()
            return await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
        finally:
            writer.close()


def post(body: bytes, extra: bytes = b"", version: bytes = b"HTTP/1.1") -> bytes:
    return (
        b"POST /echo %b\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n%b\r\n%b" % (version, len(body), extra, body)
    )


def get(extra: bytes = b"", version: bytes = b"HTTP/1.1") -> bytes:
    return b"GET /ping %b\r\nHost: t\r\n%b\r\n" % (version, extra)


def split_responses(raw: bytes):
    """Cut a byte stream into ``(status, headers, payload)`` responses."""
    responses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        payload, raw = rest[:length], rest[length:]
        if headers.get("content-type", "").startswith("application/json"):
            payload = json.loads(payload)
        responses.append((int(status), headers, payload))
    return responses


async def read_response(reader):
    """Read exactly one response off a keep-alive connection."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), READ_TIMEOUT_S)
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await asyncio.wait_for(reader.readexactly(length), READ_TIMEOUT_S)
    return split_responses(head + body)[0]


def assert_refused(raw: bytes, calls, fragment: str = "") -> None:
    """One structured 400, ``Connection: close``, nothing dispatched."""
    responses = split_responses(raw)
    assert len(responses) == 1, responses
    status, headers, payload = responses[0]
    assert status == 400
    assert headers["connection"] == "close"
    assert payload["error"]["code"] == "malformed_request"
    assert payload["error"]["status"] == 400
    assert fragment.lower() in payload["error"]["message"].lower()
    assert calls == []


class TestRefusals:
    @pytest.mark.parametrize(
        "data",
        [
            b"GET /ping\r\nHost: t\r\n\r\n",  # two parts
            b"GET /ping HTTP/1.1 extra\r\nHost: t\r\n\r\n",  # four parts
            b"GET /ping FTP/1.1\r\nHost: t\r\n\r\n",  # not HTTP
            b"GET /p\xc3\xafng HTTP/1.1\r\nHost: t\r\n\r\n",  # not ASCII
        ],
    )
    def test_malformed_request_line(self, data):
        async def scenario():
            async with Edge() as edge:
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "request line")

    def test_header_without_a_colon(self):
        async def scenario():
            async with Edge() as edge:
                return await edge.exchange(get(b"no colon here\r\n")), edge.calls

        assert_refused(*run_async(scenario()), "header")

    def test_exactly_the_header_limit_passes_and_one_more_fails(self):
        def headers(count: int) -> bytes:
            # ``get`` already sends Host.
            return b"".join(b"X-H%d: v\r\n" % i for i in range(count - 1))

        async def scenario():
            async with Edge() as edge:  # default limit: 100
                passed = await edge.exchange(get(headers(100)), half_close=True)
                assert [r[0] for r in split_responses(passed)] == [200]
                assert edge.calls == ["ping"]
                del edge.calls[:]
                return await edge.exchange(get(headers(101))), edge.calls

        assert_refused(*run_async(scenario()), "too many")

    def test_configured_header_limit(self):
        async def scenario():
            async with Edge(max_header_count=2) as edge:
                ok = await edge.exchange(get(b"A: 1\r\n"), half_close=True)
                assert [r[0] for r in split_responses(ok)] == [200]
                del edge.calls[:]
                return await edge.exchange(get(b"A: 1\r\nB: 2\r\n")), edge.calls

        assert_refused(*run_async(scenario()), "too many")

    def test_head_over_64_kib(self):
        async def scenario():
            async with Edge() as edge:
                big = b"X-Big: " + b"a" * (70 * 1024) + b"\r\n"
                return await edge.exchange(get(big)), edge.calls

        assert_refused(*run_async(scenario()), "size limit")

    def test_head_over_64_kib_never_terminated(self):
        # No blank line ever arrives: the refusal must not wait for one.
        async def scenario():
            async with Edge() as edge:
                data = b"GET /ping HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024)
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "size limit")

    def test_chunked_bodies_are_refused(self):
        async def scenario():
            async with Edge() as edge:
                data = (
                    b"POST /echo HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n"
                    b"\r\n2\r\n{}\r\n0\r\n\r\n"
                )
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "chunked")

    @pytest.mark.parametrize(
        "value", [b"abc", b"-1", b"5.0", b"1e1", b"0x5", b""]
    )
    def test_content_length_not_a_count(self, value):
        async def scenario():
            async with Edge() as edge:
                data = b"POST /echo HTTP/1.1\r\nContent-Length: %b\r\n\r\n{}{}{}" % value
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "content-length")

    def test_content_length_over_the_body_limit(self):
        async def scenario():
            async with Edge(max_body_bytes=16) as edge:
                ok = await edge.exchange(post(b'{"a":"%b"}' % (b"b" * 8)), half_close=True)
                assert [r[0] for r in split_responses(ok)] == [200]
                del edge.calls[:]
                # Refused from the head alone: the body is never awaited.
                data = b"POST /echo HTTP/1.1\r\nContent-Length: 17\r\n\r\n"
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "16-byte limit")


class TestContentLengthIsDigitsOnly:
    """``int()`` takes ``1_0``, ``+5`` and ``-0``; a length is 1*DIGIT."""

    @pytest.mark.parametrize("value", [b"1_0", b"+2", b"-0", b"2 2"])
    def test_python_integer_spellings_are_refused(self, value):
        async def scenario():
            async with Edge() as edge:
                data = (
                    b"POST /echo HTTP/1.1\r\nContent-Length: %b\r\n\r\n{}        " % value
                )
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "content-length")

    def test_conflicting_duplicates_are_refused(self):
        # The request-smuggling shape: two parsers, two different lengths.
        async def scenario():
            async with Edge() as edge:
                data = (
                    b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\n"
                    b"Content-Length: 4\r\n\r\n{}{}"
                )
                return await edge.exchange(data), edge.calls

        assert_refused(*run_async(scenario()), "content-length")

    def test_agreeing_duplicates_and_leading_zeros_pass(self):
        async def scenario():
            async with Edge() as edge:
                data = (
                    b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\n"
                    b"Content-Length: 002\r\nConnection: close\r\n\r\n{}"
                )
                return await edge.exchange(data), edge.calls

        raw, calls = run_async(scenario())
        assert [r[0] for r in split_responses(raw)] == [200]
        assert calls == [{}]


class TestConnectionLifetime:
    def test_http_10_closes_by_default_and_11_stays_open(self):
        async def scenario():
            async with Edge() as edge:
                # No half-close: the server must hang up on its own.
                old = await edge.exchange(get(version=b"HTTP/1.0"))
                kept = await edge.exchange(
                    get(b"Connection: keep-alive\r\n", version=b"HTTP/1.0") + get(),
                    half_close=True,
                )
                asked = await edge.exchange(get(b"Connection: close\r\n") + get())
                return old, kept, asked

        old, kept, asked = run_async(scenario())
        (response,) = split_responses(old)
        assert response[0] == 200 and response[1]["connection"] == "close"
        first, second = split_responses(kept)
        assert first[1]["connection"] == "keep-alive"
        assert second[0] == 200
        # ``Connection: close`` ends the connection; the pipelined second
        # request is never answered.
        (only,) = split_responses(asked)
        assert only[1]["connection"] == "close"

    def test_clean_eof_between_requests_is_silent(self):
        async def scenario():
            async with Edge() as edge:
                reader, writer = await edge.open()
                writer.write(get())
                first = await read_response(reader)
                writer.write_eof()
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                writer.close()
                return first, rest, edge.calls

        first, rest, calls = run_async(scenario())
        assert first[0] == 200
        assert rest == b""
        assert calls == ["ping"]

    @pytest.mark.parametrize(
        "data",
        [
            b"POST /echo HTT",  # inside the request line
            b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Le",  # inside a header
            post(b'{"a": 1}')[:-3],  # inside the body
        ],
    )
    def test_eof_inside_a_message_dispatches_nothing(self, data):
        async def scenario():
            async with Edge() as edge:
                raw = await edge.exchange(data, half_close=True)
                # The edge is still serving.
                ok = await edge.exchange(get(), half_close=True)
                return raw, ok, edge.calls

        raw, ok, calls = run_async(scenario())
        # Either a silent close or the one structured refusal; never a 2xx.
        assert [r[0] for r in split_responses(raw)] in ([], [400])
        assert [r[0] for r in split_responses(ok)] == [200]
        assert calls == ["ping"]

    def test_idle_connection_is_closed_after_the_keep_alive_timeout(self):
        async def scenario():
            async with Edge(keep_alive_timeout_s=0.1) as edge:
                reader, writer = await edge.open()
                writer.write(get())
                first = await read_response(reader)
                loop = asyncio.get_running_loop()
                started = loop.time()
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                elapsed = loop.time() - started
                writer.close()
                return first, rest, elapsed

        first, rest, elapsed = run_async(scenario())
        assert first[0] == 200
        assert rest == b""
        assert 0.05 <= elapsed < 2.0

    def test_keep_alive_timeout_covers_the_whole_head(self):
        # A client that sends the request line and then stalls must not hold
        # the connection open forever.
        async def scenario():
            async with Edge(keep_alive_timeout_s=0.1) as edge:
                reader, writer = await edge.open()
                writer.write(b"GET /ping HTTP/1.1\r\nHost: t\r\n")
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                writer.close()
                return rest, edge.calls

        rest, calls = run_async(scenario())
        assert rest == b""
        assert calls == []

    def test_no_timeout_by_default(self):
        async def scenario():
            async with Edge() as edge:
                reader, writer = await edge.open()
                await asyncio.sleep(0.3)
                writer.write(get())
                response = await read_response(reader)
                writer.close()
                return response

        assert run_async(scenario())[0] == 200


class TestPipeliningAndSegmentation:
    def test_two_requests_in_one_segment_are_answered_in_order(self):
        async def scenario():
            async with Edge() as edge:
                data = post(b'{"n": 1}') + post(b'{"n": 2}') + get()
                return await edge.exchange(data, half_close=True), edge.calls

        raw, calls = run_async(scenario())
        responses = split_responses(raw)
        assert [r[0] for r in responses] == [200, 200, 200]
        assert [r[2] for r in responses] == [
            {"echo": {"n": 1}}, {"echo": {"n": 2}}, {"pong": 3}
        ]
        assert calls == [{"n": 1}, {"n": 2}, "ping"]

    def test_a_request_split_at_every_byte_boundary_parses_the_same(self):
        body = b'{"n": [1, 2, 3], "s": "x"}'
        request = post(body, extra=b"X-Clipper-Trace-Id: abc\r\nAccept: */*\r\n")

        async def scenario():
            async with Edge() as edge:
                reader, writer = await edge.open()
                writer.write(request)
                whole = await read_response(reader)
                answers = []
                for cut in range(1, len(request)):
                    writer.write(request[:cut])
                    await writer.drain()
                    # Let the server's loop see the first part on its own.
                    for _ in range(4):
                        await asyncio.sleep(0)
                    writer.write(request[cut:])
                    answers.append(await read_response(reader))
                writer.close()
                return whole, answers, edge.calls

        whole, answers, calls = run_async(scenario())
        assert whole[0] == 200 and whole[2] == {"echo": json.loads(body)}
        assert len(answers) == len(request) - 1
        assert all(answer == whole for answer in answers)
        assert calls == [json.loads(body)] * len(request)

    def test_a_body_arriving_in_many_segments(self):
        body = json.dumps({"blob": "z" * 300_000}).encode()
        request = post(body)

        async def scenario():
            async with Edge() as edge:
                reader, writer = await edge.open()
                for start in range(0, len(request), 10_000):
                    writer.write(request[start : start + 10_000])
                    await writer.drain()
                    await asyncio.sleep(0)
                response = await read_response(reader)
                writer.close()
                return response

        status, _, payload = run_async(scenario())
        assert status == 200
        assert payload == {"echo": json.loads(body)}


class TestFlowControl:
    """Back-pressure is shown, not assumed."""

    def test_a_slow_reader_suspends_the_writer_and_bounds_the_buffer(self):
        size = 4 * 1024 * 1024
        pipelined = 6

        async def scenario():
            edge = Edge()
            state = {"entered": 0, "left": 0, "conn": None}
            original = HttpApiServer._write_response

            async def watched(self, conn, *args, **kwargs):
                state["entered"] += 1
                state["conn"] = conn
                try:
                    return await original(self, conn, *args, **kwargs)
                finally:
                    state["left"] += 1

            edge.server._write_response = watched.__get__(edge.server)
            async with edge:
                reader, writer = await edge.open()
                writer.write(b"GET /blob/%d HTTP/1.1\r\nHost: t\r\n\r\n" % size * pipelined)
                await writer.drain()
                # The client does not read.  Give the server ample time.
                stalled = None
                for _ in range(50):
                    await asyncio.sleep(0.01)
                    if state["entered"] and state["entered"] == state["left"] + 1:
                        stalled = (state["entered"], state["left"])
                await asyncio.sleep(0.1)
                suspended = (state["entered"], state["left"])
                buffered = state["conn"].transport.get_write_buffer_size()
                handled = len(edge.calls)
                # Now read: everything arrives, whole and in order.
                total = 0
                for _ in range(pipelined):
                    status, headers, payload = await read_response(reader)
                    assert status == 200 and len(payload) == size
                    total += 1
                writer.close()
                return stalled, suspended, buffered, handled, total

        stalled, suspended, buffered, handled, total = run_async(scenario())
        # One response is in the transport, its writer is suspended in
        # ``_write_response``, and no later request has been dispatched.
        assert stalled == suspended
        assert suspended[0] == suspended[1] + 1
        assert suspended[0] < pipelined
        assert handled == suspended[0]
        assert 0 < buffered <= size + 128 * 1024
        assert total == pipelined

    def test_a_pipelining_flood_pauses_reading(self):
        async def scenario():
            edge = Edge(max_body_bytes=1024)
            edge.gate = asyncio.Event()
            seen = {}
            original = HttpApiServer._read_request

            async def watched(self, conn):
                seen["conn"] = conn
                return await original(self, conn)

            edge.server._read_request = watched.__get__(edge.server)
            async with edge:
                reader, writer = await edge.open()
                request = post(b'{"pad": "%b"}' % (b"p" * 900))
                count = 4000  # ~4 MB, far over one head + body limit

                async def flood():
                    for _ in range(count):
                        writer.write(request)
                        await writer.drain()

                flooding = asyncio.ensure_future(flood())
                transport = None
                for _ in range(300):
                    await asyncio.sleep(0.01)
                    conn = seen.get("conn")
                    transport = getattr(conn, "transport", None) or getattr(
                        conn, "_transport", None
                    )
                    if transport is not None and not transport.is_reading():
                        break
                paused = transport is not None and not transport.is_reading()
                dispatched_while_held = len(edge.calls)
                edge.gate.set()
                answers = []
                for _ in range(count):
                    answers.append((await read_response(reader))[0])
                await flooding
                writer.close()
                return paused, dispatched_while_held, answers

        paused, dispatched, answers = run_async(scenario())
        assert paused, "the server kept reading a flood it was not consuming"
        assert dispatched == 1  # the held request; nothing overtakes it
        assert answers == [200] * 4000


# -- the SDK end ---------------------------------------------------------------


class _CannedServer:
    """Answers every connection's first request with fixed bytes, then closes."""

    def __init__(self, response: bytes) -> None:
        self.response = response
        self.connections = 0

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            await reader.readuntil(b"\r\n\r\n")
            writer.write(self.response)
            await writer.drain()
            await reader.read()  # hold the connection until the client leaves
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


class TestSdkFraming:
    @pytest.mark.parametrize(
        "response",
        [
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1_0\r\n\r\n0123456789",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
        ],
    )
    def test_unparsable_response_is_a_transport_error_and_resets(self, response):
        async def scenario():
            async with _CannedServer(response) as server:
                conn = _HttpConnection("127.0.0.1", server.port)
                with pytest.raises(TransportError):
                    await asyncio.wait_for(
                        conn.request("GET", "/api/v1/health"), READ_TIMEOUT_S
                    )
                # The half-read connection is not left in the keep-alive slot.
                connected = conn.is_connected
                await conn.close()
                return connected, server.connections

        connected, connections = run_async(scenario())
        assert connected is False
        assert connections == 1  # bytes arrived: terminal, never re-issued

    def test_response_split_at_every_byte_boundary(self):
        body = json.dumps({"ok": True, "n": [1, 2, 3]}).encode()
        response = (
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%b"
            % (len(body), body)
        )

        async def scenario():
            cuts = iter(range(1, len(response)))

            async def handle(reader, writer):
                try:
                    while True:
                        await reader.readuntil(b"\r\n\r\n")
                        cut = next(cuts)
                        writer.write(response[:cut])
                        await writer.drain()
                        for _ in range(4):
                            await asyncio.sleep(0)
                        writer.write(response[cut:])
                        await writer.drain()
                except (asyncio.IncompleteReadError, ConnectionError, StopIteration):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            conn = _HttpConnection("127.0.0.1", port)
            answers = [
                await asyncio.wait_for(
                    conn.request("GET", "/api/v1/health"), READ_TIMEOUT_S
                )
                for _ in range(1, len(response))
            ]
            await conn.close()
            server.close()
            await server.wait_closed()
            return answers

        answers = run_async(scenario())
        assert len(answers) == len(response) - 1
        assert all(answer == (200, json.loads(body)) for answer in answers)

    def test_hang_up_inside_the_response_is_terminal(self):
        async def scenario():
            async def handle(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n123")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            conn = _HttpConnection("127.0.0.1", port)
            with pytest.raises(TransportError) as excinfo:
                await asyncio.wait_for(
                    conn.request("GET", "/api/v1/health"), READ_TIMEOUT_S
                )
            connected = conn.is_connected
            await conn.close()
            server.close()
            await server.wait_closed()
            return excinfo.value, connected

        error, connected = run_async(scenario())
        assert type(error) is TransportError  # not a retry-budget error
        assert connected is False
