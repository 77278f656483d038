"""Client SDK retry: backoff policy, retry budgets, and what never retries."""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from helpers import run_async
from repro.client.client import (
    RetryBudgetExceeded,
    RetryPolicy,
    TransportError,
    _HttpConnection,
)


def fast_policy(max_attempts=3):
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.001, jitter=0.0)


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_for(i, rng) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_only_shrinks_within_bound(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5)
        rng = random.Random(7)
        for _ in range(100):
            delay = policy.delay_for(0, rng)
            assert 0.5 <= delay <= 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class _FlakyServer:
    """Accepts connections, closing the first N without a response byte.

    Models the idle keep-alive race / a server dying between accept and
    answer.  After the budgeted failures it answers any request with a
    minimal HTTP 200 JSON body.
    """

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.connections = 0
        self.requests_answered = 0
        self._server = None
        self.port = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        if self.connections <= self.failures:
            # Read the request head so the client's send succeeds, then slam
            # the connection shut before any response byte.
            try:
                await reader.readline()
            except ConnectionError:
                pass
            writer.close()
            return
        try:
            while await reader.readline() not in (b"\r\n", b"\n", b""):
                pass
            body = json.dumps({"ok": True}).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            self.requests_answered += 1
        finally:
            writer.close()


class TestConnectionRetry:
    def test_get_retries_stale_connections_until_success(self):
        async def scenario():
            async with _FlakyServer(failures=2) as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(4)
                )
                status, payload = await conn.request("GET", "/api/v1/health")
                await conn.close()
                return status, payload, server.connections

        status, payload, connections = run_async(scenario())
        assert status == 200
        assert payload == {"ok": True}
        assert connections == 3  # two stale failures + the success

    def test_get_budget_exhaustion_is_typed(self):
        async def scenario():
            async with _FlakyServer(failures=100) as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(3)
                )
                with pytest.raises(RetryBudgetExceeded) as excinfo:
                    await conn.request("GET", "/api/v1/health")
                await conn.close()
                return excinfo.value, server.connections

        error, connections = run_async(scenario())
        assert error.attempts == 3
        assert connections == 3
        assert isinstance(error, TransportError)  # old handlers keep working
        assert isinstance(error.last_error, TransportError)

    def test_post_never_retried_after_send(self):
        async def scenario():
            async with _FlakyServer(failures=100) as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(5)
                )
                with pytest.raises(TransportError) as excinfo:
                    await conn.request("POST", "/api/v1/app/update", {"x": 1})
                await conn.close()
                return excinfo.value, server.connections

        error, connections = run_async(scenario())
        # The request reached the wire: exactly one attempt, no silent rerun.
        assert connections == 1
        assert not isinstance(error, RetryBudgetExceeded)

    def test_post_retries_connect_failures(self):
        async def scenario():
            # Bind-then-close to learn a port that refuses connections.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            conn = _HttpConnection("127.0.0.1", port, retry_policy=fast_policy(3))
            attempts = 0
            original = conn.connect

            async def counting_connect():
                nonlocal attempts
                attempts += 1
                await original()

            conn.connect = counting_connect
            with pytest.raises(RetryBudgetExceeded) as excinfo:
                await conn.request("POST", "/api/v1/app/update", {"x": 1})
            return excinfo.value, attempts

        error, attempts = run_async(scenario())
        # Nothing was ever sent, so the POST is safe to retry each time.
        assert attempts == 3
        assert error.attempts == 3

    def test_single_attempt_policy_surfaces_plain_transport_error(self):
        async def scenario():
            async with _FlakyServer(failures=100) as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(1)
                )
                with pytest.raises(TransportError) as excinfo:
                    await conn.request("GET", "/api/v1/health")
                await conn.close()
                return excinfo.value

        error = run_async(scenario())
        assert not isinstance(error, RetryBudgetExceeded)


class _SheddingServer:
    """Answers the first N requests with a 429 + ``Retry-After``, then 200.

    Models an overloaded server shedding under admission control: the shed
    response is complete and well-formed, so re-issuing (even a POST) is
    safe — the server never executed the request.
    """

    def __init__(self, sheds: int, retry_after: str = "0", status: int = 429) -> None:
        self.sheds = sheds
        self.retry_after = retry_after
        self.status = status
        self.requests = 0
        self._server = None
        self.port = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode().partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                if length:
                    await reader.readexactly(length)
                self.requests += 1
                if self.requests <= self.sheds:
                    body = json.dumps(
                        {"error": {"code": "overloaded", "status": self.status,
                                   "message": "shed", "detail": {}}}
                    ).encode()
                    reason = {429: "Too Many Requests", 503: "Service Unavailable"}
                    writer.write(
                        f"HTTP/1.1 {self.status} {reason.get(self.status, 'Error')}\r\n"
                        f"Retry-After: {self.retry_after}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                    )
                else:
                    body = json.dumps({"ok": True}).encode()
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


class TestRetryAfter:
    def test_post_retries_429_until_success(self):
        """A shed POST is safe to re-issue: the server answered without
        executing it.  The client honors Retry-After and succeeds."""

        async def scenario():
            async with _SheddingServer(sheds=2, retry_after="0") as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(4)
                )
                status, payload = await conn.request(
                    "POST", "/api/v1/app/predict", {"input": [1.0]}
                )
                await conn.close()
                return status, payload, server.requests

        status, payload, requests = run_async(scenario())
        assert status == 200
        assert payload == {"ok": True}
        assert requests == 3

    def test_503_with_retry_after_also_retries(self):
        async def scenario():
            async with _SheddingServer(
                sheds=1, retry_after="0", status=503
            ) as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(3)
                )
                status, _ = await conn.request("GET", "/api/v1/health")
                await conn.close()
                return status, server.requests

        status, requests = run_async(scenario())
        assert status == 200
        assert requests == 2

    def test_retry_after_capped_at_policy_max_delay(self):
        """A pathological Retry-After (hours) must not stall the caller
        beyond the policy's own max delay."""

        async def scenario():
            async with _SheddingServer(sheds=1, retry_after="3600") as server:
                policy = RetryPolicy(
                    max_attempts=2, base_delay_s=0.001,
                    max_delay_s=0.05, jitter=0.0,
                )
                conn = _HttpConnection("127.0.0.1", server.port, retry_policy=policy)
                import time as _time

                t0 = _time.perf_counter()
                status, _ = await conn.request("GET", "/api/v1/health")
                elapsed = _time.perf_counter() - t0
                await conn.close()
                return status, elapsed

        status, elapsed = run_async(scenario())
        assert status == 200
        assert elapsed < 2.0  # not the 3600 s the server asked for

    def test_exhausted_budget_surfaces_final_429(self):
        """When every attempt is shed, the caller gets the last 429 payload
        (mapped to ServiceOverloaded at the client layer), not a hang."""

        async def scenario():
            async with _SheddingServer(sheds=100, retry_after="0") as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(3)
                )
                status, payload = await conn.request("GET", "/api/v1/health")
                await conn.close()
                return status, payload, server.requests

        status, payload, requests = run_async(scenario())
        assert status == 429
        assert requests == 3  # the full budget, then surface the response
        from repro.client.client import ServiceOverloaded, error_from_response

        error = error_from_response(status, payload)
        assert isinstance(error, ServiceOverloaded)
        assert error.code == "overloaded"

    def test_unparsable_retry_after_falls_back_to_backoff(self):
        async def scenario():
            async with _SheddingServer(sheds=1, retry_after="soon") as server:
                conn = _HttpConnection(
                    "127.0.0.1", server.port, retry_policy=fast_policy(3)
                )
                status, _ = await conn.request("GET", "/api/v1/health")
                await conn.close()
                return status

        assert run_async(scenario()) == 200


class TestErrorMapping:
    @pytest.mark.parametrize(
        "status,payload,expected,code",
        [
            (429, {"error": {"code": "overloaded", "status": 429, "message": "shed",
                             "detail": {}}}, "ServiceOverloaded", "overloaded"),
            (404, {"error": {"code": "unknown_application", "message": "no app"}},
             "UnknownApplication", "unknown_application"),
            (409, {"error": {"code": "brand_new_code", "message": "?"}},
             "ApiStatusError", "brand_new_code"),
            # Bodies not in the wire error shape map by status alone.
            (502, {"error": "bad gateway"}, "ServerError", "internal"),
            (400, {"error": None}, "ApiStatusError", "internal"),
            (500, {"error": {"detail": "oops"}}, "ServerError", "internal"),
            (503, {"error": {"code": ["x"], "message": 7}}, "ServerError", "internal"),
            (418, ["not", "an", "object"], "ApiStatusError", "internal"),
            (500, None, "ServerError", "internal"),
        ],
    )
    def test_a_body_maps_to_the_typed_error_of_its_code_or_status(
        self, status, payload, expected, code
    ):
        from repro.client import client

        error = client.error_from_response(status, payload)
        assert type(error) is getattr(client, expected)
        assert (error.status, error.code) == (status, code)
        assert isinstance(error.message, str) and isinstance(error.detail, dict)
