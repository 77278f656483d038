"""End-to-end tests of the binary columnar content type on the REST edge.

Covers Accept negotiation (q-values, wildcards, 406), the client SDK's
``binary=True`` mode, and — over real
sockets — the malformed-frame discipline: corrupt, truncated and
wrong-dtype columnar bodies must come back as structured 4xx errors, never
a 500 or a dropped connection.
"""

import asyncio
import json

import numpy as np
import pytest

from helpers import run_async
from repro.api.columnar import COLUMNAR_CONTENT_TYPE, decode_columnar
from repro.api.errors import BadRequestError, NotAcceptableError
from repro.api.http import JSON_CONTENT_TYPE, create_server
from repro.client import AsyncClipperClient, ClipperClient, encode_binary_input
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.frontend import QueryFrontend
from repro.rpc.serialization import deserialize, serialize_buffers


def make_app(name="demo", output=1, **config_kwargs):
    clipper = Clipper(
        ClipperConfig(app_name=name, selection_policy="single", **config_kwargs)
    )
    clipper.deploy_model(
        ModelDeployment(
            name="noop", container_factory=lambda: NoOpContainer(output=output)
        )
    )
    return clipper


def make_server(clipper, **kwargs):
    query = QueryFrontend()
    query.register_application(clipper)
    return create_server(query=query, **kwargs)


def columnar_body(payload) -> bytes:
    """Render a payload as one columnar frame (joined only for the test)."""
    return b"".join(bytes(segment) for segment in serialize_buffers(payload))


async def raw_request(port, data: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response


def post_predict(app: str, body: bytes, content_type: str, accept=None) -> bytes:
    accept_line = b"Accept: %b\r\n" % accept.encode() if accept else b""
    return (
        b"POST /api/v1/%b/predict HTTP/1.1\r\n"
        b"Host: t\r\nContent-Type: %b\r\n%b"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
        % (app.encode(), content_type.encode(), accept_line, len(body), body)
    )


def parse_response(response: bytes):
    head, _, payload = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode()] = value.strip().decode()
    return status, headers, payload


class TestAcceptNegotiation:
    """Unit coverage of the media-range negotiation itself."""

    def make(self):
        return make_server(make_app())

    @pytest.mark.parametrize(
        "header,expected",
        [
            (None, JSON_CONTENT_TYPE),
            ("application/json", JSON_CONTENT_TYPE),
            (COLUMNAR_CONTENT_TYPE, COLUMNAR_CONTENT_TYPE),
            ("*/*", JSON_CONTENT_TYPE),
            ("application/*", JSON_CONTENT_TYPE),
            # Highest q wins across a multi-valued header.
            (
                f"{COLUMNAR_CONTENT_TYPE};q=0.4, application/json;q=0.9",
                JSON_CONTENT_TYPE,
            ),
            (
                f"application/json;q=0.5, {COLUMNAR_CONTENT_TYPE}",
                COLUMNAR_CONTENT_TYPE,
            ),
            # First-listed wins a tie.
            (
                f"{COLUMNAR_CONTENT_TYPE}, application/json",
                COLUMNAR_CONTENT_TYPE,
            ),
            (
                f"application/json, {COLUMNAR_CONTENT_TYPE}",
                JSON_CONTENT_TYPE,
            ),
            # Unknown ranges are skipped when an acceptable one remains.
            ("application/x-protobuf, */*;q=0.1", JSON_CONTENT_TYPE),
            # Unparseable garbage keeps the JSON default.
            (",,,", JSON_CONTENT_TYPE),
            ("application/json;q=not-a-number, */*", JSON_CONTENT_TYPE),
        ],
    )
    def test_negotiation_table(self, header, expected):
        assert self.make()._negotiate_accept(header) == expected

    def test_only_unknown_ranges_is_406(self):
        with pytest.raises(NotAcceptableError) as excinfo:
            self.make()._negotiate_accept("application/x-protobuf")
        assert excinfo.value.http_status == 406
        assert COLUMNAR_CONTENT_TYPE in excinfo.value.detail["supported"]

    def test_q_zero_rules_an_encoding_out(self):
        with pytest.raises(NotAcceptableError):
            self.make()._negotiate_accept("application/json;q=0")


class TestBinaryClient:
    def test_binary_predict_matches_json(self):
        async def scenario():
            server = make_server(
                make_app(output=7, input_type="doubles", input_shape=(8,))
            )
            async with server:
                x = np.arange(8, dtype=np.float64)
                async with AsyncClipperClient(
                    "127.0.0.1", server.port, binary=True
                ) as bin_client, AsyncClipperClient(
                    "127.0.0.1", server.port
                ) as json_client:
                    got_bin = await bin_client.predict("demo", x)
                    got_json = await json_client.predict("demo", x.tolist())
                    assert bin_client.binary  # no fallback happened
                    assert got_bin.output == got_json.output == 7
                    assert not got_bin.default_used
                    # update flows through the same negotiated path.
                    await bin_client.update("demo", x, 7)

        run_async(scenario())

    def test_sync_client_speaks_binary(self):
        # Server on its own loop in a background thread, blocking client in
        # the test thread — the realistic shape for the sync wrapper.
        import threading

        loop = asyncio.new_event_loop()
        box = {}
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(loop)
            server = make_server(make_app(output=5, input_type="floats"))
            loop.run_until_complete(server.start())
            box["server"] = server
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10.0)
        server = box["server"]
        try:
            with ClipperClient("127.0.0.1", server.port, binary=True) as client:
                result = client.predict("demo", np.ones(4, dtype=np.float32))
                assert result.output == 5
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
            loop.close()

    def test_bytes_input_travels_natively(self):
        async def scenario():
            server = make_server(make_app(input_type="bytes"))
            async with server:
                async with AsyncClipperClient(
                    "127.0.0.1", server.port, binary=True
                ) as client:
                    result = await client.predict("demo", b"\x00\xffraw")
                    assert result.output == 1
                    assert client.binary

        run_async(scenario())

    def test_encode_binary_input_passthrough(self):
        arr = np.arange(4, dtype=np.float32)[::2]  # non-contiguous
        encoded = encode_binary_input(arr)
        assert isinstance(encoded, np.ndarray) and encoded.flags["C_CONTIGUOUS"]
        assert encode_binary_input(b"abc") == b"abc"
        assert encode_binary_input(memoryview(b"abc")) == b"abc"


class TestMalformedFramesOverRealSockets:
    def test_corrupt_frame_is_structured_400(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                body = b"\xffnot a columnar frame at all"
                response = await raw_request(
                    server.port,
                    post_predict("demo", body, COLUMNAR_CONTENT_TYPE),
                )
                status, headers, payload = parse_response(response)
                assert status == 400
                assert headers["content-type"].startswith("application/json")
                error = json.loads(payload)["error"]
                assert error["code"] == "malformed_request"
                assert error["detail"]["content_type"] == COLUMNAR_CONTENT_TYPE

        run_async(scenario())

    def test_truncated_frame_is_400(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                whole = columnar_body(
                    {"input": np.arange(16, dtype=np.float64), "user_id": "u"}
                )
                # A valid frame cut short, with Content-Length matching the
                # truncation — the frame itself is what's inconsistent.
                body = whole[: len(whole) - 7]
                response = await raw_request(
                    server.port,
                    post_predict("demo", body, COLUMNAR_CONTENT_TYPE),
                )
                status, _, payload = parse_response(response)
                assert status == 400
                assert json.loads(payload)["error"]["status"] == 400

        run_async(scenario())

    def test_wrong_dtype_for_schema_is_422(self):
        async def scenario():
            server = make_server(
                make_app(input_type="doubles", input_shape=(4,))
            )
            async with server:
                # A perfectly valid columnar frame whose input violates the
                # application schema: decoding succeeds, validation rejects.
                body = columnar_body({"input": "not a vector"})
                response = await raw_request(
                    server.port,
                    post_predict("demo", body, COLUMNAR_CONTENT_TYPE),
                )
                status, _, payload = parse_response(response)
                assert status == 422
                assert json.loads(payload)["error"]["code"] == "invalid_input"

        run_async(scenario())

    def test_unsatisfiable_accept_is_406(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                body = json.dumps({"input": [1.0]}).encode()
                response = await raw_request(
                    server.port,
                    post_predict(
                        "demo", body, "application/json",
                        accept="application/x-protobuf",
                    ),
                )
                status, headers, payload = parse_response(response)
                assert status == 406
                # The error itself renders as JSON (the client picks its
                # decoder by Content-Type, not by what it asked for).
                assert headers["content-type"].startswith("application/json")
                assert json.loads(payload)["error"]["code"] == "not_acceptable"

        run_async(scenario())

    def test_errors_render_json_even_with_columnar_accept(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                response = await raw_request(
                    server.port,
                    post_predict(
                        "ghost",
                        columnar_body({"input": [1.0]}),
                        COLUMNAR_CONTENT_TYPE,
                        accept=COLUMNAR_CONTENT_TYPE,
                    ),
                )
                status, headers, payload = parse_response(response)
                assert status == 404
                assert headers["content-type"].startswith("application/json")
                assert json.loads(payload)["error"]["code"] == "unknown_application"

        run_async(scenario())

    def test_get_with_columnar_accept_returns_binary_body(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                response = await raw_request(
                    server.port,
                    b"GET /api/v1/health HTTP/1.1\r\nHost: t\r\n"
                    b"Accept: %b\r\nConnection: close\r\n\r\n"
                    % COLUMNAR_CONTENT_TYPE.encode(),
                )
                status, headers, payload = parse_response(response)
                assert status == 200
                assert headers["content-type"] == COLUMNAR_CONTENT_TYPE
                assert int(headers["content-length"]) == len(payload)
                decoded = deserialize(payload)
                assert decoded["status"] == "ok"

        run_async(scenario())


class TestColumnarCodecUnits:
    def test_decode_maps_serialization_error_to_bad_request(self):
        with pytest.raises(BadRequestError) as excinfo:
            decode_columnar(b"\x00\x01junk")
        assert excinfo.value.http_status == 400

    def test_round_trip_preserves_typed_arrays(self):
        x = np.arange(12, dtype=np.float32)
        frame = columnar_body({"input": x, "user_id": "u"})
        decoded = deserialize(frame)
        assert isinstance(decoded["input"], np.ndarray)
        assert decoded["input"].dtype == np.float32
        np.testing.assert_array_equal(decoded["input"], x)
