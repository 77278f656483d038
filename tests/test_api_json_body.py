"""The JSON edge's one-pass body decode, held to the reference decode.

A ``floats`` / ``doubles`` application's predict and update routes ask the
JSON decoder for the body's ``input`` as a vector
(``jsonwire.loads(data, "input")``): the pass that packs the float64 array
is also the check of that list, and its bound, ``2**53``, is what keeps the
array the one validation builds from the list.  The reference is the decode
every other body takes: ``jsonwire.loads`` of the whole body, then
``ApplicationSchema.decode_wire_input`` and ``validate_input``.  Here the
reference runs with ``decode_wire_input``'s own vector shortcut off, so the
one pass is held to numpy's reading of the list, not to the rule it shares
with that shortcut (``test_api_schema.py::TestWireDecodeIsExact`` holds the
shortcut to the same reading).

Each generated body is served by a real route table and frontend, once per
path and per JSON backend, and compared on what a caller can observe: the
status, the rendered response body, and the array the application was
handed (dtype, shape and bytes).  A mutant this fails: :func:`jsonwire.vector`
bounding by ``2**62`` (jsonwire's own bound) where it bounds by ``2**53``,
which hands a ``floats`` application the integer ``2**60 + 2**36 + 1``
rounded twice, through float64 to float32.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api import http as http_module
from repro.api import schema as schema_module
from repro.api.handlers import build_route_table
from repro.api.http import HttpApiServer
from repro.api.routes import RouteTable
from repro.api.schema import json_safe
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig
from repro.core.frontend import QueryFrontend
from repro.core.types import Prediction
from repro.rpc import jsonwire

INPUT_TYPES = [None, "ints", "floats", "doubles", "bytes", "strings"]
HEADERS = {"content-type": "application/json"}


def _backend(name: str) -> Tuple[Any, Any]:
    if name == "orjson":
        pytest.importorskip("orjson")
    return jsonwire._BACKENDS[name]


BACKENDS = ["json", "orjson"]


# -- bodies, as JSON text ------------------------------------------------------

#: Integers that round differently to float32 directly than through float64:
#: an even float32 midpoint past 2**53, nudged (one nudged up rounds up
#: directly, and to even, down, from the float64 it rounds to).
_double_rounded = st.builds(
    lambda k, m, d, sign: sign * ((m << (k - 23)) + (1 << (k - 24)) + d),
    st.integers(54, 61), st.integers(2**22, 2**23 - 1).map(lambda h: 2 * h),
    st.integers(-2, 2), st.sampled_from([1, -1]),
)
#: Integers each side of 2**53, and past 64 bits.
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-3, 3).map(lambda d: 2**53 + d),
    st.integers(-3, 3).map(lambda d: -(2**53) + d),
    st.integers(2**63 - 2, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    _double_rounded,
)
_number = st.one_of(
    _ints.map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(repr),
)
_token = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "false", "null"]
)
_string = st.one_of(st.text(max_size=6), st.binary(max_size=9).map(lambda b: b.hex())).map(
    json.dumps
)
_row = st.lists(_number, min_size=1, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")
_element = st.one_of(_number, _number, _number, _token, _string, _row)


def _array(items) -> str:
    return "[" + ",".join(items) + "]"


_list = st.one_of(
    st.lists(_number, max_size=40).map(_array),
    st.lists(_ints.map(str), min_size=1, max_size=6).map(_array),  # an int64 array
    st.lists(st.one_of(_double_rounded, _double_rounded, st.integers(-9, 9)).map(str),
             min_size=1, max_size=4).map(_array),
    st.lists(_element, max_size=40).map(_array),
    st.tuples(st.sampled_from(["true", "false"]), st.lists(_element, max_size=12)).map(
        lambda t: _array([t[0], *t[1]])
    ),
    st.lists(_row, min_size=1, max_size=4).map(_array),
    st.lists(st.sampled_from(["true", "false"]), min_size=1, max_size=4).map(_array),
)
_input = st.one_of(_list, _list, _list, _number, _token, _string, st.just("{}"))
_extra = st.one_of(
    st.tuples(st.just('"user_id"'), st.one_of(_string, _number, _token)),
    st.tuples(st.just('"latency_slo_ms"'), st.one_of(_number, _token)),
    st.tuples(st.just('"label"'), st.one_of(_number, _string)),
    st.tuples(st.just('"pad"'), st.one_of(_element, _list)),
)


@st.composite
def _bodies(draw) -> bytes:
    shape = draw(st.sampled_from(["object", "object", "object", "no input", "not an object"]))
    if shape == "not an object":
        return draw(st.one_of(_input, _element)).encode()
    members = [":".join(pair) for pair in draw(st.lists(_extra, max_size=3))]
    if shape == "object":
        members.insert(draw(st.integers(0, len(members))), '"input":' + draw(_input))
    return ("{" + ",".join(members) + "}").encode()


# -- the server, and what a request's caller sees ------------------------------


def _frontend(input_type) -> QueryFrontend:
    """A frontend over one unstarted application whose engine hands back, or
    keeps, what validation gave it."""
    clipper = Clipper(
        ClipperConfig(app_name="app", selection_policy="single", input_type=input_type)
    )
    clipper.seen = []

    async def predict(query):
        clipper.seen.append(query.input)
        return Prediction(query_id=0, app_name="app", output=0)

    async def feedback(feedback):
        clipper.seen.append(feedback.input)

    clipper.predict, clipper.feedback = predict, feedback
    frontend = QueryFrontend()
    frontend.register_application(clipper)
    return frontend


_SERVERS: Dict[Any, Tuple[HttpApiServer, HttpApiServer, Clipper]] = {}


def _servers(input_type):
    """The edge as built, and the same edge with no route reading a vector."""
    if input_type not in _SERVERS:
        frontend = _frontend(input_type)
        table = build_route_table(frontend)
        reference = RouteTable()
        for route in table.routes():
            reference.add(route.method, route.pattern, route.name, route.handler)
        _SERVERS[input_type] = (
            HttpApiServer(table), HttpApiServer(reference), frontend.application("app")
        )
    return _SERVERS[input_type]


def _describe(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    return (type(value).__name__, repr(value))


def _served(server: HttpApiServer, clipper: Clipper, path: str, body: bytes):
    """Status, rendered body and what the engine got, for one request."""
    step = server._dispatch("POST", path, "", HEADERS, body)
    try:
        step.send(None)
    except StopIteration as done:
        status, payload, _, _ = done.value
    else:  # pragma: no cover - nothing here waits
        raise AssertionError("the request suspended")
    seen = [_describe(x) for x in clipper.seen]
    clipper.seen.clear()
    return status, http_module._encode_json(payload), seen


def _both(input_type, backend: str, route: str, body: bytes):
    one_pass, reference, clipper = _servers(input_type)
    path = f"/api/v1/app/{route}"
    dumps, loads = _backend(backend)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsonwire, "dumps", dumps)
        patch.setattr(jsonwire, "loads", loads)
        mine = _served(one_pass, clipper, path, body)
        patch.setattr(schema_module, "vector", lambda raw: None)
        theirs = _served(reference, clipper, path, body)
    return mine, theirs


class TestOnePassDecode:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("input_type", INPUT_TYPES, ids=str)
    @given(body=_bodies(), route=st.sampled_from(["predict", "update"]))
    @example(body=b'{"input":[1152921573326323713,1]}', route="predict")
    @example(body=b'{"input":[true,false]}', route="predict")
    @example(body=b'{"input":[18446744073709551616,1.5]}', route="predict")
    @example(body=b'{"input":[1.5,NaN]}', route="update")
    @example(body=b'{"latency_slo_ms":1e400,"input":[1.5,2.5]}', route="predict")
    def test_the_one_pass_serves_what_the_reference_serves(
        self, input_type, backend, body, route
    ):
        mine, theirs = _both(input_type, backend, route, body)
        assert mine == theirs

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("input_type", ["floats", "doubles"])
    def test_a_vector_is_read_in_the_pass_that_decodes_the_body(self, input_type, backend):
        _, loads = _backend(backend)
        x = np.random.default_rng(0).standard_normal(784)
        body = jsonwire._std_dumps({"user_id": "u", "input": x.tolist()})
        value = loads(body, "input")
        assert value["user_id"] == "u" and value["input"].tobytes() == x.tobytes()
        (mine, _, seen), _ = _both(input_type, backend, "predict", body)
        assert mine == 200
        dtype = np.float32 if input_type == "floats" else np.float64
        assert seen == [_describe(x.astype(dtype))]

    @pytest.mark.parametrize(
        "raw",
        [
            "[2e300,1]", "[1,2,1e400]", '[1,"2"]', "[[1,2],[3,4]]", "[]", "[true,1.5]",
            "[1.5,true]", "[9007199254740992,0.5]", "[-9007199254740991,0.5]",
        ],
    )
    def test_what_the_vector_declines_or_takes(self, raw):
        """Declined: an entry at or past ``2**53`` (or infinite), a non-number,
        a row, nothing, a leading bool.  Taken: a bool after a number (numpy
        reads it as 1.0), and ``2**53 - 1``."""
        value = json.loads(raw)
        built = jsonwire.vector(value)
        takes = raw in ("[1.5,true]", "[-9007199254740991,0.5]")
        assert (built is not None) == takes
        if takes:
            assert built.tobytes() == np.asarray(value, dtype=np.float64).tobytes()


# -- the response: one walk ------------------------------------------------------

_leaf = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), _ints,
    st.floats(), st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.binary(max_size=4),
    st.lists(st.floats(), max_size=3).map(np.array),
    st.sampled_from(["\ud800", "x\udfff"]),
)
_values = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestOneWalkResponse:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(value=_values)
    def test_json_safe_output_is_written_as_the_stdlib_writes_it(self, backend, value):
        """``dumps(json_safe(v), True)`` skips jsonwire's check: it decodes to
        what the stdlib's own writing of ``json_safe(v)`` decodes to."""
        dumps, _ = _backend(backend)
        safe = json_safe(value)
        try:
            want = json.loads(jsonwire._std_dumps(safe))
        except (TypeError, ValueError) as exc:  # lone surrogates are written
            pytest.fail(f"json_safe output the stdlib cannot write: {exc!r}")
        assert json.loads(dumps(safe, True)) == want
