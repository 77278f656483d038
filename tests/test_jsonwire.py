"""The wire's JSON codec is the stdlib's, whichever library does the work.

:mod:`repro.rpc.jsonwire` hands the REST edge's and the SDK's JSON bytes to
``orjson`` when it is installed.  orjson breaks the stdlib's unwritten
contract in several places — it refuses NaN/Infinity tokens and lone
surrogates, reads an integer past 64 bits as a float, reads nesting the
stdlib refuses (and crashes on a deep enough body), writes NaN as ``null``
and encodes enums and UUIDs — so the module's contract is stated here as an
equivalence with the stdlib over generated values and bytes, for both
backends, called directly:

* decode: equal to ``json.loads(data.decode("utf-8"))`` in value and type
  (floats bit for bit, dict keys in order), or the same exception;
* encode: the bytes decode (by the stdlib) to what ``json.dumps`` decodes
  to, or the same exception, where ``json.dumps`` writes an ndarray leaf as
  its ``tolist()`` (and refuses a numpy scalar, as it does by itself).
"""

from __future__ import annotations

import datetime
import enum
import json
import struct
import types
import uuid

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.rpc import jsonwire

BACKENDS = ["json", "orjson"]


def codec(name: str):
    """``(dumps, loads)`` of the named backend; skips when it is not installed."""
    if name == "orjson":
        pytest.importorskip("orjson")
    return jsonwire._BACKENDS[name]


def _outcome(transform, value):
    try:
        return transform(value)
    except (ValueError, TypeError, RecursionError) as exc:
        return exc


def assert_same(mine, theirs) -> None:
    """Equal in type and value: floats bit for bit, keys in order."""
    assert type(mine) is type(theirs), (mine, theirs)
    if isinstance(theirs, BaseException):
        return
    if isinstance(theirs, float):
        assert struct.pack("<d", mine) == struct.pack("<d", theirs)
    elif isinstance(theirs, list):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert_same(a, b)
    elif isinstance(theirs, dict):
        assert list(mine) == list(theirs)
        for key in theirs:
            assert_same(mine[key], theirs[key])
    else:
        assert mine == theirs


def reference_loads(data: bytes):
    return json.loads(data.decode("utf-8"))


def tolist(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def reference_round_trip(value):
    return json.loads(json.dumps(value, default=tolist))


def nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


def deep_list(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


# -- values -------------------------------------------------------------------

_EDGES = [2**62, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**30]
_big_ints = st.sampled_from(_EDGES + [-n for n in _EDGES] + [-(2**63) - 1]).flatmap(
    lambda n: st.integers(n - 2, n + 2)
)
#: Any code point, lone surrogates included.
_text = st.text(st.characters(exclude_categories=()), max_size=12)
#: Scalars without floats: a long list of them is checked by type alone.
_atoms = st.none() | st.booleans() | st.integers() | _big_ints | _text
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | _big_ints
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=2.0**61, max_value=2.0**65)
    | _text
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(st.floats(allow_nan=False), min_size=9, max_size=40)
    | st.lists(_atoms, min_size=9, max_size=20)
    | st.lists(_json_scalars, min_size=9, max_size=20)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=24,
)


#: Floats where orjson's writers part from the stdlib or a bound sits.
_FLOAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, float("nan"),
    float("inf"), float("-inf"), 2.0**62, -(2.0**62), 2.0**63, 1e20, 1.7976931348623157e308,
]
_ARRAY_DTYPES = ["<f8", ">f8", "<f4", "<f2", "<i8", ">i8", "|b1", "<c16", "O"]


def _array_elements(dtype: np.dtype):
    if dtype.kind == "f":
        floats = st.floats(width=8 * dtype.itemsize)
        return floats | st.sampled_from(_FLOAT_EDGES) if dtype.itemsize == 8 else floats
    if dtype.kind == "i":
        return st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**62, 2**63 - 1, -(2**63)])
    if dtype.kind == "b":
        return st.booleans()
    if dtype.kind == "c":
        return st.complex_numbers(allow_nan=False)
    return st.none() | st.booleans() | st.integers() | st.floats() | _text | st.sampled_from(
        [np.float32(0.5), np.int64(3), np.array([1.0, 2.0])]
    )


@st.composite
def _ndarrays(draw) -> np.ndarray:
    """Arrays of every kind the writers treat apart: each dtype, 0-d, empty,
    big-endian and not C-contiguous."""
    dtype = np.dtype(draw(st.sampled_from(_ARRAY_DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    array = draw(hnp.arrays(dtype, shape, elements=_array_elements(dtype)))
    if array.ndim and draw(st.booleans()):
        array = array[::2] if draw(st.booleans()) else array.T
    return array


class _Color(enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


class _Text(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class _Array(np.ndarray):
    pass


#: What callers may hand ``dumps`` beyond JSON's own types.
_foreign = st.sampled_from(
    [
        _Color.RED, _Level.HIGH, uuid.UUID(int=7), datetime.date(2026, 1, 1),
        np.float64(1.5), np.float32(0.25), np.int64(3), np.bool_(True),
        np.array([1.0, 2.0]), b"raw", object(), {1, 2}, 1j,
        _Text("t"), _Int(4), _Float(0.5), _List([1]), _Dict(a=1),
        np.arange(3.0).view(_Array),
    ]
)
_keys = _text | st.integers(-3, 3) | st.floats(allow_nan=True) | st.booleans() | st.none()
_encodable = st.recursive(
    _json_scalars | _foreign | _ndarrays(),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=9, max_size=40)
    | st.lists(st.integers() | st.floats(), min_size=9, max_size=20)
    | st.lists(_atoms, min_size=9, max_size=20)
    | st.lists(_atoms | _foreign | _ndarrays(), min_size=9, max_size=20)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=24,
)


# -- bytes --------------------------------------------------------------------


@st.composite
def _documents(draw) -> bytes:
    """A generated value as text, spelled any way the stdlib can spell it."""
    value = draw(_json_values)
    text = json.dumps(
        value,
        ensure_ascii=draw(st.booleans()),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])),
    )
    # A lone surrogate written raw is not UTF-8: both must refuse it.
    return text.encode("utf-8", "surrogatepass")


@st.composite
def _mutated(draw) -> bytes:
    data = bytearray(draw(_documents()))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        byte = draw(
            st.sampled_from(list(b'[]{},:"\\-+.eE0189 \tnNI\xff\xef\xbb\xbf\x00'))
            | st.integers(0, 255)
        )
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "delete":
                del data[at]
            else:
                data[at] = byte
    return bytes(data)


#: The divergences of orjson 3.8 from the stdlib, each reproduced by hand.
CURATED = [
    b"NaN", b"[Infinity,-Infinity,NaN]", b'{"input":[NaN]}', b"1e400", b"-1e400",
    b"1.7976931348623159e308", b'"\\ud800"', b'["\\udfff", "\\ud83d\\ude00"]',
    b"9223372036854775807", b"9223372036854775808", b"-9223372036854775808",
    b"-9223372036854775809", b"18446744073709551615", b"18446744073709551616",
    b'{"input":[18446744073709551616]}', b"[1.5,-18446744073709551617]",
    b"123456789012345678901234567890", b"-123456789012345678901234567890",
    b"1" * 5000, b"[" + b",".join([b"0.5"] * 20 + [b"18446744073709551616"]) + b"]",
    nested(512), nested(513), nested(999), nested(1000), nested(1_000_000),
    b"[" * 1_000_000, b"{" * 600 + b'"a":1',
    b"\xef\xbb\xbf{}", b"\xef\xbb\xbf", b'"\xff"', b'"\xed\xa0\x80"', b'"\xc0\x80"',
    b'{"a":1,"b":2,"a":3}', b'"\\u0000"', b'{"\\u0000":null}', b"-0", b"-0.0",
    b"", b" ", b"\x00", b"01", b"1.", b".5", b"+1", b" \x0c1", b"[1,]", b"tru",
    b"1e-400", b"2.2250738585072011e-308", b"0.1234567890123456789012345",
    # Long lists that are not vectors of numbers, one of them not plain.
    b'["a","b","c","d","e","f","g","h","i",null,true,7]',
    b'["a","b","c","d","e","f","g","h","i","\\ud800"]',
    b'["a","b","c","d","e","f","g","h","i",18446744073709551616]',
    b"[1,2,3,4,5,6,7,8,9,18446744073709551616,[]]",
]


class TestDecode:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=_documents())
    def test_generated_documents(self, backend, data):
        _, loads = codec(backend)
        assert_same(_outcome(loads, data), _outcome(reference_loads, data))

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=_mutated())
    def test_mutated_documents(self, backend, data):
        _, loads = codec(backend)
        assert_same(_outcome(loads, data), _outcome(reference_loads, data))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("data", CURATED, ids=lambda data: repr(data[:24]))
    def test_curated_divergences(self, backend, data):
        _, loads = codec(backend)
        assert_same(_outcome(loads, data), _outcome(reference_loads, data))

    def test_an_integer_past_64_bits_stays_an_integer(self):
        _, loads = codec("orjson")
        assert loads(b'{"input":[18446744073709551616]}') == {"input": [2**64]}
        assert type(loads(b"[-9223372036854775809]")[0]) is int

    def test_only_shallow_bytes_reach_orjson(self, monkeypatch):
        _, loads = codec("orjson")
        shown = []

        def recording(data):
            shown.append(data)
            return real.loads(data)

        real = jsonwire.orjson
        monkeypatch.setattr(
            jsonwire, "orjson",
            types.SimpleNamespace(loads=recording, JSONDecodeError=real.JSONDecodeError),
        )
        limit = jsonwire.MAX_BRACKETS
        at_limit = b"[" + b"{}," * (limit - 2) + b"[]]"
        assert loads(at_limit)[-1] == [] and shown == [at_limit]
        for deep in (at_limit[:-1] + b",{}]", nested(limit + 1), b"[" * 1_000_000):
            _outcome(loads, deep)
        assert shown == [at_limit]

    @given(
        runs=st.lists(
            st.tuples(st.sampled_from([b"[", b"{", b"0", b"]"]), st.integers(0, 300)),
            max_size=6,
        )
    )
    @example(runs=[(b"[", 8), (b"0", 3), (b"{", 8)])
    @example(runs=[(b"[", 8), (b"0", 3), (b"{", 9)])
    @example(runs=[(b"{", 300), (b"[", 212)])
    @example(runs=[(b"{", 300), (b"[", 213)])
    def test_the_bracket_bound_is_a_count(self, runs):
        data = b"".join(byte * n for byte, n in runs)
        expected = data.count(b"[") + data.count(b"{") <= jsonwire.MAX_BRACKETS
        assert jsonwire._shallow(data) is expected


class TestEncode:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(value=_encodable)
    def test_generated_values(self, backend, value):
        dumps, _ = codec(backend)
        mine = _outcome(lambda v: reference_loads(dumps(v)), value)
        assert_same(mine, _outcome(reference_round_trip, value))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "value",
        [
            float("nan"), [float("inf")], {"input": [0.5] * 20 + [float("-inf")]},
            2**64, -(2**63) - 1, [2**64] * 10, {1: "a", None: 2, 1.5: 3, True: 4},
            {_Text("k"): 1}, np.float64(2.5), np.int64(1), [np.float32(1.0)] * 10,
            (1, (2, 3)), "héllo ✓ 😀", "\ud800", _Color.RED, [_Color.RED] * 10,
            _Level.HIGH, [_Level.HIGH] * 10, uuid.UUID(int=1), [uuid.UUID(int=1)] * 10,
            datetime.date(2026, 1, 1), [[[[0]]]] * 3, deep_list(300), deep_list(900),
            {"a": 2.0**62}, [2.0**62] * 10, [1e308] * 10,
            ["a", None, True, 3] * 3, ["a"] * 9 + ["\ud800"], ["a"] * 9 + [2**64],
            ["a"] * 9 + [_Text("t")], ["a"] * 9 + [_Color.RED], [1] * 9 + [10**400],
            # ndarray leaves: written as their tolist(), whichever writer.
            {"input": np.arange(784.0)}, {"input": np.arange(784)}, np.zeros((3, 0)),
            {"input": np.arange(784.0) - 2.0**62}, {"input": np.full(3, np.nan)},
            np.array([2.0**63, -0.0, 5e-324]), np.arange(12.0).reshape(3, 4).T,
            np.arange(4.0, dtype=">f8"), np.arange(4, dtype=">i8"), np.float32([0.1, 1e30]),
            np.array(1.5), np.array([True, False]), np.array([1j]), np.arange(2.0).view(_Array),
            np.array([np.float32(1.0), np.array([0.5])], dtype=object),
            [np.arange(3.0)] * 10,
            # A numpy scalar stays refused beside an array the numpy writer takes.
            {"input": np.arange(3.0), "also": [np.float32(1.0)] * 10},
            [np.arange(3), [np.int64(1)] * 10], [np.arange(3.0), np.bool_(True)],
            # Falsified once: float() of the 0-d array raised ValueError in the norm pass.
            [np.array("", dtype=object)] + [None] * 8,
        ],
        ids=lambda value: repr(value)[:24],
    )
    def test_curated_values(self, backend, value):
        dumps, _ = codec(backend)
        mine = _outcome(lambda v: reference_loads(dumps(v)), value)
        assert_same(mine, _outcome(reference_round_trip, value))

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(6.0)[::2], np.arange(6.0).reshape(2, 3).T, np.array(1.5),
            np.arange(4.0, dtype=">f8"), np.float32([0.1, 2.5]), np.array([True]),
        ],
        ids=lambda array: f"{array.dtype.str}{array.shape}",
    )
    def test_an_array_the_numpy_writer_cannot_take_stays_with_orjson(
        self, monkeypatch, array
    ):
        # Written as its tolist(), at the cost the SDK paid for that list.
        dumps, _ = codec("orjson")
        monkeypatch.setattr(jsonwire, "_std_dumps", None)
        assert reference_loads(dumps({"input": array})) == {"input": array.tolist()}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nesting_past_the_stdlibs_limit_raises_alike(self, backend):
        dumps, _ = codec(backend)
        with pytest.raises(RecursionError):
            dumps(deep_list(5000))


def test_the_backend_is_orjson_exactly_when_it_imports():
    try:
        import orjson  # noqa: F401
    except ImportError:
        expected = "json"
    else:
        expected = "orjson"
    assert jsonwire.BACKEND == expected
    assert (jsonwire.dumps, jsonwire.loads) == jsonwire._BACKENDS[expected]
