"""Tests for typed application schemas, the wire codec and the error model."""

import base64
import enum
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.api.errors import error_payload
from repro.api.schema import ApplicationSchema, check_output_value, json_safe
from repro.core.config import ClipperConfig
from repro.core.exceptions import (
    BadRequestError,
    ConfigurationError,
    DuplicateApplicationError,
    ManagementError,
    PredictionTimeoutError,
    SerializationError,
    UnknownApplicationError,
    ValidationError,
)
from repro.rpc import jsonwire
from repro.rpc.serialization import deserialize, serialize


class TestInputValidation:
    def test_doubles_coerce_list_to_float64(self):
        schema = ApplicationSchema("app", input_type="doubles")
        out = schema.validate_input([1, 2.5, 3])
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert out.flags.c_contiguous

    def test_floats_coerce_to_float32(self):
        schema = ApplicationSchema("app", input_type="floats")
        assert schema.validate_input([1.0, 2.0]).dtype == np.float32

    def test_ints_accept_int_arrays_only(self):
        schema = ApplicationSchema("app", input_type="ints")
        assert schema.validate_input([1, 2, 3]).dtype == np.int64
        with pytest.raises(ValidationError):
            schema.validate_input([1.5, 2.5])

    def test_input_shape_enforced(self):
        schema = ApplicationSchema("app", input_type="doubles", input_shape=(3,))
        assert schema.validate_input([1.0, 2.0, 3.0]).shape == (3,)
        with pytest.raises(ValidationError) as excinfo:
            schema.validate_input([1.0, 2.0])
        assert excinfo.value.detail["expected_shape"] == [3]
        assert excinfo.value.detail["got_shape"] == [2]

    def test_numeric_types_reject_strings_and_ragged_input(self):
        schema = ApplicationSchema("app", input_type="doubles")
        with pytest.raises(ValidationError):
            schema.validate_input("hello")
        with pytest.raises(ValidationError):
            schema.validate_input([[1.0], [2.0, 3.0]])

    def test_bytes_and_strings(self):
        b = ApplicationSchema("app", input_type="bytes")
        assert b.validate_input(bytearray(b"xyz")) == b"xyz"
        with pytest.raises(ValidationError):
            b.validate_input("not bytes")
        s = ApplicationSchema("app", input_type="strings")
        assert s.validate_input("hi") == "hi"
        with pytest.raises(ValidationError):
            s.validate_input(b"hi")

    def test_untyped_schema_passes_through(self):
        schema = ApplicationSchema("app")
        value = {"anything": [1, 2]}
        assert schema.validate_input(value) is value


class TestWireCodec:
    def test_bytes_wire_decode_is_base64(self):
        schema = ApplicationSchema("app", input_type="bytes")
        assert schema.decode_wire_input("aGVsbG8=") == b"hello"
        with pytest.raises(ValidationError):
            schema.decode_wire_input("!!! not base64 !!!")
        with pytest.raises(ValidationError):
            schema.decode_wire_input([1, 2, 3])

    def test_numeric_wire_values_pass_through_to_validation(self):
        # A vector of numbers may arrive as the array validation would have
        # built from it; anything else stays the wire value it was.
        for input_type in ("doubles", "floats"):
            schema = ApplicationSchema("app", input_type=input_type)
            decoded = schema.decode_wire_input([1.0, 2])
            assert decoded.dtype == np.float64 and decoded.tolist() == [1.0, 2.0]
            assert schema.validate_input(decoded).tobytes() == (
                schema.validate_input([1.0, 2]).tobytes()
            )
            for raw in ([True, False], [1.0, None], [[1.0]], [], [2**64, 1.0]):
                assert schema.decode_wire_input(raw) is raw
        ints = ApplicationSchema("app", input_type="ints")
        assert ints.decode_wire_input([1, 2]) == [1, 2]

    def test_json_safe_handles_numpy_bytes_and_nan(self):
        assert json_safe(np.float64(1.5)) == 1.5
        assert json_safe(np.array([1, 2])) == [1, 2]
        assert json_safe(b"\x00\x01") == "AAE="
        assert json_safe(float("nan")) == "nan"
        assert json_safe({"k": (np.int32(3),)}) == {"k": [3]}

    def test_schema_to_dict_is_json_friendly(self):
        schema = ApplicationSchema(
            "app",
            input_type="doubles",
            input_shape=(4,),
            output_type="ints",
            default_output=np.int64(0),
        )
        d = schema.to_dict()
        assert d["input_shape"] == [4]
        assert d["default_output"] == 0


def outcome(step, value):
    """What ``step`` makes of ``value``: an array, another value, or a refusal."""
    try:
        return step(value)
    except ValidationError as exc:
        return ValidationError, str(exc), exc.detail


def assert_same_input(mine, theirs) -> None:
    """The same refusal, or arrays equal bit for bit in dtype, shape and bytes."""
    if not isinstance(theirs, np.ndarray):
        assert mine == theirs
        return
    assert type(mine) is np.ndarray and mine.flags.c_contiguous
    assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
    assert mine.tobytes() == theirs.tobytes()


_EDGES = [2**53, 2**62, 2**63, 2**64, 2**70]
#: Integers on each side of where an int64, a float64 and numpy's array
#: discovery change their minds.
_wire_ints = st.integers(-(2**20), 2**20) | st.sampled_from(
    _EDGES + [-n for n in _EDGES]
).flatmap(lambda n: st.integers(n - 2, n + 2))
_wire_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 2.0**53 + 2, 1e20, -(2.0**63)])
_wire_entries = (
    _wire_floats | _wire_ints | st.booleans() | st.none() | st.text(max_size=3)
    | st.lists(_wire_floats, max_size=3)
)
_wire_lists = (
    st.lists(_wire_entries, max_size=12)
    | st.lists(_wire_floats, min_size=1, max_size=12)
    | st.lists(_wire_ints, min_size=1, max_size=12)
    | st.lists(st.booleans(), min_size=1, max_size=12)
    | st.lists(st.booleans() | _wire_ints, min_size=1, max_size=12)
    | st.lists(st.booleans() | _wire_floats, min_size=1, max_size=12)
)
#: Arrays the columnar decoder hands over as list entries (ndim >= 1 there).
_wire_rows = st.sampled_from(
    [
        np.arange(3.0), np.float32([1.1, 2.5, 3.0]), np.arange(3), np.array([1.5]),
        np.array(["1.5"]), np.array([b"2"]), np.array([True]), np.uint8([3]),
        np.arange(2.0, dtype=">f8"), np.array([2**63], dtype=np.uint64),
    ]
)


@st.composite
def _decoded_inputs(draw):
    """A list as the JSON or the columnar decoder hands it to the edge."""
    if draw(st.booleans()):
        raw = draw(_wire_lists)
        return jsonwire.loads(jsonwire.dumps({"input": raw}))["input"]
    raw = draw(
        _wire_lists
        | st.lists(_wire_rows, min_size=1, max_size=4)
        | st.lists(_wire_rows | _wire_floats, min_size=1, max_size=4)
        | _wire_rows.flatmap(lambda row: st.lists(st.just(row), min_size=1, max_size=4))
    )
    try:
        return deserialize(serialize({"input": raw}))["input"]
    except SerializationError:  # integers past 64 bits travel as JSON only
        return jsonwire.loads(jsonwire.dumps({"input": raw}))["input"]


def chain_json_safe(value):
    """``json_safe`` as an ``isinstance`` chain alone: its fast path's reference."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, np.generic):
        return chain_json_safe(value.item())
    if isinstance(value, np.ndarray):
        return chain_json_safe(value.tolist())
    if isinstance(value, (bytes, bytearray)):
        return base64.b64encode(bytes(value)).decode("ascii")
    if isinstance(value, dict):
        return {str(key): chain_json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [chain_json_safe(item) for item in value]
    return str(value)


def assert_same_json(mine, theirs) -> None:
    """Equal in type and value, floats bit for bit, keys in order."""
    assert type(mine) is type(theirs), (mine, theirs)
    if isinstance(theirs, float):
        assert struct.pack("<d", mine) == struct.pack("<d", theirs)
    elif isinstance(theirs, list):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert_same_json(a, b)
    elif isinstance(theirs, dict):
        assert list(mine) == list(theirs)
        for key in theirs:
            assert_same_json(mine[key], theirs[key])
    else:
        assert mine == theirs


class _Int(int):
    pass


class _Text(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class _Color(enum.Enum):
    RED = 1


_outputs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.binary(max_size=4) | st.sampled_from(
        [
            np.float32(0.5), np.int64(3), np.bool_(True), np.float64("nan"),
            np.arange(3.0), _Int(2), _Text("t"), _Color.RED, object, bytearray(b"x"),
        ]
    ),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(children, max_size=3).map(_List)
    | st.frozensets(st.integers(), max_size=3) | st.sets(st.text(max_size=2), max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.integers(), children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3).map(_Dict),
    max_leaves=12,
)


class TestWireDecodeIsExact:
    """``decode_wire_input`` may build the array itself; validation ends in
    the same array, or the same refusal, as from the list."""

    @pytest.mark.parametrize("input_type", ["doubles", "floats", "ints"])
    @given(raw=_decoded_inputs(), sized=st.booleans())
    def test_validated_wire_input_is_the_validated_list(self, input_type, raw, sized):
        schema = ApplicationSchema(
            "app", input_type=input_type, input_shape=(len(raw),) if sized and raw else None
        )
        mine = outcome(lambda v: schema.validate_input(schema.decode_wire_input(v)), raw)
        assert_same_input(mine, outcome(schema.validate_input, raw))

    @pytest.mark.parametrize(
        "raw",
        [
            [2**53 + 1] * 3, [2**60 + 2**36 + 1, 1], [2**63 - 1, 0], [2**63, 1], [2**64, 1],
            [-(2**63) - 1, 1], [10**400, 1.0], [True, 2.0], [2.0, True], [True, False],
            [1.0, float("nan")], [float("inf"), 1], [-0.0, 5e-324], [0, 1, 0],
            [np.array(["1.5"]), 2.5], [np.array([1.5]), np.array([2.5])],
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("input_type", ["doubles", "floats"])
    def test_curated_lists(self, input_type, raw):
        schema = ApplicationSchema("app", input_type=input_type)
        mine = outcome(lambda v: schema.validate_input(schema.decode_wire_input(v)), raw)
        assert_same_input(mine, outcome(schema.validate_input, raw))


#: float32's largest value, and the least double that rounds past it.
_F32_MAX = float(np.finfo(np.float32).max)
_F32_INF = 2.0**128 - 2.0**103
_range_edge = st.sampled_from(
    [_F32_MAX, _F32_INF, float(np.nextafter(_F32_INF, 0)), 1e300, float("inf"), float("nan")]
).flatmap(lambda v: st.sampled_from([v, -v]))


class TestFloat32Range:
    """A ``floats`` application refuses a finite double that float32 cannot
    hold (it would reach the model as inf), through every input path; a
    double that rounds into range, inf and NaN pass as numpy casts them."""

    @given(
        values=st.lists(
            _range_edge | st.floats(min_value=-4e38, max_value=4e38) | st.floats(),
            min_size=1,
            max_size=6,
        )
    )
    def test_refused_exactly_when_a_finite_value_would_become_inf(self, values):
        schema = ApplicationSchema("app", input_type="floats")
        doubles = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            cast = doubles.astype(np.float32)
        overflows = bool((np.isinf(cast) & np.isfinite(doubles)).any())
        wire = jsonwire.loads(jsonwire.dumps({"input": values}))["input"]
        for raw in (values, doubles, wire, schema.decode_wire_input(wire)):
            if overflows:
                with pytest.raises(ValidationError, match="past float32's range"):
                    schema.validate_input(raw)
            else:
                out = schema.validate_input(raw)
                assert out.dtype == np.float32
                assert np.array_equal(out, cast, equal_nan=True)
        # A doubles application takes every one of them as it is.
        assert np.array_equal(
            ApplicationSchema("app", input_type="doubles").validate_input(values),
            doubles,
            equal_nan=True,
        )

    def test_a_float32_array_is_not_checked(self):
        schema = ApplicationSchema("app", input_type="floats")
        arr = np.array([np.inf, -np.inf, 1.0], dtype=np.float32)
        assert schema.validate_input(arr) is arr


class TestJsonSafeFastPath:
    @given(value=_outputs)
    def test_equals_the_isinstance_chain(self, value):
        assert_same_json(json_safe(value), chain_json_safe(value))


class TestConfigContract:
    def test_config_derives_schema(self):
        config = ClipperConfig(
            app_name="digits",
            input_type="doubles",
            input_shape=(196,),
            output_type="ints",
            default_output=0,
        )
        schema = ApplicationSchema.from_config(config)
        assert schema.input_type == "doubles"
        assert schema.input_shape == (196,)
        assert schema.default_output == 0

    def test_unknown_input_type_rejected(self):
        with pytest.raises(ConfigurationError):
            ClipperConfig(input_type="tensors")

    def test_input_shape_requires_input_type(self):
        with pytest.raises(ConfigurationError):
            ClipperConfig(input_shape=(4,))
        with pytest.raises(ConfigurationError):
            ClipperConfig(input_type="strings", input_shape=(4,))
        with pytest.raises(ConfigurationError):
            ClipperConfig(input_type="doubles", input_shape=(0,))

    def test_default_output_validated_against_output_type(self):
        # A contradiction between the default and the declared output type
        # surfaces at construction, not at the first SLO miss.
        with pytest.raises(ConfigurationError):
            ClipperConfig(output_type="ints", default_output="zero")
        with pytest.raises(ConfigurationError):
            ClipperConfig(output_type="strings", default_output=0)
        with pytest.raises(ConfigurationError):
            ClipperConfig(output_type="ints", default_output=True)  # bool ≠ int
        ClipperConfig(output_type="ints", default_output=3)
        ClipperConfig(output_type="doubles", default_output=1)  # ints widen
        ClipperConfig(output_type="bytes", default_output=b"\x00")

    def test_check_output_value_unknown_type(self):
        with pytest.raises(ConfigurationError):
            check_output_value("tensors", 1)


class TestErrorModel:
    def test_every_edge_error_carries_code_and_status(self):
        assert UnknownApplicationError.http_status == 404
        assert DuplicateApplicationError.http_status == 409
        assert BadRequestError.http_status == 400
        assert ValidationError.http_status == 422
        assert PredictionTimeoutError.http_status == 504
        # The edge exceptions stay catchable as ManagementError.
        assert issubclass(UnknownApplicationError, ManagementError)

    def test_error_payload_structure(self):
        exc = ValidationError("bad shape", detail={"expected_shape": [4]})
        payload = error_payload(exc)
        assert payload == {
            "error": {
                "code": "invalid_input",
                "status": 422,
                "message": "bad shape",
                "detail": {"expected_shape": [4]},
            }
        }

    def test_non_library_errors_render_opaque(self):
        payload = error_payload(RuntimeError("secret traceback"))
        assert payload["error"]["code"] == "internal"
        assert "secret" not in payload["error"]["message"]
