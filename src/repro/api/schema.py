"""Typed per-application schemas for the REST serving surface.

The paper's application registration declares, besides the name and the
latency SLO, the *input type* of the application — one of ``bytes``,
``ints``, ``floats``, ``doubles`` or ``strings`` — and Clipper rejects
queries whose input does not conform before they ever reach the serving
engine.  :class:`ApplicationSchema` is that contract for the reproduction:

* the declared input type and (optionally) the exact input shape,
* the default output rendered on SLO misses, and
* the application latency SLO,

derived from the application's :class:`~repro.core.config.ClipperConfig`
when it registers with a frontend.  Validation lives here — **once** — and
both surfaces run it: in-process callers through
:meth:`~repro.core.frontend.QueryFrontend.predict` and HTTP callers through
the same method behind :mod:`repro.api.http`, so a malformed input fails
identically whichever edge it entered through.

The module also owns the wire codec for inputs and outputs: JSON arrays for
the numeric types, plain strings for ``strings``, and base64 text for
``bytes`` (JSON has no binary type), plus :func:`json_safe` which renders
arbitrary prediction outputs (numpy scalars, arrays, bytes) as JSON values.

Each JSON value is checked once: a :data:`VECTOR_TYPES` app's ``input`` list by
building its ``jsonwire.vector`` (the predict and update routes ask for it), the
rest by ``jsonwire.loads``, and a response by :func:`json_safe` (``dumps`` trusts it).
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.exceptions import (
    BadRequestError,
    ConfigurationError,
    ValidationError,
)
from repro.rpc.jsonwire import vector

#: The paper's application input types mapped onto numpy dtypes (``bytes``
#: and ``strings`` stay native Python values).
INPUT_TYPES: Dict[str, Optional[np.dtype]] = {
    "ints": np.dtype(np.int64),
    "floats": np.dtype(np.float32),
    "doubles": np.dtype(np.float64),
    "bytes": None,
    "strings": None,
}

#: Types whose input list is read as a float64 ``vector`` (validation's result, cast).
VECTOR_TYPES = ("floats", "doubles")
_NUMBERS = frozenset({int, float, bool})  # what a list decode_wire_input packs may hold

#: The least double that rounds to infinity as a float32 (half an ulp past
#: its largest value; the tie rounds to even, away from it).
_FLOAT32_INF = 2.0**128 - 2.0**103

#: Numpy dtype kinds accepted per declared numeric type.  Integer inputs may
#: widen to floats; float inputs never silently truncate to ints.
_ACCEPTED_KINDS = {
    "ints": ("i", "u"),
    "floats": ("f", "i", "u"),
    "doubles": ("f", "i", "u"),
}


def check_type_name(type_name: str) -> str:
    """Validate a declared input/output type name, returning it unchanged."""
    if type_name not in INPUT_TYPES:
        raise ConfigurationError(
            f"unknown input type '{type_name}', expected one of "
            f"{sorted(INPUT_TYPES)}"
        )
    return type_name


def _conforms(type_name: str, value: Any) -> bool:
    """Whether a scalar value conforms to a declared output type."""
    if type_name == "ints":
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if type_name in ("floats", "doubles"):
        return isinstance(
            value, (int, float, np.integer, np.floating)
        ) and not isinstance(value, bool)
    if type_name == "bytes":
        return isinstance(value, (bytes, bytearray))
    return isinstance(value, str)  # "strings"


def check_output_value(type_name: str, value: Any, *, what: str = "output") -> Any:
    """Validate a scalar output value against a declared type.

    Used by :class:`~repro.core.config.ClipperConfig` to reject a
    ``default_output`` that contradicts the application's declared output
    contract at construction time, before the application ever serves.
    """
    check_type_name(type_name)
    if not _conforms(type_name, value):
        raise ConfigurationError(
            f"{what} {value!r} does not conform to declared type '{type_name}'"
        )
    return value


@dataclass(frozen=True)
class ApplicationSchema:
    """The declarative serving contract of one application.

    ``input_type=None`` declares an untyped application: inputs pass through
    unvalidated (the pre-existing library behaviour), which keeps in-process
    embedders working but is discouraged for applications served over HTTP.
    """

    app_name: str
    input_type: Optional[str] = None
    input_shape: Optional[Tuple[int, ...]] = None
    output_type: Optional[str] = None
    default_output: Optional[Any] = None
    latency_slo_ms: float = 20.0
    selection_policy: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_config(cls, config: Any) -> "ApplicationSchema":
        """Derive the schema from a :class:`~repro.core.config.ClipperConfig`."""
        shape = config.input_shape
        return cls(
            app_name=config.app_name,
            input_type=config.input_type,
            input_shape=tuple(shape) if shape is not None else None,
            output_type=config.output_type,
            default_output=config.default_output,
            latency_slo_ms=config.latency_slo_ms,
            selection_policy=config.selection_policy,
        )

    # -- validation (shared by in-process and HTTP callers) --------------------

    def validate_input(self, x: Any) -> Any:
        """Coerce ``x`` to the declared contract or raise :class:`ValidationError`.

        This is the single input-validation path: every caller — in-process
        or HTTP — crosses it before a ``Query`` is built.  Numeric types
        return a C-contiguous ndarray of the declared dtype; ``bytes`` and
        ``strings`` return native values; an untyped schema passes ``x``
        through unchanged.
        """
        if self.input_type is None:
            return x
        if self.input_type == "bytes":
            if not isinstance(x, (bytes, bytearray, memoryview)):
                raise ValidationError(
                    f"application '{self.app_name}' takes bytes input, "
                    f"got {type(x).__name__}",
                    detail={"expected": "bytes", "got": type(x).__name__},
                )
            return bytes(x)
        if self.input_type == "strings":
            if not isinstance(x, str):
                raise ValidationError(
                    f"application '{self.app_name}' takes string input, "
                    f"got {type(x).__name__}",
                    detail={"expected": "strings", "got": type(x).__name__},
                )
            return x
        # Numeric vector types: ints / floats / doubles.
        if isinstance(x, (str, bytes, bytearray, memoryview, dict)):
            raise ValidationError(
                f"application '{self.app_name}' takes {self.input_type} input, "
                f"got {type(x).__name__}",
                detail={"expected": self.input_type, "got": type(x).__name__},
            )
        try:
            arr = np.asarray(x)
        except (ValueError, TypeError) as exc:
            raise ValidationError(
                f"input for application '{self.app_name}' is not a uniform "
                f"numeric array: {exc}",
                detail={"expected": self.input_type},
            ) from None
        if arr.dtype.kind not in _ACCEPTED_KINDS[self.input_type]:
            raise ValidationError(
                f"application '{self.app_name}' takes {self.input_type} input, "
                f"got array of dtype {arr.dtype}",
                detail={"expected": self.input_type, "got_dtype": str(arr.dtype)},
            )
        if self.input_shape is not None and arr.shape != self.input_shape:
            raise ValidationError(
                f"application '{self.app_name}' takes input of shape "
                f"{self.input_shape}, got {arr.shape}",
                detail={
                    "expected_shape": list(self.input_shape),
                    "got_shape": list(arr.shape),
                },
            )
        dtype = INPUT_TYPES[self.input_type]
        if arr.dtype is not dtype and arr.dtype.char == "d" and dtype.char == "f":
            past = np.abs(arr) >= _FLOAT32_INF  # NaN never is; inf stays inf
            if past.any() and np.isfinite(arr[past]).any():
                raise ValidationError(
                    f"application '{self.app_name}' takes floats input, got a "
                    "finite value past float32's range",
                    detail={"expected": self.input_type},
                )
        return np.ascontiguousarray(arr, dtype=dtype)

    def validate_label(self, label: Any) -> Any:
        """Check a feedback label against the declared output contract.

        Runs on every ``update`` — in-process or HTTP — so a label of the
        wrong type is rejected at the edge instead of silently scoring
        every model as wrong inside the selection policy.  An undeclared
        ``output_type`` passes everything through.
        """
        if self.output_type is None or _conforms(self.output_type, label):
            return label
        raise ValidationError(
            f"application '{self.app_name}' takes {self.output_type} labels, "
            f"got {type(label).__name__}",
            detail={"expected": self.output_type, "got": type(label).__name__},
        )

    # -- wire codec ------------------------------------------------------------

    def decode_wire_input(self, raw: Any) -> Any:
        """Decode the ``input`` field of a request body.

        The only transport-specific step: over JSON, ``bytes`` inputs travel
        as base64 text (JSON has no binary type) and are decoded here; the
        binary columnar encoding carries bytes natively, so ``bytes``-like
        values pass straight through.  Every other type's wire value is
        already the in-process representation, or a :data:`VECTOR_TYPES` list's
        ``vector`` if it holds Python numbers alone (a columnar list may hold
        arrays).  Full validation follows in :meth:`validate_input`.
        """
        if self.input_type == "bytes":
            if isinstance(raw, (bytes, bytearray, memoryview)):
                return bytes(raw)
            if not isinstance(raw, str):
                raise ValidationError(
                    f"application '{self.app_name}' takes bytes input, "
                    "encoded as a base64 string on the wire",
                    detail={"expected": "base64 string"},
                )
            try:
                return base64.b64decode(raw.encode("ascii"), validate=True)
            except (binascii.Error, ValueError, UnicodeEncodeError):
                raise ValidationError(
                    f"input for application '{self.app_name}' is not valid base64",
                    detail={"expected": "base64 string"},
                ) from None
        if type(raw) is list and self.input_type in VECTOR_TYPES:
            built = vector(raw) if _NUMBERS.issuperset(map(type, raw)) else None
            return raw if built is None else built
        return raw

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly description of the contract (admin/introspection)."""
        return {
            "app_name": self.app_name,
            "input_type": self.input_type,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "output_type": self.output_type,
            "default_output": json_safe(self.default_output),
            "latency_slo_ms": self.latency_slo_ms,
            "selection_policy": self.selection_policy,
        }


def json_safe(value: Any) -> Any:
    """Render an arbitrary library value as a JSON-serializable one.

    Prediction outputs and metric snapshots carry numpy scalars/arrays and
    raw bytes, which JSON lacks.  Containers recurse, bytes become base64 and
    anything unknown ``str``; exact types skip the ``isinstance`` chain.  Its
    dicts have str keys, and its floats are finite: ``jsonwire.dumps`` trusts it.
    """
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return {str(key): json_safe(item) for key, item in value.items()}
    if kind is list:
        return [json_safe(item) for item in value]
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/Infinity are not JSON; render them as strings so a metrics
        # snapshot with an empty histogram still serializes.
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, np.generic):
        return json_safe(value.item())
    if isinstance(value, np.ndarray):
        return json_safe(value.tolist())
    if isinstance(value, (bytes, bytearray)):
        return base64.b64encode(bytes(value)).decode("ascii")
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(item) for item in value]
    return str(value)


def require_object(body: Any, *, what: str = "request body") -> Dict[str, Any]:
    """Assert a decoded JSON body is an object; 400 otherwise."""
    if not isinstance(body, dict):
        raise BadRequestError(
            f"{what} must be a JSON object, got "
            f"{type(body).__name__ if body is not None else 'empty body'}"
        )
    return body


def require_field(body: Dict[str, Any], name: str) -> Any:
    """Fetch a required field from a JSON object body; 400 when absent."""
    if name not in body:
        raise BadRequestError(f"request body is missing required field '{name}'")
    return body[name]
