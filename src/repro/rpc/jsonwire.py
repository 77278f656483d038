"""The HTTP wire's JSON bytes, shared by the REST edge and the client SDK.

:func:`dumps` and :func:`loads` are the stdlib's
``json.dumps(value, separators=(",", ":"), default=_tolist).encode("utf-8")``
(an ndarray as its ``tolist()``) and ``json.loads(data.decode("utf-8"))``,
and stay so in everything a caller observes when the optional ``orjson``
package (``pip install repro[orjson]``) is installed and does the work (on
784 doubles, ~14x faster to write and ~6x to read):

* ``loads`` returns what the stdlib returns, equal in value and type, or
  raises what the stdlib raises;
* ``dumps`` returns bytes the stdlib decodes to what it decodes from its own
  ``dumps``, or raises what the stdlib raises.  The bytes may differ: orjson
  writes raw UTF-8 where the stdlib writes ``\\u`` escapes, ``1e16`` for
  ``1e+16``.

orjson's answer is used only where it provably agrees with the stdlib's:

* to read, bytes with at most :data:`MAX_BRACKETS` ``[`` and ``{`` (orjson
  reads nesting the stdlib refuses, and a deep enough body crashes the
  process) whose value holds no float of magnitude ``2**62`` or more
  (orjson reads an integer past 64 bits as a float without a word);
* to write, dicts, lists, tuples, strings, ints, floats, booleans, None and
  ndarrays (orjson also encodes enums, UUIDs and dataclasses) with no float
  that large, NaN included (orjson writes NaN and infinities as ``null``).

The rest, and whatever orjson refuses (NaN/Infinity tokens, ``1e400``, lone
surrogates, non-``str`` keys, integers past 64 bits, numpy scalars), is the
stdlib's, at its cost plus orjson's attempt: 784 doubles with one of them
``1e20`` read in ~1.15x the stdlib's time and write in ~1.03x.

Each value is checked once: ``loads(data, field)`` reads the object's list
``field`` as its :func:`vector`, whose building is that list's check, and
``dumps(value, True)`` trusts ``value`` to be :mod:`repro.api.schema`'s ``json_safe`` output.

``BACKEND`` names the library in use; nothing else chooses it.
``tests/test_jsonwire.py`` holds both backends to the stdlib over generated
values and bytes, ``tests/test_api_json_body.py`` the vector to the edge's
reference decode.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import repeat
from typing import Any, Optional

import numpy as np

try:
    import orjson
except ImportError:
    orjson = None

#: Bytes with more ``[`` and ``{`` than this are decoded by the stdlib,
#: whose own limit (the recursion limit) is about twice as deep.
MAX_BRACKETS = 512
_FEW_BRACKETS = 16

#: A float this large may be an integer orjson read past 64 bits, or one it
#: would write as ``null`` (NaN compares false, so it never passes either).
_BOUND = 2.0**62

#: Types whose every value orjson either treats as the stdlib does or refuses.
_ATOMS = frozenset({str, int, bool, type(None)})

_FLOAT64, _INT64 = np.dtype(np.float64), np.dtype(np.int64)


def _tolist(value: Any) -> Any:
    """The stdlib's ``default``: an ndarray leaf is its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _std_dumps(value: Any, checked: bool = False) -> bytes:  # the stdlib checks as it writes
    return json.dumps(value, separators=(",", ":"), default=_tolist).encode("utf-8")


def _std_loads(data: bytes, field: Optional[str] = None) -> Any:
    return _vectored(json.loads(data.decode("utf-8")), field)


def _shallow(data: bytes) -> bool:
    """At most :data:`MAX_BRACKETS` openings.

    One ``memchr`` per opening while there are few (a vector of numbers has
    two), else two counts over the whole body.
    """
    count = 0
    for opening in b"[{":
        at = data.find(opening)
        while at >= 0:
            count += 1
            if count > _FEW_BRACKETS:
                return data.count(b"[") + data.count(b"{") <= MAX_BRACKETS
            at = data.find(opening, at + 1)
    return True


def _plain(value: Any, unsure: Optional[list]) -> bool:
    """Whether ``value`` is JSON's own types and ndarrays, each float finite and
    below ``_BOUND``; ``unsure`` gets what orjson's numpy writer may write unlike
    the stdlib: other arrays, and lists not read entry by entry (numpy scalars);
    None from ``loads``, whose only arrays are vectors it built."""
    kind = type(value)
    if kind in _ATOMS:
        return True
    if kind is float:
        return -_BOUND < value < _BOUND
    if kind is list or kind is tuple:
        if len(value) > 8:
            if unsure is not None:
                unsure.append(value)
            try:
                # One C pass over a vector of numbers: its norm bounds every
                # entry and is NaN or infinite when one of them is.
                return math.hypot(*value) < _BOUND
            except (TypeError, ValueError, OverflowError):
                # Another C pass for a vector of strings and the like (a 0-d
                # array of a string raises ValueError from its float()).
                if _ATOMS.issuperset(map(type, value)):
                    return True
        return all(map(_plain, value, repeat(unsure)))
    if kind is dict:
        return all(map(_plain, value.values(), repeat(unsure)))
    if kind is np.ndarray:
        # Native int64, or float64 below ``_BOUND`` (NaN is not); the numpy
        # writer hands 0-d and strided ones to ``default``.
        if unsure is not None and value.dtype is not _INT64 and (
            value.dtype is not _FLOAT64 or not abs(value).max(initial=0.0) < _BOUND
        ):
            unsure.append(value)
        return True
    return False


def vector(value: Any) -> Optional[np.ndarray]:
    """The list ``value`` of Python numbers (``struct`` refuses any other entry)
    as a float64 array, each below ``2**53`` (NaN is not): there every int is a
    float64, so it holds what ``np.asarray`` reads and rounds to float32 once.
    None for anything else, an empty list, or one led by a bool (all bools are
    a bool array).  Packing is one C pass, the bound another: the list's check."""
    if type(value) is not list or not value or type(value[0]) is bool:
        return None
    built = np.empty(len(value))
    try:
        struct.pack_into(f"{len(value)}d", built, 0, *value)  # struct caches the format
    except struct.error:
        return None
    return built if abs(built).max() < 2.0**53 else None


def _vectored(value: Any, field: Optional[str]) -> Any:
    """``value``, its list ``field`` read as its :func:`vector` where it has one."""
    built = vector(value.get(field)) if field is not None and type(value) is dict else None
    if built is not None:
        value[field] = built
    return value


def _listed(value: Any) -> Any:
    """orjson's ``default``: :func:`_tolist`, if orjson writes it as the stdlib."""
    listed = _tolist(value)
    if _plain(listed, []):
        return listed
    raise TypeError("not written by orjson")


def _orjson_dumps(value: Any, checked: bool = False) -> bytes:
    unsure: list = []
    try:
        if checked or _plain(value, unsure):
            option = 0 if unsure else orjson.OPT_SERIALIZE_NUMPY
            return orjson.dumps(value, default=_listed, option=option)
    except (TypeError, RecursionError):  # orjson.JSONEncodeError is a TypeError
        pass
    return _std_dumps(value)


def _orjson_loads(data: bytes, field: Optional[str] = None) -> Any:
    if _shallow(data):
        try:
            value = _vectored(orjson.loads(data), field)
            if _plain(value, None):
                return value
        except (orjson.JSONDecodeError, RecursionError):
            pass
    return _std_loads(data, field)


#: ``(dumps, loads)`` by backend name; tests call each directly.
_BACKENDS = {"json": (_std_dumps, _std_loads), "orjson": (_orjson_dumps, _orjson_loads)}

BACKEND = "json" if orjson is None else "orjson"
dumps, loads = _BACKENDS[BACKEND]
