"""Client SDK for the Clipper REST API.

Applications and operator tooling import this package — and nothing else
from the library — to talk to a served Clipper: the serving engine stays on
the other side of the HTTP boundary, exactly as in the paper's Figure 2.
Clients built with ``binary=True`` speak the columnar binary wire encoding
(``COLUMNAR_CONTENT_TYPE``) for predict/update.
"""

from repro.client.client import (
    COLUMNAR_CONTENT_TYPE,
    ApiStatusError,
    AsyncAdminClient,
    AsyncClipperClient,
    ClipperClientError,
    DeadlineMissed,
    InvalidInput,
    MalformedRequest,
    ManagementConflict,
    PredictionResult,
    RetryBudgetExceeded,
    RetryPolicy,
    RouteNotFound,
    ServerError,
    TransportError,
    UnknownApplication,
    encode_binary_input,
    encode_input,
)

__all__ = [
    "COLUMNAR_CONTENT_TYPE",
    "ApiStatusError",
    "AsyncAdminClient",
    "AsyncClipperClient",
    "ClipperClientError",
    "DeadlineMissed",
    "InvalidInput",
    "MalformedRequest",
    "ManagementConflict",
    "PredictionResult",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "RouteNotFound",
    "ServerError",
    "TransportError",
    "UnknownApplication",
    "encode_binary_input",
    "encode_input",
]
