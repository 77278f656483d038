"""The transport-agnostic external API layer of the reproduction.

Layers, bottom to top:

``repro.api.schema``
    Typed per-application contracts (declared input type/shape, default
    output, SLO) plus the JSON wire codec — the single validation path every
    caller crosses.
``repro.api.errors``
    The structured error model: every library exception carries a stable
    ``code`` and an ``http_status``; :func:`error_payload` renders them as
    the wire error object.
``repro.api.routes``
    The versioned route table binding ``/api/v1/...`` paths to handler
    objects, independent of any transport.
``repro.api.columnar``
    The binary columnar content type: the RPC layer's zero-copy wire
    format as the edge's second encoding beside JSON.
``repro.api.verbs``
    The operator verbs, each written once: route, typed body fields,
    frontend call and response, read by the handlers and the client SDK;
    also the ``/api/v1`` prefix every route lives under.
``repro.api.handlers``
    Builds the route table over one :class:`~repro.core.frontend.QueryFrontend`,
    with the operator verbs when it is a
    :class:`~repro.management.frontend.ManagementFrontend`.
``repro.api.http``
    The stdlib asyncio HTTP/1.1 binding hosting the route table.

The package exports nothing: import each name from the module above that
defines it, so importing one layer never loads the frontends.
"""
