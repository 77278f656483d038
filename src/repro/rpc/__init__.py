"""Lightweight RPC system connecting Clipper to its model containers.

The paper's model containers communicate with Clipper over a minimal
cross-language RPC protocol: length-prefixed framed messages carrying a
batch of serialized inputs, answered with a batch of serialized outputs.
This package implements the same narrow waist over a real TCP transport
(length-prefixed frames over asyncio streams) and a same-host shared-memory
ring transport (:mod:`repro.rpc.shm`); a container in Clipper's own process
(the default) is called directly (:class:`repro.rpc.client.DirectRpcClient`).

Import from the defining modules; the package itself exports nothing.
"""
