"""Externalized state storage (the reproduction's Redis stand-in).

:class:`~repro.state.kvstore.KeyValueStore` is the in-memory default;
:class:`~repro.state.durable.DurableKeyValueStore` is the WAL-backed drop-in
for state that must survive a crash.
"""
