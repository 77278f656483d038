"""Core Clipper serving engine: types, configuration, metrics and orchestration.

Import from the defining modules; the package exports nothing, so a process
that needs only ``repro.core.exceptions`` does not load the engine.
"""
