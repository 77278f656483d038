"""Importable helpers shared across test modules.

Test files import :func:`run_async` from here (``from helpers import
run_async``) rather than from ``conftest`` — conftest modules are loaded by
pytest under a single shared module name, so importing them directly breaks
when another rootdir conftest (e.g. ``benchmarks/conftest.py``) is imported
first.
"""

from __future__ import annotations

import asyncio


async def wait_until(predicate, timeout_s=5.0, interval_s=0.01):
    """Poll ``predicate`` until it holds or ``timeout_s`` passes; its last value."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval_s)
    return predicate()


def run_async(coroutine):
    """Run a coroutine to completion on a fresh event loop.

    pytest-asyncio is not available in this environment, so async code under
    test is driven through this helper from synchronous test functions.
    """
    return asyncio.run(coroutine)
