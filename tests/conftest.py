"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced(call):
    """call()'s result, the bytes it still holds and its tracemalloc peak, above the start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
        return result, retained - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def traced():
    """The memory probe: traced(call) -> (result, retained bytes, peak bytes) above the start."""
    return _traced
