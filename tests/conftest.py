import tracemalloc

import pytest
from hypothesis import settings

# the CI profile prints the blob that reproduces a failing draw (--hypothesis-profile=ci)
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` runs ``call()`` under tracemalloc and returns its
    result and the traced peak in bytes; tracing stops even when it raises."""
    def run(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
