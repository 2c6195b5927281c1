import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def traced_peak():
    """``measure(call)`` runs ``call()`` under tracemalloc, which NumPy reports
    its arrays to, and returns its result and the peak of traced memory
    above what was traced on entry, in bytes."""

    def measure(call):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    return measure
