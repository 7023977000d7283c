import tracemalloc

import numpy as np
import pytest

from hlmlab import arith


@pytest.fixture(scope="session")
def table_1e6() -> arith.ArithTable:
    return arith.build_table(10**6)


@pytest.fixture(scope="session")
def table_1e4(table_1e6) -> arith.ArithTable:
    # independent small rebuild: doubles as the determinism cross-check
    return arith.build_table(10**4)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def traced_peak():
    """fn -> the peak bytes tracemalloc traces while fn runs."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
