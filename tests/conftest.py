import numpy as np
import pytest

from attbench.numeric import rng_stream


@pytest.fixture
def rng():
    """Fresh deterministic stream per test."""
    return rng_stream(12345)


@pytest.fixture
def np_rng():
    """Plain numpy generator for building test data and oracles."""
    return np.random.default_rng(987654321)
