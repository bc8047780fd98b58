import numpy as np
import pytest
from hypothesis import strategies as st

# float64 values whose text form must read back bit for bit: both zeros, the
# smallest subnormal and normal magnitudes, and the largest finite ones
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def exact_floats():
    """Finite float64s, edge values drawn often."""
    return st.one_of(st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
