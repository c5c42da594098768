import numpy as np
import pytest

from hardyops.operators import build_log_grid
from hardyops.specfun import a_star, make_params
from hardyops.verify import TestFamily

# library class, not a test case; keep pytest from collecting it
TestFamily.__test__ = False


@pytest.fixture(scope="session")
def params_zero():
    return make_params(3, 1.0, 0.0)


@pytest.fixture(scope="session")
def params_critical():
    return make_params(3, 1.0, a_star(3, 1.0))


@pytest.fixture(scope="session")
def params_half_critical():
    return make_params(3, 1.0, 0.5 * a_star(3, 1.0))


@pytest.fixture(scope="session")
def small_grid():
    # Two decades either side of r = 1.  A grid holds only nodes and
    # weights, so tests share the grid, not its eigensystems: every
    # operator built on it runs its own eigh.
    return build_log_grid(3, 1e-2, 1e2, 256)


@pytest.fixture(scope="session")
def medium_grid():
    return build_log_grid(3, 1e-3, 1e3, 512)


@pytest.fixture
def rng():
    # Function-scoped so every test sees the same fresh stream.
    return np.random.default_rng(20240817)
