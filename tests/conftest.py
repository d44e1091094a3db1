import pytest

from painleve_mkdv.pii import tuned_solution
from painleve_mkdv.stokes import make_params


@pytest.fixture(scope="session")
def sol_0_05():
    """Profile evaluator for (alpha, k) = (0, 0.5); shared, expensive."""
    return tuned_solution(make_params(0.0, 0.5))


@pytest.fixture(scope="session")
def sol_025_03():
    """Profile evaluator for (alpha, k) = (0.25, 0.3)."""
    return tuned_solution(make_params(0.25, 0.3))
