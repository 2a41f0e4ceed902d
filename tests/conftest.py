import pytest
from hypothesis import settings

from floquet_dqpt.cli import PRESETS

# Every Hypothesis test draws the same examples on every run, so a failure
# reproduces; each test's own settings (max_examples, deadline) still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

EXAMPLE1, EXAMPLE2, EXAMPLE3 = (PRESETS[f"example{n}"] for n in (1, 2, 3))


@pytest.fixture
def ex1():
    return EXAMPLE1


@pytest.fixture
def ex2():
    return EXAMPLE2


@pytest.fixture
def ex3():
    return EXAMPLE3
