import numpy as np
import pytest
from hypothesis import settings

from floquet_dqpt.cli import PRESETS
from floquet_dqpt.model import ModelParams

# Every Hypothesis test draws the same examples on every run, so a failure
# reproduces; each test's own settings (max_examples, deadline) still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

EXAMPLE1, EXAMPLE2, EXAMPLE3 = (PRESETS[f"example{n}"] for n in (1, 2, 3))
# gapless at k = 0, on every uniform k grid: both band weights are NaN
# there, so every grid row's phase is undefined
GAPLESS_AT_ZERO = ModelParams(omega_drive=2.0, delta1=1.0, delta2=1.0,
                              omega_amp=1.0)


@pytest.fixture
def ex1():
    return EXAMPLE1


@pytest.fixture
def ex2():
    return EXAMPLE2


@pytest.fixture
def ex3():
    return EXAMPLE3


def random_params(rng: np.random.Generator, positive_amp=False) -> ModelParams:
    """One random parameter draw on the scales used throughout the suite."""
    amp_lo = 0.1 if positive_amp else -5.0
    return ModelParams(omega_drive=rng.uniform(0.5, 6.0),
                       delta1=rng.uniform(-5.0, 5.0),
                       delta2=rng.uniform(-5.0, 5.0),
                       omega_amp=rng.uniform(amp_lo, 5.0))
