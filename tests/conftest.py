import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stable_stein.kernels import HallTransform, LogPerturbedPareto, ModifiedPareto, Pareto


@pytest.fixture
def pareto15():
    return Pareto(1.5)


@pytest.fixture
def mp_beta4():
    a, b = 1.5, 4.0
    w = a * b / (a + b)
    return ModifiedPareto(a, b, A=w, B=w)


@pytest.fixture
def hall():
    return HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)


@pytest.fixture
def log_pareto():
    return LogPerturbedPareto(1.5, 1.0, x0=5.0)
