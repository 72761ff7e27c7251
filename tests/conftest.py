import numpy as np
import pytest
from hypothesis import settings

from zeipel.elements import EARTH, DelaunayState, PhysicalModel, delaunay_momenta

# Every @given test draws the same examples on every run (derandomize implies
# no example database), with hypothesis' default example counts.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

UNIT = PhysicalModel(mu=1.0, R=1.0, zonal=(1.0e-3,))


def draw_states(rng, n, model=EARTH, a_lo=6800.0, a_hi=8200.0,
                e_lo=0.01, e_hi=0.2):
    """Random admissible Delaunay states, inclination kept off the guards."""
    out = []
    for _ in range(n):
        a = rng.uniform(a_lo, a_hi)
        e = rng.uniform(e_lo, e_hi)
        inc = rng.uniform(0.15, np.pi - 0.15)
        momenta = delaunay_momenta(a, e, inc, model)
        out.append(DelaunayState(*momenta, *rng.uniform(0.0, 2.0 * np.pi, size=3)))
    return out


@pytest.fixture
def model():
    return EARTH


@pytest.fixture
def unit_model():
    return UNIT


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
