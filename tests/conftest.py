import numpy as np
import pytest
from hypothesis import settings

from zeipel import propagator
from zeipel.elements import EARTH, DelaunayState, PhysicalModel, delaunay_momenta

# Every @given test draws the same examples on every run (derandomize implies
# no example database), with hypothesis' default example counts.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

UNIT = PhysicalModel(mu=1.0, R=1.0, zonal=(1.0e-3,))


def draw_states(rng, n, model=EARTH, a_lo=6800.0, a_hi=8200.0,
                e_lo=0.01, e_hi=0.2, i_lo=0.15, i_hi=np.pi - 0.15):
    """Random admissible Delaunay states, inclination kept off the guards."""
    out = []
    for _ in range(n):
        a = rng.uniform(a_lo, a_hi)
        e = rng.uniform(e_lo, e_hi)
        inc = rng.uniform(i_lo, i_hi)
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


@pytest.fixture
def nan_field(monkeypatch):
    """`nan_field(after)` makes the oracle's field return NaN accelerations
    from its (after + 1)-th evaluation on, a real integrator failure."""

    def install(after):
        calls = []
        zonal_rhs = propagator.zonal_rhs

        def field(model):
            rhs = zonal_rhs(model)

            def nan_late(t, state):
                calls.append(None)
                return (*state[3:], np.nan, np.nan, np.nan) if len(calls) > after else rhs(t, state)

            return nan_late

        monkeypatch.setattr(propagator, "zonal_rhs", field)

    return install
