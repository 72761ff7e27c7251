"""The oracle's DOP853 held to scipy's, which serves here as reference only."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from zeipel import dop853
from zeipel.elements import EARTH, KeplerianElements, kep_to_cartesian
from zeipel.hamiltonian import zonal_accel


def dense(rows, shape):
    out = np.zeros(shape)
    for i, row in enumerate(rows):
        for j, a in row:
            out[i, j] = a
    return out


def test_tableau_is_scipys_entry_by_entry():
    n = scipy_tableau.N_STAGES
    assert dop853.N_STAGES == n
    assert np.array_equal(dop853.C, scipy_tableau.C)
    assert np.array_equal(dense(dop853.A, scipy_tableau.A.shape), scipy_tableau.A)
    assert np.array_equal(dense([dop853.B], (1, n))[0], scipy_tableau.B)
    for ours, theirs in ((dop853.E3, scipy_tableau.E3), (dop853.E5, scipy_tableau.E5)):
        assert np.array_equal(dense([ours], (1, n + 1))[0], theirs)
    assert np.array_equal(dense(dop853.D, scipy_tableau.D.shape), scipy_tableau.D)


def rhs(_, y):
    x, y_, z, vx, vy, vz = y
    ax, ay, az = zonal_accel((x, y_, z), EARTH)
    return vx, vy, vz, ax, ay, az


@pytest.mark.parametrize(
    "a, e, inc, periods", [(7000.0, 0.01, 0.5, 10), (12000.0, 0.3, 1.0, 5), (24000.0, 0.7, 1.0, 2)]
)
def test_steps_and_samples_match_scipy(a, e, inc, periods):
    # Sampled 20 times a period.  The two differ only in the rounding of the
    # stage sums, so nfev agrees to 1% and positions to 1e-7 km, about the
    # size of scipy's own change when y0 moves by one ulp, and far below
    # either integrator's global error at rtol = atol = 1e-12.
    cs = kep_to_cartesian(KeplerianElements(a=a, e=e, i=inc, raan=0.3, argp=1.1, mean_anom=0.2), EARTH)
    y0 = np.concatenate([cs.r, cs.v])
    times = np.linspace(0.0, periods * 2.0 * np.pi * np.sqrt(a**3 / EARTH.mu), 20 * periods + 1)
    ours = dop853.solve_ivp(rhs, (times[0], times[-1]), y0, times, rtol=1e-12, atol=1e-12)
    ref = scipy_solve_ivp(lambda t, y: np.array(rhs(t, y)), (times[0], times[-1]), y0,
                          method="DOP853", t_eval=times, rtol=1e-12, atol=1e-12)
    assert ours.success and ref.success
    assert np.array_equal(ours.t, times)
    assert np.array_equal(ours.y[:, 0], y0)
    assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev, (ours.nfev, ref.nfev)
    assert np.linalg.norm(ours.y[:3] - ref.y[:3], axis=0).max() <= 1e-7
