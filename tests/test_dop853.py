"""The oracle's DOP853 held to scipy's, which serves here as reference only,
and its emitted stage sums held bit for bit to the loop they were written
out from."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from zeipel import dop853
from zeipel.elements import EARTH, KeplerianElements, kep_to_cartesian
from zeipel.errors import IntegrationError
from zeipel.hamiltonian import zonal_rhs


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


rhs = zonal_rhs(EARTH)


def initial_state(a, e, inc, mean_anom=0.2):
    cs = kep_to_cartesian(KeplerianElements(a=a, e=e, i=inc, raan=0.3, argp=1.1, mean_anom=mean_anom), EARTH)
    return np.concatenate([cs.r, cs.v])


def period(a):
    return 2.0 * np.pi * np.sqrt(a**3 / EARTH.mu)


@pytest.mark.parametrize(
    "a, e, inc, periods", [(7000.0, 0.01, 0.5, 10), (12000.0, 0.3, 1.0, 5), (24000.0, 0.7, 1.0, 2)]
)
def test_steps_and_samples_match_scipy(a, e, inc, periods):
    # Sampled 20 times a period.  The two differ only in the rounding of the
    # stage sums, so nfev agrees to 1% and positions to 1e-7 km, about the
    # size of scipy's own change when y0 moves by one ulp, and far below
    # either integrator's global error at rtol = atol = 1e-12.
    y0 = initial_state(a, e, inc)
    times = np.linspace(0.0, periods * period(a), 20 * periods + 1)
    ours = dop853.solve_ivp(rhs, y0, times)
    ref = scipy_solve_ivp(lambda t, y: np.array(rhs(t, y)), (times[0], times[-1]), y0,
                          method="DOP853", t_eval=times, rtol=dop853.TOL, atol=dop853.TOL)
    assert ref.success
    assert ours.rows.shape == (len(times), 6)
    assert np.array_equal(ours.rows[0], y0)
    assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev, (ours.nfev, ref.nfev)
    assert np.linalg.norm(ours.rows[:, :3] - ref.y[:3].T, axis=1).max() <= 1e-7


# The stage sums and the error norm as loops over the tableau rows and the
# components: the reference the emitted `_step` and `_dense_rows` are held
# to, term for term.


def loop_sum(K, row):
    """sum_j a_j K[j] over the (j, a_j) of `row`, one sum per component."""
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for j, a in row:
        k0, k1, k2, k3, k4, k5 = K[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
        s4 += a * k4
        s5 += a * k5
    return s0, s1, s2, s3, s4, s5


def loop_advance(y, K, row, h):
    """y + h sum_j a_j K[j]."""
    return tuple(yc + sc * h for yc, sc in zip(y, loop_sum(K, row)))


def loop_error(h, y, y_new, e3, e5):
    """scipy's error norm of a step, from the E3 and E5 sums."""
    n3 = n5 = 0.0
    for a, b, w3, w5 in zip(y, y_new, e3, e5):
        scale = dop853.TOL + max(abs(a), abs(b)) * dop853.TOL
        w3 /= scale
        w5 /= scale
        n3 += w3 * w3
        n5 += w5 * w5
    return 0.0 if n5 == 0 and n3 == 0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * len(y))


def loop_step(fun, t, h, y, f):
    K = [f]
    for s in range(1, dop853.N_STAGES):
        K.append(fun(t + dop853.C[s] * h, loop_advance(y, K, dop853.A[s], h)))
    y_new = loop_advance(y, K, dop853.B, h)
    K.append(fun(t + h, y_new))
    return y_new, tuple(K), loop_error(h, y, y_new, loop_sum(K, dop853.E3), loop_sum(K, dop853.E5))


def loop_dense_rows(fun, t, h, y, K):
    K = list(K)
    for s in range(dop853.N_STAGES + 1, len(dop853.C)):
        K.append(fun(t + dop853.C[s] * h, loop_advance(y, K, dop853.A[s], h)))
    return tuple(tuple(h * s for s in loop_sum(K, row)) for row in dop853.D)


def bits(x):
    """Nested tuples of floats as hex strings, so -0.0 and 0.0 differ."""
    return [bits(v) for v in x] if isinstance(x, (tuple, list)) else float(x).hex()


@pytest.mark.parametrize("a, e, inc, mean_anom", [(7000.0, 0.01, 0.5, 0.2), (12000.0, 0.3, 1.0, 3.0),
                                                  (24000.0, 0.7, 1.0, 0.05)])
def test_emitted_step_and_dense_rows_are_the_loops_bit_for_bit(a, e, inc, mean_anom):
    y = tuple(initial_state(a, e, inc, mean_anom).tolist())
    f = rhs(0.0, y)
    for h in (1e-3 * period(a), 0.05 * period(a)):
        step = dop853._step(rhs, 10.0, h, y, f)
        assert bits(step) == bits(loop_step(rhs, 10.0, h, y, f))
        K = step[1]
        assert bits(dop853._dense_rows(rhs, 10.0, h, y, K)) == bits(loop_dense_rows(rhs, 10.0, h, y, K))


def test_arc_samples_and_nfev_are_the_loops_bit_for_bit(monkeypatch):
    # e = 0.3 over 10 periods, sampled 20 times a period: the same steps,
    # right-hand side count and samples as the loop form.
    y0 = initial_state(12000.0, 0.3, 1.0)
    times = np.linspace(0.0, 10 * period(12000.0), 201)
    emitted = dop853.solve_ivp(rhs, y0, times)
    monkeypatch.setattr(dop853, "_step", loop_step)
    monkeypatch.setattr(dop853, "_dense_rows", loop_dense_rows)
    loops = dop853.solve_ivp(rhs, y0, times)
    assert emitted.nfev == loops.nfev
    assert emitted.rows.tobytes() == loops.rows.tobytes()


def test_nfev_is_the_right_hand_sides_own_count(monkeypatch):
    # An e = 0.7 arc through two perigees, whose steps are rejected there,
    # sampled 20 times a period: the reported nfev is the number of calls
    # the right-hand side saw.  A one-sample grid calls it not at all.
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    starts = []
    step = dop853._step
    monkeypatch.setattr(dop853, "_step", lambda fun, t, *a: starts.append(t) or step(fun, t, *a))
    y0 = initial_state(24000.0, 0.7, 1.0)
    times = np.linspace(0.0, 2 * period(24000.0), 41)
    out = dop853.solve_ivp(counted, y0, times)
    rejected = sum(a == b for a, b in zip(starts, starts[1:]))
    assert rejected > 0 and len(out.rows) == len(times)
    assert out.nfev == len(calls)
    calls.clear()
    single = dop853.solve_ivp(counted, y0, times[:1])
    assert single.nfev == 0 and not calls
    assert np.array_equal(single.rows, y0[None, :])


def test_a_finite_blow_up_fails_on_the_step_size():
    # y' = y^2 from y = 1 blows up at t = 1 with every value finite: the
    # steps shrink below 10 ulp of t, and the failure gives scipy's reason,
    # not a non-finite one.
    with pytest.raises(IntegrationError) as failure:
        dop853.solve_ivp(lambda t, y: (y[0] * y[0], 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0, 0, 0, 0, 0), [0.0, 2.0])
    message = str(failure.value)
    assert message.startswith(f"oracle integration failed: {dop853.TOO_SMALL}; initial state x=1.0, y=0.0")
    assert 0.99 < float(message.rsplit("last time reached ", 1)[1]) < 1.01
