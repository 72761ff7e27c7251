"""The oracle's DOP853 held to scipy's, which serves here as reference only;
its emitted Nyström sums held bit for bit to the loops they were written out
from, and those held to the first-order loops of the method they compose."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau
from scipy.integrate._ivp.common import select_initial_step

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


acc = zonal_rhs(EARTH)


def rhs(t, y):
    """The first-order right-hand side f(y) = (v, a(x)) that scipy and the
    first-order loops integrate."""
    return (*y[3:], *acc(*y[:3]))


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
    ours = dop853.solve_ivp(acc, y0, times)
    ref = scipy_solve_ivp(lambda t, y: np.array(rhs(t, y)), (times[0], times[-1]), y0,
                          method="DOP853", t_eval=times, rtol=dop853.TOL, atol=dop853.TOL)
    assert ref.success
    assert ours.rows.shape == (len(times), 6)
    assert np.array_equal(ours.rows[0], y0)
    assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev, (ours.nfev, ref.nfev)
    assert np.linalg.norm(ours.rows[:, :3] - ref.y[:3].T, axis=1).max() <= 1e-7


# The first-order method as loops over the tableau rows and the six
# components of y' = f(y): the reference the Nyström form is held to.


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


def loop_stages(fun, t, h, y, K):
    """K extended by the three stages of the dense output."""
    K = list(K)
    for s in range(dop853.N_STAGES + 1, len(dop853.C)):
        K.append(fun(t + dop853.C[s] * h, loop_advance(y, K, dop853.A[s], h)))
    return K


# The Nyström form as loops: the reference the emitted `_step` and
# `_samples` are held to, term for term.  K holds the stages'
# accelerations, and each row is summed from its position row.


def nystrom_sum(K, row):
    """sum_i a_i K[i] over the (i, a_i) of `row`, one sum per component."""
    s0 = s1 = s2 = 0.0
    for i, a in row:
        k0, k1, k2 = K[i]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
    return s0, s1, s2


def nystrom_sums(y, K, pos, row, h):
    """sum_j R_j K_j on y = (x, v) for a row R and its position row (w, Rbar):
    w v + (sum_i Rbar_i a_i) h on the positions, sum_j R_j a_j on the
    velocities."""
    w, bar = pos
    return (*(w * v + s * h for v, s in zip(y[3:], nystrom_sum(K, bar))), *nystrom_sum(K, row))


def nystrom_advance(y, K, pos, row, h):
    """y + h sum_j R_j K_j."""
    return tuple(yc + sc * h for yc, sc in zip(y, nystrom_sums(y, K, pos, row, h)))


def nystrom_step(acc, h, y, k0):
    K = [k0]
    for s in range(1, dop853.N_STAGES):
        K.append(acc(*nystrom_advance(y, K, dop853.POS_A[s], dop853.A[s], h)[:3]))
    y_new = nystrom_advance(y, K, dop853.POS_B, dop853.B, h)
    K.append(acc(*y_new[:3]))
    e3, e5 = (nystrom_sums(y, K, pos, row, h) for pos, row in ((dop853.POS_E3, dop853.E3), (dop853.POS_E5, dop853.E5)))
    return y_new, tuple(K), loop_error(h, y, y_new, e3, e5)


def nystrom_dense_rows(acc, h, y, K):
    K = list(K)
    for s in range(dop853.N_STAGES + 1, len(dop853.C)):
        K.append(acc(*nystrom_advance(y, K, dop853.POS_A[s], dop853.A[s], h)[:3]))
    return tuple(tuple(h * s for s in nystrom_sums(y, K, pos, row, h)) for pos, row in zip(dop853.POS_D, dop853.D))


def loop_dense(acc, h, y_old, y, K):
    """Coefficients F0..F6 of the 7th-order interpolant on the step from
    y_old to y, whose stage accelerations are K; three more stages are
    evaluated for the rows F3..F6."""
    f_old, f = (*y_old[3:], *K[0]), (*y[3:], *K[dop853.N_STAGES])
    dy = tuple(b - a for a, b in zip(y_old, y))
    F = [
        dy,
        tuple(h * g - d for g, d in zip(f_old, dy)),
        tuple(2 * d - h * (g + g_old) for d, g, g_old in zip(dy, f, f_old)),
    ]
    F += nystrom_dense_rows(acc, h, y_old, K)
    return F


def loop_interpolate(F, y_old, x):
    """The interpolant at x = (t - t_old) / h, nested as scipy nests it."""
    out = []
    for k, y0 in enumerate(y_old):
        v = 0.0
        for i, row in enumerate(reversed(F)):
            v = (v + row[k]) * (x if i % 2 == 0 else 1.0 - x)
        out.append(v + y0)
    return out


def loop_samples(acc, h, y, y_new, K, xs):
    F = loop_dense(acc, h, y, y_new, K)
    return [loop_interpolate(F, y, x) for x in xs]


def bits(x):
    """Nested tuples of floats as hex strings, so -0.0 and 0.0 differ."""
    return [bits(v) for v in x] if isinstance(x, (tuple, list)) else float(x).hex()


DRAWS = [(7000.0, 0.01, 0.5, 0.2), (12000.0, 0.3, 1.0, 3.0), (24000.0, 0.7, 1.0, 0.05)]


FRACTIONS = (0.0, 1.0, 0.3, 0.8537)  # the step's ends and two interior points


@pytest.mark.parametrize("a, e, inc, mean_anom", DRAWS)
def test_emitted_step_and_dense_rows_are_the_loops_bit_for_bit(a, e, inc, mean_anom):
    # The step, and the samples its dense rows give at each fraction alone
    # and at all of them inside the one step.
    y = tuple(initial_state(a, e, inc, mean_anom).tolist())
    k0 = acc(*y[:3])
    for h in (1e-3 * period(a), 0.05 * period(a)):
        step = dop853._step(acc, h, y, k0)
        assert bits(step) == bits(nystrom_step(acc, h, y, k0))
        y_new, K, _ = step
        for xs in [[x] for x in FRACTIONS] + [list(FRACTIONS)]:
            assert bits(dop853._samples(acc, h, y, y_new, K, xs)) == bits(loop_samples(acc, h, y, y_new, K, xs))


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_error_norm_scales_at_signed_zeros_and_nan(sign):
    # An equatorial state with z = vz = +-0.0, where abs() and max() drop
    # the sign that the emitted scales keep: the new state and the error
    # norm are still the loop form's bit for bit.  So are those of a step
    # whose field turns NaN at its sixth stage, whose scales and error norm
    # are NaN.  The stage accelerations are compared by value: a sum whose
    # terms are all zero may keep a -0.0 that the loop, from 0.0, makes +0.0.
    y = tuple(initial_state(8000.0, 0.1, 0.0).tolist())
    y = (y[0], y[1], sign * 0.0, y[3], y[4], sign * 0.0)
    assert [math.copysign(1.0, v) for v in (y[2], y[5])] == [sign, sign]
    k0 = acc(*y[:3])
    calls = []

    def nan_late(x, y, z):
        calls.append(None)
        return (math.nan,) * 3 if len(calls) > 5 else acc(x, y, z)

    for field, h in ((acc, 1e-3 * period(8000.0)), (acc, 0.05 * period(8000.0)), (nan_late, 0.05 * period(8000.0))):
        calls.clear()
        y_new, K, error = dop853._step(field, h, y, k0)
        calls.clear()
        ref = nystrom_step(field, h, y, k0)
        assert bits((y_new, error)) == bits((ref[0], ref[2]))
        assert np.array_equal(K, ref[1], equal_nan=True)
        assert math.isnan(error) == (field is nan_late)


def test_stage_velocity_coefficients_are_c():
    # A stage state's coefficient of v is sum_j A[s][j], which is C[s] up to
    # rounding: half an ulp of each entry for its rounding to a float, half
    # an ulp of each partial sum for the addition that made it, and half an
    # ulp of C[s] for its own.
    for s, (w, _) in enumerate(dop853.POS_A):
        partial, bound = 0.0, np.spacing(dop853.C[s]) / 2
        for _, a in dop853.A[s]:
            partial += a
            bound += (np.spacing(abs(a)) + np.spacing(abs(partial))) / 2
        assert abs(w - dop853.C[s]) <= bound, s


@pytest.mark.parametrize("a, e, inc, mean_anom", DRAWS)
def test_nystrom_form_is_the_first_order_method_to_round_off(a, e, inc, mean_anom):
    # On the first-order loop's own stages, every composed row (the stage
    # states, B, E3, E5 and D) gives the first-order sum to a few ulp of the
    # magnitude of its terms, the stage velocities written out as
    # v + h sum_i A[j][i] a_i (measured: 1.5 ulp).  And a whole step from the
    # same state lands on the first-order step's state to round-off of the
    # state's norm (measured: 11 ulp, on the e = 0.7 step whose error norm
    # is 6e9; at most 1 ulp on the others).
    y = tuple(initial_state(a, e, inc, mean_anom).tolist())
    f = rhs(0.0, y)
    eps = np.finfo(float).eps
    rows = [(dop853.POS_A[s], dop853.A[s]) for s in range(1, len(dop853.C))]
    rows += [(dop853.POS_B, dop853.B), (dop853.POS_E3, dop853.E3), (dop853.POS_E5, dop853.E5)]
    rows += list(zip(dop853.POS_D, dop853.D))
    for h in (1e-3 * period(a), 0.05 * period(a)):
        y_first, K, _ = loop_step(rhs, 0.0, h, y, f)
        K = loop_stages(rhs, 0.0, h, y, K)
        accels = [k[3:] for k in K]
        for pos, row in rows:
            magnitude = [sum(abs(r) * (abs(v) + h * sum(abs(b) * abs(accels[i][c]) for i, b in dop853.A[j]))
                             for j, r in row) for c, v in enumerate(y[3:])]
            magnitude += [sum(abs(r) * abs(accels[j][c]) for j, r in row) for c in range(3)]
            got = nystrom_sums(y, accels, pos, row, h)
            assert all(abs(g - w) <= 4 * eps * m for g, w, m in zip(got, loop_sum(K, row), magnitude)), (h, row)
        y_new = dop853._step(acc, h, y, f[3:])[0]
        for part in (slice(0, 3), slice(3, 6)):
            dist = np.abs(np.subtract(y_new[part], y_first[part])).max()
            assert dist <= 32 * eps * np.linalg.norm(y[part]), h


def test_arc_samples_and_nfev_are_the_loops_bit_for_bit(monkeypatch):
    # e = 0.3 over 10 periods, sampled 20 times a period: the same steps,
    # right-hand side count and samples as the loop form.
    y0 = initial_state(12000.0, 0.3, 1.0)
    times = np.linspace(0.0, 10 * period(12000.0), 201)
    emitted = dop853.solve_ivp(acc, y0, times)
    monkeypatch.setattr(dop853, "_step", nystrom_step)
    monkeypatch.setattr(dop853, "_samples", loop_samples)
    loops = dop853.solve_ivp(acc, y0, times)
    assert emitted.nfev == loops.nfev
    assert emitted.rows.tobytes() == loops.rows.tobytes()


def test_nfev_is_the_right_hand_sides_own_count(monkeypatch):
    # An e = 0.7 arc through two perigees, whose steps are rejected there,
    # sampled 20 times a period: the reported nfev is the number of calls
    # the acceleration kernel saw.  A one-sample grid calls it not at all.
    calls = []

    def counted(x, y, z):
        calls.append(None)
        return acc(x, y, z)

    starts = []  # the state each attempted step starts from; a retry starts from the same one
    step = dop853._step
    monkeypatch.setattr(dop853, "_step", lambda fun, h, y, k0: starts.append(y) or step(fun, h, y, k0))
    y0 = initial_state(24000.0, 0.7, 1.0)
    times = np.linspace(0.0, 2 * period(24000.0), 41)
    out = dop853.solve_ivp(counted, y0, times)
    rejected = sum(a is b for a, b in zip(starts, starts[1:]))
    assert rejected > 0 and len(out.rows) == len(times)
    assert out.nfev == len(calls)
    calls.clear()
    single = dop853.solve_ivp(counted, y0, times[:1])
    assert single.nfev == 0 and not calls
    assert np.array_equal(single.rows, y0[None, :])


def test_a_finite_blow_up_fails_on_the_step_size():
    # x'' = 2 x^3 from x = v = 1 is x = 1 / (1 - t), which blows up at t = 1
    # with every value finite: the steps shrink below 10 ulp of t, and the
    # failure gives scipy's reason, not a non-finite one.
    with pytest.raises(IntegrationError) as failure:
        dop853.solve_ivp(lambda x, y, z: (2.0 * x * x * x, 0.0, 0.0), (1.0, 0, 0, 1.0, 0, 0), [0.0, 2.0])
    message = str(failure.value)
    assert message.startswith(f"oracle integration failed: {dop853.TOO_SMALL}; initial state x=1.0, y=0.0")
    assert 0.99 < float(message.rsplit("last time reached ", 1)[1]) < 1.01


@pytest.mark.parametrize("v0", [(0.0, 0.0, 0.0), (0.5, -7.5, 0.25)], ids=["at-rest", "constant-velocity"])
def test_force_free_motion_matches_scipy(v0):
    # No force: at rest both d1 and d2 of the initial-step estimate vanish,
    # and the flat branch gives 1e-6 s, scipy's step; at constant velocity
    # d2 alone vanishes.  The samples are scipy's to round-off in x0 + v t.
    # nfev is not compared: zeipel counts 3 fewer than scipy on both.
    def rest(x, y, z):
        return 0.0, 0.0, 0.0

    def fun(t, y):
        return np.array((*y[3:], *rest(*y[:3])))

    y0 = np.array([7000.0, 100.0, -50.0, *v0])
    f0 = (*v0, 0.0, 0.0, 0.0)
    step = dop853._initial_step(rest, tuple(y0.tolist()), f0, 1000.0)
    assert step == select_initial_step(fun, 0.0, y0, 1000.0, np.inf, np.array(f0), 1, 7, dop853.TOL, dop853.TOL)
    if not any(v0):
        assert step == 1e-6
    times = np.linspace(0.0, 1000.0, 11)
    ours = dop853.solve_ivp(rest, y0, times)
    ref = scipy_solve_ivp(fun, (0.0, 1000.0), y0, method="DOP853", t_eval=times, rtol=dop853.TOL, atol=dop853.TOL)
    assert ref.success
    assert np.abs(ours.rows - ref.y.T).max() <= 1e-15 * np.abs(ref.y).max()
