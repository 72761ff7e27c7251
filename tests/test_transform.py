import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import draw_states
from zeipel import vonzeipel as vz
from zeipel.domain import CHAIN_FLOOR
from zeipel.elements import EARTH, DelaunayState, KeplerianElements, kep_to_delaunay
from zeipel.errors import DomainError, MapError
from zeipel.symplectic import block_identities, symplectic_residual
from zeipel.transform import CanonicalMap, GeneratingSeries, momentum_scale

J2 = EARTH.j2
FD_REL = 1e-6  # relative step of the whole-map difference oracle


def wrap(d):
    return (np.asarray(d) + np.pi) % (2.0 * np.pi) - np.pi


def first_order_displacement(mean, model):
    """Leading-order osc minus mean offset predicted by the generator:
    (J2 dS1/dq, -J2 dS1/dP) at the mean point; dS1/dh vanishes."""
    series = GeneratingSeries(model, order=1)
    P, q = mean.momenta, mean.angles
    return np.concatenate([series.grad_q(P, q), [0.0], -series.grad_P(P, q)])


def offset(cm, mean):
    osc = cm.mean_to_osculating(mean)
    return np.concatenate([osc.momenta - mean.momenta, wrap(osc.angles - mean.angles)])


def test_zero_j2_is_identity(rng):
    cm = CanonicalMap(EARTH.with_j2(0.0))
    st = draw_states(rng, 1)[0]
    assert cm.mean_to_osculating(st) is st
    assert cm.osculating_to_mean(st) is st


def test_guard_rejects_large_j2():
    with pytest.raises(DomainError):
        CanonicalMap(EARTH.with_j2(0.02))


def test_round_trips(rng):
    cm = CanonicalMap(EARTH)
    for st in draw_states(rng, 10):
        osc = cm.mean_to_osculating(st)
        back = cm.osculating_to_mean(osc)
        assert_allclose(back.momenta, st.momenta, rtol=1e-9)
        assert np.abs(wrap(back.angles - st.angles)).max() < 1e-9

        mean = cm.osculating_to_mean(st)
        fwd = cm.mean_to_osculating(mean)
        assert_allclose(fwd.momenta, st.momenta, rtol=1e-9)
        assert np.abs(wrap(fwd.angles - st.angles)).max() < 1e-9


def test_forward_batch_takes_one_momentum_column_per_state(rng):
    # states drawn across the domain, mapped forward as one batch: each
    # column is its lone call's result, with the lone call's iteration count
    cm = CanonicalMap(EARTH)
    states = draw_states(rng, 20)
    cols = np.array([(*s.momenta, *s.angles) for s in states]).T
    p, q, its = cm.mean_to_osculating_batch(cols[:3], cols[3:])
    lone = [cm.mean_to_osculating(s, return_info=True) for s in states]
    assert_allclose(p.T, [o.momenta for o, _ in lone], rtol=1e-12, atol=0)
    assert np.abs(wrap(q.T - [o.angles for o, _ in lone])).max() <= 1e-12
    assert its.tolist() == [info["iterations"] for _, info in lone]


def test_zero_column_batches(rng):
    # both directions map no columns to no columns
    cm = CanonicalMap(EARTH)
    empty = np.zeros((3, 0))
    for out in (
        cm.mean_to_osculating_batch(draw_states(rng, 1)[0].momenta, empty),
        cm.mean_to_osculating_batch(empty, empty),
        cm.osculating_to_mean_batch(empty, empty),
    ):
        assert [x.shape for x in out] == [(3, 0), (3, 0), (0,)]


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of generator builds and `derivatives` calls, by name."""
    counts = {"builds": 0, "derivatives": 0}
    init, derivatives = vz.ClosedFormGenerator.__init__, vz.ClosedFormGenerator.derivatives

    def counted_init(self, *args):
        counts["builds"] += 1
        init(self, *args)

    def counted_derivatives(self, *args):
        counts["derivatives"] += 1
        return derivatives(self, *args)

    monkeypatch.setattr(vz.ClosedFormGenerator, "__init__", counted_init)
    monkeypatch.setattr(vz.ClosedFormGenerator, "derivatives", counted_derivatives)
    return counts


def test_map_makes_one_evaluation_per_newton_iteration(rng, evaluations):
    # The outputs come from Newton's last evaluation: forward, one build in
    # all and one derivatives call per iteration; inverse, one build and one
    # derivatives call per iteration.  No columns evaluate nothing beyond the
    # forward build, and J2 = 0 evaluates nothing.
    cm = CanonicalMap(EARTH)
    cols = np.array([(*s.momenta, *s.angles) for s in draw_states(rng, 12)]).T
    its = cm.mean_to_osculating_batch(cols[:3], cols[3:])[2]
    assert evaluations == {"builds": 1, "derivatives": its.max()}
    evaluations.update(builds=0, derivatives=0)
    its = cm.osculating_to_mean_batch(cols[:3], cols[3:])[2]
    assert evaluations == {"builds": its.max(), "derivatives": its.max()}
    evaluations.update(builds=0, derivatives=0)
    cm.mean_to_osculating_batch(np.zeros((3, 0)), np.zeros((3, 0)))
    cm.osculating_to_mean_batch(np.zeros((3, 0)), np.zeros((3, 0)))
    assert evaluations == {"builds": 1, "derivatives": 0}
    evaluations.update(builds=0, derivatives=0)
    free = CanonicalMap(EARTH.with_j2(0.0))
    for direction in (free.mean_to_osculating_batch, free.osculating_to_mean_batch):
        p, q, its = direction(cols[:3], cols[3:])
        assert np.array_equal(p, cols[:3]) and np.array_equal(q, cols[3:]) and not its.any()
    assert evaluations == {"builds": 0, "derivatives": 0}


@pytest.mark.parametrize("order", [1, 2])
def test_outputs_match_a_fresh_evaluation_at_the_solution(rng, order):
    # Newton's last evaluation plus one Hessian step gives p = P + S_q and
    # Q = q + S_P at the solved pair, as an evaluation there would, on a
    # batch whose columns stop after different iteration counts.
    cm = CanonicalMap(EARTH, order)
    states = draw_states(rng, 60, a_hi=20000.0, e_hi=0.5)
    cols = np.array([(*s.momenta, *s.angles) for s in states]).T
    P, Q = cols[:3], cols[3:]
    p, q, its = cm.mean_to_osculating_batch(P, Q)
    assert len(set(its)) > 1
    fresh = P.copy()
    fresh[:2] += cm.series.grad_q(P, q)
    assert (np.abs(p - fresh) <= 1e-15 * np.abs(fresh)).all()
    P, Q, its = cm.osculating_to_mean_batch(cols[:3], cols[3:])
    assert len(set(its)) > 1
    fresh = cols[3:] + cm.series.grad_P(P, cols[3:])
    assert (np.abs(Q - fresh) <= 1e-14 * np.abs(fresh)).all()


def test_offsets_scale_linearly(rng):
    # halving J2 halves the osc - mean offset to within 5%
    cm1 = CanonicalMap(EARTH)
    cm2 = CanonicalMap(EARTH.with_j2(J2 / 2.0))
    for st in draw_states(rng, 5):
        d1 = offset(cm1, st)
        d2 = offset(cm2, st)
        scale = np.abs(d1).max()
        mask = np.abs(d1) > 1e-10 * scale
        ratio = d1[mask] / d2[mask]
        assert np.all(np.abs(ratio - 2.0) < 0.1)


def test_first_order_consistency(rng):
    # after removing the generator's linear prediction the remainder is
    # quadratic in J2: quartering under halving, ratio in [3.5, 4.5]
    st = draw_states(rng, 1, e_lo=0.05, e_hi=0.15)[0]
    res = {}
    for j2 in (J2, J2 / 2.0):
        model = EARTH.with_j2(j2)
        res[j2] = offset(CanonicalMap(model, order=1), st) - first_order_displacement(st, model)
    scale = np.abs(res[J2]).max()
    mask = np.abs(res[J2]) > 1e-7 * scale
    ratio = res[J2][mask] / res[J2 / 2.0][mask]
    assert np.all((ratio > 3.5) & (ratio < 4.5))


def test_newton_iteration_budget(rng):
    for j2 in (2e-3, -2e-3, J2):
        cm = CanonicalMap(EARTH.with_j2(j2))
        for st in draw_states(rng, 8):
            _, info = cm.mean_to_osculating(st, return_info=True)
            assert info["iterations"] <= 6
            _, info = cm.osculating_to_mean(st, return_info=True)
            assert info["iterations"] <= 6


def richardson_map_jacobian(cm, at, direction):
    """Independent oracle for map_jacobian: central differences of the whole
    map in momentum units of sqrt(mu R), with one Richardson pass.  Each
    column costs four map solves and uses no second derivative of S."""
    s = momentum_scale(cm.model)
    x0 = np.concatenate([at.momenta / s, at.angles])
    apply = getattr(cm, direction)

    def f(x):
        out = apply(DelaunayState(*(x[:3] * s), *x[3:]))
        return np.concatenate([out.momenta / s, out.angles])

    def table(steps):
        M = np.empty((6, 6))
        for k, h in enumerate(steps):
            dx = np.zeros(6)
            dx[k] = h
            d = f(x0 + dx) - f(x0 - dx)
            d[3:] = wrap(d[3:])
            M[:, k] = d / (2.0 * h)
        return M

    steps = FD_REL * np.maximum(1.0, np.abs(x0))
    steps[:2] = np.minimum(steps[:2], 0.25 * (at.L - at.G) / s)  # G <= L at the probes
    return (4.0 * table(steps / 2.0) - table(steps)) / 3.0


def test_map_jacobian_matches_richardson_oracle():
    # The CLI's default orbit at four eccentricities, and a near-polar orbit
    # (H near 0) at two.  The inverse direction is taken at the forward
    # image, as in the composition test below.  The oracle's own residual
    # checks that the map itself is canonical, which the assembled matrix
    # cannot show: it is symplectic by construction.
    cm = CanonicalMap(EARTH)
    shapes = [(7000.0, e, 0.5) for e in (0.01, 0.05, 0.2, 0.3)]
    shapes += [(7513.0, e, 1.58) for e in (0.05, 0.3)]
    for a, e, i in shapes:
        mean = kep_to_delaunay(KeplerianElements(a, e, i, 0.3, 1.1, 0.2), EARTH)
        osc = cm.mean_to_osculating(mean)
        for at, direction in ((mean, "mean_to_osculating"), (osc, "osculating_to_mean")):
            M = cm.map_jacobian(at, direction, scaled=True)
            M_fd = richardson_map_jacobian(cm, at, direction)
            assert np.abs(M - M_fd).max() <= 1e-6 * np.abs(M_fd).max()
            assert symplectic_residual(M_fd) <= 1e-6


def test_map_jacobian_identity_at_zero_j2(rng):
    cm = CanonicalMap(EARTH.with_j2(0.0))
    st = draw_states(rng, 1)[0]
    M = cm.map_jacobian(st)
    assert_allclose(M, np.eye(6), atol=1e-9)


def test_map_jacobian_is_symplectic(rng):
    cm = CanonicalMap(EARTH)
    for st in draw_states(rng, 5):
        M = cm.map_jacobian(st, scaled=True)
        assert symplectic_residual(M) < 1e-6
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-6)
        ids = block_identities(M)
        assert max(ids.values()) < 1e-6


def test_forward_inverse_jacobians_compose(rng):
    cm = CanonicalMap(EARTH)
    st = draw_states(rng, 3)[0]
    osc = cm.mean_to_osculating(st)
    Mf = cm.map_jacobian(st, scaled=True)
    Mi = cm.map_jacobian(osc, "osculating_to_mean", scaled=True)
    assert np.abs(Mf @ Mi - np.eye(6)).max() < 1e-6


def test_scaled_and_physical_jacobians_are_conjugate(rng):
    cm = CanonicalMap(EARTH)
    st = draw_states(rng, 1)[0]
    s = momentum_scale(EARTH)
    T = np.diag([1.0 / s] * 3 + [1.0] * 3)
    Ms = cm.map_jacobian(st, scaled=True)
    Mp = cm.map_jacobian(st, scaled=False)
    assert_allclose(T @ Mp @ np.linalg.inv(T), Ms, rtol=0, atol=1e-12 * np.abs(Ms).max())


def test_unknown_direction_rejected(rng):
    cm = CanonicalMap(EARTH)
    st = draw_states(rng, 1)[0]
    with pytest.raises(DomainError):
        cm.map_jacobian(st, direction="sideways")


def test_order_one_and_two_differ_quadratically(rng):
    st = draw_states(rng, 1, e_lo=0.05, e_hi=0.15)[0]
    d = {}
    for j2 in (J2, J2 / 2.0):
        o1 = CanonicalMap(EARTH.with_j2(j2), order=1).mean_to_osculating(st)
        o2 = CanonicalMap(EARTH.with_j2(j2), order=2).mean_to_osculating(st)
        d[j2] = np.concatenate([o1.momenta - o2.momenta, wrap(o1.angles - o2.angles)])
    big = np.abs(d[J2]).max()
    assert big > 0.0
    mask = np.abs(d[J2]) > 1e-6 * big
    ratio = d[J2][mask] / d[J2 / 2.0][mask]
    assert np.all((ratio > 3.0) & (ratio < 5.0))


def test_near_circular_exit_is_map_error():
    L = float(np.sqrt(EARTH.mu * 7000.0))
    e = 1e-7
    G = L * np.sqrt(1.0 - e * e)
    st = DelaunayState(L, G, G * np.cos(0.5), 0.3, 1.1, 2.0)
    # below the generator's own e bound: refused before a generator is built
    e = 1e-11
    G = L * np.sqrt(1.0 - e * e)
    tiny = DelaunayState(L, G, G * np.cos(0.5), 0.3, 1.1, 2.0)
    # e = 1e-3 is above the refusal bound, but the inverse Newton iterate
    # walks to e = 0 from this state
    walks = kep_to_delaunay(KeplerianElements(7000.0, 1e-3, 0.5, 0.3, 0.26, 0.1), EARTH)
    good = kep_to_delaunay(KeplerianElements(7200.0, 0.05, 0.6, 0.3, 1.1, 2.0), EARTH)
    cm = CanonicalMap(EARTH)

    def batch(bad, solve=cm.osculating_to_mean_batch):
        # a three-column batch whose middle column alone fails
        cols = np.array([(*s.momenta, *s.angles) for s in (good, bad, good)]).T
        return solve(cols[:3], cols[3:])

    def forward(bad):
        # the same batch mapped forward, one momentum column per state
        return batch(bad, cm.mean_to_osculating_batch)

    for bad, call in (
        (st, cm.osculating_to_mean),
        (st, cm.mean_to_osculating),
        (tiny, cm.osculating_to_mean),
        (tiny, cm.mean_to_osculating),
        (tiny, batch),
        (st, batch),
        (walks, batch),
        (tiny, forward),
        (st, forward),
    ):
        with pytest.raises(MapError) as failure:
            call(bad)
        # the message names the failing input state and the last scaled step
        for name in "LGHlgh":
            assert f"{name}={float(getattr(bad, name))!r}" in str(failure.value)
        for name in "LGH":
            assert f"{name}={float(getattr(good, name))!r}" not in str(failure.value)
        assert "last scaled step" in str(failure.value)
        if bad is walks:
            # the reason gives the iterate's e and the chain-rule floor
            assert re.search(
                rf"iterate left the Delaunay chart: e = \d\.\d{{3}}e[+-]\d+ below the chain-rule floor {CHAIN_FLOOR};",
                str(failure.value),
            )


def test_displacement_prediction_matches_map(rng):
    # the analytic offset agrees with the nonlinear map to O(J2^2)
    st = draw_states(rng, 1, e_lo=0.05, e_hi=0.15)[0]
    cm = CanonicalMap(EARTH, order=1)
    d_map = offset(cm, st)
    d_lin = first_order_displacement(st, EARTH)
    scale = np.abs(d_lin).max()
    assert np.abs(d_map - d_lin).max() < 50.0 * J2 * scale
