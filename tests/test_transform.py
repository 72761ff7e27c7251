import re
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import draw_states
from zeipel import vonzeipel as vz
from zeipel.checks import richardson
from zeipel.domain import CHAIN_FLOOR
from zeipel.elements import EARTH, DelaunayState, KeplerianElements, delaunay_momenta, kep_to_delaunay, normalize_angle
from zeipel.errors import DomainError, MapError, describe
from zeipel.symplectic import block_identities, generating_jacobian, symplectic_inverse, symplectic_residual
from zeipel.transform import NEWTON_TOL, STALE_REL, CanonicalMap, GeneratingSeries, momentum_scale, newton_step

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
    # both directions give back fields equal to the input's
    cm = CanonicalMap(EARTH.with_j2(0.0))
    st = draw_states(rng, 1)[0]
    assert astuple(cm.mean_to_osculating(st)) == astuple(st)
    assert astuple(cm.osculating_to_mean(st)) == astuple(st)


def test_single_state_results_hold_python_floats():
    # The N = 1 solve returns its column as a DelaunayState of six Python
    # floats, as every element conversion does; the values are the batch
    # solve's column bit for bit, the angles reduced to [0, 2 pi).
    cm = CanonicalMap(EARTH)
    st = kep_to_delaunay(KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2), EARTH)
    for one, batch in ((cm.mean_to_osculating, cm.mean_to_osculating_batch),
                       (cm.osculating_to_mean, cm.osculating_to_mean_batch)):
        got = one(st)
        assert all(type(x) is float for x in astuple(got))
        p, q, _ = batch(st.momenta[:, None], st.angles[:, None])
        assert np.array_equal(got.momenta, p[:, 0])
        assert np.array_equal(got.angles, normalize_angle(q[:, 0]))


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
    """The column count of each generator build, in order, and the count of
    `derivatives` calls."""
    counts = {"builds": [], "derivatives": 0}
    init, derivatives = vz.ClosedFormGenerator.__init__, vz.ClosedFormGenerator.derivatives

    def counted_init(self, L, *args):
        counts["builds"].append(np.size(L))
        init(self, L, *args)

    def counted_derivatives(self, *args):
        counts["derivatives"] += 1
        return derivatives(self, *args)

    monkeypatch.setattr(vz.ClosedFormGenerator, "__init__", counted_init)
    monkeypatch.setattr(vz.ClosedFormGenerator, "derivatives", counted_derivatives)
    return counts


def test_map_makes_one_evaluation_per_newton_iteration(rng, evaluations):
    # The outputs come from Newton's last evaluation: forward, one build on
    # every column and one derivatives call per iteration; inverse, one build
    # and one derivatives call per iteration, each build on the columns still
    # running (as in the CLI's 401-sample mean_history, where 17 columns take
    # a 4th step), on a batch whose columns stop after different iteration
    # counts.  No columns evaluate nothing beyond the forward build, and J2 = 0
    # evaluates nothing.
    cm = CanonicalMap(EARTH)
    cols = np.array([(*s.momenta, *s.angles) for s in draw_states(rng, 12, a_hi=20000.0, e_hi=0.5)]).T
    its = cm.mean_to_osculating_batch(cols[:3], cols[3:])[2]
    assert len(set(its)) > 1
    assert evaluations == {"builds": [12], "derivatives": its.max()}
    evaluations.update(builds=[], derivatives=0)
    its = cm.osculating_to_mean_batch(cols[:3], cols[3:])[2]
    assert len(set(its)) > 1
    running = [int((its >= k).sum()) for k in range(1, its.max() + 1)]
    assert running[-1] < 12
    assert evaluations == {"builds": running, "derivatives": its.max()}
    evaluations.update(builds=[], derivatives=0)
    cm.mean_to_osculating_batch(np.zeros((3, 0)), np.zeros((3, 0)))
    cm.osculating_to_mean_batch(np.zeros((3, 0)), np.zeros((3, 0)))
    assert evaluations == {"builds": [0], "derivatives": 0}
    evaluations.update(builds=[], derivatives=0)
    free = CanonicalMap(EARTH.with_j2(0.0))
    for direction in (free.mean_to_osculating_batch, free.osculating_to_mean_batch):
        p, q, its = direction(cols[:3], cols[3:])
        assert np.array_equal(p, cols[:3]) and np.array_equal(q, cols[3:]) and not its.any()
    assert evaluations == {"builds": [], "derivatives": 0}


@pytest.mark.parametrize("order", [1, 2])
def test_block_steps_match_the_assembled_newton_matrix(rng, order):
    # S has no h term, so each direction iterates the two unknowns S
    # depends on, (l, g) forward and (L, G) inverse, with a 2x2 step.  The
    # premise first: the generator Hessian in (L, G, H, l, g, h) has a zero
    # h row and column, and the map commutes with a shift of h.
    states = draw_states(rng, 240, a_hi=20000.0, e_hi=0.5, i_lo=0.05, i_hi=3.1)
    P, q = np.array([(*s.momenta, *s.angles) for s in states]).T.reshape(2, 3, -1)
    assert (np.abs(P[2]) < 0.01 * P[1]).any() and (P[2] < 0.0).any()  # near-polar and retrograde orbits
    _, _, hess = GeneratingSeries(EARTH, order).at(P).derivatives(q[0], q[1])
    full = np.zeros((6, 6, P.shape[1]))
    full[: len(hess), : len(hess)] = hess
    assert not full[5].any() and not full[:, 5].any()
    cm = CanonicalMap(EARTH, order)
    for direction in (cm.mean_to_osculating_batch, cm.osculating_to_mean_batch):
        p, q_out, its = direction(P, q)
        p_h, q_h, its_h = direction(P, q + [[0.0], [0.0], [1.0]])
        assert np.array_equal(p_h, p) and np.array_equal(q_h[:2], q_out[:2]) and np.array_equal(its_h, its)
        assert np.abs(q_h[2] - 1.0 - q_out[2]).max() <= 1e-14
    # On a residual of either sign and size, the 2x2 step is LAPACK's solve
    # of the Newton matrix, I + S_Pq forward and I + S_qP inverse, to 4 ulp of
    # the step's largest entry.
    F = rng.normal(size=(2, P.shape[1])) * 10.0 ** rng.uniform(-12.0, -2.0, P.shape[1])
    for block in (hess[:2, 3:], hess[3:, :2]):
        jac = (np.eye(2)[..., None] + block).transpose(2, 0, 1)
        want = np.linalg.solve(jac, -F.T[..., None])[..., 0].T
        assert (np.abs(newton_step(F, block) - want) <= 4.0 * np.finfo(float).eps * np.abs(want).max(axis=0)).all()


@pytest.mark.parametrize("order", [1, 2])
def test_outputs_match_a_fresh_evaluation_at_the_solution(rng, order):
    # Newton's last evaluation plus one Hessian step gives p = P + S_q,
    # h = Q_h - S_H and Q = q + S_P at the solved pair, as an evaluation
    # there would, on a batch whose columns stop after different iteration
    # counts; the inverse map carries H = p_H through unchanged.
    cm = CanonicalMap(EARTH, order)
    states = draw_states(rng, 60, a_hi=20000.0, e_hi=0.5)
    cols = np.array([(*s.momenta, *s.angles) for s in states]).T
    P, Q = cols[:3], cols[3:]
    p, q, its = cm.mean_to_osculating_batch(P, Q)
    assert len(set(its)) > 1
    fresh = P.copy()
    fresh[:2] += cm.series.grad_q(P, q)
    assert (np.abs(p - fresh) <= 1e-15 * np.abs(fresh)).all()
    h = Q[2] - cm.series.grad_P(P, q)[2]
    assert (np.abs(q[2] - h) <= 1e-14 * np.abs(h)).all()
    P, Q, its = cm.osculating_to_mean_batch(cols[:3], cols[3:])
    assert len(set(its)) > 1
    assert np.array_equal(P[2], cols[2])
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
    ref = apply(at).angles  # output angles are taken relative to the image of x0

    def f(x):
        out = apply(DelaunayState(*(x[:3] * s), *x[3:]))
        return np.concatenate([out.momenta / s, wrap(out.angles - ref)])

    steps = FD_REL * np.maximum(1.0, np.abs(x0))
    steps[:2] = np.minimum(steps[:2], 0.25 * (at.L - at.G) / s)  # G <= L at the probes
    unit = np.eye(6)
    return np.column_stack(
        [richardson(lambda t, k=k: f(x0 + t * unit[k]), 0.0, h) for k, h in enumerate(steps)]
    )


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


def fresh_map_jacobian(cm, x, direction):
    """Oracle for map_jacobian's Hessian source: the scaled matrix assembled
    from a fresh generator build and evaluation at the pair x = (P, q)."""
    _, _, hess = cm.series.at(x[:3]).derivatives(x[3], x[4])
    s = momentum_scale(cm.model)
    A = np.eye(3)
    A[:2] += hess[3:, :3]
    B = np.zeros((3, 3))
    B[:2, :2] = hess[3:, 3:] / s
    M = generating_jacobian(A, B, hess[:3, :3] * s)
    return symplectic_inverse(M) if direction == "osculating_to_mean" else M


@pytest.mark.parametrize("order", [1, 2])
def test_map_jacobian_matches_a_fresh_evaluation_at_the_solution(rng, order):
    # map_jacobian reads the Hessian of Newton's last evaluation, one step of
    # at most NEWTON_TOL in scaled units from the solved pair.  Forward the
    # step is in (l, g), so the matrix differs from the one assembled afresh
    # at the pair by round-off (1e-12 relative) plus at most what moving each
    # angle by NEWTON_TOL does to that matrix.  Inverse the step is in (L, G),
    # and the Hessian varies as 1/e^2 with L - G: near circular (e from
    # 0.0015 to 0.01) the last step moves L - G by up to about 1e-6 of
    # itself, and the matrix would miss the fresh one by up to about 1e-6
    # relative.  Where that move exceeds STALE_REL the Hessian is evaluated
    # again at the pair, so the inverse matrix stays within 1e-12 relative.
    cm = CanonicalMap(EARTH, order)
    for st in draw_states(rng, 10) + draw_states(rng, 10, e_lo=0.0015, e_hi=0.01):
        M = cm.map_jacobian(st, scaled=True)
        x = np.concatenate([st.momenta, cm.mean_to_osculating(st).angles])
        want = fresh_map_jacobian(cm, x, "mean_to_osculating")
        moved = sum(np.abs(fresh_map_jacobian(cm, x + dx, "mean_to_osculating") - want).max()
                    for dx in NEWTON_TOL * np.eye(6)[3:5])
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max() + moved
        M = cm.map_jacobian(st, "osculating_to_mean", scaled=True)
        x = np.concatenate([cm.osculating_to_mean(st).momenta, st.angles])
        want = fresh_map_jacobian(cm, x, "osculating_to_mean")
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()


def test_map_jacobian_reuses_the_newton_evaluations(rng, evaluations):
    # One Newton solve: forward, one build and one derivatives call per
    # iteration; inverse, one build and one call per iteration, plus one of
    # each at the solved pair where the last step moved L - G by more than
    # STALE_REL of itself.  That happens near circular, and not at the
    # benchmark's Jacobian states (e = 0.05 and 0.3, inverse at their
    # forward images).
    cm = CanonicalMap(EARTH)
    bench = [DelaunayState(*delaunay_momenta(a, e, i, EARTH), l, g, 0.3)
             for a, e, i, l, g in ((7100.0, 0.05, 0.7, 1.0, 2.5), (8600.0, 0.3, 2.0, 4.0, 0.8))]
    refreshed = []
    for st in draw_states(rng, 3) + draw_states(rng, 6, e_lo=0.0015, e_hi=0.01) + [cm.mean_to_osculating(x) for x in bench]:
        fwd = cm.mean_to_osculating(st, return_info=True)[1]["iterations"]
        mean, inv, _, last = cm._one(cm._osculating_to_mean, st)
        stale = abs(last[0] - last[1]) > STALE_REL * (mean.L - mean.G)
        evaluations.update(builds=[], derivatives=0)
        cm.map_jacobian(st)
        assert evaluations == {"builds": [1], "derivatives": fwd}
        evaluations.update(builds=[], derivatives=0)
        cm.map_jacobian(st, "osculating_to_mean")
        assert evaluations == {"builds": [1] * (inv + stale), "derivatives": inv + stale}
        refreshed.append(stale)
    assert any(refreshed[3:9]) and not any(refreshed[9:])


def test_map_jacobian_identity_at_zero_j2(rng, evaluations):
    # the identity in both directions, with no generator built
    cm = CanonicalMap(EARTH.with_j2(0.0))
    st = draw_states(rng, 1)[0]
    for direction in ("mean_to_osculating", "osculating_to_mean"):
        assert np.array_equal(cm.map_jacobian(st, direction), np.eye(6))
    assert evaluations == {"builds": [], "derivatives": 0}


def test_map_jacobian_is_symplectic(rng):
    cm = CanonicalMap(EARTH)
    for st in draw_states(rng, 5):
        M = cm.map_jacobian(st, scaled=True)
        assert symplectic_residual(M) < 1e-6
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-6)
        ids = block_identities(M)
        assert max(ids.values()) < 1e-6


def test_forward_inverse_jacobians_compose(rng):
    for order in (1, 2):
        cm = CanonicalMap(EARTH, order)
        for st in draw_states(rng, 5):
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


def test_map_jacobian_refuses_an_image_off_the_chart():
    # Next to the near-circular bound (e = 1.5e-3) the forward image of this
    # mean state has G > L, off the Delaunay chart.  The batch (here the
    # middle column of three), the single-state map and the Jacobian, which
    # solves the same map, all raise a MapError that names the state and the
    # bound.
    st = DelaunayState(52370.56307794199, 52370.50467477727, -50020.23499835714,
                       3.1552775907315733, 3.500930869973849, 3.808342199249111)
    good = kep_to_delaunay(KeplerianElements(7200.0, 0.05, 0.6, 0.3, 1.1, 2.0), EARTH)
    cols = np.array([(*s.momenta, *s.angles) for s in (good, st, good)]).T
    cm = CanonicalMap(EARTH)
    for call in (cm.mean_to_osculating, cm.map_jacobian, lambda _: cm.mean_to_osculating_batch(cols[:3], cols[3:])):
        with pytest.raises(MapError) as failure:
            call(st)
        assert str(failure.value).startswith(
            "osculating image left the Delaunay chart: G - L = +2.918e-03 from e = 1.493e-03, "
            f"near |J2| (R/a)^2 = 9.302e-04; input {describe('LGHlgh', (*st.momenta, *st.angles))}; "
            "last scaled step "
        )


def test_non_finite_input_is_refused_at_entry(evaluations):
    # An infinite momentum or a NaN angle in the middle column of a batch is
    # refused in both directions before any eccentricity is computed (so no
    # numpy warning) and before any generator is built.
    good = kep_to_delaunay(KeplerianElements(7200.0, 0.05, 0.6, 0.3, 1.1, 2.0), EARTH)
    cm = CanonicalMap(EARTH)
    for row, value in ((0, np.inf), (3, np.nan)):  # L = inf, then l = nan
        cols = np.tile(np.concatenate([good.momenta, good.angles])[:, None], 3)
        cols[row, 1] = value
        for solve in (cm.mean_to_osculating_batch, cm.osculating_to_mean_batch):
            with pytest.raises(MapError) as failure:
                solve(cols[:3], cols[3:])
            assert str(failure.value) == (
                f"input is not finite; input {describe('LGHlgh', cols[:, 1])}; last scaled step nan"
            )
    assert evaluations == {"builds": [], "derivatives": 0}


def test_a_non_finite_residual_names_its_column(monkeypatch):
    # A generator gradient that turns NaN in the middle column of three, at
    # momenta well inside the chart, breaks that column's Newton solve in
    # both directions: the MapError gives the non-finite reason and names
    # that column's input state.
    good = kep_to_delaunay(KeplerianElements(7200.0, 0.05, 0.6, 0.3, 1.1, 2.0), EARTH)
    cols = np.tile(np.concatenate([good.momenta, good.angles])[:, None], 3)
    cols[3] = (0.5, 2.0, 4.0)  # three mean anomalies, so each column is its own state
    derivatives = vz.ClosedFormGenerator.derivatives

    def poisoned(self, l, g):
        value, grad, hess = derivatives(self, l, g)
        if grad.shape[-1] == 3:
            grad[:, 1] = np.nan
        return value, grad, hess

    monkeypatch.setattr(vz.ClosedFormGenerator, "derivatives", poisoned)
    cm = CanonicalMap(EARTH)
    for solve in (cm.mean_to_osculating_batch, cm.osculating_to_mean_batch):
        with pytest.raises(MapError) as failure:
            solve(cols[:3], cols[3:])
        assert str(failure.value) == (
            f"residual became non-finite; input {describe('LGHlgh', cols[:, 1])}; last scaled step nan"
        )


def test_map_refuses_an_order_it_has_no_generator_for():
    with pytest.raises(DomainError, match=r"^order must be one of \(1, 2\)$"):
        CanonicalMap(EARTH, order=3)


def test_displacement_prediction_matches_map(rng):
    # the analytic offset agrees with the nonlinear map to O(J2^2)
    st = draw_states(rng, 1, e_lo=0.05, e_hi=0.15)[0]
    cm = CanonicalMap(EARTH, order=1)
    d_map = offset(cm, st)
    d_lin = first_order_displacement(st, EARTH)
    scale = np.abs(d_lin).max()
    assert np.abs(d_map - d_lin).max() < 50.0 * J2 * scale
