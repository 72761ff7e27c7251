import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import UNIT
from zeipel.elements import (
    EARTH,
    DelaunayState,
    KeplerianElements,
    CartesianState,
    PhysicalModel,
    as_row,
    cartesian_to_kep,
    delaunay_momenta,
    kep_to_cartesian,
    kep_to_delaunay,
    normalize_angle,
)
from zeipel import elements, hamiltonian, propagator
from zeipel.checks import richardson
from zeipel.hamiltonian import h0, polar_angular_momentum, specific_energy
from zeipel.transform import CanonicalMap
from zeipel.errors import DomainError, IntegrationError, MapError, UsageError, describe
from zeipel.propagator import (
    Ephemeris,
    compare,
    mean_history,
    mean_rates,
    propagate_analytic,
    propagate_oracle,
)
from zeipel.vonzeipel import k1, k2

TWO_PI = 2.0 * np.pi


def kepler_period(a, model):
    return TWO_PI * np.sqrt(a**3 / model.mu)


def wrap(d):
    return (np.asarray(d) + np.pi) % TWO_PI - np.pi


def test_rates_kepler_limit():
    P = delaunay_momenta(7000.0, 0.05, 0.8, EARTH)
    r = mean_rates(P, EARTH.with_j2(0.0))
    n = EARTH.mu**2 / P[0] ** 3
    assert r[0] == pytest.approx(n, rel=1e-15)
    assert r[1] == 0.0
    assert r[2] == 0.0


def test_rates_match_secular_formulas():
    # standard J2 secular drifts in (argp, raan, mean anomaly)
    a, e, inc = 7000.0, 0.01, 0.5
    L, G, H = delaunay_momenta(a, e, inc, EARTH)
    r = mean_rates((L, G, H), EARTH, order=1)
    n = np.sqrt(EARTH.mu / a**3)
    p = a * (1.0 - e * e)
    eta = np.sqrt(1.0 - e * e)
    j2 = EARTH.j2
    k = j2 * (EARTH.R / p) ** 2
    assert r[1] == pytest.approx(0.75 * n * k * (5.0 * np.cos(inc) ** 2 - 1.0), rel=1e-12)
    assert r[2] == pytest.approx(-1.5 * n * k * np.cos(inc), rel=1e-12)
    assert r[0] == pytest.approx(
        n * (1.0 + 0.75 * k * (3.0 * np.cos(inc) ** 2 - 1.0) * eta), rel=1e-12
    )


def test_rates_node_drift_antisymmetric_in_inclination():
    a, e = 7200.0, 0.1
    for inc in (0.4, 1.0, 1.4):
        r_pro = mean_rates(delaunay_momenta(a, e, inc, EARTH), EARTH)
        r_ret = mean_rates(delaunay_momenta(a, e, np.pi - inc, EARTH), EARTH)
        assert r_pro[2] == pytest.approx(-r_ret[2], rel=1e-12)
        assert r_pro[1] == pytest.approx(r_ret[1], rel=1e-12)


EARTH_P = delaunay_momenta(7000.0, 0.08, 0.9, EARTH)


@pytest.mark.parametrize(
    "model, P, h",
    [
        pytest.param(UNIT, (1.2, 1.0, 0.4), (1e-5,) * 3, id="UNIT"),
        pytest.param(EARTH, EARTH_P, tuple(1e-3 * abs(x) for x in EARTH_P), id="EARTH"),
    ],
)
def test_rates_match_gradient_finite_difference(model, P, h):
    # the rates are -dK/dP of K = h0 + J2 k1 + J2^2 k2
    j2 = model.j2

    def K(L, G, H):
        return h0(L, model) + j2 * k1(L, G, H, model) + j2 * j2 * k2(L, G, H, model)

    L, G, H = P
    r = mean_rates(P, model)
    fd = -np.array(
        [
            richardson(lambda x: K(x, G, H), L, h[0]),
            richardson(lambda x: K(L, x, H), G, h[1]),
            richardson(lambda x: K(L, G, x), H, h[2]),
        ]
    )
    assert_allclose(r, fd, rtol=0, atol=1e-9 * np.abs(r).max())


def test_analytic_zero_j2_matches_kepler():
    el0 = KeplerianElements(a=7100.0, e=0.05, i=0.6, raan=0.3, argp=1.2, mean_anom=0.1)
    T = kepler_period(el0.a, EARTH)
    times = np.linspace(0.0, 2.0 * T, 41)
    eph = propagate_analytic(el0, times, EARTH.with_j2(0.0))
    n = np.sqrt(EARTH.mu / el0.a**3)
    for t, row, cart in zip(times, eph.kep, eph.cart):
        el, cs = KeplerianElements(*row), CartesianState(cart[:3], cart[3:])
        two_body = KeplerianElements(
            a=el0.a,
            e=el0.e,
            i=el0.i,
            raan=el0.raan,
            argp=el0.argp,
            mean_anom=el0.mean_anom + n * t,
        )
        ref = kep_to_cartesian(two_body, EARTH)
        assert np.linalg.norm(cs.r - ref.r) < 1e-10 * np.linalg.norm(ref.r)
        assert el.a == pytest.approx(el0.a, rel=1e-12)


def test_analytic_ephemeris_is_consistent():
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    times = np.linspace(0.0, 3000.0, 11)
    eph = propagate_analytic(el0, times, EARTH)
    assert len(eph) == 11
    assert eph.validate(EARTH)
    # starting sample reproduces the input osculating state
    first = KeplerianElements(*eph.kep[0])
    assert first.a == pytest.approx(el0.a, rel=1e-9)
    assert first.e == pytest.approx(el0.e, rel=1e-9)
    assert abs(wrap(first.mean_anom - el0.mean_anom)) < 1e-9


def test_validate_names_each_inconsistent_representation():
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    eph = propagate_analytic(el0, np.linspace(0.0, 3000.0, 11), EARTH)
    assert eph.validate(EARTH)
    for rep, col, step, message in (
        ("cart", 1, 1e-3, "Cartesian positions"),
        ("cart", 5, 1e-6, "Cartesian velocities"),
        ("delaunay", 4, 1e-6, "Delaunay samples"),
    ):
        samples = {name: getattr(eph, name).copy() for name in ("kep", "cart", "delaunay")}
        samples[rep][7, col] += step
        with pytest.raises(DomainError, match=f"^{message} inconsistent with elements$"):
            Ephemeris(eph.t, samples["kep"], samples["cart"], samples["delaunay"]).validate(EARTH)


def test_analytic_kepler_solves_do_not_grow_with_samples(monkeypatch):
    # Each map call makes one Kepler solve per Newton step and one to
    # finish, the Cartesian rows one more; none is made per sample.  The
    # longer grid may take one more forward Newton step on some columns.
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    solve = elements.kepler_solve
    for order in (1, 2):
        calls = {}
        for n in (11, 401):
            counted = []
            monkeypatch.setattr(elements, "kepler_solve", lambda *a, **k: counted.append(1) or solve(*a, **k))
            propagate_analytic(el0, np.linspace(0.0, 58285.0, n), EARTH, order)
            calls[n] = len(counted)
        assert calls[11] <= 10 and 0 <= calls[401] - calls[11] <= 1, calls


def test_oracle_closed_orbit_return():
    el0 = KeplerianElements(a=7100.0, e=0.05, i=0.6, raan=0.3, argp=1.2, mean_anom=0.1)
    model = PhysicalModel(mu=EARTH.mu, R=EARTH.R)  # no zonal field
    cs0 = kep_to_cartesian(el0, model)
    T = kepler_period(el0.a, model)
    eph = propagate_oracle(cs0, np.linspace(0.0, T, 7), model)
    r0, r1 = eph.positions()[0], eph.positions()[-1]
    assert np.linalg.norm(r1 - r0) < 1e-9 * np.linalg.norm(r0)
    v0, v1 = eph.cart[0, 3:], eph.cart[-1, 3:]
    assert np.linalg.norm(v1 - v0) < 1e-9 * np.linalg.norm(v0)


def test_oracle_conserves_energy_and_hz():
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    cs0 = kep_to_cartesian(el0, EARTH)
    T = kepler_period(el0.a, EARTH)
    eph = propagate_oracle(cs0, np.linspace(0.0, 2.0 * T, 81), EARTH)
    r, v = eph.cart[:, :3], eph.cart[:, 3:]
    en = specific_energy(r, v, EARTH)
    hz = polar_angular_momentum(r, v)
    assert np.ptp(en) < 1e-11 * abs(en[0])
    assert np.ptp(hz) < 1e-11 * abs(hz[0])


def test_order_two_beats_order_one():
    # the benchmark's order rule: order 2 at least ten times closer to the
    # oracle than order 1, on the default orbit and a highly eccentric one
    for a, e, inc in ((7000.0, 0.01, 0.5), (24000.0, 0.7, 1.0)):
        el0 = KeplerianElements(a=a, e=e, i=inc, raan=0.3, argp=1.1, mean_anom=0.2)
        cs0 = kep_to_cartesian(el0, EARTH)
        T = kepler_period(el0.a, EARTH)
        times = np.linspace(0.0, 2.0 * T, 41)
        oracle = propagate_oracle(cs0, times, EARTH)
        err1 = compare(propagate_analytic(el0, times, EARTH, order=1), oracle).max_pos_err
        err2 = compare(propagate_analytic(el0, times, EARTH, order=2), oracle).max_pos_err
        assert err2 <= 0.1 * err1, f"a = {a}, e = {e}: order 2 {err2:.3e} km, order 1 {err1:.3e} km"


def test_analytic_route_refuses_an_image_off_the_chart():
    # Osculating e = 0.002 at a = 7000 km has mean e = 1.1e-3, just above
    # the map's bound |J2| (R/a)^2 = 9.0e-4.  At the fourth of nine samples
    # over one period the forward image has G > L: the route raises the
    # map's MapError, which names that sample's mean state and the bound,
    # rather than passing the image on to the element conversions.
    el0 = KeplerianElements(a=7000.0, e=0.002, i=0.5, raan=0.3, argp=0.5, mean_anom=0.2)
    times = np.linspace(0.0, kepler_period(el0.a, EARTH), 9)
    mean0 = CanonicalMap(EARTH).osculating_to_mean(kep_to_delaunay(el0, EARTH))
    angles = normalize_angle(mean0.angles + mean_rates(mean0.momenta, EARTH) * times[3])
    with pytest.raises(MapError) as failure:
        propagate_analytic(el0, times, EARTH)
    text = str(failure.value)
    assert text.startswith("osculating image left the Delaunay chart: G - L = +1.011e-02 from e = 1.148e-03, "
                           "near |J2| (R/a)^2 = 8.989e-04; input ")
    assert f"input {describe('LGHlgh', (*mean0.momenta, *angles))}; last scaled step " in text


def test_oracle_failure_names_state_and_last_time(nan_field):
    # A field that is NaN from its first evaluation gives a NaN initial
    # step, which fails at t0 itself and says why.
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    cs0 = kep_to_cartesian(el0, EARTH)
    nan_field(0)
    with pytest.raises(IntegrationError) as failure:
        propagate_oracle(cs0, np.linspace(1000.0, 3000.0, 5), EARTH)
    message = str(failure.value)
    assert "oracle integration failed: the state or right-hand side became non-finite;" in message
    for name, x in zip(("x", "y", "z", "vx", "vy", "vz"), np.concatenate([cs0.r, cs0.v])):
        assert f"{name}={float(x)!r}" in message
    assert message.endswith("last time reached 1000.0")


def test_oracle_field_gone_nan_fails_fast_through_the_integrator(nan_field):
    # The field turns NaN after 500 evaluations: the first step that sees it
    # has a NaN error norm and fails at once, saying so and naming the last
    # time the integrator reached.
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    nan_field(500)
    t1 = 2.0 * kepler_period(el0.a, EARTH)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="the state or right-hand side became non-finite") as failure:
        propagate_oracle(kep_to_cartesian(el0, EARTH), np.linspace(0.0, t1, 41), EARTH)
    assert time.perf_counter() - start < 1.0
    last = float(str(failure.value).rsplit("last time reached ", 1)[1])
    assert 0.0 < last < t1


def test_oracle_zero_zonal_terms_change_nothing():
    # The oracle sums the degrees of model.zonal; zero coefficients above
    # the last nonzero one leave the samples, and their energy under each
    # run's own model, bit-identical.
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    j23 = PhysicalModel(mu=EARTH.mu, R=EARTH.R, zonal=(EARTH.j2, -2.53265649e-6))
    padded = PhysicalModel(mu=EARTH.mu, R=EARTH.R, zonal=j23.zonal + (0.0, 0.0))
    times = np.linspace(0.0, 2.0 * kepler_period(el0.a, EARTH), 41)
    a, b = (propagate_oracle(kep_to_cartesian(el0, m), times, m) for m in (j23, padded))
    assert np.array_equal(a.cart, b.cart)
    energies = [specific_energy(eph.cart[:, :3], eph.cart[:, 3:], m) for eph, m in ((a, j23), (b, padded))]
    assert np.array_equal(*energies)


def test_oracle_evaluates_no_potential(monkeypatch):
    # The oracle returns its sample rows only: energy and h_z are its
    # readers' to compute, so one run evaluates the potential nowhere.
    calls = []
    potential = hamiltonian.zonal_potential
    monkeypatch.setattr(hamiltonian, "zonal_potential", lambda *a: calls.append(1) or potential(*a))
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    propagate_oracle(kep_to_cartesian(el0, EARTH), np.linspace(0.0, 5000.0, 11), EARTH)
    assert calls == []


def test_oracle_array_post_processing_matches_scalar_conversions(monkeypatch):
    # The oracle converts its samples as (N, 6) arrays; each row must match
    # the one-state conversions applied to the same integrator output.
    solutions = []
    integrate = propagator.solve_ivp

    def recording_solve_ivp(acc, y0, t_eval):
        solutions.append(integrate(acc, y0, t_eval))
        return solutions[-1]

    monkeypatch.setattr(propagator, "solve_ivp", recording_solve_ivp)
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    times = np.linspace(0.0, 3.0 * kepler_period(el0.a, EARTH), 121)
    eph = propagate_oracle(kep_to_cartesian(el0, EARTH), times, EARTH)
    (sol,) = solutions
    assert np.array_equal(eph.cart, sol.rows)
    for k, y in enumerate(sol.rows):
        cs = CartesianState(y[:3], y[3:])
        el = cartesian_to_kep(cs, EARTH)
        st = kep_to_delaunay(el, EARTH)
        for got, want in ((eph.kep[k], (el.a, el.e, el.i, el.raan, el.argp, el.mean_anom)),
                          (eph.delaunay[k], (st.L, st.G, st.H, st.l, st.g, st.h))):
            assert_allclose(got[:3], want[:3], rtol=1e-12, atol=0)
            assert np.abs(wrap(got[3:] - np.array(want[3:]))).max() <= 1e-12


def test_mean_history_is_flatter_than_osculating():
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    cs0 = kep_to_cartesian(el0, EARTH)
    T = kepler_period(el0.a, EARTH)
    eph = propagate_oracle(cs0, np.linspace(0.0, 2.0 * T, 81), EARTH)
    osc_ptp = np.ptp(eph.momenta(), axis=0)
    mean_ptp = np.ptp(mean_history(eph, EARTH), axis=0)
    # oscillations removed to truncation order: at least 10x flatter
    assert np.all(mean_ptp[:2] < 0.1 * osc_ptp[:2])
    # H is exactly conserved by the field, both histories sit at round-off
    assert osc_ptp[2] < 1e-9 * eph.momenta()[0, 2]


@pytest.mark.parametrize("order", (1, 2))
def test_batched_map_matches_per_sample_calls(order):
    # propagate_analytic and mean_history solve every sample in one batched
    # Newton run; each column must match a lone CanonicalMap call and take
    # its iteration count, which shows converged columns are frozen.
    for a, e, inc in ((7000.0, 0.01, 0.5), (8300.0, 0.3, 2.0)):
        el0 = KeplerianElements(a=a, e=e, i=inc, raan=0.3, argp=1.1, mean_anom=0.2)
        times = np.linspace(0.0, 3.0 * kepler_period(a, EARTH), 49)
        cm = CanonicalMap(EARTH, order=order)
        mean0 = cm.osculating_to_mean(kep_to_delaunay(el0, EARTH))
        rates = mean_rates(mean0.momenta, EARTH, order)
        means = [DelaunayState(*mean0.momenta, *(mean0.angles + rates * t)) for t in times]

        eph = propagate_analytic(el0, times, EARTH, order)
        lone = [cm.mean_to_osculating(m, return_info=True) for m in means]
        for row, (want, _) in zip(eph.delaunay, lone):
            got = DelaunayState(*row)
            assert_allclose(got.momenta, want.momenta, rtol=1e-12, atol=0)
            assert np.abs(wrap(got.angles - want.angles)).max() <= 1e-12
        p, q, its = cm.mean_to_osculating_batch(mean0.momenta, np.array([m.angles for m in means]).T)
        assert its.tolist() == [info["iterations"] for _, info in lone]
        # the Delaunay rows are the forward batch's own output, bit for bit
        assert np.array_equal(eph.delaunay, np.vstack((p, normalize_angle(q))).T)

        hist = mean_history(eph, EARTH, order)
        lone = [cm.osculating_to_mean(DelaunayState(*row), return_info=True) for row in eph.delaunay]
        assert_allclose(hist, [m.momenta for m, _ in lone], rtol=1e-12, atol=0)
        osc = eph.delaunay.T
        P, Q, its = cm.osculating_to_mean_batch(osc[:3], osc[3:])
        assert np.abs(wrap(Q.T - [m.angles for m, _ in lone])).max() <= 1e-12
        assert its.tolist() == [info["iterations"] for _, info in lone]

        # the recovered means have distinct momenta: mapped forward as one
        # batch, one momentum column each, every column matches a lone call
        means = [DelaunayState(*P[:, k], *Q[:, k]) for k in range(P.shape[1])]
        rows = np.array([(*m.momenta, *m.angles) for m in means]).T
        p, q, its = cm.mean_to_osculating_batch(rows[:3], rows[3:])
        lone = [cm.mean_to_osculating(m, return_info=True) for m in means]
        assert_allclose(p.T, [o.momenta for o, _ in lone], rtol=1e-12, atol=0)
        assert np.abs(wrap(q.T - [o.angles for o, _ in lone])).max() <= 1e-12
        assert its.tolist() == [info["iterations"] for _, info in lone]


def test_compare_identical_and_swapped():
    el0 = KeplerianElements(a=7000.0, e=0.02, i=0.7, raan=0.2, argp=0.9, mean_anom=0.4)
    times = np.linspace(0.0, 4000.0, 9)
    a = propagate_analytic(el0, times, EARTH)
    rep = compare(a, a)
    assert rep.max_pos_err == 0.0

    b = propagate_analytic(el0, times, EARTH, order=1)
    ab, ba = compare(a, b), compare(b, a)
    assert ab.max_pos_err == ba.max_pos_err


def test_compare_rejects_grid_mismatch():
    el0 = KeplerianElements(a=7000.0, e=0.02, i=0.7, raan=0.2, argp=0.9, mean_anom=0.4)
    a = propagate_analytic(el0, np.linspace(0.0, 100.0, 5), EARTH)
    b = propagate_analytic(el0, np.linspace(0.0, 110.0, 5), EARTH)
    with pytest.raises(UsageError):
        compare(a, b)


def test_one_sample_grid_is_the_initial_state_in_both_routes():
    el0 = KeplerianElements(a=7000.0, e=0.02, i=0.7, raan=0.2, argp=0.9, mean_anom=0.4)
    cs0 = kep_to_cartesian(el0, EARTH)
    times = np.array([250.0])
    oracle = propagate_oracle(cs0, times, EARTH)
    analytic = propagate_analytic(el0, times, EARTH)
    for eph in (oracle, analytic):
        assert len(eph) == 1 and eph.t.tolist() == [250.0]
        eph.validate(EARTH)
    assert oracle.positions()[0].tolist() == cs0.r.tolist()
    assert oracle.cart[0, 3:].tolist() == cs0.v.tolist()
    # the analytic sample is the map's round trip of the initial state
    assert compare(analytic, oracle).max_pos_err < 1e-6


@pytest.mark.parametrize(
    "times",
    [np.array([]), np.zeros((2, 2)), np.array([0.0, 10.0, 10.0]), np.array([0.0, 10.0, 5.0])],
    ids=["empty", "2-d", "repeated", "decreasing"],
)
def test_both_routes_refuse_a_bad_grid_at_entry(times):
    el0 = KeplerianElements(a=7000.0, e=0.02, i=0.7, raan=0.2, argp=0.9, mean_anom=0.4)
    cs0 = kep_to_cartesian(el0, EARTH)
    with pytest.raises(DomainError, match="time grid"):
        propagate_analytic(el0, times, EARTH)
    with pytest.raises(DomainError, match="time grid"):
        propagate_oracle(cs0, times, EARTH)


def test_ephemeris_grid_validation():
    el = KeplerianElements(a=7000.0, e=0.02, i=0.7, raan=0.2, argp=0.9, mean_anom=0.4)
    kep = np.tile(as_row(el), (3, 1))
    cart = np.tile(as_row(kep_to_cartesian(el, EARTH)), (3, 1))
    dl = np.tile(as_row(kep_to_delaunay(el, EARTH)), (3, 1))
    with pytest.raises(DomainError):
        Ephemeris(np.array([0.0, 1.0, 1.0]), kep, cart, dl)
    with pytest.raises(DomainError):
        Ephemeris(np.array([0.0, 1.0]), kep[:1], cart[:1], dl[:1])
    with pytest.raises(DomainError):
        Ephemeris(np.zeros((2, 2)), kep[:2], cart[:2], dl[:2])
    t = np.array([0.0, 1.0, 2.0])
    assert Ephemeris(t, kep, cart, dl).kep.shape == (3, 6)
    nan, inf = cart.copy(), dl.copy()
    nan[1] = np.nan
    inf[2, 3] = np.inf
    for kwargs, name in (
        (dict(kep=kep[:, :5]), "kep"),  # rows of width 5
        (dict(cart=cart[:2]), "cart"),  # a row count unlike the grid's
        (dict(cart=nan), "cart"),  # a NaN row
        (dict(delaunay=inf), "delaunay"),  # an infinite value
    ):
        fields = dict(kep=kep, cart=cart, delaunay=dl) | kwargs
        with pytest.raises(DomainError, match=f"^{name} rows "):
            Ephemeris(t, **fields)
