import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings
from numpy.testing import assert_allclose

from zeipel import _secondorder
from zeipel import vonzeipel as vz
from zeipel.checks import richardson
from zeipel.elements import EARTH, PhysicalModel, a_over_r, delaunay_momenta, true_from_mean
from zeipel.errors import DegenerateFrequencyError, DomainError
from zeipel.hamiltonian import (
    dh0_dL,
    eccentricity_from_momenta,
    h1_periodic_true,
    h1_true,
)
from zeipel.propagator import mean_rates
from zeipel.vonzeipel import (
    ClosedFormGenerator,
    MonomialTable,
    SecondOrderTables,
    dk1,
    dk2,
    ds1_dP,
    ds1_dg,
    ds1_dl,
    ds2_dl,
    ds2_dl_solution,
    hbar,
    hbar_true,
    k1,
    k2,
    k2_quadrature,
    long_period_coefficient,
    s1,
    s2,
    second_order_tables,
    solve_homological,
    torus_average_weighted,
)

UNIT = PhysicalModel(mu=1.0, R=1.0, zonal=(1.0e-3,))
TWO_PI = 2.0 * np.pi


def mean_anomaly_average(f_of_nu, e, nodes=256):
    """Average over the mean anomaly computed on a true-anomaly grid, with
    dl = (1/eta) * (r/a)^2 dnu: exact for trigonometric integrands."""
    nu = TWO_PI * np.arange(nodes) / nodes
    return float(np.mean(f_of_nu(nu) / a_over_r(nu, e) ** 2)) / np.sqrt(1.0 - e * e)


def ds2_dg(L, G, H, l, g, model):
    return ClosedFormGenerator(L, G, H, model, (0.0, 1.0)).derivatives(l, g)[1][4]


def random_momenta(rng, e_lo=0.05, e_hi=0.4):
    L = rng.uniform(0.8, 1.5)
    e = rng.uniform(e_lo, e_hi)
    G = L * np.sqrt(1.0 - e * e)
    H = G * rng.uniform(-0.95, 0.95)
    return L, G, H


# -- torus averages -----------------------------------------------------------

trig_terms = st.lists(
    st.tuples(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=6.2),
    ),
    min_size=1,
    max_size=4,
)


@given(trig_terms, st.floats(min_value=-3.0, max_value=3.0))
def test_operator_algebra(terms, c0):
    # at e = 0 the weighted average is the plain average over the torus
    def secular(f):
        return torus_average_weighted(f, 0.0, 64, 64)

    def f(x, y):
        out = c0 * np.ones_like(np.asarray(x, dtype=float) + y)
        for ka, kb, amp, ph in terms:
            out = out + amp * np.cos(ka * x + kb * y + ph)
        return out

    expected_mean = c0 + sum(amp * np.cos(ph) for ka, kb, amp, ph in terms if ka == kb == 0)
    sec = secular(f)
    assert sec == pytest.approx(expected_mean, abs=1e-12)

    # the average annihilates the periodic part, so taking it is idempotent
    def per_f(x, y):
        return f(x, y) - sec

    q = (0.7, 2.2)
    assert abs(secular(per_f)) < 1e-12
    assert per_f(*q) - secular(per_f) == pytest.approx(per_f(*q), abs=1e-12)
    # the average of a constant is itself
    assert secular(lambda x, y: np.full_like(x, sec)) == pytest.approx(sec, abs=1e-13)


def test_mean_anomaly_average_known_integrals():
    e = 0.3
    assert mean_anomaly_average(lambda nu: np.ones_like(nu), e) == pytest.approx(1.0, abs=1e-13)
    # <cos nu>_l = -e, <a/r>_l = 1
    assert mean_anomaly_average(np.cos, e) == pytest.approx(-e, abs=1e-12)
    assert mean_anomaly_average(lambda nu: a_over_r(nu, e), e) == pytest.approx(1.0, abs=1e-12)


def test_weighted_average_matches_mean_anomaly_grid():
    e = 0.2

    def f(nu):
        return np.cos(2 * nu) + 0.3 * np.sin(3 * nu) + 0.7

    via_weights = mean_anomaly_average(f, e)
    l = TWO_PI * np.arange(4096) / 4096
    direct = np.mean(f(true_from_mean(l, e)))
    assert via_weights == pytest.approx(direct, abs=1e-10)


def test_torus_average_collapses_odd_g_harmonics():
    e = 0.15
    val = torus_average_weighted(lambda NU, GG: np.cos(2 * GG + NU), e)
    assert abs(val) < 1e-13


# -- first order --------------------------------------------------------------


def test_k1_unit_point():
    assert k1(1.0, 1.0, 1.0, UNIT) == pytest.approx(0.5, abs=1e-15)
    assert k1(1.2, 1.0, 1.0 / np.sqrt(3.0), UNIT) == pytest.approx(0.0, abs=1e-16)


def test_k1_matches_weighted_torus_average(rng):
    for _ in range(10):
        L, G, H = random_momenta(rng)
        e = eccentricity_from_momenta(L, G)
        quad = torus_average_weighted(lambda NU, GG: h1_true(L, G, H, NU, GG, UNIT), float(e))
        assert quad == pytest.approx(k1(L, G, H, UNIT), rel=1e-10)


def test_dk1_against_finite_difference(rng):
    L, G, H = 1.3, 1.1, 0.6
    grad = dk1(L, G, H, UNIT)
    fd = np.array(
        [
            richardson(lambda x: k1(x, G, H, UNIT), L, 1e-4),
            richardson(lambda x: k1(L, x, H, UNIT), G, 1e-4),
            richardson(lambda x: k1(L, G, x, UNIT), H, 1e-4),
        ]
    )
    assert_allclose(grad, fd, rtol=1e-9)


def test_s1_vanishes_at_origin_of_angles():
    assert s1(1.0, 0.9, 0.4, 0.0, 0.0, UNIT) == 0.0


def test_s1_l_periodicity():
    L, G, H, g = 1.0, 0.92, 0.5, 1.3
    for l in (0.4, 2.9, 5.5):
        assert s1(L, G, H, l + TWO_PI, g, UNIT) == pytest.approx(
            s1(L, G, H, l, g, UNIT), rel=1e-12, abs=1e-15
        )


def test_s1_near_circular_structure():
    # as e -> 0 only the 2g+2nu harmonic survives, weighted by G^2 - H^2
    e = 1e-6
    L = 1.0
    G = L * np.sqrt(1.0 - e * e)
    H = 0.4
    f = UNIT.mu**2 * UNIT.R**2 / (4.0 * G**5)
    for l, g in ((0.3, 1.1), (2.0, 4.4), (5.1, 0.2)):
        nu = true_from_mean(l, e)
        approx = f * (G * G - H * H) * 1.5 * np.sin(2 * g + 2 * nu)
        assert s1(L, G, H, l, g, UNIT) == pytest.approx(approx, abs=5e-6 * f)


def test_s1_pde_residual(rng):
    # w1 * dS1/dl + periodic part of h1 = 0 on the torus
    grid = TWO_PI * np.arange(16) / 16
    LG, GG = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(5):
        L, G, H = random_momenta(rng)
        e = eccentricity_from_momenta(L, G)
        nu = true_from_mean(LG, float(e))
        w1 = dh0_dL(L, UNIT)
        res = w1 * ds1_dl(L, G, H, LG, GG, UNIT) + h1_periodic_true(L, G, H, nu, GG, UNIT)
        scale = np.abs(h1_periodic_true(L, G, H, nu, GG, UNIT)).max()
        assert np.abs(res).max() < 1e-12 * scale


def test_ds1_dl_matches_finite_difference():
    L, G, H = 1.2, 1.05, -0.5
    for l, g in ((0.7, 0.3), (3.3, 2.0), (5.9, 4.8)):
        fd = richardson(lambda x: s1(L, G, H, x, g, UNIT), l, 1e-4)
        assert ds1_dl(L, G, H, l, g, UNIT) == pytest.approx(fd, rel=1e-8)


def test_ds1_dg_matches_finite_difference():
    L, G, H = 1.2, 1.05, -0.5
    for l, g in ((0.7, 0.3), (3.3, 2.0)):
        fd = richardson(lambda x: s1(L, G, H, l, x, UNIT), g, 1e-4)
        assert ds1_dg(L, G, H, l, g, UNIT) == pytest.approx(fd, rel=1e-8)


def test_ds1_dP_matches_finite_difference():
    L = 1.3
    e = 0.1
    G = L * np.sqrt(1.0 - e * e)
    H = 0.55 * G
    l, g = 1.1, 2.6
    grad = ds1_dP(L, G, H, l, g, UNIT)
    fd = np.array(
        [
            richardson(lambda x: s1(x, G, H, l, g, UNIT), L, 1e-6),
            richardson(lambda x: s1(L, x, H, l, g, UNIT), G, 1e-6),
            richardson(lambda x: s1(L, G, x, l, g, UNIT), H, 1e-6),
        ]
    )
    assert_allclose(grad, fd, rtol=1e-7, atol=1e-7 * np.abs(grad).max())


def test_ds1_dP_rejects_circular():
    with pytest.raises(DomainError, match=r"e = 0\.000e\+00 below the chain-rule floor 1e-10$"):
        ds1_dP(1.0, 1.0, 0.3, 0.5, 0.5, UNIT)


# -- generic homological solver ----------------------------------------------


def test_homological_zero_source_gives_zero():
    out = solve_homological(np.array([1.0, 0.3]), lambda pts: np.zeros(pts.shape[1]), np.array([0.4, 1.9]))
    assert out == 0.0


def test_homological_single_angle_analytic():
    for c in (2.0, -0.7):
        for q in (0.9, 2.5, -1.2):
            val = solve_homological(np.array([c]), lambda pts: np.cos(pts[0]), np.array([q]))
            assert val == pytest.approx(-np.sin(q) / c, abs=1e-12)


def test_homological_degenerate_frequency():
    with pytest.raises(DegenerateFrequencyError):
        solve_homological(np.zeros(3), lambda pts: np.zeros(pts.shape[1]), np.array([1.0, 2.0, 3.0]))


def test_homological_reproduces_satellite_generator(rng):
    # same d/dl as the closed-form generator (they differ by a g-function)
    for _ in range(5):
        L, G, H = random_momenta(rng, e_lo=0.1, e_hi=0.3)
        e = eccentricity_from_momenta(L, G)
        w = np.array([dh0_dL(L, UNIT), 0.0, 0.0])

        def f_per(pts):
            nu = true_from_mean(pts[0], float(e))
            return h1_periodic_true(L, G, H, nu, pts[1], UNIT)

        l0, g0, h0a = rng.uniform(0.3, TWO_PI - 0.3, size=3)
        step = 1e-3
        sig = lambda x: solve_homological(w, f_per, np.array([x, g0, h0a]))
        fd = richardson(sig, l0, step)
        ref = float(ds1_dl(L, G, H, l0, g0, UNIT))
        assert fd == pytest.approx(ref, rel=1e-8, abs=1e-8 * abs(ref))


# -- second order -------------------------------------------------------------


def test_k2_unit_point():
    # symbolic average of the cross term at L = G = 1, H = 0 (quadrature
    # confirms the same value at nearby admissible points)
    assert k2(1.0, 1.0, 0.0, UNIT) == pytest.approx(3.0 / 32.0, abs=1e-15)


def test_k2_homogeneity():
    L, G, H = 1.2, 1.0, 0.4
    lam = 1.7
    scaled = k2(lam * L, lam * G, lam * H, UNIT)
    assert scaled == pytest.approx(lam**-10 * k2(L, G, H, UNIT), rel=1e-12)


def test_k2_matches_quadrature(rng):
    for _ in range(6):
        L, G, H = random_momenta(rng, e_lo=0.05, e_hi=0.35)
        quad = k2_quadrature(L, G, H, UNIT)
        assert quad == pytest.approx(k2(L, G, H, UNIT), rel=1e-8)


def test_dk2_against_finite_difference():
    L, G, H = 1.3, 1.1, 0.5
    grad = dk2(L, G, H, UNIT)
    fd = np.array(
        [
            richardson(lambda x: k2(x, G, H, UNIT), L, 1e-4),
            richardson(lambda x: k2(L, x, H, UNIT), G, 1e-4),
            richardson(lambda x: k2(L, G, x, UNIT), H, 1e-4),
        ]
    )
    assert_allclose(grad, fd, rtol=1e-9)


def test_dk2_safe_on_equatorial_axis():
    # H = 0 must not produce 0**-1 terms
    grad = dk2(1.2, 1.0, 0.0, UNIT)
    assert np.all(np.isfinite(grad))
    fd = richardson(lambda x: k2(1.2, 1.0, x, UNIT), 0.0, 1e-5)
    assert grad[2] == pytest.approx(fd, abs=1e-9 * max(1.0, abs(fd)))


def test_long_period_coefficient_closed_form(rng):
    for _ in range(8):
        L, G, H = random_momenta(rng)
        ref = (
            3.0
            * (L * L - G * G)
            * (G * G - H * H)
            * (G * G - 15.0 * H * H)
            / (64.0 * G**11 * L**5)
        )
        assert long_period_coefficient(L, G, H, UNIT) == pytest.approx(ref, rel=1e-12)


def test_long_period_coefficient_zeros():
    G = 1.0
    scale = abs(long_period_coefficient(1.2, G, 0.0, UNIT))
    assert abs(long_period_coefficient(1.2, G, G / np.sqrt(15.0), UNIT)) < 1e-14 * scale
    assert abs(long_period_coefficient(G, G, 0.3, UNIT)) < 1e-14 * scale


def test_second_order_tables_basic_properties():
    L, G, H = 1.2, 1.1, 0.5
    tab = second_order_tables(L, G, H, UNIT)
    l = TWO_PI * np.arange(128) / 128
    for g in (0.0, 1.3, 4.0):
        vals = tab.value(l, g)
        scale = np.abs(vals).max()
        assert abs(vals.mean()) < 1e-12 * scale

    # ramp(g) is the closed-form long-period coefficient times cos(2g)
    g = np.linspace(0.0, TWO_PI, 9)
    c2 = long_period_coefficient(L, G, H, UNIT)
    assert_allclose(tab.ramp(g), c2 * np.cos(2.0 * g), rtol=1e-10, atol=1e-10 * abs(c2))


def test_second_order_pde_residual(rng):
    for _ in range(3):
        L, G, H = random_momenta(rng, e_lo=0.05, e_hi=0.3)
        tab = second_order_tables(L, G, H, UNIT)
        e = eccentricity_from_momenta(L, G)
        pts_l = rng.uniform(0.0, TWO_PI, size=40)
        pts_g = rng.uniform(0.0, TWO_PI, size=40)
        nu = true_from_mean(pts_l, float(e))
        per = hbar_true(L, G, H, nu, pts_g, UNIT) - tab.mean
        res = tab.w1 * tab.pde_dl(pts_l, pts_g) + per
        assert np.abs(res).max() < 1e-7 * np.abs(per).max()


def test_second_order_table_mean_matches_k2(rng):
    L, G, H = random_momenta(rng, e_lo=0.1, e_hi=0.3)
    tab = second_order_tables(L, G, H, UNIT)
    assert tab.mean == pytest.approx(k2(L, G, H, UNIT), rel=1e-8)


def test_s2_zero_mean_and_derivatives():
    L, G, H = 1.15, 1.0, -0.45
    l = TWO_PI * np.arange(256) / 256
    vals = s2(L, G, H, l, 0.8, UNIT)
    assert abs(np.mean(vals)) < 1e-10 * np.abs(vals).max()

    for l0, g0 in ((0.9, 0.8), (4.2, 2.7)):
        fd_l = richardson(lambda x: float(s2(L, G, H, x, g0, UNIT)), l0, 1e-3)
        fd_g = richardson(lambda x: float(s2(L, G, H, l0, x, UNIT)), g0, 1e-3)
        assert float(ds2_dl(L, G, H, l0, g0, UNIT)) == pytest.approx(fd_l, rel=1e-7)
        assert float(ds2_dg(L, G, H, l0, g0, UNIT)) == pytest.approx(fd_g, rel=1e-7)
    # the ramped solution differs from the periodic derivative by ramp/w1
    tab = second_order_tables(L, G, H, UNIT)
    diff = float(ds2_dl_solution(L, G, H, 0.9, 0.8, UNIT)) - float(ds2_dl(L, G, H, 0.9, 0.8, UNIT))
    assert diff == pytest.approx(-tab.ramp(0.8) / tab.w1, rel=1e-12)


def test_tables_constant_field_gives_zero_generator():
    tab = SecondOrderTables(lambda LL, GG: np.full_like(LL, 2.5), w1=-1.0, nl=32, ng=8)
    assert tab.mean == pytest.approx(2.5, abs=1e-14)
    l = np.linspace(0.0, TWO_PI, 11)
    assert np.abs(tab.value(l, 0.3)).max() < 1e-14


def test_tables_reject_degenerate_frequency():
    with pytest.raises(DegenerateFrequencyError):
        SecondOrderTables(lambda LL, GG: LL * 0.0, w1=0.0)


def test_mean_hamiltonian_orders():
    # K = h0 + J2 k1 (+ J2^2 k2): order 3 is refused, and order 2 adds
    # -J2^2 dk2 to the rates -dK/dP, up to the rounding of the rates
    L, G, H, j2 = 1.2, 1.0, 0.4, UNIT.j2
    with pytest.raises(DomainError):
        mean_rates((L, G, H), UNIT, order=3)
    r1, r2 = (mean_rates((L, G, H), UNIT, order=n) for n in (1, 2))
    assert_allclose(r2 - r1, -j2 * j2 * dk2(L, G, H, UNIT), rtol=0, atol=np.finfo(float).eps * np.abs(r2).max())


# -- closed-form generator ------------------------------------------------------


def test_closed_form_s2_matches_spectral_tables():
    # The spectral tables are the independent oracle; their own l-truncation
    # error stays below 1e-10 up to e = 0.4.
    rng = np.random.default_rng(5)
    l = rng.uniform(0.0, TWO_PI, size=16)
    g = rng.uniform(0.0, TWO_PI, size=16)
    for e in (0.001, 0.01, 0.1, 0.2, 0.3, 0.4):
        for inc in np.linspace(0.1, np.pi - 0.1, 5):
            L, G, H = delaunay_momenta(7000.0, e, inc, EARTH)
            tab = second_order_tables(L, G, H, EARTH)
            for closed, spectral in (
                (s2(L, G, H, l, g, EARTH), tab.value(l, g)),
                (ds2_dl(L, G, H, l, g, EARTH), tab.dl(l, g)),
                (ds2_dg(L, G, H, l, g, EARTH), tab.dg(l, g)),
            ):
                assert np.abs(closed - spectral).max() <= 1e-10 * np.abs(spectral).max()


@pytest.mark.parametrize(
    "e, polar",
    [pytest.param(e, polar, id=f"{e}-H=0" if polar else f"{e}") for polar in (False, True) for e in (0.01, 0.05, 0.2, 0.5, 0.7)],
)
def test_closed_form_partials_match_richardson(rng, e, polar):
    # S2's momentum partials against differences of its value, and the whole
    # Hessian of J2 S1 + J2^2 S2 in (L, G, H, l, g) against differences of
    # its gradient; also on an exactly polar orbit, H = 0.
    L = rng.uniform(0.8, 1.5)
    G = L * np.sqrt(1.0 - e * e)
    H = G * np.cos(rng.uniform(0.1, np.pi - 0.1))
    if polar:
        H = 0.0
    l, g = rng.uniform(0.0, TWO_PI, size=2)
    x0 = np.array([L, G, H, l, g])
    steps = np.array([1e-3 * (L - G), 1e-3 * (L - G), 1e-4 * G, 1e-4, 1e-4])

    def at(x, weights):
        return ClosedFormGenerator(x[0], x[1], x[2], UNIT, weights).derivatives(x[3], x[4])

    def column(k, weights, part):
        def f(t):
            x = x0.copy()
            x[k] = t
            return at(x, weights)[part]

        return richardson(f, x0[k], steps[k])

    _, grad2, _ = at(x0, (0.0, 1.0))
    fd = np.array([column(k, (0.0, 1.0), 0) for k in range(3)])
    assert np.abs(grad2[:3] - fd).max() <= 1e-8 * np.abs(grad2[:3]).max()

    weights = (1e-3, 1e-6)
    _, _, hess = at(x0, weights)
    fd = np.column_stack([column(k, weights, 1) for k in range(5)])
    assert np.abs(hess - fd).max() <= 1e-8 * np.abs(hess).max()
    assert np.abs(hess - hess.T).max() <= 1e-14 * np.abs(hess).max()


@pytest.mark.parametrize("e", [0.05, 0.3, 0.5, 0.7])
def test_closed_form_s2_generator_equation(rng, e):
    # w1 dS2/dl + cross term - k2 - c2 cos 2g = 0, also beyond the e <= 0.4
    # range the spectral tables resolve.
    L = rng.uniform(0.8, 1.5)
    G = L * np.sqrt(1.0 - e * e)
    H = G * np.cos(rng.uniform(0.1, np.pi - 0.1))
    l = rng.uniform(0.0, TWO_PI, size=40)
    g = rng.uniform(0.0, TWO_PI, size=40)
    per = hbar_true(L, G, H, true_from_mean(l, e), g, UNIT) - k2(L, G, H, UNIT)
    per -= long_period_coefficient(L, G, H, UNIT) * np.cos(2.0 * g)
    res = dh0_dL(L, UNIT) * ds2_dl(L, G, H, l, g, UNIT) + per
    assert np.abs(res).max() <= 1e-7 * np.abs(per).max()


def test_closed_form_s1_matches_hand_written():
    L, G, H = 1.2, 1.05, -0.5
    l = np.linspace(0.0, TWO_PI, 13)
    value = ClosedFormGenerator(L, G, H, UNIT, (1.0,)).derivatives(l, 0.7)[0]
    ref = s1(L, G, H, l, 0.7, UNIT)
    assert np.abs(value - ref).max() <= 1e-14 * np.abs(ref).max()


def test_one_table_call_per_evaluation(monkeypatch):
    # A generator build of either order, and each mean-term evaluation, is
    # one call of one monomial table.
    calls = []
    call = MonomialTable.__call__
    monkeypatch.setattr(MonomialTable, "__call__", lambda self, *args: calls.append(self) or call(self, *args))
    P = delaunay_momenta(7200.0, 0.1, 1.0, EARTH)
    columns = np.column_stack([P, delaunay_momenta(9000.0, 0.3, 2.0, EARTH)])
    counts = {}
    for name, run in (
        ("order 1", lambda: ClosedFormGenerator(*P, EARTH, (1.0,))),
        ("order 2", lambda: ClosedFormGenerator(*P, EARTH, (1e-3, 1e-6))),
        ("order 2, columns", lambda: ClosedFormGenerator(*columns, EARTH, (1e-3, 1e-6))),
        ("k2", lambda: k2(*P, EARTH)),
        ("dk2", lambda: dk2(*P, EARTH)),
        ("c2", lambda: long_period_coefficient(*P, EARTH)),
        ("mean_rates", lambda: mean_rates(P, EARTH, order=2)),
    ):
        calls.clear()
        run()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(counts, 1)


def test_stacked_tables_match_generated_tables(rng):
    # Each theory order's table and the mean table, against the generated
    # tables taken one at a time, bit for bit: the order-2 generator is
    # w1 mu^2 R^2 S1's outputs then w2 mu^4 R^4 S2's, and the mean terms are
    # k2's outputs then c2's.  EARTH's mu and R tell the two scales apart.
    S1, S2, K2, C2 = (MonomialTable(getattr(_secondorder, f"{n}_MONOMIALS")) for n in ("S1", "S2", "K2", "C2"))
    draws = zip(rng.uniform(6800.0, 20000.0, 9), rng.uniform(0.01, 0.8, 9), rng.uniform(0.1, 3.0, 9))
    L, G, H = np.array([delaunay_momenta(*x, EARTH) for x in draws]).T
    e = eccentricity_from_momenta(L, G)
    w1, w2 = 1.1e-3, 3.7e-6
    s1_scale, s2_scale = w1 * EARTH.mu**2 * EARTH.R**2, w2 * EARTH.mu**4 * EARTH.R**4
    order1, order2 = (ClosedFormGenerator(L, G, H, EARTH, w) for w in ((w1,), (w1, w2)))
    for x1, x2, t1, t2 in zip((order1.c, order1.dc, order1.d2c), (order2.c, order2.dc, order2.d2c), S1(L, G, H, e), S2(L, G, H, e)):
        assert np.array_equal(x1, s1_scale * t1)
        assert np.array_equal(x2, np.concatenate([s1_scale * t1, s2_scale * t2]))
    for mean, tk, tc in zip(vz._MEAN(L, G, H, e), K2(L, G, H, e), C2(L, G, H, e)):
        assert np.array_equal(mean, np.concatenate([tk, tc]))
    scale = EARTH.mu**6 * EARTH.R**4
    assert np.array_equal(k2(L, G, H, EARTH), scale * K2(L, G, H, e)[0][0])
    assert np.array_equal(dk2(L, G, H, EARTH), scale * K2(L, G, H, e)[1][0])
    assert np.array_equal(long_period_coefficient(L, G, H, EARTH), scale * C2(L, G, H, e)[0][0])


def python_sums(names, L, G, H, magnitude=False):
    """Each term of the named generated tables, its rows summed one at a time
    in Python floats: c e^a L^b G^c H^d u^f, u = 1/(L + G); or, with
    `magnitude`, the sum of the rows' magnitudes."""
    e, u = math.sqrt((L - G) * (L + G)) / L, 1.0 / (L + G)
    out = []
    for name in names:
        rows = getattr(_secondorder, f"{name}_MONOMIALS")
        sums = [0.0] * (rows[-1][0] + 1)
        for j, c, a, b, p, d, f in rows:
            term = c * e**a * L**b * G**p * H**d * u**f
            sums[j] += abs(term) if magnitude else term
        out += sums
    return np.array(out)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=20.0),
    st.floats(min_value=1e-3, max_value=0.95),
    st.floats(min_value=1e-3, max_value=np.pi - 1e-3),
)
def test_tables_match_rows_summed_one_at_a_time(a, e, inc):
    # The production tables against their generated rows summed in Python
    # floats, and against Richardson differences of those sums.  Each
    # derivative is scaled by s = (min(L - G, G), min(L - G, G), G) per
    # variable, the lengths over which the rows vary, and each error by the
    # term's sum of row magnitudes.  Steps are powers of two near 1e-3 s, so
    # that x +- h is exact.  Measured over 240 draws: values 1.1e-15,
    # gradients 1.9e-9, Hessians 6.1e-8.
    P = delaunay_momenta(a, e, inc, UNIT)
    L, G, H = P
    scale = np.array([min(L - G, G), min(L - G, G), G])
    step = 2.0 ** np.round(np.log2(1e-3 * scale))

    def partial(fun, k):
        """d fun / dP[k], by Richardson differences, as a function of P."""
        return lambda *Q: richardson(lambda x: fun(*(x if j == k else Q[j] for j in range(3))), Q[k], step[k])

    for table, names in ((vz._GENERATORS[1][0], ("S1", "S2")), (vz._MEAN, ("K2", "C2"))):
        value, grad, hess = table(L, G, H, eccentricity_from_momenta(L, G))
        assert np.array_equal(hess, hess.swapaxes(1, 2))
        magnitude = python_sums(names, L, G, H, magnitude=True)
        sums = functools.partial(python_sums, names)
        assert np.all(np.abs(value - sums(L, G, H)) <= 1e-14 * magnitude)
        for k in range(3):
            fd = partial(sums, k)(L, G, H)
            assert np.all(scale[k] * np.abs(grad[:, k] - fd) <= 1e-8 * magnitude)
            for m in range(k, 3):
                fd = partial(partial(sums, m), k)(L, G, H)
                assert np.all(scale[k] * scale[m] * np.abs(hess[:, k, m] - fd) <= 5e-7 * magnitude)


def test_products_refuse_exponents_outside_their_keys():
    # Exponents are keyed as base-128 digits; one outside [-64, 64) would
    # alias another row's key, so it is refused.
    assert len(vz._products(np.array([[-64, 63], [0, 0]]))[1]) == 2
    for bad in (64, -65):
        with pytest.raises(ValueError, match=r"outside \[-64, 64\)"):
            vz._products(np.array([[bad, 0], [0, 0]]))
    with pytest.raises(ValueError, match="outside"):
        MonomialTable(((0, 1.0, 0, 70, 0, 0, 0),))


def test_cross_term_on_arrays_matches_points(rng):
    # checks.s2_residual evaluates the hand-written cross term on arrays of
    # angles in one call.  Per point it is the loop's arithmetic, but numpy's
    # array and scalar loops may round an elementary function an ulp apart.
    L, G, H = delaunay_momenta(7500.0, 0.2, 1.0, EARTH)
    l, g = rng.uniform(0.0, TWO_PI, size=(2, 64))
    loop = np.array([hbar(L, G, H, a, b, EARTH) for a, b in zip(l, g)])
    assert np.abs(hbar(L, G, H, l, g, EARTH) - loop).max() <= 8 * np.finfo(float).eps * np.abs(loop).max()


def test_generated_module_matches_derive_script():
    # _secondorder.py records the SHA-256 of the script that generated it;
    # a changed script means the module must be regenerated.
    script = Path(__file__).resolve().parents[1] / "scripts" / "derive_second_order.py"
    assert hashlib.sha256(script.read_bytes()).hexdigest() == _secondorder.SCRIPT_SHA256, (
        "scripts/derive_second_order.py changed after src/zeipel/_secondorder.py was generated; "
        "regenerate it from the repository root with "
        "`python scripts/derive_second_order.py` (sympy, from `pip install -e .[derive]`)"
    )
