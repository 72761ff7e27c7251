import decimal
import re

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given
from numpy.testing import assert_allclose

from zeipel.domain import ANGLE_FLOOR
from zeipel.elements import (
    EARTH,
    CartesianState,
    DelaunayState,
    KeplerianElements,
    PhysicalModel,
    a_over_r,
    as_row,
    cartesian_to_kep,
    cartesian_to_kep_batch,
    delaunay_momenta,
    delaunay_to_kep,
    delaunay_to_kep_batch,
    eccentric_from_true,
    eccentricity_from_momenta,
    kep_to_cartesian,
    kep_to_cartesian_batch,
    kep_to_delaunay,
    kep_to_delaunay_batch,
    kepler_solve,
    mean_from_eccentric,
    mean_from_true,
    normalize_angle,
    true_from_eccentric,
    true_from_mean,
)
from zeipel.errors import DomainError

TWO_PI = 2.0 * np.pi

# Independently derived with the fixed-point iteration E <- M + e*sin(E)
# run to 1e-13 (mpmath, 40 digits), for M = 1.0, e = 0.1.
E_REF = 1.0885977523978936
NU_REF = 1.1794692626997687


def fixed_point_E(M, e, tol=1e-13):
    # deliberately a different algorithm from the package's Newton solver
    E = M
    for _ in range(500):
        En = M + e * np.sin(E)
        if abs(En - E) < tol:
            return En
        E = En
    raise AssertionError("fixed point stalled")


def test_kepler_circular_is_identity():
    for M in (0.0, 0.4, np.pi, 5.9):
        assert kepler_solve(M, 0.0) == pytest.approx(M, abs=1e-15)


def test_kepler_apsis_points():
    assert kepler_solve(0.0, 0.5) == 0.0
    assert kepler_solve(np.pi, 0.3) == pytest.approx(np.pi, abs=1e-14)


def test_kepler_against_fixed_point_oracle():
    E = kepler_solve(1.0, 0.1)
    assert E == pytest.approx(E_REF, abs=1e-13)
    assert E == pytest.approx(fixed_point_E(1.0, 0.1), abs=1e-13)
    assert abs(E - 0.1 * np.sin(E) - 1.0) < 1e-14


def test_kepler_vectorized_matches_scalar():
    M = np.linspace(-7.0, 7.0, 29)
    e = 0.37
    E = kepler_solve(M, e)
    for Mk, Ek in zip(M, E):
        assert Ek == pytest.approx(kepler_solve(float(Mk), e), abs=1e-14)


def test_kepler_scalar_mean_anomaly_broadcasts_over_eccentricities():
    e = np.array([0.0, 0.1, 0.2, 0.9])
    E = kepler_solve(0.5, e)
    assert E.shape == (4,)
    assert [float(x) for x in E] == [kepler_solve(0.5, float(ek)) for ek in e]
    assert kepler_solve(np.array([[0.5], [2.0]]), e).shape == (2, 4)


def test_kepler_non_finite_input_gives_nan_next_to_finite_ones():
    M = np.array([1.0, np.nan, np.inf, -np.inf, -3.0])
    E = kepler_solve(M, 0.3)
    assert np.isnan(E[1:4]).all()
    assert E[0] == kepler_solve(1.0, 0.3) and E[4] == kepler_solve(-3.0, 0.3)
    assert np.isnan(kepler_solve(np.nan, 0.3))
    assert np.isnan(kepler_solve(1.0, np.array([0.3, np.nan]))[1])


def test_kepler_finite_entries_do_not_depend_on_non_finite_ones_in_the_batch():
    # An all-finite batch skips the non-finite masking; the same entries
    # with NaN and inf mixed into M or e come out bit for bit the same.
    M, e = np.meshgrid(np.linspace(-20.0, 20.0, 201), np.linspace(0.0, 0.99, 12))
    clean = kepler_solve(M, e)
    rng = np.random.default_rng(7)
    holes = rng.random(M.shape) < 0.1
    for args in ((np.where(holes, np.nan, M), e), (np.where(holes, -np.inf, M), e), (M, np.where(holes, np.nan, e))):
        mixed = kepler_solve(*args)
        assert np.isnan(mixed[holes]).all()
        assert mixed[~holes].tobytes() == clean[~holes].tobytes()


# Keplerian draw bounds (a, e, i, raan, argp, M) of the Cartesian tests.
KEP_LO = (6800.0, 1e-3, 0.05, 0.0, 0.0, 0.0)
KEP_HI = (9000.0, 0.75, np.pi - 0.05, TWO_PI, TWO_PI, TWO_PI)

mean_anoms = st.floats(min_value=-12.0, max_value=12.0)
eccs = st.floats(min_value=0.0, max_value=0.9)


@given(mean_anoms, eccs)
def test_kepler_residual_and_branch(M, e):
    E = kepler_solve(M, e)
    assert abs(E - e * np.sin(E) - M) < 1e-13
    # stays on the branch of M: |E - M| = |e sin E| <= e
    assert abs(E - M) <= e + 1e-12


@given(mean_anoms, eccs)
def test_mean_from_eccentric_inverts_solver(M, e):
    assert mean_from_eccentric(kepler_solve(M, e), e) == pytest.approx(M, abs=1e-12)


def test_true_anomaly_reference_point():
    nu = true_from_eccentric(E_REF, 0.1)
    assert nu == pytest.approx(NU_REF, abs=1e-13)
    # geometric check r*cos(nu) = a*(cos E - e) with a = 1
    r = 1.0 - 0.1 * np.cos(E_REF)
    assert r * np.cos(nu) == pytest.approx(np.cos(E_REF) - 0.1, abs=1e-15)


def test_true_anomaly_apsis_and_roundtrip():
    assert true_from_eccentric(0.0, 0.7) == 0.0
    assert true_from_eccentric(np.pi, 0.7) == pytest.approx(np.pi, abs=1e-14)
    E = np.linspace(-9.0, 9.0, 61)
    back = eccentric_from_true(true_from_eccentric(E, 0.45), 0.45)
    assert_allclose(back, E, atol=1e-13)


def test_anomaly_chain_roundtrip():
    M = np.linspace(0.0, TWO_PI, 37, endpoint=False)
    nu = true_from_mean(M, 0.3)
    assert_allclose(mean_from_true(nu, 0.3), M, atol=1e-12)


def test_a_over_r_values():
    assert a_over_r(0.0, 0.0) == 1.0
    assert a_over_r(0.0, 0.1) == pytest.approx(1.1 / 0.99, abs=1e-15)
    assert a_over_r(np.pi, 0.1) == pytest.approx(0.9 / 0.99, abs=1e-15)


def test_a_over_r_consistent_with_eccentric_radius():
    e = 0.25
    E = np.linspace(0.0, TWO_PI, 50, endpoint=False)
    nu = true_from_eccentric(E, e)
    r_from_E = 1.0 - e * np.cos(E)
    assert_allclose(a_over_r(nu, e), 1.0 / r_from_E, rtol=1e-13)


def test_normalize_angle():
    assert normalize_angle(-0.1) == pytest.approx(TWO_PI - 0.1, abs=1e-15)
    assert normalize_angle(TWO_PI + 0.2) == pytest.approx(0.2, abs=1e-14)
    assert normalize_angle(0.0) == 0.0
    assert KeplerianElements(7000.0, 0.01, 0.5, -1e-17, 0.0, 0.0).raan == 0.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@example(-1e-17)  # rounds up to 2*pi
@example(-5e-324)  # x / 2*pi underflows to -0, so x is its own residue
def test_normalize_angle_lands_in_range(x):
    y = float(normalize_angle(x))
    assert 0.0 <= y < TWO_PI
    turns = (y - x) / TWO_PI
    assert abs(turns - round(turns)) * TWO_PI <= 1e-9 * max(1.0, abs(x))


def test_delaunay_momenta_arithmetic():
    L, G, H = delaunay_momenta(7000.0, 0.01, 0.5, EARTH)
    assert L == pytest.approx(np.sqrt(EARTH.mu * 7000.0), rel=1e-15)
    assert G == pytest.approx(L * np.sqrt(1.0 - 0.01 ** 2), rel=1e-15)
    assert H == pytest.approx(G * np.cos(0.5), rel=1e-15)


def test_delaunay_momenta_degenerate_limits():
    # circular: G = L; equatorial: H = G (no angle guards at this level)
    L, G, _ = delaunay_momenta(7000.0, 0.0, 0.5, EARTH)
    assert G == L
    _, G, H = delaunay_momenta(7000.0, 0.2, 0.0, EARTH)
    assert H == G


def test_delaunay_momenta_is_the_batch_formula(rng):
    kep = np.column_stack((rng.uniform(6800.0, 9500.0, 20), rng.uniform(0.01, 0.5, 20),
                           rng.uniform(0.1, 3.0, 20), np.zeros((20, 3))))
    batch = kep_to_delaunay_batch(kep, EARTH)[:, :3]
    assert np.array_equal(batch, [delaunay_momenta(a, e, i, EARTH) for a, e, i in kep[:, :3]])


@pytest.mark.parametrize("e", [1e-4, 1e-3, 1e-2])
def test_eccentricity_from_momenta_near_circular_precision(e):
    # against sqrt(L^2 - G^2)/L in 40-digit decimal arithmetic at the same
    # float momenta; sqrt(1 - (G/L)^2) is off by up to 6.6e-9 at e = 1e-4
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for a in np.linspace(6800.0, 9500.0, 28):
            L, G, _ = delaunay_momenta(a, e, 0.5, EARTH)
            ref = (decimal.Decimal(L) ** 2 - decimal.Decimal(G) ** 2).sqrt() / decimal.Decimal(L)
            assert abs(float(eccentricity_from_momenta(L, G)) / float(ref) - 1.0) <= 1e-15


def test_kep_delaunay_roundtrip(rng):
    lo = (6800.0, 1e-4, 0.05, 0.0, 0.0, 0.0)
    hi = (9000.0, 0.8, np.pi - 0.05, TWO_PI, TWO_PI, TWO_PI)
    kep = rng.uniform(lo, hi, size=(200, 6))
    err = np.abs(delaunay_to_kep_batch(kep_to_delaunay_batch(kep, EARTH), EARTH) - kep)
    assert np.all(err[:, :3] <= np.maximum(1e-12 * kep[:, :3], 1e-12))
    assert err[:, 3:].max() <= 1e-12


def test_cartesian_roundtrip_sample():
    el = KeplerianElements(a=7000.0, e=0.05, i=0.3, raan=1.0, argp=2.0, mean_anom=0.7)
    back = cartesian_to_kep(kep_to_cartesian(el, EARTH), EARTH)
    assert back.a == pytest.approx(el.a, rel=1e-10)
    assert back.e == pytest.approx(el.e, rel=1e-10)
    assert back.i == pytest.approx(el.i, rel=1e-10)
    for name in ("raan", "argp", "mean_anom"):
        assert getattr(back, name) == pytest.approx(getattr(el, name), abs=1e-10)


def test_cartesian_roundtrip_thousand_states(rng):
    kep = rng.uniform(KEP_LO, KEP_HI, size=(1000, 6))
    d = cartesian_to_kep_batch(kep_to_cartesian_batch(kep, EARTH), EARTH) - kep
    errs = (
        np.abs(d[:, 0]) / kep[:, 0],
        np.abs(d[:, 1]),
        np.abs(d[:, 2]),
        np.abs(normalize_angle(d[:, 3:] + np.pi) - np.pi),
    )
    assert max(x.max() for x in errs) < 1e-10


def rotation_kep_to_cartesian(el, model):
    """One-state Keplerian to Cartesian through the perifocal rotation
    matrix: the per-row reference for `kep_to_cartesian_batch`."""
    nu = float(true_from_mean(el.mean_anom, el.e))
    p = el.a * (1.0 - el.e * el.e)
    r_mag = p / (1.0 + el.e * np.cos(nu))
    r_pf = np.array([r_mag * np.cos(nu), r_mag * np.sin(nu), 0.0])
    vs = np.sqrt(model.mu / p)
    v_pf = np.array([-vs * np.sin(nu), vs * (el.e + np.cos(nu)), 0.0])
    co, so = np.cos(el.raan), np.sin(el.raan)
    ci, si = np.cos(el.i), np.sin(el.i)
    cw, sw = np.cos(el.argp), np.sin(el.argp)
    # R3(-raan) R1(-i) R3(-argp), perifocal to inertial.
    rot = np.array([
        [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
        [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
        [sw * si, cw * si, ci],
    ])
    return np.concatenate([rot @ r_pf, rot @ v_pf])


def test_kep_to_cartesian_batch_matches_rotation_matrix(rng):
    kep = rng.uniform(KEP_LO, KEP_HI, size=(200, 6))
    got = kep_to_cartesian_batch(kep, EARTH)
    want = np.array([rotation_kep_to_cartesian(KeplerianElements(*row), EARTH) for row in kep])
    for cols in (slice(0, 3), slice(3, 6)):
        err = np.linalg.norm(got[:, cols] - want[:, cols], axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want[:, cols], axis=1))


def test_vis_viva():
    el = KeplerianElements(a=7200.0, e=0.1, i=0.6, raan=0.4, argp=1.3, mean_anom=2.2)
    cs = kep_to_cartesian(el, EARTH)
    r = np.linalg.norm(cs.r)
    v2 = np.dot(cs.v, cs.v)
    assert v2 == pytest.approx(EARTH.mu * (2.0 / r - 1.0 / el.a), rel=1e-12)


def test_angular_momentum_matches_G():
    el = KeplerianElements(a=7200.0, e=0.1, i=0.6, raan=0.4, argp=1.3, mean_anom=2.2)
    cs = kep_to_cartesian(el, EARTH)
    st8 = kep_to_delaunay(el, EARTH)
    h_vec = np.cross(cs.r, cs.v)
    assert np.linalg.norm(h_vec) == pytest.approx(st8.G, rel=1e-12)
    assert h_vec[2] == pytest.approx(st8.H, rel=1e-12)


# Round trips kep -> cart -> kep and kep -> delaunay -> kep are held to
# C eps times each element's condition number in the Delaunay chart (Brouwer
# 1959; Lyddane 1963): a/(1 - e) for a, 1/e for e, argp and M (M carries one
# more 1/(1 - e)), 1/sin(i) for i and raan.  The largest normalised errors
# over 20000 rows in each of 15 bands (e from 2e-8 to 0.99, with i mid-range
# or within 1e-3 of 0 or pi) were 15.8 through Cartesian (argp, e > 0.9)
# and 1.66 through Delaunay (i), so C = 64 and 8 leave a margin of 4.
ROUND_TRIPS = {
    "cartesian": (kep_to_cartesian, cartesian_to_kep, 64.0),
    "delaunay": (kep_to_delaunay, delaunay_to_kep, 8.0),
}
GUARDS = {  # the angle guards' messages, by the chart quantity each guards
    "e": r"e = \S+ below 1e-08, pericenter angle undefined",
    "sin_i": r"sin\(i\) = \S+ below 1e-08, node undefined",
}
near_zero = st.floats(-10.0, -1.0).map(lambda x: 10.0**x)
angle = st.floats(0.0, TWO_PI, exclude_max=True)


@pytest.mark.parametrize("route", ROUND_TRIPS)
@given(
    a=st.floats(6800.0, 42164.0),
    e=st.one_of(st.floats(0.0, 0.99), near_zero),
    i=st.one_of(st.floats(0.0, np.pi), near_zero, near_zero.map(lambda s: np.pi - s)),
    angles=st.tuples(angle, angle, angle),
)
@example(a=7000.0, e=ANGLE_FLOOR, i=0.5, angles=(0.3, 1.1, 0.2))
@example(a=7000.0, e=0.0, i=0.5, angles=(0.3, 1.1, 0.2))
@example(a=7000.0, e=0.01, i=0.0, angles=(0.3, 1.1, 0.2))
@example(a=7000.0, e=0.01, i=np.pi, angles=(0.3, 1.1, 0.2))
@example(a=42164.0, e=0.99, i=1e-8, angles=(0.3, 1.1, np.pi))
def test_round_trip_within_the_charts_conditioning_or_a_named_guard(route, a, e, i, angles):
    forward, back, C = ROUND_TRIPS[route]
    el = KeplerianElements(a, e, i, *angles)
    tol, guarded = C * np.finfo(float).eps, {"e": e, "sin_i": np.sin(i)}
    try:
        out = back(forward(el, EARTH), EARTH)
    except DomainError as exc:
        # refused only by an angle guard, and only where the guarded quantity
        # is within its round-trip bound tol / x of the floor
        name = next((k for k, pattern in GUARDS.items() if re.fullmatch(pattern, str(exc))), None)
        assert name is not None, str(exc)
        x = guarded[name]
        assert x * x - tol < ANGLE_FLOOR * x, (str(exc), x)
        return
    d = as_row(out) - as_row(el)
    d[3:] = (d[3:] + np.pi) % TWO_PI - np.pi
    s = guarded["sin_i"]
    bound = tol * np.array([a / (1.0 - e), 1.0 / e, 1.0 / s, 1.0 / s, 1.0 / e, 1.0 / (e * (1.0 - e))])
    assert np.all(np.abs(d) <= bound), (d, bound)


def test_circular_rejected_by_delaunay_conversion():
    el = KeplerianElements(a=7000.0, e=0.0, i=0.5, raan=0.1, argp=0.2, mean_anom=0.3)
    with pytest.raises(DomainError):
        kep_to_delaunay(el, EARTH)


def test_equatorial_rejected_by_delaunay_conversion():
    el = KeplerianElements(a=7000.0, e=0.1, i=0.0, raan=0.1, argp=0.2, mean_anom=0.3)
    with pytest.raises(DomainError):
        kep_to_delaunay(el, EARTH)


def test_rectilinear_rejected():
    r = np.array([7000.0, 0.0, 0.0])
    v = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        cartesian_to_kep(CartesianState(r=r, v=v), EARTH)


def test_hyperbolic_rejected():
    r = np.array([7000.0, 0.0, 0.0])
    v = np.array([0.0, 12.0, 0.0])
    with pytest.raises(DomainError):
        cartesian_to_kep(CartesianState(r=r, v=v), EARTH)


def test_batch_conversions_name_the_first_failing_sample():
    # Middle row near-circular (e < ECC_MIN), last row rectilinear: the
    # lowest failing index wins even though the last row fails an earlier
    # guard, and a lone state's message carries no index.
    good = KeplerianElements(a=7000.0, e=0.05, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    cs = kep_to_cartesian(good, EARTH)
    r = np.array([7000.0, 0.0, 0.0])
    circular = (*r, 0.0, np.sqrt(EARTH.mu / 7000.0) * np.cos(0.5), np.sqrt(EARTH.mu / 7000.0) * np.sin(0.5))
    rectilinear = (*r, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError, match=r"^sample 1: e = .* below 1e-08, pericenter angle undefined"):
        cartesian_to_kep_batch([(*cs.r, *cs.v), circular, rectilinear], EARTH)
    with pytest.raises(DomainError, match=r"^e = .* below 1e-08, pericenter angle undefined"):
        cartesian_to_kep(CartesianState(r=circular[:3], v=circular[3:]), EARTH)
    row = (good.a, good.e, good.i, good.raan, good.argp, good.mean_anom)
    with pytest.raises(DomainError, match=r"^sample 1: e = 1\.000e-09 below"):
        kep_to_delaunay_batch([row, (7000.0, 1e-9, 0.5, 0.3, 1.1, 0.2), row], EARTH)
    # Delaunay rows: equatorial (H = G) before circular (G = L).
    L, G, H = delaunay_momenta(good.a, good.e, good.i, EARTH)
    angles = (good.mean_anom, good.argp, good.raan)
    with pytest.raises(DomainError, match=r"^sample 1: sin\(i\) = 0\.000e\+00 below 1e-08, node undefined"):
        delaunay_to_kep_batch([(L, G, H, *angles), (L, G, G, *angles), (L, L, H, *angles)], EARTH)
    with pytest.raises(DomainError, match=r"^e = 0\.000e\+00 below 1e-08, pericenter angle undefined"):
        delaunay_to_kep(DelaunayState(L, L, H, *angles), EARTH)


def test_invalid_constructions():
    with pytest.raises(DomainError, match="^semi-major axis must be positive$"):
        KeplerianElements(a=-1.0, e=0.1, i=0.5, raan=0.0, argp=0.0, mean_anom=0.0)
    with pytest.raises(DomainError, match=r"^eccentricity must lie in \[0, 1\)$"):
        KeplerianElements(a=7000.0, e=1.0, i=0.5, raan=0.0, argp=0.0, mean_anom=0.0)
    with pytest.raises(DomainError, match="^G must satisfy 0 < G <= L$"):
        DelaunayState(L=1.0, G=1.5, H=0.0, l=0.0, g=0.0, h=0.0)
    with pytest.raises(DomainError, match=r"^\|H\| must not exceed G$"):
        DelaunayState(L=1.0, G=0.5, H=0.9, l=0.0, g=0.0, h=0.0)
    with pytest.raises(DomainError, match=r"^\|r\| must be positive$"):
        CartesianState(r=np.zeros(3), v=np.ones(3))
    with pytest.raises(DomainError, match="^mu must be positive$"):
        PhysicalModel(mu=-1.0, R=1.0)
    with pytest.raises(DomainError, match=r"^eccentricity must lie in \[0, 1\)$"):
        kepler_solve(1.0, 1.2)
    # NaN and inf fields are refused by name.
    kep = dict(a=7000.0, e=0.1, i=0.5, raan=0.0, argp=0.0, mean_anom=0.0)
    dl = dict(L=52000.0, G=51990.0, H=40000.0, l=1.0, g=1.0, h=1.0)
    for cls, good, name, bad in (
        (KeplerianElements, kep, "mean_anom", np.nan),
        (KeplerianElements, kep, "raan", np.inf),
        (KeplerianElements, kep, "a", np.inf),
        (DelaunayState, dl, "H", np.nan),
        (DelaunayState, dl, "l", np.nan),
        (DelaunayState, dl, "g", -np.inf),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            cls(**{**good, name: bad})
    with pytest.raises(DomainError, match="^v must be finite$"):
        CartesianState(r=(7000.0, 0.0, 0.0), v=(0.0, np.nan, 0.0))
    with pytest.raises(DomainError, match="^r must be finite$"):
        CartesianState(r=(7000.0, np.inf, 0.0), v=(0.0, 7.5, 0.0))
    with pytest.raises(DomainError, match="^zonal must be finite$"):
        PhysicalModel(mu=1.0, R=1.0, zonal=(1e-3, np.nan))
    with pytest.raises(DomainError, match="^mu must be finite$"):
        PhysicalModel(mu=np.inf, R=1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PhysicalModel(mu=1.0, R=0.0), "R must be positive"),
        (lambda: PhysicalModel(mu=1.0, R=-6378.0), "R must be positive"),
        (lambda: PhysicalModel(mu=1.0, R=1.0, zonal=(1e-3, 1.0)), "zonal coefficients must satisfy |Jn| < 1"),
        (lambda: PhysicalModel(mu=1.0, R=1.0, zonal=(-1.5,)), "zonal coefficients must satisfy |Jn| < 1"),
        (lambda: KeplerianElements(7000.0, 0.1, -1e-9, 0.0, 0.0, 0.0), "inclination must lie in [0, pi]"),
        (lambda: KeplerianElements(7000.0, 0.1, np.pi + 1e-9, 0.0, 0.0, 0.0), "inclination must lie in [0, pi]"),
        (lambda: DelaunayState(0.0, 1.0, 0.0, 0.0, 0.0, 0.0), "L must be positive"),
        (lambda: DelaunayState(-1.0, 0.5, 0.0, 0.0, 0.0, 0.0), "L must be positive"),
        (lambda: CartesianState(r=(7000.0, 0.0), v=(0.0, 7.5, 0.0)), "r and v must be 3-vectors"),
        (lambda: CartesianState(r=(7000.0, 0.0, 0.0), v=np.zeros((3, 1))), "r and v must be 3-vectors"),
        (lambda: delaunay_momenta(0.0, 0.1, 0.5, EARTH), "need a > 0 and 0 <= e < 1"),
        (lambda: delaunay_momenta(7000.0, -1e-9, 0.5, EARTH), "need a > 0 and 0 <= e < 1"),
        (lambda: delaunay_momenta(7000.0, 1.0, 0.5, EARTH), "need a > 0 and 0 <= e < 1"),
    ],
    ids=["R-zero", "R-negative", "J3-one", "J2-below-minus-one", "i-below-0", "i-above-pi", "L-zero",
         "L-negative", "r-2-vector", "v-column", "a-zero", "e-negative", "e-one"],
)
def test_refusals_name_their_bound(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_angles_normalized_on_construction():
    st8 = DelaunayState(L=1.0, G=0.9, H=0.5, l=-0.3, g=7.0, h=2.0)
    assert 0.0 <= st8.l < TWO_PI
    assert 0.0 <= st8.g < TWO_PI
    assert st8.l == pytest.approx(TWO_PI - 0.3, abs=1e-14)


def test_model_with_j2_and_empty_zonal():
    assert PhysicalModel(mu=1.0, R=1.0).j2 == 0.0
    m2 = EARTH.with_j2(0.5e-3)
    assert m2.j2 == 0.5e-3
    assert m2.mu == EARTH.mu
