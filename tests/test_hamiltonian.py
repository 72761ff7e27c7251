import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from numpy.testing import assert_allclose

from zeipel.checks import richardson
from zeipel.elements import EARTH, PhysicalModel, kep_to_cartesian, KeplerianElements, true_from_mean
from zeipel import hamiltonian
from zeipel.errors import DomainError
from zeipel.hamiltonian import (
    d2h0_dL2,
    dh0_dL,
    dh1_true,
    eccentricity_from_momenta,
    h0,
    h1_periodic_true,
    h1_secular,
    h1_true,
    polar_angular_momentum,
    specific_energy,
    zonal_accel,
    zonal_potential,
    zonal_rhs,
)

UNIT = PhysicalModel(mu=1.0, R=1.0, zonal=(1.0e-3,))


def h1_mean(L, G, H, l, g, model):
    """First-order term as a function of the mean anomaly l."""
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    return h1_true(L, G, H, nu, g, model)


def zonal_grad(r_vec, model):
    """Gradient of the disturbing potential on numpy arrays: the independent
    route that the float kernel inside `zonal_accel` is held to."""
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    s = r_vec[2] / r
    r_hat = r_vec / r
    z_hat = np.array([0.0, 0.0, 1.0])
    # grad U_n = mu Jn R^n / r^(n+2) * (P_n' (z_hat - s r_hat) - (n+1) P_n r_hat),
    # summed over n as two Legendre series in s
    n = np.arange(len(model.zonal) + 2)
    scale = np.concatenate(([0.0, 0.0], model.zonal)) * model.mu * model.R**n / r ** (n + 2)
    polar = npleg.legval(s, npleg.legder(scale))
    radial = npleg.legval(s, (n + 1) * scale)
    return polar * (z_hat - s * r_hat) - radial * r_hat


def field_grad(r_vec, model):
    """Zonal gradient recovered from the total acceleration."""
    return -(zonal_accel(r_vec, model) + model.mu * r_vec / np.linalg.norm(r_vec) ** 3)


def l_average(f, nodes=512):
    l = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    return np.mean(f(l))


def test_h0_unit_values():
    assert h0(1.0, UNIT) == 0.5
    assert h0(2.0, UNIT) == 0.125
    assert dh0_dL(1.0, UNIT) == -1.0


def test_h0_derivatives_by_finite_difference():
    L, h = 1.3, 1e-6
    fd1 = (h0(L + h, UNIT) - h0(L - h, UNIT)) / (2 * h)
    fd2 = (dh0_dL(L + h, UNIT) - dh0_dL(L - h, UNIT)) / (2 * h)
    assert dh0_dL(L, UNIT) == pytest.approx(fd1, abs=1e-9)
    assert d2h0_dL2(L, UNIT) == pytest.approx(fd2, abs=1e-9)


def test_h1_polar_circular_unit_point():
    # H = G, e = 0, g + nu = 0: bracket is 2 + 3*0, value 1/2
    assert h1_true(1.0, 1.0, 1.0, -0.3, 0.3, UNIT) == pytest.approx(0.5, abs=1e-15)


def test_h1_vanishes_on_critical_bracket():
    # 3H^2 = G^2 and cos(2g+2nu) = 0 kill both terms
    G = 1.0
    H = G / np.sqrt(3.0)
    L = 1.2
    val = h1_true(L, G, H, np.pi / 4.0, 0.0, UNIT)
    assert abs(val) < 1e-15


def test_h1_secular_unit_values():
    assert h1_secular(1.0, 1.0, 1.0, UNIT) == pytest.approx(0.5, abs=1e-15)
    assert h1_secular(1.2, 1.0, 1.0 / np.sqrt(3.0), UNIT) == pytest.approx(0.0, abs=1e-15)


def test_h1_secular_is_mean_anomaly_average():
    L, G, H, g = 1.0, 0.92, 0.4, 1.1
    avg = l_average(lambda l: h1_mean(L, G, H, l, g, UNIT))
    assert avg == pytest.approx(h1_secular(L, G, H, UNIT), rel=1e-10)


def test_h1_periodic_has_zero_mean():
    L, G, H, g = 1.0, 0.9, -0.3, 0.7
    e = eccentricity_from_momenta(L, G)

    def per(l):
        nu = true_from_mean(l, e)
        return h1_periodic_true(L, G, H, nu, g, UNIT)

    scale = abs(h1_secular(L, G, H, UNIT))
    assert abs(l_average(per)) < 1e-10 * scale


def test_h1_g_period_is_pi():
    nu = np.linspace(0.0, 2.0 * np.pi, 17)
    a = h1_true(1.0, 0.95, 0.5, nu, 0.4, UNIT)
    b = h1_true(1.0, 0.95, 0.5, nu, 0.4 + np.pi, UNIT)
    assert_allclose(a, b, rtol=1e-14)


def test_h1_split_is_exact():
    L, G, H, g = 1.1, 0.9, 0.6, 2.0
    nu = np.linspace(0.0, 2.0 * np.pi, 13)
    total = h1_true(L, G, H, nu, g, UNIT)
    split = h1_secular(L, G, H, UNIT) + h1_periodic_true(L, G, H, nu, g, UNIT)
    assert_allclose(split, total, rtol=1e-14)


def test_dh1_against_finite_differences():
    model = EARTH
    L, G, H = 53000.0, 52600.0, 30000.0
    assert eccentricity_from_momenta(L, G) > 0.05
    l, g = 0.9, 1.7
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    dL, dG = dh1_true(L, G, H, nu, g, model)

    def f(Lx, Gx):
        ex = eccentricity_from_momenta(Lx, Gx)
        return h1_mean(Lx, Gx, H, l, g, model)

    fdL = richardson(lambda x: f(x, G), L, 1e-4 * L)
    fdG = richardson(lambda x: f(L, x), G, 1e-4 * G)
    assert dL == pytest.approx(fdL, rel=1e-6)
    assert dG == pytest.approx(fdG, rel=1e-6)


def test_dh1_rejects_circular():
    with pytest.raises(DomainError, match=r"e = 0\.000e\+00 below the chain-rule floor 1e-10$"):
        dh1_true(1.0, 1.0, 0.5, 0.3, 0.1, UNIT)


def test_zonal_potential_equator_and_pole():
    j2 = EARTH.j2
    for r in (7000.0, 8500.0):
        U_eq = zonal_potential(np.array([r, 0.0, 0.0]), EARTH)
        assert U_eq == pytest.approx(-EARTH.mu * j2 * EARTH.R**2 / (2.0 * r**3), rel=1e-14)
        U_pole = zonal_potential(np.array([0.0, 0.0, r]), EARTH)
        assert U_pole == pytest.approx(EARTH.mu * j2 * EARTH.R**2 / r**3, rel=1e-14)


def test_zonal_potential_axisymmetric():
    r = np.array([5000.0, 3000.0, 4000.0])
    rot = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    assert zonal_potential(rot @ r, EARTH) == pytest.approx(zonal_potential(r, EARTH), rel=1e-14)


def test_empty_zonal_is_pure_kepler():
    model = PhysicalModel(mu=EARTH.mu, R=EARTH.R)
    r = np.array([7000.0, -200.0, 300.0])
    assert zonal_potential(r, model) == 0.0
    acc = zonal_accel(r, model)
    assert_allclose(acc, -model.mu * r / np.linalg.norm(r) ** 3, rtol=1e-15)


def test_zonal_grad_against_finite_difference(rng):
    for _ in range(20):
        r = rng.uniform(-9000.0, 9000.0, size=3)
        if np.linalg.norm(r) < 1.2 * EARTH.R:
            r *= 2.0 * EARTH.R / np.linalg.norm(r)
        g = field_grad(r, EARTH)
        fd = np.zeros(3)
        h = 1e-3
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            fd[k] = (zonal_potential(r + d, EARTH) - zonal_potential(r - d, EARTH)) / (2 * h)
        assert_allclose(g, fd, rtol=1e-7, atol=1e-7 * np.linalg.norm(g))


def test_zonal_field_is_curl_free(rng):
    h = 1e-2
    for _ in range(10):
        r = rng.uniform(6800.0, 9000.0) * _random_unit(rng)
        J = np.zeros((3, 3))
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            J[:, k] = (field_grad(r + d, EARTH) - field_grad(r - d, EARTH)) / (2 * h)
        scale = np.abs(J).max()
        assert np.abs(J - J.T).max() < 1e-6 * scale


# J2 alone, and J2..J6 large enough that the zonal part is a sizable share
# of the field at every degree, so the bound below tests each degree's terms.
KERNEL_MODELS = (EARTH, PhysicalModel(mu=EARTH.mu, R=EARTH.R, zonal=(0.2, -0.1, 0.15, 0.05, -0.12)))


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=("J2", "J2-J6"))
def test_zonal_accel_kernel_matches_array_gradient(rng, model):
    # The model cut or zero-padded to each degree from 2 to 8.
    padded = model.zonal + (0.0,) * 7
    cuts = [PhysicalModel(model.mu, model.R, padded[: degree - 1]) for degree in range(2, 9)]
    for _ in range(50):
        r = rng.uniform(1.05, 6.0) * model.R * _random_unit(rng)
        for cut in cuts:
            want = -cut.mu * r / np.linalg.norm(r) ** 3 - zonal_grad(r, cut)
            got = zonal_accel(r, cut)
            assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(want), (r, cut.zonal)


def _random_unit(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


def test_higher_zonal_terms_enter():
    model = PhysicalModel(mu=EARTH.mu, R=EARTH.R, zonal=(1.0e-3, -2.0e-6))
    r = np.array([4000.0, 2000.0, 6000.0])
    rm = np.linalg.norm(r)
    s = r[2] / rm
    expected = model.mu / rm * (
        1.0e-3 * (model.R / rm) ** 2 * 0.5 * (3 * s * s - 1.0)
        + -2.0e-6 * (model.R / rm) ** 3 * 0.5 * (5 * s**3 - 3 * s)
    )
    assert zonal_potential(r, model) == pytest.approx(expected, rel=1e-13)


def test_guard_radius():
    # each refusal gives |r| and the guard radius
    with pytest.raises(DomainError, match=r"^sample 1: \|r\| = 2126\.0 km inside the guard radius R/2 = 3189\.1 km$"):
        zonal_potential(np.array([[EARTH.R, 0.0, 0.0], [EARTH.R / 3.0, 0.0, 0.0]]), EARTH)
    with pytest.raises(DomainError, match=r"^\|r\| = 2126\.0 km inside the guard radius R/2 = 3189\.1 km$"):
        zonal_potential(np.array([EARTH.R / 3.0, 0.0, 0.0]), EARTH)
    with pytest.raises(DomainError, match=r"^\|r\| = 3189\.1 km inside the guard radius R/2 = 3189\.1 km$"):
        zonal_accel(np.array([0.0, EARTH.R / 2.0, 0.0]), EARTH)
    with pytest.raises(DomainError, match=r"^\|r\| = 3189\.1 km inside the guard radius R/2 = 3189\.1 km$"):
        zonal_rhs(EARTH)(0.0, EARTH.R / 2.0, 0.0)


def test_zonal_rhs_is_the_acceleration_kernel():
    # The oracle's kernel takes the three position components and returns
    # the tuple of three floats that `zonal_accel` returns (held to the
    # array gradient above).
    x = (4000.0, -2000.0, 6000.0)
    out = zonal_rhs(KERNEL_MODELS[1])(*x)
    assert type(out) is tuple and len(out) == 3
    assert out == zonal_accel(np.array(x), KERNEL_MODELS[1])


def loop_kernel(model):
    """The kernel as a loop over the degrees: the reference the emitted
    kernel is held to, operation for operation."""
    mu, R = float(model.mu), float(model.R)
    degrees = tuple((float(n), float(2 * n - 1), float(n - 1), float(n + 1), Jn)
                    for n, Jn in enumerate(model.zonal, start=2))

    def acc(x, y, z):
        r = math.sqrt(x * x + y * y + z * z)
        s = z / r
        q = R / r
        scale = mu / (r * r) * q
        p_prev, p = 1.0, s
        dp_prev, dp = 0.0, 1.0
        radial = 0.0
        polar = 0.0
        for n, odd, n_1, n1, Jn in degrees:
            p_prev, p = p, (odd * s * p - n_1 * p_prev) / n
            dp_prev, dp = dp, dp_prev + odd * p_prev
            scale *= q
            if Jn != 0.0:
                radial -= Jn * scale * (s * dp + n1 * p)
                polar += Jn * scale * dp
        c = -(mu / (r * r) + radial) / r
        return c * x, c * y, c * z - polar

    return acc


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=("J2", "J2-J6"))
def test_emitted_kernel_is_the_degree_loop_bit_for_bit(rng, model):
    # The model, cut or zero-padded to each degree from 2 to 8, and with a
    # zero between nonzero degrees, at positions that include z = +-0.
    padded = model.zonal + (0.0,) * 7
    zonals = [padded[: degree - 1] for degree in range(2, 9)] + [(), (model.j2, 0.0, 0.0, -0.12)]
    kernels = [(zonal_rhs(m), loop_kernel(m)) for m in (PhysicalModel(model.mu, model.R, z) for z in zonals)]
    for k in range(60):
        u = _random_unit(rng)
        if k % 20 == 0:  # on the equator
            u[2] = 0.0 if k == 0 else -0.0
            u /= np.linalg.norm(u)
        r = rng.uniform(1.05, 6.0) * model.R * u
        for emitted, loop in kernels:
            got, want = emitted(*map(float, r)), loop(*map(float, r))
            assert [v.hex() for v in got] == [v.hex() for v in want], (r, k)


def test_zonal_rhs_compiles_once_per_degree_pattern(monkeypatch):
    # Models that differ only in mu, R or the value of a nonzero Jn share
    # one compiled kernel, each bound to its own values; a zero between
    # nonzero degrees is another pattern, and trailing zeros are not.
    compiled = []

    def counted(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(hamiltonian, "compile", counted, raising=False)
    hamiltonian._kernel_factory.cache_clear()
    models = (EARTH, EARTH.with_j2(5e-4), PhysicalModel(mu=1.0, R=1.0, zonal=(1e-3, 0.0)))
    kernels = [zonal_rhs(m) for m in models]
    assert len(compiled) == 1
    assert len({k.__code__ for k in kernels}) == 1
    for m, k in zip(models, kernels):
        assert k(1.3 * m.R, 0.2 * m.R, 0.5 * m.R) == loop_kernel(m)(1.3 * m.R, 0.2 * m.R, 0.5 * m.R)
    odd = zonal_rhs(PhysicalModel(EARTH.mu, EARTH.R, (EARTH.j2, 0.0, -1.6e-6)))
    assert len(compiled) == 2 and odd.__code__ is not kernels[0].__code__
    zonal_rhs(PhysicalModel(2.0, 3.0, (1e-4, 0.0, 2e-7, 0.0)))
    assert len(compiled) == 2


def test_conserved_quantities_at_a_state():
    el = KeplerianElements(a=7100.0, e=0.05, i=0.7, raan=0.2, argp=1.0, mean_anom=0.4)
    cs = kep_to_cartesian(el, EARTH)
    E = specific_energy(cs.r, cs.v, EARTH)
    two_body = 0.5 * np.dot(cs.v, cs.v) - EARTH.mu / np.linalg.norm(cs.r)
    assert E == pytest.approx(two_body + zonal_potential(cs.r, EARTH), rel=1e-15)
    assert polar_angular_momentum(cs.r, cs.v) == pytest.approx(float(np.cross(cs.r, cs.v)[2]), rel=1e-15)
