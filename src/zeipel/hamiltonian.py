"""Series Hamiltonian in Delaunay variables and the Cartesian zonal force model.

The perturbed Hamiltonian is written H = h0(L) + J2 * h1(L,G,H,l,g); the
functions here evaluate the series coefficients, so the small parameter J2 is
NOT included in h1 or its derivatives.  The zonal field at the bottom does
include the physical Jn, one per degree of `model.zonal`; a shorter `zonal`
truncates it.  It feeds the independent Cartesian oracle and shares no code
with the series evaluators: the oracle's right-hand side `zonal_rhs` is a
kernel on Python floats with the package's one Legendre recurrence.  The
potential, energy and h_z, the tests' route to the oracle's conserved
quantities, take one state or N as arrays.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import legval

from .domain import GUARD_RADIUS, check_chart, inside_guard
from .elements import a_over_r, eccentricity_from_momenta
from .errors import DomainError, raise_first


def h0(L, model):
    """Unperturbed term mu^2 / (2 L^2)."""
    return model.mu**2 / (2.0 * L * L)


def dh0_dL(L, model):
    return -(model.mu**2) / L**3


def d2h0_dL2(L, model):
    return 3.0 * model.mu**2 / L**4


def h1_true(L, G, H, nu, g, model):
    """First-order term evaluated at true anomaly nu (vectorized in nu, g).

    (mu^4 R^2 / 4 L^6 G^2) * (a/r)^3 * [(3H^2 - G^2) + 3(G^2 - H^2) cos(2g+2nu)]
    """
    e = eccentricity_from_momenta(L, G)
    rho = a_over_r(nu, e)
    bracket = (3.0 * H * H - G * G) + 3.0 * (G * G - H * H) * np.cos(2.0 * g + 2.0 * nu)
    return model.mu**4 * model.R**2 / (4.0 * L**6 * G * G) * rho**3 * bracket


def h1_secular(L, G, H, model):
    """Angle average of h1: (mu^4 R^2 / 4 L^3 G^5) * (3H^2 - G^2)."""
    return model.mu**4 * model.R**2 * (3.0 * H * H - G * G) / (4.0 * L**3 * G**5)


def h1_periodic_true(L, G, H, nu, g, model):
    """Zero-mean remainder of h1 at true anomaly nu."""
    return h1_true(L, G, H, nu, g, model) - h1_secular(L, G, H, model)


def dh1_true(L, G, H, nu, g, model):
    """Analytic (d h1/dL, d h1/dG) at fixed (l, g), evaluated at nu.

    The mean anomaly is held fixed, so nu varies with e through the Kepler
    geometry; the chain rule runs through e(L,G), rho(nu,e) and nu(l,e).
    Returns a pair of arrays broadcast over (nu, g).
    """
    mu, R = model.mu, model.R
    e = eccentricity_from_momenta(L, G)
    check_chart(e)
    c = np.cos(nu)
    s = np.sin(nu)
    one = 1.0 - e * e
    rho = (1.0 + e * c) / one

    d1 = 3.0 * H * H - G * G
    d2 = 3.0 * (G * G - H * H)
    t = np.cos(2.0 * g + 2.0 * nu)
    s2g = np.sin(2.0 * g + 2.0 * nu)

    # Partials at fixed mean anomaly.
    nu_e = (2.0 + e * c) * s / one
    rho_e = (c + 2.0 * e + e * e * c) / (one * one)
    rho_nu = -e * s / one
    drho_de = rho_e + rho_nu * nu_e
    dt_de = -2.0 * s2g * nu_e

    e_L = G * G / (e * L**3)
    e_G = -G / (e * L * L)

    F = rho**3 * (d1 + d2 * t)
    dF_de = 3.0 * rho * rho * drho_de * (d1 + d2 * t) + rho**3 * d2 * dt_de

    k = mu**4 * R**2 / 4.0
    dL = k * (-6.0 / (L**7 * G * G) * F + dF_de * e_L / (L**6 * G * G))
    dG = k * (
        -2.0 / (L**6 * G**3) * F
        + (dF_de * e_G + rho**3 * (-2.0 * G + 6.0 * G * t)) / (L**6 * G * G)
    )
    return dL, dG


def zonal_potential(r_vec, model):
    """Disturbing potential U = sum_n (mu/r) Jn (R/r)^n Pn(z/r), Jn in
    `model.zonal`, at a position (3,) or at each row of an (N, 3) array: one
    Legendre series per row, summed by numpy's `legval`."""
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec, axis=-1)
    raise_first((np.atleast_1d(r <= GUARD_RADIUS * model.R), lambda k: inside_guard("|r|", np.ravel(r)[k], model.R)))
    q = model.R / r
    series = [0.0 * q, 0.0 * q, *(Jn * q**n for n, Jn in enumerate(model.zonal, start=2))]
    return model.mu / r * legval(r_vec[..., 2] / r, series, tensor=False)


def zonal_rhs(model):
    """The oracle's right-hand side rhs(t, state) -> (v, a) of the zonal
    field of `model`, on six Python floats (x, y, z, vx, vy, vz); the model
    is bound once, not looked up per call.

    The acceleration is the Kepler term plus the zonal perturbation: the
    Legendre recurrence P_n, P_n' in s = z/r and the sum of
    grad U_n = mu Jn R^n / r^(n+2) * (P_n' (z_hat - s r_hat) - (n+1) P_n r_hat)
    collapse into one coefficient of r_vec and one of z_hat.
    """
    mu, R = float(model.mu), float(model.R)
    guard = GUARD_RADIUS * R
    # (n, Jn) with the recurrence's small integers as floats, which they
    # equal exactly
    degrees = tuple((float(n), float(2 * n - 1), float(n - 1), float(n + 1), Jn)
                    for n, Jn in enumerate(model.zonal, start=2))

    def rhs(_, state):
        x, y, z, vx, vy, vz = state
        r = math.sqrt(x * x + y * y + z * z)
        if r <= guard:
            raise DomainError(inside_guard("|r|", r, R))
        s = z / r
        q = R / r
        scale = mu / (r * r) * q  # mu R^n / r^(n+2) at n = 1
        p_prev, p = 1.0, s  # P_{n-2}, P_{n-1}
        dp_prev, dp = 0.0, 1.0
        radial = 0.0  # sum of Jn scale_n (-s P_n' - (n+1) P_n), coefficient of r_hat
        polar = 0.0  # sum of Jn scale_n P_n', coefficient of z_hat
        for n, odd, n_1, n1, Jn in degrees:  # n, 2n - 1, n - 1, n + 1, Jn
            p_prev, p = p, (odd * s * p - n_1 * p_prev) / n
            dp_prev, dp = dp, dp_prev + odd * p_prev
            scale *= q
            if Jn != 0.0:
                radial -= Jn * scale * (s * dp + n1 * p)
                polar += Jn * scale * dp
        c = -(mu / (r * r) + radial) / r
        return vx, vy, vz, c * x, c * y, c * z - polar

    return rhs


def zonal_accel(r_vec, model):
    """Total acceleration at one position, as a tuple of three floats:
    the acceleration part of `zonal_rhs(model)`."""
    x, y, z = map(float, r_vec)
    return zonal_rhs(model)(0.0, (x, y, z, 0.0, 0.0, 0.0))[3:]


def specific_energy(r, v, model):
    """v^2/2 - mu/|r| + U, conserved along zonal-field trajectories; r and v
    are (3,) or (N, 3)."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * np.sum(v * v, axis=-1) - model.mu / np.linalg.norm(r, axis=-1) + zonal_potential(r, model)


def polar_angular_momentum(r, v):
    """z-component of r x v, conserved in any axisymmetric field; r and v
    are (3,) or (N, 3)."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    return r[..., 0] * v[..., 1] - r[..., 1] * v[..., 0]
