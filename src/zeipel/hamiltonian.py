"""Series Hamiltonian in Delaunay variables and the Cartesian zonal force model.

The perturbed Hamiltonian is written H = h0(L) + J2 * h1(L,G,H,l,g); the
functions here evaluate the series coefficients, so the small parameter J2 is
NOT included in h1 or its derivatives.  The zonal potential and acceleration
at the bottom do include the physical Jn values; they feed the independent
Cartesian oracle integrator and share no code with the series evaluators.
"""

from __future__ import annotations

import numpy as np

from .elements import a_over_r, true_from_mean
from .errors import DomainError


def eccentricity_from_momenta(L, G):
    """e = sqrt(1 - (G/L)^2), clipped against round-off."""
    ratio = np.minimum(np.asarray(G, dtype=float) / L, 1.0)
    return np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))


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


def h1_mean(L, G, H, l, g, model):
    """First-order term as a function of the mean anomaly l."""
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    return h1_true(L, G, H, nu, g, model)


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
    if np.any(e < 1e-12):
        raise DomainError("dh1 momentum partials need e > 0 (chain rule has 1/e factors)")
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


def legendre_upward(nmax, x):
    """Legendre polynomials P_0..P_nmax and derivatives at x, by upward
    recurrence.  Returns two arrays of length nmax + 1."""
    x = np.asarray(x, dtype=float)
    P = np.zeros((nmax + 1,) + x.shape)
    dP = np.zeros_like(P)
    P[0] = 1.0
    if nmax >= 1:
        P[1] = x
        dP[1] = 1.0
    for n in range(2, nmax + 1):
        P[n] = ((2 * n - 1) * x * P[n - 1] - (n - 1) * P[n - 2]) / n
        dP[n] = dP[n - 2] + (2 * n - 1) * P[n - 1]
    return P, dP


def zonal_potential(r_vec, model, nmax=None):
    """Disturbing potential U = sum_n (mu/r) Jn (R/r)^n Pn(z/r), n >= 2."""
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    if r <= model.R / 2.0:
        raise DomainError("position inside the central-body guard radius")
    if nmax is None:
        nmax = max(2, len(model.zonal) + 1)
    if nmax < 2:
        raise DomainError("nmax must be at least 2")
    s = r_vec[2] / r
    P, _ = legendre_upward(nmax, s)
    U = 0.0
    for n in range(2, nmax + 1):
        Jn = model.zonal[n - 2] if n - 2 < len(model.zonal) else 0.0
        U += model.mu / r * Jn * (model.R / r) ** n * P[n]
    return U


def zonal_grad(r_vec, model, nmax=None):
    """Gradient of the disturbing potential."""
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    if r <= model.R / 2.0:
        raise DomainError("position inside the central-body guard radius")
    if nmax is None:
        nmax = max(2, len(model.zonal) + 1)
    s = r_vec[2] / r
    r_hat = r_vec / r
    z_hat = np.array([0.0, 0.0, 1.0])
    P, dP = legendre_upward(nmax, s)
    grad = np.zeros(3)
    for n in range(2, nmax + 1):
        Jn = model.zonal[n - 2] if n - 2 < len(model.zonal) else 0.0
        if Jn == 0.0:
            continue
        scale = model.mu * Jn * model.R**n / r ** (n + 2)
        grad += scale * (dP[n] * (z_hat - s * r_hat) - (n + 1) * P[n] * r_hat)
    return grad


def zonal_accel(r_vec, model, nmax=None):
    """Total acceleration: Kepler term plus zonal perturbation."""
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    if r <= model.R / 2.0:
        raise DomainError("position inside the central-body guard radius")
    return -model.mu * r_vec / r**3 - zonal_grad(r_vec, model, nmax)


def specific_energy(cs, model, nmax=None):
    """v^2/2 - mu/|r| + U, conserved along zonal-field trajectories."""
    r = np.linalg.norm(cs.r)
    return 0.5 * float(np.dot(cs.v, cs.v)) - model.mu / r + zonal_potential(cs.r, model, nmax)


def polar_angular_momentum(cs):
    """z-component of r x v, conserved in any axisymmetric field."""
    return float(np.cross(cs.r, cs.v)[2])
