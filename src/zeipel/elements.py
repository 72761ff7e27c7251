"""Orbital element sets and conversions.

Representations: Keplerian elements, Delaunay action-angle variables,
Cartesian position/velocity.  Units are km, s, rad throughout.  Angles are
normalized to [0, 2*pi) when a state object is constructed; free functions
keep whatever branch the caller supplies so that derivatives stay smooth.
Model and state objects refuse non-finite fields.  Each conversion has one
implementation, `*_batch` on (N, 6) rows with one Kepler solve over all
rows where one is needed; the one-state functions are its N = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .domain import ANGLE_FLOOR
from .errors import DomainError, SolverError, raise_first

TWO_PI = 2.0 * math.pi


def normalize_angle(x):
    """Reduce an angle (scalar or array) to [0, 2*pi).  A residue that
    rounding leaves below 0 or at 2*pi, from a tiny negative x, becomes 0."""
    x = np.asarray(x, dtype=float)
    y = x - TWO_PI * np.floor(x / TWO_PI)
    return np.where((y < 0.0) | (y >= TWO_PI), 0.0, y)


def _require_finite(state, values):
    """Refuse a model or state object with a NaN or infinite field: one
    `np.isfinite` over its field `values`, and the loop over the fields only
    to name the first bad one."""
    if not np.isfinite(values).all():
        for f in fields(state):
            if not np.isfinite(getattr(state, f.name)).all():
                raise DomainError(f"{f.name} must be finite")


def _set_angles(state, names):
    """Normalize the named angle fields of a frozen state object, with one
    `normalize_angle` over them."""
    for name, angle in zip(names, normalize_angle([getattr(state, name) for name in names]).tolist()):
        object.__setattr__(state, name, angle)


def as_row(state):
    """A state object's fields as one (6,) row, in the column order of the
    (N, 6) conversions: (a, e, i, raan, argp, M), (L, G, H, l, g, h) or
    (x, y, z, vx, vy, vz)."""
    return np.hstack([getattr(state, f.name) for f in fields(state)])


@dataclass(frozen=True)
class PhysicalModel:
    """Central-body constants: mu [km^3/s^2], equatorial radius R [km],
    zonal coefficients (J2, J3, ...) starting at degree 2."""

    mu: float
    R: float
    zonal: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "zonal", tuple(float(j) for j in self.zonal))
        _require_finite(self, (self.mu, self.R, *self.zonal))
        if not self.mu > 0:
            raise DomainError("mu must be positive")
        if not self.R > 0:
            raise DomainError("R must be positive")
        if any(abs(j) >= 1.0 for j in self.zonal):
            raise DomainError("zonal coefficients must satisfy |Jn| < 1")

    @property
    def j2(self):
        return self.zonal[0] if self.zonal else 0.0

    def with_j2(self, value):
        """Copy of the model with the degree-2 coefficient replaced."""
        return PhysicalModel(self.mu, self.R, (float(value),) + self.zonal[1:])


#: Standard Earth constants used as defaults by the CLI and test profiles.
EARTH = PhysicalModel(mu=398600.4418, R=6378.137, zonal=(1.08262668e-3,))


@dataclass(frozen=True)
class KeplerianElements:
    """Osculating Keplerian set (a, e, i, raan, argp, mean_anom)."""

    a: float
    e: float
    i: float
    raan: float
    argp: float
    mean_anom: float

    def __post_init__(self):
        _require_finite(self, (self.a, self.e, self.i, self.raan, self.argp, self.mean_anom))
        if not self.a > 0:
            raise DomainError("semi-major axis must be positive")
        if not (0.0 <= self.e < 1.0):
            raise DomainError("eccentricity must lie in [0, 1)")
        if not (0.0 <= self.i <= math.pi):
            raise DomainError("inclination must lie in [0, pi]")
        _set_angles(self, ("raan", "argp", "mean_anom"))


@dataclass(frozen=True)
class DelaunayState:
    """Delaunay variables: momenta L, G, H [km^2/s], angles l, g, h [rad]."""

    L: float
    G: float
    H: float
    l: float
    g: float
    h: float

    def __post_init__(self):
        _require_finite(self, (self.L, self.G, self.H, self.l, self.g, self.h))
        # Tiny slack absorbs round-off from conversions near e = 0.
        slack = 1e-12 * self.L
        if not self.L > 0:
            raise DomainError("L must be positive")
        if not (0.0 < self.G <= self.L + slack):
            raise DomainError("G must satisfy 0 < G <= L")
        if abs(self.H) > self.G + slack:
            raise DomainError("|H| must not exceed G")
        _set_angles(self, ("l", "g", "h"))

    @property
    def momenta(self):
        return np.array([self.L, self.G, self.H])

    @property
    def angles(self):
        return np.array([self.l, self.g, self.h])


@dataclass(frozen=True)
class CartesianState:
    """Inertial position r [km] and velocity v [km/s]."""

    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        v = np.array(self.v, dtype=float)
        if r.shape != (3,) or v.shape != (3,):
            raise DomainError("r and v must be 3-vectors")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)
        _require_finite(self, (r, v))
        if not np.linalg.norm(r) > 0:
            raise DomainError("|r| must be positive")


def kepler_solve(mean_anom, e):
    """Solve E - e*sin(E) = M for the eccentric anomaly; M and e broadcast
    together.

    Newton iteration seeded at M + e*sin(M), each step clamped to [-1, 1]
    and converged elements frozen.  The result stays on the same 2*pi
    branch as the input; a non-finite M or e gives NaN.
    """
    M, e_arr = np.asarray(mean_anom, dtype=float), np.asarray(e, dtype=float)
    if (e_arr < 0).any() or (e_arr >= 1).any():
        raise DomainError("eccentricity must lie in [0, 1)")
    if M.shape != e_arr.shape:
        M, e_arr = np.broadcast_arrays(M, e_arr)
    finite = np.isfinite(M) & np.isfinite(e_arr)
    all_finite = finite.all()
    if not all_finite:
        M = np.where(finite, M, 0.0)
        e_arr = np.where(finite, e_arr, 0.0)

    branch = TWO_PI * np.round(M / TWO_PI)
    Mr = M - branch

    E = Mr + e_arr * np.sin(Mr)
    for _ in range(50):
        f = E - e_arr * np.sin(E) - Mr
        converged = np.abs(f) <= 1e-14
        if converged.all():
            break
        step = np.minimum(np.maximum(f / (1.0 - e_arr * np.cos(E)), -1.0), 1.0)
        E = np.where(converged, E, E - step)
    else:
        raise SolverError(f"Kepler solver did not converge in 50 Newton steps, worst residual {np.abs(f).max():.3e}")

    E = E + branch if all_finite else np.where(finite, E + branch, np.nan)
    return float(E) if E.ndim == 0 else E


def true_from_eccentric(E, e):
    """True anomaly from eccentric anomaly, branch preserving."""
    E = np.asarray(E, dtype=float)
    beta = e / (1.0 + np.sqrt(1.0 - np.asarray(e) ** 2))
    return E + 2.0 * np.arctan2(beta * np.sin(E), 1.0 - beta * np.cos(E))


def eccentric_from_true(nu, e):
    """Eccentric anomaly from true anomaly, branch preserving."""
    nu = np.asarray(nu, dtype=float)
    beta = e / (1.0 + np.sqrt(1.0 - np.asarray(e) ** 2))
    return nu - 2.0 * np.arctan2(beta * np.sin(nu), 1.0 + beta * np.cos(nu))


def mean_from_eccentric(E, e):
    E = np.asarray(E, dtype=float)
    return E - e * np.sin(E)


def true_from_mean(mean_anom, e):
    return true_from_eccentric(kepler_solve(mean_anom, e), e)


def mean_from_true(nu, e):
    return mean_from_eccentric(eccentric_from_true(nu, e), e)


def a_over_r(nu, e):
    """Ratio a/r as a function of true anomaly."""
    return (1.0 + e * np.cos(nu)) / (1.0 - e * e)


def _momenta(a, e, i, model):
    """(L, G, H) from a, e, i, floats or arrays: the one formula behind
    `delaunay_momenta` and `kep_to_delaunay_batch`."""
    L = np.sqrt(model.mu * a)
    G = L * np.sqrt(1.0 - e * e)
    return L, G, G * np.cos(i)


def delaunay_momenta(a, e, i, model):
    """Delaunay momenta (L, G, H) from a, e, i, as floats.  No angle guards."""
    if not a > 0 or not (0.0 <= e < 1.0):
        raise DomainError("need a > 0 and 0 <= e < 1")
    return tuple(float(x) for x in _momenta(a, e, i, model))


def eccentricity_from_momenta(L, G):
    """e = sqrt((L - G)(L + G))/L, clipped against round-off.  The factored
    form keeps full relative precision near e = 0, where 1 - (G/L)^2
    cancels."""
    L = np.asarray(L, dtype=float)
    return np.sqrt(np.maximum(0.0, (L - G) * (L + G))) / L


def _angle_guards(e, sin_i):
    """`raise_first` guards of the Delaunay angles g and h."""
    return (
        (e < ANGLE_FLOOR, lambda k: f"e = {e[k]:.3e} below {ANGLE_FLOOR}, pericenter angle undefined"),
        (sin_i < ANGLE_FLOOR, lambda k: f"sin(i) = {sin_i[k]:.3e} below {ANGLE_FLOOR}, node undefined"),
    )


def kep_to_delaunay_batch(kep, model: PhysicalModel):
    """(N, 6) Keplerian rows (a, e, i, raan, argp, M) to (N, 6) Delaunay rows
    (L, G, H, l, g, h).  Rejects e or sin(i) below the guard thresholds,
    where g or h is undefined, naming the first such sample."""
    a, e, i, raan, argp, mean_anom = np.asarray(kep, dtype=float).T
    raise_first(*_angle_guards(e, np.sin(i)))
    return np.column_stack((*_momenta(a, e, i, model), mean_anom, argp, raan))


def kep_to_delaunay(el: KeplerianElements, model: PhysicalModel) -> DelaunayState:
    """Keplerian to Delaunay: the one-state case of `kep_to_delaunay_batch`."""
    return DelaunayState(*kep_to_delaunay_batch([as_row(el)], model)[0].tolist())


def delaunay_to_kep_batch(delaunay, model: PhysicalModel):
    """(N, 6) Delaunay rows (L, G, H, l, g, h) to (N, 6) Keplerian rows
    (a, e, i, raan, argp, M), angles in [0, 2*pi), with the same guards as
    `kep_to_delaunay_batch`."""
    L, G, H, l, g, h = np.asarray(delaunay, dtype=float).T
    e = eccentricity_from_momenta(L, G)
    i = np.arccos(np.clip(H / G, -1.0, 1.0))
    raise_first(*_angle_guards(e, np.sin(i)))
    return np.column_stack((L * L / model.mu, e, i, normalize_angle(np.column_stack((h, g, l)))))


def delaunay_to_kep(st: DelaunayState, model: PhysicalModel) -> KeplerianElements:
    """Delaunay to Keplerian: the one-state case of `delaunay_to_kep_batch`."""
    return KeplerianElements(*delaunay_to_kep_batch([as_row(st)], model)[0].tolist())


def kep_to_cartesian_batch(kep, model: PhysicalModel):
    """(N, 6) Keplerian rows (a, e, i, raan, argp, M) to (N, 6) inertial
    Cartesian rows (x, y, z, vx, vy, vz), with one Kepler solve over all
    rows.  Position and velocity are taken along the node line and its
    normal in the orbit plane, at the argument of latitude u = argp + nu."""
    a, e, i, raan, argp, mean_anom = np.asarray(kep, dtype=float).T
    nu = true_from_mean(mean_anom, e)
    cn, sn, cw, sw = np.cos(nu), np.sin(nu), np.cos(argp), np.sin(argp)
    # cos u and sin u expanded, so that no rounding of u enters.
    cu, su = cw * cn - sw * sn, sw * cn + cw * sn
    p = a * (1.0 - e * e)
    node = np.array((np.cos(raan), np.sin(raan), np.zeros_like(raan)))
    normal = np.array((-node[1] * np.cos(i), node[0] * np.cos(i), np.sin(i)))
    r = p / (1.0 + e * cn) * (cu * node + su * normal)
    v = np.sqrt(model.mu / p) * ((cu + e * cw) * normal - (su + e * sw) * node)
    return np.vstack((r, v)).T


def kep_to_cartesian(el: KeplerianElements, model: PhysicalModel) -> CartesianState:
    """Keplerian to inertial Cartesian: the one-state case of
    `kep_to_cartesian_batch`."""
    row = kep_to_cartesian_batch([as_row(el)], model)[0]
    return CartesianState(r=row[:3], v=row[3:])


def cartesian_to_kep_batch(cart, model: PhysicalModel):
    """(N, 6) Cartesian rows (x, y, z, vx, vy, vz) to (N, 6) osculating
    Keplerian rows (a, e, i, raan, argp, M), angles in [0, 2*pi).  Rejects
    rectilinear, non-elliptical, near-circular and near-equatorial states,
    naming the first such sample."""
    x, y, z, vx, vy, vz = np.asarray(cart, dtype=float).T
    mu = model.mu
    r_mag = np.sqrt(x * x + y * y + z * z)
    v2 = vx * vx + vy * vy + vz * vz
    hx, hy, hz = y * vz - z * vy, z * vx - x * vz, x * vy - y * vx
    h_mag = np.sqrt(hx * hx + hy * hy + hz * hz)
    inv_a = 2.0 / r_mag - v2 / mu
    cr, cv = (v2 - mu / r_mag) / mu, (x * vx + y * vy + z * vz) / mu
    ex, ey, ez = cr * x - cv * vx, cr * y - cv * vy, cr * z - cv * vz
    e = np.sqrt(ex * ex + ey * ey + ez * ez)
    with np.errstate(divide="ignore", invalid="ignore"):
        i = np.arccos(np.clip(hz / h_mag, -1.0, 1.0))
    raise_first(
        (h_mag <= 1e-12 * r_mag * np.sqrt(v2), "rectilinear orbit, angular momentum too small"),
        (inv_a <= 0, "state is not elliptical"),
        (e >= 1.0, "state is not elliptical"),
        *_angle_guards(e, np.sin(i)),
    )

    # Node vector n = z_hat x h = (-hy, hx, 0); argp and nu are angles in
    # the orbit plane, measured about h.
    raan = np.arctan2(hx, -hy)
    argp = np.arctan2(ez * (hx * hx + hy * hy) - hz * (hx * ex + hy * ey), h_mag * (hx * ey - hy * ex))
    nu = np.arctan2(
        (hx * (ey * z - ez * y) + hy * (ez * x - ex * z) + hz * (ex * y - ey * x)) / h_mag,
        ex * x + ey * y + ez * z,
    )
    angles = normalize_angle(np.column_stack((raan, argp, mean_from_true(nu, e))))
    return np.column_stack((1.0 / inv_a, e, i, angles))


def cartesian_to_kep(cs: CartesianState, model: PhysicalModel) -> KeplerianElements:
    """Inertial Cartesian to osculating Keplerian elements: the one-state
    case of `cartesian_to_kep_batch`."""
    return KeplerianElements(*cartesian_to_kep_batch([as_row(cs)], model)[0].tolist())
