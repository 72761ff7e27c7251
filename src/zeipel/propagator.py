"""Mean-element propagation and the independent Cartesian oracle.

The analytic route is osculating -> mean -> mean flow -> osculating, with
`mean_flow` the flow's one route.
The oracle integrates Newtonian motion in the zonal field directly in
Cartesian coordinates, sharing nothing with the analytic route beyond
the element conversions, so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import GUARD_RADIUS, ORDERS, check_zonal, inside_guard
from .dop853 import solve_ivp
from .elements import (
    CartesianState,
    DelaunayState,
    KeplerianElements,
    PhysicalModel,
    cartesian_to_kep_batch,
    delaunay_to_kep_batch,
    kep_to_cartesian_batch,
    kep_to_delaunay,
    kep_to_delaunay_batch,
    normalize_angle,
)
from .errors import DomainError, UsageError
from .hamiltonian import dh0_dL, zonal_rhs
from .transform import CanonicalMap
from .vonzeipel import dk1, dk2


def mean_rates(P, model: PhysicalModel, order=2):
    """Constant angle rates (dl, dg, dh) = -dK/dP of the mean flow [rad/s],
    as a (3,) array, for the mean Hamiltonian K = h0 + J2 k1 (+ J2^2 k2),
    J2 = model.j2, which depends on the momenta P alone; the momenta rates
    vanish.  The sign is anchored by the Kepler limit: J2 = 0 gives
    dl/dt = mu^2/L^3 = n > 0.  A nonzero degree above J2 is refused."""
    if order not in ORDERS:
        raise DomainError(f"order must be one of {ORDERS}")
    check_zonal(model.zonal)
    L, G, H = float(P[0]), float(P[1]), float(P[2])
    j2 = model.j2
    grad = np.array([dh0_dL(L, model), 0.0, 0.0]) + j2 * dk1(L, G, H, model)
    if order == 2:
        grad = grad + j2 * j2 * dk2(L, G, H, model)
    return -grad


def mean_flow(mean0: DelaunayState, times, model: PhysicalModel, order=2):
    """The mean flow from `mean0` at times[0] over the grid `times`: the
    mean momenta and the mean angles, (3, N) in [0, 2 pi).  K depends on
    the momenta alone, so they stay `mean0.momenta`, one (3,) vector for
    every sample, and the angles advance at the constant `mean_rates`."""
    times = _grid(times)
    P = mean0.momenta
    rates = mean_rates(P, model, order)
    return P, normalize_angle(mean0.angles[:, None] + rates[:, None] * (times - times[0]))


def _grid(times):
    """The sample times as a float array; refuses a grid that is empty, not
    1-d or not strictly increasing.  `Ephemeris` and both routes apply it."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise DomainError("time grid must be a nonempty 1-d array")
    if not np.all(np.diff(t) > 0):
        raise DomainError("time grid must be strictly increasing")
    return t


@dataclass(frozen=True)
class Ephemeris:
    """Time-ordered samples in all three element representations, each an
    (N, 6) float array of rows: `kep` (a, e, i, raan, argp, M), `cart`
    (x, y, z, vx, vy, vz) and `delaunay` (L, G, H, l, g, h)."""

    t: np.ndarray
    kep: np.ndarray
    cart: np.ndarray
    delaunay: np.ndarray

    def __post_init__(self):
        t = _grid(self.t)
        object.__setattr__(self, "t", t)
        for name in ("kep", "cart", "delaunay"):
            rows = np.asarray(getattr(self, name), dtype=float)
            if rows.shape != (len(t), 6):
                raise DomainError(f"{name} rows have shape {rows.shape}, the grid needs {(len(t), 6)}")
            if not np.isfinite(rows).all():
                raise DomainError(f"{name} rows hold a non-finite value")
            object.__setattr__(self, name, rows)

    def __len__(self):
        return len(self.t)

    def positions(self):
        return self.cart[:, :3].copy()

    def momenta(self):
        return self.delaunay[:, :3].copy()


def propagate_analytic(osc0: KeplerianElements, times, model: PhysicalModel, order=2) -> Ephemeris:
    """Full analytic pipeline at the given theory order: one inverse map of
    the initial state, `mean_flow` over all times, and one forward map of
    every sample it returns, whose shared mean momenta need one generator.
    The map's (p, q) are the Delaunay rows; the Keplerian and Cartesian
    rows follow from them.  A perigee at or inside the guard radius is
    refused at entry."""
    times = _grid(times)
    perigee = osc0.a * (1.0 - osc0.e)
    if perigee <= GUARD_RADIUS * model.R:
        raise DomainError(inside_guard("perigee a(1 - e)", perigee, model.R))
    cmap = CanonicalMap(model, order=order)
    mean0 = cmap.osculating_to_mean(kep_to_delaunay(osc0, model))
    p, q, _ = cmap.mean_to_osculating_batch(*mean_flow(mean0, times, model, order))
    kep = delaunay_to_kep_batch(np.vstack((p, q)).T, model)
    return Ephemeris(times, kep, kep_to_cartesian_batch(kep, model), np.vstack((p, normalize_angle(q))).T)


def propagate_oracle(cart0: CartesianState, times, model: PhysicalModel) -> Ephemeris:
    """Adaptive high-order integration in the zonal field of `model.zonal`,
    by `dop853.solve_ivp` in its Nyström form on the six floats of the
    state, with the acceleration kernel `zonal_rhs(model)` emitted from the
    model's degrees; its first sample is the initial state.  The samples
    are converted to elements as (N, 6) arrays; energy and h_z follow from
    `cart` by `hamiltonian.specific_energy` and `polar_angular_momentum`."""
    times = _grid(times)
    cart = solve_ivp(zonal_rhs(model), np.concatenate([cart0.r, cart0.v]), times).rows
    kep = cartesian_to_kep_batch(cart, model)
    return Ephemeris(times, kep, cart, kep_to_delaunay_batch(kep, model))


@dataclass(frozen=True)
class CompareReport:
    """Pointwise differences between two ephemerides on one grid."""

    max_pos_err: float
    rms_pos_err: float


def compare(eph_a: Ephemeris, eph_b: Ephemeris) -> CompareReport:
    if not np.array_equal(eph_a.t, eph_b.t):
        raise UsageError("ephemerides must share the time grid exactly")
    dr = eph_a.positions() - eph_b.positions()
    pos_err = np.linalg.norm(dr, axis=1)
    return CompareReport(max_pos_err=float(pos_err.max()), rms_pos_err=float(np.sqrt(np.mean(pos_err**2))))


def mean_history(eph: Ephemeris, model: PhysicalModel, order=2):
    """Mean momenta time series, (N, 3), obtained by inverting the map along
    an osculating trajectory in one solve; flat up to the truncation order."""
    cmap = CanonicalMap(model, order=order)
    osc = eph.delaunay.T
    P, _, _ = cmap.osculating_to_mean_batch(osc[:3], osc[3:])
    return P.T
