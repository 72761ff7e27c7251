"""The admissible domain: every bound of the theory, defined once with its
reason.  Brouwer's theory (Brouwer 1959, AJ 64, 378) lives in the Delaunay
chart, which fails as e -> 0 and sin i -> 0 (Lyddane 1963, AJ 68, 555), and
needs J2 small.  Each site that checks a bound keeps its exception type."""

import numpy as np

from .errors import DomainError

ORDERS = (1, 2)  # the generator is known in closed form through J2^2
J2_GUARD = 0.01  # |J2| below it: the map's J2 series is a small-parameter expansion
ANGLE_FLOOR = 1e-8  # e and sin(i) below it: the angle g or h is numerically undefined
CHAIN_FLOOR = 1e-10  # e below it: the 1/e factors of the momentum partials blow up
GUARD_RADIUS = 0.5  # of R: the zonal field refuses |r|, the analytic route a perigee, at or inside it


def check_j2(j2):
    """Refuse |J2| at or above J2_GUARD."""
    if abs(j2) >= J2_GUARD:
        raise DomainError(f"|J2| = {abs(j2):.3e} exceeds the {J2_GUARD} guard")


def check_chart(e):
    """Refuse any eccentricity below CHAIN_FLOOR, naming the smallest."""
    if np.any(np.asarray(e) < CHAIN_FLOOR):
        raise DomainError(f"momentum partials have 1/e factors: e = {np.nanmin(e):.3e} below the chain-rule floor {CHAIN_FLOOR}")


def inside_guard(what, r, R):
    """Refusal text for a radius r at or inside the guard radius; r and R in km."""
    return f"{what} = {float(r):.1f} km inside the guard radius R/2 = {GUARD_RADIUS * R:.1f} km"


def near_circular_bound(L, model):
    """The map's bound |J2| (R/a)^2 on e, at L = sqrt(mu a): the size of the
    eccentricity oscillation its J2 series in Delaunay variables describes."""
    return abs(model.j2) * (model.R * model.mu / L**2) ** 2
