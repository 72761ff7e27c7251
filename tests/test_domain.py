"""The admissible domain, property-tested over a box that reaches past every
bound the map and the routes check: e from 0 (below the angle and chain-rule
floors and the near-circular bound) to 0.95, i including the equatorial
ends, and a from inside the guard radius R/2 out to 60000 km.

Every draw ends in one of three ways: it works, it is refused with a
DomainError that names the bound and the value, or the map fails with a
MapError that names its input state (the near-circular Newton stall).
Any other exception fails the test.
"""

import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from zeipel.domain import ANGLE_FLOOR, CHAIN_FLOOR
from zeipel.elements import EARTH, KeplerianElements, kep_to_cartesian, kep_to_delaunay_batch
from zeipel.errors import DomainError, MapError
from zeipel.propagator import propagate_analytic, propagate_oracle
from zeipel.transform import CanonicalMap, momentum_scale

TWO_PI = 2.0 * math.pi
CMAP = CanonicalMap(EARTH)

semi_major = st.floats(1000.0, 60000.0)
# log-spaced draws reach each floor; uniform ones cover the eccentric orbits
eccentricity = st.floats(-12.0, math.log10(0.95)).map(lambda x: 10.0**x) | st.floats(0.01, 0.95)
inclination = st.floats(0.0, math.pi)
angle = st.floats(0.0, TWO_PI)

BOUNDS = (f"below {ANGLE_FLOOR},", f"below the chain-rule floor {CHAIN_FLOOR}", "inside the guard radius R/2 = ")


def assert_names_bound(exc):
    text = str(exc)
    assert any(bound in text for bound in BOUNDS), text
    assert re.search(r" = \d\.\d{3}e[+-]\d+ below | = \d+\.\d km inside ", text), text


def assert_names_state(exc, state):
    text = str(exc)
    for name, value in zip("LGHlgh", state):
        assert f"{name}={float(value)!r}" in text, text
    assert "last scaled step" in text, text


@settings(deadline=None)
@given(semi_major, eccentricity, inclination, angle, angle, angle)
@example(7000.0, 0.01, 0.5, 0.3, 1.1, 0.2)  # round trip
@example(7000.0, 1e-3, 0.5, 0.3, 0.26, 0.1)  # the inverse iterate leaves the chart
@example(7000.0, 1e-5, 0.5, 0.3, 1.1, 0.2)  # refused by the map's near-circular bound
@example(7000.0, 0.0, 0.5, 0.3, 1.1, 0.2)  # pericenter undefined
@example(7000.0, 0.01, math.pi, 0.3, 1.1, 0.2)  # node undefined
def test_map_round_trip_or_named_refusal(a, e, i, raan, argp, M):
    # osculating -> mean -> osculating through the batched map
    try:
        osc = kep_to_delaunay_batch([[a, e, i, raan, argp, M]], EARTH).T
    except DomainError as exc:
        assert_names_bound(exc)
        return
    state = osc[:, 0]
    try:
        P, Q, _ = CMAP.osculating_to_mean_batch(osc[:3], osc[3:])
        state = np.concatenate([P[:, 0], Q[:, 0]])
        p, q, _ = CMAP.mean_to_osculating_batch(P[:, 0], Q)
    except MapError as exc:
        assert_names_state(exc, state)
        return
    except DomainError as exc:
        assert_names_bound(exc)
        return
    d = np.concatenate([(p - osc[:3]) / momentum_scale(EARTH), (q - osc[3:] + math.pi) % TWO_PI - math.pi])
    assert np.abs(d).max() <= 1e-9


# e from 0.02: below about three times |J2| (R/a)^2 the map's Newton iterate
# stalls (a MapError, which the map test asserts); every other bound is in the box.
@settings(max_examples=20, deadline=None)
@given(semi_major, st.floats(0.02, 0.95), inclination, angle, angle, angle)
@example(3000.0, 0.01, 0.5, 0.3, 1.1, 0.2)  # perigee inside the guard radius
def test_routes_give_finite_ephemerides_or_refuse(a, e, i, raan, argp, M):
    # both routes over one period on a 5-sample grid
    el = KeplerianElements(a, e, i, raan, argp, M)
    times = np.linspace(0.0, TWO_PI * math.sqrt(a**3 / EARTH.mu), 5)
    for route in (
        lambda: propagate_analytic(el, times, EARTH),
        lambda: propagate_oracle(kep_to_cartesian(el, EARTH), times, EARTH),
    ):
        try:
            eph = route()
        except DomainError as exc:
            assert_names_bound(exc)
            continue
        assert np.isfinite(eph.kep).all() and np.isfinite(eph.cart).all()


def test_perigee_inside_guard_radius_is_refused_by_both_routes():
    # a = 3000 km, e = 0.01: perigee 2970 km, inside R/2 = 3189.1 km
    el = KeplerianElements(3000.0, 0.01, 0.5, 0.3, 1.1, 0.2)
    times = np.linspace(0.0, 1000.0, 5)
    with pytest.raises(DomainError, match=r"^perigee a\(1 - e\) = 2970\.0 km inside the guard radius R/2 = 3189\.1 km$"):
        propagate_analytic(el, times, EARTH)
    with pytest.raises(DomainError, match=r"^\|r\| = \d+\.\d km inside the guard radius R/2 = 3189\.1 km$"):
        propagate_oracle(kep_to_cartesian(el, EARTH), times, EARTH)
