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
from hypothesis import assume, example, given, settings

from zeipel import checks
from zeipel.domain import ANGLE_FLOOR, CHAIN_FLOOR, check_zonal, near_circular_bound
from zeipel.elements import (
    EARTH,
    KeplerianElements,
    PhysicalModel,
    delaunay_momenta,
    kep_to_cartesian,
    kep_to_delaunay_batch,
)
from zeipel.errors import DomainError, MapError
from zeipel.propagator import mean_rates, propagate_analytic, propagate_oracle
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


# Near circular, from 1.2 times the map's bound |J2| (R/a)^2 to e = 0.01, the
# image's short-period e oscillation can carry it past e = 0.
@settings(deadline=None)
@given(st.floats(6800.0, 8200.0), st.floats(1e-3, 0.01), st.floats(0.1, 3.0), angle, angle, angle)
@example(6880.764769640806, 0.0014934457303105665, 2.840868592798262,
         3.1552775907315733, 3.500930869973849, 3.808342199249111)  # image with G > L
def test_forward_map_stays_on_the_chart_near_circular(a, e, i, l, g, h):
    # mean -> osculating -> mean: the forward batch returns an image with
    # G <= L or raises a MapError naming its input; where the inverse solves
    # too, the round trip meets the round-trip tolerance
    assume(e >= 1.2 * near_circular_bound(math.sqrt(EARTH.mu * a), EARTH))
    mean = np.array([[*delaunay_momenta(a, e, i, EARTH), l, g, h]]).T
    try:
        p, q, _ = CMAP.mean_to_osculating_batch(mean[:3], mean[3:])
    except MapError as exc:
        assert_names_state(exc, mean[:, 0])
        return
    assert p[1, 0] <= p[0, 0]
    try:
        P, Q, _ = CMAP.osculating_to_mean_batch(p, q)
    except MapError as exc:
        assert_names_state(exc, np.concatenate([p[:, 0], q[:, 0]]))
        return
    d = np.concatenate([(P - mean[:3]) / momentum_scale(EARTH), (Q - mean[3:] + math.pi) % TWO_PI - math.pi])
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


# Earth's J3 beside its J2: a degree the analytic theory does not carry.
J23 = PhysicalModel(mu=EARTH.mu, R=EARTH.R, zonal=(EARTH.j2, -2.53265649e-6))
DEFAULT = KeplerianElements(7000.0, 0.01, 0.5, 0.3, 1.1, 0.2)


def test_degrees_above_j2_are_refused_by_the_analytic_route():
    # The map, the mean flow and the pipeline refuse J3 by name; a later
    # degree is named when it is the first nonzero one.
    times = np.linspace(0.0, 1000.0, 5)
    named = r"^J3 = -2\.532656e-06 is nonzero: the analytic theory carries J2 alone$"
    P = delaunay_momenta(7000.0, 0.01, 0.5, J23)
    for route in (lambda: CanonicalMap(J23), lambda: mean_rates(P, J23),
                  lambda: propagate_analytic(DEFAULT, times, J23)):
        with pytest.raises(DomainError, match=named):
            route()
    with pytest.raises(DomainError, match=r"^J5 = 2\.000000e-06 is nonzero"):
        check_zonal((EARTH.j2, 0.0, 0.0, 2e-6, 1e-6))


def test_zero_degrees_above_j2_pass_the_analytic_route():
    # Zero-padded zonal terms are J2 alone: the same rates and samples.
    padded = PhysicalModel(mu=EARTH.mu, R=EARTH.R, zonal=EARTH.zonal + (0.0, 0.0))
    P = delaunay_momenta(7000.0, 0.01, 0.5, EARTH)
    assert np.array_equal(mean_rates(P, padded), mean_rates(P, EARTH))
    times = np.linspace(0.0, 1000.0, 5)
    assert np.array_equal(propagate_analytic(DEFAULT, times, padded).cart, propagate_analytic(DEFAULT, times, EARTH).cart)


def test_halving_study_refuses_degrees_above_j2_before_the_oracle(monkeypatch):
    # Halving J2 alone would keep J3 whole: the study refuses the model
    # before its first oracle run, while the oracle itself sums J3.
    runs = []
    oracle = checks.propagate_oracle
    monkeypatch.setattr(checks, "propagate_oracle", lambda *a: runs.append(a) or oracle(*a))
    times = np.linspace(0.0, 1000.0, 5)
    with pytest.raises(DomainError, match=r"^J3 = "):
        checks.halving_study(DEFAULT, times, J23, (1, 2))
    assert runs == []
    assert np.isfinite(oracle(kep_to_cartesian(DEFAULT, J23), times, J23).cart).all()
