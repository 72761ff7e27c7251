"""End-to-end acceptance gates.

Each test exercises one numbered acceptance property at its stated tolerance
and prints a single pass/fail line (visible with pytest -s, and in the
captured output of any failure).  Tolerances are asserted as stated; measured
values are printed so the margins are auditable.  The measurements themselves
live in `zeipel.checks`, shared with `zeipel verify`.
"""

import time

import numpy as np

from zeipel import checks
from zeipel.elements import EARTH, KeplerianElements, PhysicalModel, kep_to_cartesian
from zeipel.hamiltonian import polar_angular_momentum, specific_energy
from zeipel.propagator import propagate_oracle

TWO_PI = 2.0 * np.pi
SEED = 20260818
I_RANGE = (0.1, np.pi - 0.1)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    return line


def test_criterion_1_first_order_average():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = checks.k1_vs_quadrature(rng, EARTH, n=100, e_range=(0.01, 0.4), i_range=I_RANGE)
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 5.0
    report(1, ok, f"secular term closed vs weighted quadrature: worst rel {worst:.3e} (tol 1e-10), {dt:.1f}s")
    assert worst <= 1e-10
    assert dt < 5.0


def test_criterion_2_first_order_generator_equation():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = checks.s1_residual(rng, EARTH, n=20, grid=32, e_range=(0.01, 0.4), i_range=I_RANGE)
    dt = time.monotonic() - t0
    ok = worst <= 1e-9 and dt < 10.0
    report(2, ok, f"generator equation residual on 32x32 grids: worst rel {worst:.3e} (tol 1e-9), {dt:.1f}s")
    assert worst <= 1e-9
    assert dt < 10.0


def test_criterion_3_second_order_average():
    # the closed second-order term is anchored to the quadrature route; the
    # derived rates must match finite differences of that quadrature as well,
    # and the hand-written cross term must match k2 + c2 cos 2g - w1 dS2/dl
    # from the tables the map evaluates.  Each measurement restarts the seed,
    # so the 5 rate draws are the first of the 50 k2 draws.
    t0 = time.monotonic()
    draw = {"e_range": (0.05, 0.35), "i_range": I_RANGE}
    worst_k2 = checks.k2_two_routes(np.random.default_rng(SEED), EARTH, n=50, **draw)
    worst_cross = checks.s2_residual(np.random.default_rng(SEED), EARTH, n=10, points=1, **draw)
    worst_rate = checks.k2_rates_vs_quadrature(np.random.default_rng(SEED), EARTH, n=5, **draw)
    dt = time.monotonic() - t0
    ok = worst_k2 <= 1e-8 and worst_cross <= 1e-8 and worst_rate <= 1e-8
    report(
        3,
        ok,
        "second-order average, quadrature-anchored: "
        f"closed-vs-quad {worst_k2:.3e}, cross term vs tables {worst_cross:.3e}, "
        f"rates-vs-quad-FD {worst_rate:.3e} (tol 1e-8), {dt:.1f}s",
    )
    assert worst_k2 <= 1e-8
    assert worst_cross <= 1e-8
    assert worst_rate <= 1e-8


def test_criterion_4_symplecticity():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst_map = checks.map_jacobian_symplecticity(
        rng, EARTH, order=2, n=20, e_range=(0.01, 0.2), i_range=I_RANGE
    )
    worst_alg = checks.symplectic_algebra(rng, n=20)
    dt = time.monotonic() - t0
    ok = worst_map <= 1e-6 and worst_alg <= 1e-8
    report(
        4,
        ok,
        f"map Jacobians symplectic: worst residual {worst_map:.3e} (tol 1e-6) on 20 states; "
        f"block identities and inverse on exact family {worst_alg:.3e} (tol 1e-8), {dt:.1f}s",
    )
    assert worst_map <= 1e-6
    assert worst_alg <= 1e-8


def test_criterion_5_oracle_health():
    t0 = time.monotonic()
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    T = TWO_PI * np.sqrt(el0.a**3 / EARTH.mu)
    times = np.linspace(0.0, 10.0 * T, 401)
    eph = propagate_oracle(kep_to_cartesian(el0, EARTH), times, EARTH)
    r, v = eph.cart[:, :3], eph.cart[:, 3:]
    en, hz = specific_energy(r, v, EARTH), polar_angular_momentum(r, v)
    drift_e = float(np.ptp(en) / abs(en[0]))
    drift_h = float(np.ptp(hz) / abs(hz[0]))

    kepler_model = PhysicalModel(mu=EARTH.mu, R=EARTH.R)
    eph0 = propagate_oracle(
        kep_to_cartesian(el0, kepler_model), np.linspace(0.0, T, 5), kepler_model
    )
    r = eph0.positions()
    closure = float(np.linalg.norm(r[-1] - r[0]) / np.linalg.norm(r[0]))
    dt = time.monotonic() - t0
    ok = drift_e <= 1e-10 and drift_h <= 1e-10 and closure <= 1e-9 and dt < 30.0
    report(
        5,
        ok,
        f"oracle health over 10 orbits: energy drift {drift_e:.3e}, hz drift {drift_h:.3e} "
        f"(tol 1e-10); two-body closure {closure:.3e} (tol 1e-9), {dt:.1f}s",
    )
    assert drift_e <= 1e-10
    assert drift_h <= 1e-10
    assert closure <= 1e-9
    assert dt < 30.0


def test_criterion_6_second_order_convergence():
    # Gate: the ratios of the position error and of each live mean momentum's
    # peak-to-peak under J2 halving must fall in the band of the pipeline's
    # order.  A theory truncated at order n leaves a remainder of
    # O(J2^(n+1)), so halving J2 divides the error by 2^(n+1); the band is
    # that ratio +/- 25%: [3, 5] at order 1, [6, 10] at order 2.  The order-1
    # pipeline (ratios near 4) fails it.
    t0 = time.monotonic()
    order = 2
    el0 = KeplerianElements(a=7000.0, e=0.01, i=0.5, raan=0.3, argp=1.1, mean_anom=0.2)
    T = TWO_PI * np.sqrt(el0.a**3 / EARTH.mu)
    times = np.linspace(0.0, 10.0 * T, 401)

    levels = checks.halving_study(el0, times, EARTH, (order,))
    means = checks.halving_means(levels, order)
    ptps = [np.ptp(mean, axis=0) for mean in means]
    pos_ratios = checks.halving_ratios([lv.reports[order].max_pos_err for lv in levels])
    ptp_ratios = checks.halving_ratios(ptps)
    # a component whose relative ptp at the upper level is at the oracle
    # round-off floor carries no signal
    live = [ptp / np.abs(mean[0]) > 1e-9 for ptp, mean in zip(ptps[:2], means[:2])]
    live_ratios = np.concatenate([r[m] for r, m in zip(ptp_ratios, live)]).tolist()

    dt = time.monotonic() - t0
    expected = 2.0 ** (order + 1)
    band_lo, band_hi = 0.75 * expected, 1.25 * expected
    band = f"[{band_lo:g}, {band_hi:g}] (2^{order + 1} +/- 25%)"
    in_band = lambda r: band_lo <= r <= band_hi
    ok = all(map(in_band, pos_ratios)) and all(map(in_band, live_ratios)) and dt < 120.0
    report(
        6,
        ok,
        f"halving-convergence band {band}: position ratios "
        + "/".join(f"{r:.2f}" for r in pos_ratios)
        + ", momenta ptp ratios "
        + "/".join(f"{r:.2f}" for r in live_ratios)
        + f", {dt:.0f}s",
    )
    assert dt < 120.0
    assert all(map(in_band, pos_ratios)), f"position ratios {pos_ratios} outside {band}"
    assert all(map(in_band, live_ratios)), f"momenta ptp ratios {live_ratios} outside {band}"


def test_criterion_7_generic_homological_solver():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = checks.homological_line_solver(rng, EARTH, n=20, e_range=(0.05, 0.3), i_range=I_RANGE)
    dt = time.monotonic() - t0
    ok = worst <= 1e-8
    report(
        7,
        ok,
        f"line-integral solver matches the tables' dS1/dl at 20 points: worst rel {worst:.3e} (tol 1e-8), {dt:.1f}s",
    )
    assert worst <= 1e-8


def test_criterion_8_operator_algebra():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = checks.operator_algebra(rng, n=20)
    dt = time.monotonic() - t0
    ok = worst <= 1e-12
    report(8, ok, f"torus average (e = 0) and periodic-part algebra on 20 trig polynomials: worst {worst:.3e} (tol 1e-12), {dt:.1f}s")
    assert worst <= 1e-12
