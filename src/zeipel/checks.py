"""Stated measurements of the package's correctness claims.

Each function draws its inputs from `rng`, measures one quantity and returns
the worst value over its draws.  `zeipel verify` and the acceptance gates
call the same functions, each with its own seed, draw counts, draw ranges
and grid sizes.  `halving_study` runs the J2-halving study behind
`zeipel compare`, the convergence script and the halving gate, one oracle
run per level for all orders; `halving_means` recovers the mean momenta
that compare and the gate read, and `halving_ratios` gives the ratios all
three read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symplectic as symp
from . import vonzeipel as vz
from .domain import check_zonal
from .elements import (
    DelaunayState,
    KeplerianElements,
    PhysicalModel,
    delaunay_momenta,
    eccentricity_from_momenta,
    kep_to_cartesian,
    kepler_solve,
    true_from_mean,
)
from .hamiltonian import dh0_dL, h1_periodic_true, h1_true
from .propagator import Ephemeris, compare, mean_history, propagate_analytic, propagate_oracle
from .transform import CanonicalMap

TWO_PI = 2.0 * np.pi
A_RANGE = (6800.0, 9500.0)


def momenta_draw(rng, model, e_range, i_range):
    """Delaunay momenta (L, G, H) of a uniform draw of a in A_RANGE, then e
    and i in the given ranges."""
    a = rng.uniform(*A_RANGE)
    e = rng.uniform(*e_range)
    inc = rng.uniform(*i_range)
    return delaunay_momenta(a, e, inc, model)


def _state_draw(rng, model, e_range, i_range):
    """A Delaunay state: drawn momenta, then three uniform angles."""
    momenta = momenta_draw(rng, model, e_range, i_range)
    return DelaunayState(*momenta, *rng.uniform(0.0, TWO_PI, size=3))


def richardson(fun, x, h):
    """Central difference of fun at x with steps h and h/2, one Richardson
    pass."""
    d1 = (fun(x + h) - fun(x - h)) / (2 * h)
    d2 = (fun(x + h / 2) - fun(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def kepler_residual(rng, eccentricities, points):
    """max |E - e sin E - M| over `points` uniform mean anomalies per e."""
    worst = 0.0
    for e in eccentricities:
        M = rng.uniform(0.0, TWO_PI, size=points)
        E = kepler_solve(M, e)
        worst = max(worst, float(np.abs(E - e * np.sin(E) - M).max()))
    return worst


def operator_algebra(rng, n):
    """Projection, annihilation, idempotence and fixed constants of the torus
    average the k1 and k2 quadratures use, `vz.torus_average_weighted` at
    e = 0 (where its dnu weight is exactly 1), and of the periodic part f(q)
    minus that average, on `n` random five-term trigonometric polynomials
    with harmonics 1 to 4."""

    def secular(f):
        return vz.torus_average_weighted(f, 0.0)

    def periodic(f, q):
        return float(f(*q)) - secular(f)

    worst = 0.0
    for _ in range(n):
        coef = rng.normal(size=5)
        ka, kb, kc = rng.integers(1, 5, size=3)

        def f(x, y, c=coef, ka=ka, kb=kb, kc=kc):
            return (
                c[0]
                + c[1] * np.cos(ka * x)
                + c[2] * np.sin(kb * y)
                + c[3] * np.cos(kc * (x - y))
                + c[4] * np.sin(x + 2 * y)
            )

        sec = secular(f)
        q = rng.uniform(0.0, TWO_PI, size=2)
        per_val = periodic(f, q)
        worst = max(worst, abs(sec - coef[0]))                                   # projection
        worst = max(worst, abs(secular(lambda x, y: f(x, y) - sec)))             # annihilation
        worst = max(worst, abs(periodic(lambda x, y: f(x, y) - sec, q) - per_val))  # idempotence
        worst = max(worst, abs(secular(lambda x, y: sec + 0.0 * x) - sec))       # constants fixed
    return worst


def k1_vs_quadrature(rng, model, n, e_range, i_range):
    """Relative gap between closed-form k1 and the dnu-weighted torus
    average of h1."""
    worst = 0.0
    for _ in range(n):
        L, G, H = momenta_draw(rng, model, e_range, i_range)
        e = eccentricity_from_momenta(L, G)
        quad = vz.torus_average_weighted(lambda nu, g: h1_true(L, G, H, nu, g, model), e)
        closed = vz.k1(L, G, H, model)
        worst = max(worst, abs(quad - closed) / abs(closed))
    return worst


def _ds1_dl(L, G, H, l, g, model):
    """dS1/dl from the monomial tables the map evaluates."""
    return vz.ClosedFormGenerator(L, G, H, model, (1.0,)).derivatives(l, g)[1][3]


def s1_residual(rng, model, n, grid, e_range, i_range):
    """First-order generator equation w1 dS1/dl + per(h1) = 0, dS1/dl from
    the map's tables, on a grid x grid angle mesh, relative to
    max |per(h1)|."""
    axis = TWO_PI * np.arange(grid) / grid
    ll, gg = np.meshgrid(axis, axis, indexing="ij")
    worst = 0.0
    for _ in range(n):
        L, G, H = momenta_draw(rng, model, e_range, i_range)
        nu = true_from_mean(ll, eccentricity_from_momenta(L, G))
        per = h1_periodic_true(L, G, H, nu, gg, model)
        res = dh0_dL(L, model) * _ds1_dl(L, G, H, ll, gg, model) + per
        worst = max(worst, float(np.abs(res).max() / np.abs(per).max()))
    return worst


def s2_residual(rng, model, n, points, e_range, i_range):
    """Second-order generator equation w1 dS2/dl + cross term - k2 - c2 cos 2g
    = 0 at `points` random angle pairs, relative to max(1, max |periodic
    source|): the hand-written cross term against k2 + c2 cos 2g - w1 dS2/dl
    rebuilt from the tables the map evaluates."""
    worst = 0.0
    for _ in range(n):
        L, G, H = momenta_draw(rng, model, e_range, i_range)
        pts_l = rng.uniform(0.0, TWO_PI, size=points)
        pts_g = rng.uniform(0.0, TWO_PI, size=points)
        per = vz.hbar(L, G, H, pts_l, pts_g, model) - vz.k2(L, G, H, model)
        res = dh0_dL(L, model) * vz.ds2_dl_solution(L, G, H, pts_l, pts_g, model) + per
        worst = max(worst, float(np.abs(res).max()) / max(1.0, float(np.abs(per).max())))
    return worst


def k2_two_routes(rng, model, n, e_range, i_range):
    """Relative gap between closed-form k2 and its quadrature."""
    worst = 0.0
    for _ in range(n):
        L, G, H = momenta_draw(rng, model, e_range, i_range)
        quad = vz.k2_quadrature(L, G, H, model)
        worst = max(worst, abs(quad - vz.k2(L, G, H, model)) / abs(quad))
    return worst


def k2_rates_vs_quadrature(rng, model, n, e_range, i_range):
    """Relative gap between dk2 and Richardson differences of the k2
    quadrature, relative to max |dk2|."""
    worst = 0.0
    for _ in range(n):
        L, G, H = momenta_draw(rng, model, e_range, i_range)
        grad = vz.dk2(L, G, H, model)
        fd = np.array(
            [
                richardson(lambda x: vz.k2_quadrature(x, G, H, model), L, 1e-4 * L),
                richardson(lambda x: vz.k2_quadrature(L, x, H, model), G, 1e-4 * G),
                richardson(lambda x: vz.k2_quadrature(L, G, x, model), H, 1e-4 * max(abs(H), 1.0)),
            ]
        )
        worst = max(worst, float(np.abs(grad - fd).max() / np.abs(grad).max()))
    return worst


def map_roundtrip(rng, model, order, n, e_range, i_range):
    """max |osculating_to_mean(mean_to_osculating(x)) - x|, angles wrapped."""
    cmap = CanonicalMap(model, order=order)
    worst = 0.0
    for _ in range(n):
        st = _state_draw(rng, model, e_range, i_range)
        back = cmap.osculating_to_mean(cmap.mean_to_osculating(st))
        d = np.concatenate([
            back.momenta - st.momenta,
            (back.angles - st.angles + np.pi) % TWO_PI - np.pi,
        ])
        worst = max(worst, float(np.abs(d).max()))
    return worst


def map_jacobian_symplecticity(rng, model, order, n, e_range, i_range):
    """Symplectic residual of the scaled mean-to-osculating map Jacobian."""
    cmap = CanonicalMap(model, order=order)
    worst = 0.0
    for _ in range(n):
        st = _state_draw(rng, model, e_range, i_range)
        worst = max(worst, symp.symplectic_residual(cmap.map_jacobian(st, scaled=True)))
    return worst


def symplectic_algebra(rng, n):
    """Block identities and |M M^-1 - I| on `n` exactly symplectic matrices."""
    worst = 0.0
    for _ in range(n):
        M = symp.random_symplectic(rng)
        worst = max(worst, max(symp.block_identities(M).values()))
        worst = max(worst, float(np.abs(M @ symp.symplectic_inverse(M) - np.eye(6)).max()))
    return worst


def homological_line_solver(rng, model, n, e_range, i_range):
    """Richardson d/dl of the characteristic-line solution of the first-order
    equation against the map's tabled dS1/dl, relative, at one random point
    per draw."""
    worst = 0.0
    for _ in range(n):
        L, G, H = momenta_draw(rng, model, e_range, i_range)
        e = eccentricity_from_momenta(L, G)
        w = np.array([dh0_dL(L, model), 0.0, 0.0])

        def f_per(pts):
            nu = true_from_mean(pts[0], e)
            return h1_periodic_true(L, G, H, nu, pts[1], model)

        l0, g0, h0 = rng.uniform(0.3, TWO_PI - 0.3, size=3)

        def sigma(x):
            return vz.solve_homological(w, f_per, np.array([x, g0, h0]))

        fd = richardson(sigma, l0, 1e-3)
        ref = float(_ds1_dl(L, G, H, l0, g0, model))
        worst = max(worst, abs(fd - ref) / abs(ref))
    return worst


@dataclass(frozen=True)
class HalvingLevel:
    """One J2 level of the halving study."""

    model: PhysicalModel
    oracle: Ephemeris   # the Cartesian oracle run at this level's J2
    reports: dict       # theory order -> CompareReport, analytic against oracle


def halving_study(el0: KeplerianElements, times, model: PhysicalModel, orders):
    """Analytic ephemerides of each of `orders` against the Cartesian oracle
    at J2, J2/2 and J2/4 (each level `model.with_j2`, the oracle's degrees
    those of `model.zonal`), one oracle run per level.  A neglected
    remainder of O(J2^n) shows successive error ratios near 2^n.  A model
    with a nonzero degree above J2 is refused before the first oracle run:
    halving J2 alone would leave those degrees whole, and the theory does
    not carry them."""
    check_zonal(model.zonal)
    levels = []
    for factor in (1.0, 0.5, 0.25):
        m = model.with_j2(model.j2 * factor)
        oracle = propagate_oracle(kep_to_cartesian(el0, m), times, m)
        reports = {n: compare(propagate_analytic(el0, times, m, order=n), oracle) for n in orders}
        levels.append(HalvingLevel(m, oracle, reports))
    return levels


def halving_means(levels, order):
    """The mean momenta (L, G, H) recovered at `order` along each level's
    oracle run, an (N, 3) array per level."""
    return [mean_history(lv.oracle, lv.model, order=order) for lv in levels]


def halving_ratios(values):
    """Successive ratios of a per-level quantity, each level's value over the
    next one's: shape (levels - 1, ...) for values of shape (levels, ...)."""
    values = np.asarray(values)
    return values[:-1] / values[1:]
