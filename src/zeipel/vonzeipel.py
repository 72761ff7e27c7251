"""Canonical averaging engine.

The dnu-weighted torus average behind the k1 and k2 quadratures, the
first-order solution (new Hamiltonian term k1, generator s1 and its
partials, both closed-form and via the generic characteristic-line
integral), and the second-order solution (k2 closed form and quadrature, s2
closed form, with spectral tables as its independent oracle).
`ClosedFormGenerator` evaluates s1 (and s2, the order being its weights'
count) with their first and second derivatives from one monomial table
(`MonomialTable`) per order; the map uses it and nothing else.  One more
table holds k2 and c2.  A table call is numpy alone: one dense product per
generated table, weights and a sum per output.

Conventions.  The generating series is S = P.q + J2*S1 + J2^2*S2 in mixed
variables (new momenta P, old angles q); the first-order PDE is
w1 * dS1/dl + per(H1) = 0 with w1 = dh0/dL.  Series coefficients never
include powers of J2; callers scale by the physical value.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _secondorder
from .domain import check_chart
from .elements import a_over_r, eccentricity_from_momenta, true_from_mean
from .errors import DegenerateFrequencyError, DomainError
from .hamiltonian import (
    d2h0_dL2,
    dh0_dL,
    dh1_true,
    h1_secular,
)

TWO_PI = 2.0 * math.pi
# g nodes of the torus average: the averaged fields' g harmonics stay below 32.
NODES_G = 64


def torus_average_weighted(f_of_nu_g, e, nodes_nu=256):
    """Average over (l, g) of a field given at (nu, g), dnu-weighted in l.

    At e = 0 the weight is exactly 1, so this is the plain trapezoid average
    over the (nu, g) torus: exact to round-off for trigonometric polynomials
    with harmonics below half of each axis's node count."""
    nu = TWO_PI * np.arange(nodes_nu) / nodes_nu
    g = TWO_PI * np.arange(NODES_G) / NODES_G
    NU, GG = np.meshgrid(nu, g, indexing="ij")
    rho = a_over_r(NU, e)
    eta = math.sqrt(1.0 - e * e)
    return float(np.mean(f_of_nu_g(NU, GG) / rho**2)) / eta


# ---------------------------------------------------------------------------
# First order.


def k1(L, G, H, model):
    """First-order mean Hamiltonian term; equals the secular part of h1."""
    return h1_secular(L, G, H, model)


def dk1(L, G, H, model):
    """Gradient of k1 with respect to (L, G, H)."""
    f = model.mu**4 * model.R**2 / 4.0
    dL = -3.0 * f * (3.0 * H * H - G * G) / (L**4 * G**5)
    dG = f * (3.0 * G * G - 15.0 * H * H) / (L**3 * G**6)
    dH = 6.0 * f * H / (L**3 * G**5)
    return np.array([dL, dG, dH])


def s1_true(L, G, H, nu, l, g, model):
    """Closed-form first-order generator, angles supplied as (nu, l, g)."""
    e = eccentricity_from_momenta(L, G)
    A = l - nu - e * np.sin(nu)
    B = 1.5 * np.sin(2 * g + 2 * nu) + 1.5 * e * np.sin(2 * g + nu) + 0.5 * e * np.sin(2 * g + 3 * nu)
    f = model.mu**2 * model.R**2 / (4.0 * G**5)
    return f * ((G * G - 3.0 * H * H) * A + (G * G - H * H) * B)


def s1(L, G, H, l, g, model):
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    return s1_true(L, G, H, nu, l, g, model)


def ds1_dl_true(L, G, H, nu, g, model):
    """d s1/dl in closed form, evaluated at true anomaly nu."""
    e = eccentricity_from_momenta(L, G)
    eta = np.sqrt(1.0 - e * e)
    rho = a_over_r(nu, e)
    trig = 3.0 * np.cos(2 * g + 2 * nu) + 1.5 * e * np.cos(2 * g + nu) + 1.5 * e * np.cos(2 * g + 3 * nu)
    f = model.mu**2 * model.R**2 / (4.0 * G**5)
    return f * ((G * G - 3.0 * H * H) * (1.0 - eta**3 * rho**3) + (G * G - H * H) * eta * rho * rho * trig)


def ds1_dl(L, G, H, l, g, model):
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    return ds1_dl_true(L, G, H, nu, g, model)


def ds1_dg_true(L, G, H, nu, g, model):
    e = eccentricity_from_momenta(L, G)
    trig = 3.0 * np.cos(2 * g + 2 * nu) + 3.0 * e * np.cos(2 * g + nu) + e * np.cos(2 * g + 3 * nu)
    f = model.mu**2 * model.R**2 / (4.0 * G**5)
    return f * (G * G - H * H) * trig


def ds1_dg(L, G, H, l, g, model):
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    return ds1_dg_true(L, G, H, nu, g, model)


def ds1_dP(L, G, H, l, g, model):
    """(d s1/dL, d s1/dG, d s1/dH) at fixed (l, g), from the monomial tables."""
    return ClosedFormGenerator(L, G, H, model, (1.0,)).derivatives(l, g)[1][:3]


def solve_homological(w, f_per, q):
    """Generic solution of w . dS/dq = -f_per along the characteristic line.

    S(q) = -(1/|w|) * integral_0^{what.q} f_per(q - (what.q - t) what) dt,
    with what = w/|w|.  f_per must have zero torus average and accept a
    stacked (N, M) array of angle columns, returning M values.
    """
    w = np.asarray(w, dtype=float)
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        raise DegenerateFrequencyError(f"|w| = {norm:.3e} below threshold")
    what = w / norm
    T = float(what @ q)
    if T == 0.0:
        return 0.0
    t, wt = np.polynomial.legendre.leggauss(129)
    t = 0.5 * T * (t + 1.0)
    wt = wt * 0.5 * T
    pts = q[:, None] - (T - t)[None, :] * what[:, None]
    return -float(wt @ np.asarray(f_per(pts), dtype=float)) / norm


# ---------------------------------------------------------------------------
# Second order.


def hbar_true(L, G, H, nu, g, model):
    """Quadratic cross term 1/2 d2h0 (dS1/dl)^2 + dh1/dL dS1/dl + dh1/dG dS1/dg
    at true anomaly nu: the source of S2, k2 and c2."""
    s1l_val = ds1_dl_true(L, G, H, nu, g, model)
    s1g_val = ds1_dg_true(L, G, H, nu, g, model)
    h1L_val, h1G_val = dh1_true(L, G, H, nu, g, model)
    return 0.5 * d2h0_dL2(L, model) * s1l_val**2 + h1L_val * s1l_val + h1G_val * s1g_val


def hbar(L, G, H, l, g, model):
    e = eccentricity_from_momenta(L, G)
    nu = true_from_mean(l, e)
    return hbar_true(L, G, H, nu, g, model)


def _mean(L, G, H):
    """The mean table's (value, gradient, Hessian) of k2 and c2 at (L, G, H)."""
    return _MEAN(L, G, H, eccentricity_from_momenta(L, G))


def k2(L, G, H, model):
    """Second-order mean Hamiltonian term, closed form.

    Derived symbolically as the (l, g) average of the compositional cross
    term (scripts/derive_second_order.py asserts the polynomial); verified
    against dnu-weighted quadrature in the tests.
    """
    return model.mu**6 * model.R**4 * _mean(L, G, H)[0][0]


def dk2(L, G, H, model):
    """Gradient of k2 with respect to (L, G, H)."""
    return model.mu**6 * model.R**4 * _mean(L, G, H)[1][0]


def k2_quadrature(L, G, H, model):
    """(l, g) average of the compositional cross term, dnu-weighted."""
    e = eccentricity_from_momenta(L, G)
    return torus_average_weighted(
        lambda NU, GG: hbar_true(L, G, H, NU, GG, model), float(e), 128
    )


def long_period_coefficient(L, G, H, model):
    """Closed-form coefficient c2 of the long-period remainder c2*cos(2g),
    the l-average of the periodic part of the cross term."""
    return model.mu**6 * model.R**4 * _mean(L, G, H)[0][1]


class SecondOrderTables:
    """Spectral solution tables for the second-order generator.

    Built from samples of a source field f(l, g) on a uniform torus grid.
    The defining equation is w1 * dS2/dl + f - <f> = 0 at fixed g.  Writing
    f - <f> = f_osc(l, g) + ramp(g), where f_osc has zero l-mean at every g
    and ramp(g) = <f>_l(g) - <f>, the full solution is

        S2_full = -(A(l, g) + ramp(g) * l) / w1,

    with A the zero-mean l-antiderivative of f_osc.  Only the periodic part
    -A/w1 is single-valued on the torus; the canonical map uses that part,
    while pde_dl() keeps the ramp so the defining equation is satisfied
    exactly.  value() has zero l-mean by construction.
    """

    def __init__(self, field, w1, nl=128, ng=32):
        if abs(w1) < 1e-12:
            raise DegenerateFrequencyError("w1 too small for the l-antiderivative")
        self.w1 = float(w1)
        self.nl = nl
        self.ng = ng
        lg = TWO_PI * np.arange(nl) / nl
        gg = TWO_PI * np.arange(ng) / ng
        LL, GGm = np.meshgrid(lg, gg, indexing="ij")
        F = np.asarray(field(LL, GGm), dtype=float)
        if F.shape != (nl, ng):
            raise DomainError("field must evaluate on the (nl, ng) grid")
        C = np.fft.fft2(F) / (nl * ng)
        kl = np.fft.fftfreq(nl, d=1.0 / nl).astype(int)
        kg = np.fft.fftfreq(ng, d=1.0 / ng).astype(int)
        # Zero the Nyquist rows; spectra here decay far below them.
        C[nl // 2, :] = 0.0
        C[:, ng // 2] = 0.0
        self.mean = float(C[0, 0].real)
        self.kl = kl
        self.kg = kg
        self._ramp_row = C[0, :].copy()
        self._ramp_row[0] = 0.0
        self._osc = C.copy()
        self._osc[0, :] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            self._anti = np.where(kl[:, None] != 0, self._osc / (1j * kl[:, None]), 0.0)

    def _synth(self, coeff, l, g):
        l = np.asarray(l, dtype=float)
        g = np.asarray(g, dtype=float)
        shape = np.broadcast(l, g).shape
        lf = np.broadcast_to(l, shape).ravel()
        gf = np.broadcast_to(g, shape).ravel()
        el = np.exp(1j * np.outer(self.kl, lf))
        eg = np.exp(1j * np.outer(self.kg, gf))
        vals = np.einsum("km,kp,mp->p", coeff, el, eg).real
        return vals.reshape(shape) if shape else float(vals[0])

    def value(self, l, g):
        """Periodic part of S2, zero l-mean; the map's generator term."""
        return -self._synth(self._anti, l, g) / self.w1

    def dl(self, l, g):
        """d/dl of the periodic part."""
        return -self._synth(self._osc, l, g) / self.w1

    def dg(self, l, g):
        """d/dg of the periodic part."""
        return -self._synth(self._anti * (1j * self.kg)[None, :], l, g) / self.w1

    def ramp(self, g):
        """Long-period remainder of the source field at g (zero g-mean)."""
        g = np.asarray(g, dtype=float)
        shape = g.shape
        gf = np.atleast_1d(g).ravel()
        eg = np.exp(1j * np.outer(self.kg, gf))
        vals = (self._ramp_row @ eg).real
        return vals.reshape(shape) if shape else float(vals[0])

    def pde_dl(self, l, g):
        """d S2/dl of the full (ramped) solution; satisfies the defining
        equation with the complete zero-mean source."""
        return self.dl(l, g) - self.ramp(g) / self.w1


@functools.lru_cache(maxsize=128)
def second_order_tables(L, G, H, model):
    """Cached satellite-problem tables: source field is the compositional
    cross term, frequency is dh0/dL."""
    e = eccentricity_from_momenta(L, G)

    def field(LL, GGm):
        nu = true_from_mean(LL, float(e))
        return hbar_true(L, G, H, nu, GGm, model)

    return SecondOrderTables(field, dh0_dL(L, model))


def s2(L, G, H, l, g, model):
    """Periodic (torus single-valued, zero l-mean) part of the second-order
    generator."""
    return ClosedFormGenerator(L, G, H, model, (0.0, 1.0)).derivatives(l, g)[0]


def ds2_dl(L, G, H, l, g, model):
    return ClosedFormGenerator(L, G, H, model, (0.0, 1.0)).derivatives(l, g)[1][3]


def ds2_dl_solution(L, G, H, l, g, model):
    """d S2/dl including the long-period ramp c2 cos(2g) / w1; the exact PDE
    solution."""
    ramp = long_period_coefficient(L, G, H, model) * np.cos(2.0 * np.asarray(g))
    return ds2_dl(L, G, H, l, g, model) - ramp / dh0_dL(L, model)


class ClosedFormGenerator:
    """w1 * S1 (+ w2 * S2) at fixed momenta (L, G, H), in closed form.

    Each generator is a sum c_j(L, G, H) * phi_j(nu, l, g) over the angle
    basis of `_secondorder`, phi = (nu - l)^p sin(k nu + m g + p pi/2), where
    p = 1 only with k = 0; S2's k = 0 sine terms are the Hansen l-means that
    give it zero l-mean.  The coefficients and their first and second
    momentum partials are computed once, here, in one call of the monomial
    table of order len(weights); `derivatives` chains them with nu(l, e(L, G)).

    The momenta are floats or (N,) arrays, one momentum vector per column;
    the coefficients have shape (terms, N), N = 1 for floats.
    """

    def __init__(self, L, G, H, model, weights):
        L, G, H = (np.asarray(x, dtype=float).reshape(-1) for x in (L, G, H))
        self.e = e = eccentricity_from_momenta(L, G)
        check_chart(e)
        # 1 - e^2, its 3/2 power and e(L, G)'s partials, bound once: (N,) columns broadcasting with the angles.
        e_L, e_G, self.eta2 = G * G / (e * L**3), -G / (e * L * L), 1.0 - e * e
        self.eta3, self.e_P = self.eta2**1.5, np.array([e_L, e_G])
        self.e_PP2 = self.e_P[:, None] * self.e_P[None, :]
        self.e_PP = np.array([[-3.0 * e_L / L, 2.0 * e_L / G], [2.0 * e_L / G, e_G / G]]) - self.e_PP2 / e
        table, basis, order = _GENERATORS[len(weights) - 1]
        # Sn's terms scale by wn mu^(2n) R^(2n).
        w = np.array([x * model.mu ** (2 * n) * model.R ** (2 * n) for n, x in enumerate(weights, 1)])[order]
        c, dc, d2c = table(L, G, H, e)
        self.c, self.dc, self.d2c = w[:, None] * c, w[:, None, None] * dc, w[:, None, None, None] * d2c
        self.basis = basis

    def derivatives(self, l, g):
        """(value, gradient, Hessian) in (L, G, H, l, g) at mean anomaly l and
        argument of pericenter g, from one Kepler solve.  l and g broadcast
        (to the momenta's (N,) shape, if they are arrays); the angle shape
        trails: (5,) + shape and (5, 5) + shape."""
        l, g = np.asarray(l, dtype=float), np.asarray(g, dtype=float)
        if l.shape != g.shape:
            l, g = np.broadcast_arrays(l, g)
        shape = l.shape
        l, g = l.ravel(), g.ravel()
        e, eta2, eta3, e_P = self.e, self.eta2, self.eta3, self.e_P
        nu = true_from_mean(l, e)
        cn, sn = np.cos(nu), np.sin(nu)
        # nu(l, e) and its partials at fixed l.
        one = 1.0 + e * cn
        nu_l = one**2 / eta3
        nu_e = (2.0 + e * cn) * sn / eta2
        nu_ll = -2.0 * e * sn * one / eta3 * nu_l
        nu_le = one * (2.0 * cn + 3.0 * e * one / eta2 - 2.0 * e * sn * nu_e) / eta3
        nu_ee = (cn * sn + 2.0 * e * nu_e + (2.0 * cn + e * np.cos(2.0 * nu)) * nu_e) / eta2
        Y = np.zeros((3, 5, len(nu)))  # d(nu, l, g)/d(L, G, H, l, g)
        Y[0, 0], Y[0, 1], Y[0, 3] = e_P[0] * nu_e, e_P[1] * nu_e, nu_l
        Y[1, 3] = Y[2, 4] = 1.0
        nu_xx = np.zeros((5, 5, len(nu)))
        nu_xx[:2, :2] = self.e_PP * nu_e + self.e_PP2 * nu_ee
        nu_xx[:2, 3] = nu_xx[3, :2] = e_P * nu_le
        nu_xx[3, 3] = nu_ll

        # Basis values, (nu, l, g) gradient and the Hessian's distinct non-zero entries nn, ng, lg, gg; a row per term.
        p, k, m, phase, linear, n_p, n_kk, pm, km, n_pm, n_mm = self.basis
        theta = k * nu + m * g + phase
        S, C = np.sin(theta), np.cos(theta)
        U = np.where(linear, nu - l, 1.0)
        phi = U * S
        d_phi = np.array([p * S + k * U * C, n_p * S, m * U * C])
        h_phi = np.array([n_kk * U * S, pm * C - km * U * S, n_pm * C, n_mm * U * S])
        h_nn, h_ng, h_lg, h_gg = np.einsum("jn,ajn->an", self.c, h_phi)
        z = np.zeros(h_nn.shape)
        h_y = np.array([[h_nn, z, h_ng], [z, z, h_lg], [h_ng, h_lg, h_gg]])

        g_y = np.einsum("jn,ajn->an", self.c, d_phi)
        grad = np.einsum("an,axn->xn", g_y, Y)
        grad[:3] += np.einsum("jpn,jn->pn", self.dc, phi)
        hess = np.einsum("axn,abn,byn->xyn", Y, h_y, Y) + g_y[0] * nu_xx
        cross = np.einsum("jpn,ajn,axn->pxn", self.dc, d_phi, Y)
        hess[:3] += cross
        hess[:, :3] += cross.transpose(1, 0, 2)
        hess[:3, :3] += np.einsum("jpqn,jn->pqn", self.d2c, phi)
        value = np.einsum("jn,jn->n", self.c, phi)
        return value.reshape(shape), grad.reshape((5,) + shape), hess.reshape((5, 5) + shape)


# d/dx of e^a L^b G^c H^d u^f, x = L, G, H: (exponent that becomes a factor, sign,
# exponent shift) per term, from e_L = G^2/(e L^3), e_G = -G/(e L^2), u_L = u_G = -u^2.
_CHAIN = (
    ((1, 1, (0, -1, 0, 0, 0)), (0, 1, (-2, -3, 2, 0, 0)), (4, -1, (0, 0, 0, 0, 1))),
    ((2, 1, (0, 0, -1, 0, 0)), (0, -1, (-2, -2, 1, 0, 0)), (4, -1, (0, 0, 0, 0, 1))),
    ((3, 1, (0, 0, 0, -1, 0)),),
)
_BLOCK = 64  # columns per evaluation: larger temporaries are mapped afresh per call
_HESSIAN = np.array([[4, 5, 6], [5, 7, 8], [6, 8, 9]])  # the output of Hessian entry (x, y): the upper one


def _partial(term, coef, powers, x):
    """The monomial rows of d/dx, x = 0, 1, 2 for L, G, H; zero rows dropped."""
    parts = [(term, sign * coef * powers[:, src], powers + shift) for src, sign, shift in _CHAIN[x]]
    term, coef, powers = (np.concatenate(a) for a in zip(*parts))
    return term[coef != 0], coef[coef != 0], powers[coef != 0]


def _key(exponents):
    """One integer per row of `exponents`: the row's digits in base 128."""
    if exponents.min() < -64 or exponents.max() >= 64:
        raise ValueError(f"monomial exponents span [{exponents.min()}, {exponents.max()}], outside [-64, 64)")
    return (exponents + 64) @ 128 ** np.arange(exponents.shape[1])


def _products(exponents):
    """Distinct rows of `exponents` as per-variable (exponents as a column,
    their index per distinct row); each row's index."""
    _, first, index = np.unique(_key(exponents), return_index=True, return_inverse=True)
    columns = (np.unique(col, return_inverse=True) for col in exponents[first].T.astype(float))
    return [(column[:, None], i) for column, i in columns], index


def _evaluate(x, products):
    """The distinct rows' monomials at (N,) variables x, as (rows, N)."""
    out = None
    for xv, (exponents, index) in zip(x, products):
        factor = (xv**exponents)[index]
        out = factor if out is None else out * factor
    return out


def _groups(out, coef, powers):
    """One generated table's rows as e^a (1 + x)^-f x^c y^d L^D, x = G/L, y = H/L
    and D = b + c + d - f: the output and (a, f, D) of each distinct (output, a,
    f, D) group, sorted by output; the distinct (c, d); and the dense
    coefficient matrix of the groups over them."""
    a, b, c, d, f = powers.T
    cd, afd = np.column_stack([c, d]), np.column_stack([a, f, b + c + d - f])
    _, first, product = np.unique(_key(cd), return_index=True, return_inverse=True)
    keys, head, group = np.unique(out * 128**3 + _key(afd), return_index=True, return_inverse=True)
    n = len(first)
    coefs = np.bincount(group * n + product, coef, len(keys) * n).reshape(len(keys), n)
    return out[head], afd[head], cd[first], coefs


class MonomialTable:
    """f_j = sum of c e^a L^b G^c H^d u^f over the rows (j, c, a, b, c, d, f) of
    generated tables, u = 1/(L + G), and its exact (L, G, H) gradient and Hessian:
    10 outputs per term, the value, the gradient and the upper Hessian,
    differentiated here by exponent arithmetic; the lower Hessian is mirrored on
    read.  Each table's terms follow the previous one's; `sizes` holds their
    counts.  Every output is homogeneous in (L, G, H), u counting as degree -1,
    so a monomial is e^a (1 + x)^-f x^c y^d L^D with x = G/L, y = H/L.  A call
    takes one dense product per generated table, of its (output, a, f, D)
    groups' coefficients with its distinct x^c y^d; weights each group by
    e^a (1 + x)^-f L^D; and sums the groups of each output."""

    def __init__(self, *tables):
        self.sizes = [max(row[0] for row in table) + 1 for table in tables]
        self.terms, shifts = sum(self.sizes), np.cumsum([0] + self.sizes).tolist()
        groups = []
        for table, s in zip(tables, shifts):
            rows = np.array(table, dtype=float)
            value = (rows[:, 0].astype(int) + s, rows[:, 1], rows[:, 2:].astype(int))
            first = [_partial(*value, x) for x in range(3)]
            parts = [value, *first, *(_partial(*first[x], y) for x in range(3) for y in range(x, 3))]
            groups.append(_groups(*(np.concatenate(a) for a in zip(*((10 * t + k, c, p) for k, (t, c, p) in enumerate(parts))))))
        outs, afds, cds, coefs = zip(*groups)
        self.cd, cd = _products(np.concatenate(cds))
        self.afd, self.weights = _products(np.concatenate(afds))
        # One product per generated table: its coefficients, its rows of self.cd, its groups' rows of a call's sums.
        cd = np.split(cd, np.cumsum([len(x) for x in cds])[:-1])
        runs = np.cumsum([0] + [len(x) for x in outs]).tolist()
        self.products = list(zip(coefs, cd, map(slice, runs, runs[1:])))
        self.group_out = np.concatenate(outs)[:, None]

    def __call__(self, L, G, H, e):
        """(value, gradient, Hessian) of every term at momenta of one shape,
        as (terms,) + shape, (terms, 3) + shape and (terms, 3, 3) + shape; the
        Hessian is exactly symmetric.  e is the momenta's eccentricity
        `eccentricity_from_momenta(L, G)`, which the caller has in hand."""
        L, G, H, e = (np.asarray(x, dtype=float) for x in (L, G, H, e))
        flat = [x.ravel() for x in (L, G, H, e)]
        out = np.empty((10 * self.terms, L.size))
        for k in range(0, L.size, _BLOCK):
            out[:, k : k + _BLOCK] = self._outputs(*(x[k : k + _BLOCK] for x in flat))
        out = out.reshape((self.terms, 10) + L.shape)
        return out[:, 0], out[:, 1:4], out[:, _HESSIAN]

    def _outputs(self, L, G, H, e):
        n = len(L)
        x = G / L
        monomials = _evaluate((x, H / L), self.cd)
        sums = np.empty((len(self.group_out), n))
        for coefs, cd, rows in self.products:
            np.matmul(coefs, monomials[cd], out=sums[rows])
        sums *= _evaluate((e, 1.0 / (1.0 + x), L), self.afd)[self.weights]
        return np.bincount((self.group_out * n + np.arange(n)).ravel(), sums.ravel(), 10 * self.terms * n).reshape(-1, n)


def _generator(*names):
    """The named generators' table; its angle basis: p, k and m as (terms, 1)
    float columns, the phase p pi/2, the mask p == 1 of the terms linear in
    nu - l, and the products -p, -k k, p m, k m, -p m, -m m its derivatives
    take; and each term's order index, 0 for S1 and 1 for S2."""
    table = MonomialTable(*(getattr(_secondorder, f"{n}_MONOMIALS") for n in names))
    p, k, m = np.array(sum((getattr(_secondorder, f"{n}_BASIS") for n in names), ()), dtype=float).T[:, :, None]
    basis = (p, k, m, 0.5 * np.pi * p, p == 1, -p, -k * k, p * m, k * m, -p * m, -m * m)
    return table, basis, np.repeat(np.arange(len(names)), table.sizes)


_GENERATORS = (_generator("S1"), _generator("S1", "S2"))  # indexed by theory order - 1
_MEAN = MonomialTable(_secondorder.K2_MONOMIALS, _secondorder.C2_MONOMIALS)  # terms k2, c2
