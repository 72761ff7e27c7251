"""Mean <-> osculating canonical map.

The mixed-variable generator S(P, q) = P.q + J2*S1(P, q) + J2^2*S2(P, q)
defines the map implicitly through p = dS/dq, Q = dS/dP.  The forward
direction solves for the osculating angles q given (P, Q); the inverse
solves for the mean momenta P given (p, q).  S has no h term (the field is
axisymmetric), so h is cyclic and H is conserved: each direction is a
Newton iteration in the two unknowns S depends on, (l, g) forward and
(L, G) inverse, on the exact S_qP block of the closed-form generator, run
over (2, N) arrays of states; a single state is the N = 1 case.  The third
unknown is written out from the solution: h = Q_h - S_H forward, H = p_H
inverse.  The other half of each output (p = P + S_q forward, Q = q + S_P
inverse) and h come from each column's last Newton evaluation plus one
Hessian step over the Newton step taken after it, so no evaluation is made
at the solution.  The map's own Jacobian is assembled from the second
derivatives of S that the same last evaluation computed, one Newton step
from the solved (P, q) pair: it is the exact Jacobian at an input that
differs from the given one by that evaluation's residual, at most
NEWTON_TOL in scaled units.  Forward the step is in the angles and the
matrix moves from the one at the pair by round-off; inverse it is in
(L, G), where the Hessian varies as 1/e^2 with L - G, so the Jacobian
evaluates it again at the pair when the step moves L - G by more than
STALE_REL of itself.  A forward image past e = 0 (G > L) is a MapError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vonzeipel as vz
from .domain import CHAIN_FLOOR, ORDERS, check_j2, check_zonal, near_circular_bound
from .elements import DelaunayState, PhysicalModel, eccentricity_from_momenta
from .errors import DomainError, MapError, describe
from .symplectic import generating_jacobian, symplectic_inverse

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 25
STALE_REL = 1e-13  # inverse: a last step moving L - G by more than this of itself leaves the Hessian stale


def momentum_scale(model: PhysicalModel) -> float:
    """sqrt(mu R): Delaunay momenta in these units are O(1) for low orbits."""
    return math.sqrt(model.mu * model.R)


def _map_error(why, state, step):
    """MapError naming the reason, the input state (L, G, H, l, g, h) and the
    last scaled Newton step (nan before the first)."""
    return MapError(f"{why}; input {describe('LGHlgh', state)}; last scaled step {step:.3e}")


def newton_step(F, J):
    """The step dx with (I + J) dx = -F, column by column, for F (2, n) and
    J (2, 2, n): a closed-form 2x2 solve."""
    a, b, c, d = 1.0 + J[0, 0], J[0, 1], J[1, 0], 1.0 + J[1, 1]
    det = a * d - b * c
    return np.array([(b * F[1] - d * F[0]) / det, (c * F[0] - a * F[1]) / det])


@dataclass(frozen=True)
class GeneratingSeries:
    """The non-trivial part of S, i.e. S - P.q, in closed form."""

    model: PhysicalModel
    order: int = 2

    def __post_init__(self):
        if self.order not in ORDERS:
            raise DomainError(f"order must be one of {ORDERS}")

    def at(self, P):
        """J2*S1 (+ J2^2*S2) at momenta P: one 3-vector, or (3, N) columns."""
        j2 = self.model.j2
        return vz.ClosedFormGenerator(*np.asarray(P, dtype=float), self.model, (j2, j2 * j2)[: self.order])

    def grad_q(self, P, q):
        """(dS/dl, dS/dg) minus the P.q part; dS/dh vanishes."""
        return self.at(P).derivatives(q[0], q[1])[1][3:]

    def grad_P(self, P, q):
        """(dS/dL, dS/dG, dS/dH) minus the P.q part, at one state or at
        (3, N) columns of momenta and angles.  Not used by the map, which
        takes S_P from its Newton evaluations; kept for the tests and the
        benchmark's tracer."""
        return self.at(P).derivatives(q[0], q[1])[1][:3]


class CanonicalMap:
    """Osculating (p, q) <-> mean (P, Q) Delaunay map at J2 = model.j2.

    Each direction solves N states at once, as (3, N) arrays of momenta and
    angles; the single-state methods are its N = 1 case."""

    def __init__(self, model: PhysicalModel, order=2):
        self.model = model
        check_j2(model.j2)
        check_zonal(model.zonal)
        self.series = GeneratingSeries(model, order)

    # -- Newton driver --------------------------------------------------------

    def _solve(self, system, x0, scale, start):
        """Newton iteration for F(x) = 0 on the columns of x0, (2, N): the two
        unknowns S depends on, (l, g) forward or (L, G) inverse.

        system(x, run) gets the whole iterate and the running columns: a slice
        of them all, so that the iteration works on whole arrays, until one
        stops or breaks, and then their index array.  On those n columns it
        returns F, (2, n), its Newton step, (2, n), the momenta's e, (n,),
        three rows of the generator gradient y, (3, n), from which the map
        writes out its other outputs, with dy/dx, (3, 2, n), and the generator
        Hessian, (5, 5, n); F is nan where e is below CHAIN_FLOOR, the iterate
        having left the Delaunay chart.  A column stops when its own scaled
        step first falls to NEWTON_TOL, as a lone solve would, so its iterate
        and count do not depend on the batch.  A column's y is that of its
        last evaluation plus dy/dx times the step taken after it, good to
        O(step^2), so nothing is evaluated at the solution; its Hessian is
        that of its last evaluation.  Returns x, (2, N), y, (3, N), the
        Hessians, (5, 5, N), the iterations per column and the step each
        column took after its last evaluation, (2, N).  Any failure
        raises MapError naming the first failing column's input state (its
        column of `start`) and its last scaled step (nan before its first
        step).
        """
        n = x0.shape[1]
        x, y, hess, last = x0.copy(), np.zeros((3, n)), np.zeros((5, 5, n)), np.zeros((2, n))
        its, broke = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)  # broke: F non-finite
        step, e_broke = np.full((2, n), math.nan)
        run, left = slice(None), n  # every column, as whole arrays, until one stops or breaks
        for it in range(1, NEWTON_MAXITER + 1):
            if not left:
                break
            F, dx, e, y_it, dy_it, hess_it = system(x, run)
            s = np.abs(F / scale[:, run]).max(axis=0)
            ok, done = np.isfinite(s), s <= NEWTON_TOL  # done: this evaluation was the column's last
            x_run = x[:, run]
            x_new = x_run + dx
            if done.any():  # y and the Hessian on every running column; each keeps those of its last evaluation
                # The step as taken in floats, so that y is the evaluation at the returned x to O(step^2).
                taken = x_new - x_run
                y[:, run] = y_it + np.einsum("ijn,jn->in", dy_it, taken)
                hess[..., run], last[:, run] = hess_it, taken
            x[:, run], its[run] = x_new, it
            if not ok.all():  # a non-finite F: the column breaks, keeping its last step
                cols = np.arange(n)[run][~ok]
                broke[cols], e_broke[cols], s[~ok] = True, e[~ok], step[cols]
            step[run] = s
            if done.any() or not ok.all():  # go on over the index array of the columns still running
                run = np.arange(n)[run][ok & ~done]
                left = run.size
        for col in np.flatnonzero(~(step <= NEWTON_TOL))[:1]:  # broken or unconverged: last step above the tolerance or nan
            why = f"no convergence in {NEWTON_MAXITER} iterations"
            if e_broke[col] < CHAIN_FLOOR:
                why = f"iterate left the Delaunay chart: e = {e_broke[col]:.3e} below the chain-rule floor {CHAIN_FLOOR}"
            elif broke[col]:
                why = "residual became non-finite"
            raise _map_error(why, start[:, col], step[col])
        return x, y, hess, its, last

    def _refuse(self, start):
        """Raise MapError for the first column of `start` that holds a
        non-finite momentum or angle, then for the first with e at or below
        the near-circular bound, before any generator is built."""
        for col in np.flatnonzero(~np.isfinite(start).all(axis=0))[:1]:
            raise _map_error("input is not finite", start[:, col], math.nan)
        e = eccentricity_from_momenta(start[0], start[1])
        bound = near_circular_bound(start[0], self.model)
        for col in np.flatnonzero(e <= bound)[:1]:
            why = f"map left the admissible domain: e = {e[col]:.3e} is not above |J2| (R/a)^2 = {bound[col]:.3e}"
            raise _map_error(why, start[:, col], math.nan)

    # -- the map ------------------------------------------------------------

    def _mean_to_osculating(self, P, Q):
        """`mean_to_osculating_batch` plus, per column, the generator Hessian
        of the Newton solve's last evaluation, (5, 5, N), and the step after
        it, (2, N); zero at J2 = 0.  An image with G > L raises MapError."""
        P = np.asarray(P, dtype=float).reshape(3, -1)
        Q = np.asarray(Q, dtype=float)
        p = np.broadcast_to(P, Q.shape).copy()
        if self.model.j2 == 0.0:
            return p, Q.copy(), np.zeros(Q.shape[1], dtype=int), np.zeros((5, 5, Q.shape[1])), np.zeros((2, Q.shape[1]))
        start = np.vstack([p, Q])
        self._refuse(start)
        generator = self.series.at(P)
        e = np.broadcast_to(generator.e, Q.shape[1:])

        def system(q, run):
            _, grad, hess = generator.derivatives(q[0], q[1])  # every column: the momenta are bound per column
            grad, hess = grad[:, run], hess[..., run]
            F = q[:, run] + grad[:2] - Q[:2, run]
            return F, newton_step(F, hess[:2, 3:]), e[run], grad[2:], hess[2:, 3:], hess  # h = Q_h - S_H, p = P + (S_l, S_g, 0)

        q, y, hess, its, last = self._solve(system, Q[:2], np.ones((2, Q.shape[1])), start)
        p[:2] += y[1:]
        for col in np.flatnonzero(p[1] > p[0])[:1]:  # the short-period e oscillation carried the image past e = 0
            why = f"osculating image left the Delaunay chart: G - L = {p[1, col] - p[0, col]:+.3e} from e = {e[col]:.3e}"
            bound = near_circular_bound(start[0, col], self.model)
            raise _map_error(f"{why}, near |J2| (R/a)^2 = {bound:.3e}", start[:, col], np.abs(last[:, col]).max())
        return p, np.vstack([q, Q[2] - y[0]]), its, hess, last

    def _osculating_to_mean(self, p, q):
        """`osculating_to_mean_batch` plus, per column, the generator Hessian
        of the Newton solve's last evaluation, (5, 5, N), and the step after
        it, (2, N); zero at J2 = 0, where nothing is built."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self.model.j2 == 0.0:
            return p.copy(), q.copy(), np.zeros(p.shape[1], dtype=int), np.zeros((5, 5, p.shape[1])), np.zeros((2, p.shape[1]))
        start = np.vstack([p, q])
        self._refuse(start)

        def system(P, run):
            P, angles = P[:, run], q[:, run]
            e = eccentricity_from_momenta(P[0], P[1])
            # The generator is built on the running columns only, at H = p_H; off the chart, on nan momenta.
            momenta = np.where(e >= CHAIN_FLOOR, np.vstack([P, p[2, run]]), math.nan)
            _, grad, hess = self.series.at(momenta).derivatives(angles[0], angles[1])
            F = P - p[:2, run] + grad[3:]
            return F, newton_step(F, hess[3:, :2]), e, grad[:3], hess[:3, :2], hess  # Q = q + S_P

        P, s_P, hess, its, last = self._solve(system, p[:2], np.maximum(1.0, np.abs(p[:2])), start)
        return np.vstack([P, p[2]]), q + s_P, its, hess, last

    def mean_to_osculating_batch(self, P, Q):
        """Osculating momenta and angles, both (3, N), and the Newton
        iterations of each column, for mean momenta P and mean angles Q,
        (3, N).  P is (3, N), one column per sample, or one 3-vector shared
        by every column; either way one generator serves every step."""
        return self._mean_to_osculating(P, Q)[:3]

    def osculating_to_mean_batch(self, p, q):
        """Mean momenta and angles, both (3, N), and the Newton iterations
        of each column, for osculating momenta p and angles q, (3, N)."""
        return self._osculating_to_mean(p, q)[:3]

    def _one(self, solve, state: DelaunayState):
        """The N = 1 case of a direction's solve: the image of `state` as a
        DelaunayState of Python floats, its Newton iterations, its
        last-evaluation Hessian, (5, 5), and the step taken after that
        evaluation, (2,)."""
        x, y, its, hess, last = solve(state.momenta[:, None], state.angles[:, None])
        return DelaunayState(*x[:, 0].tolist(), *y[:, 0].tolist()), int(its[0]), hess[..., 0], last[:, 0]

    def mean_to_osculating(self, mean: DelaunayState, return_info=False):
        """One state: the N = 1 case of `mean_to_osculating_batch`."""
        osc, its = self._one(self._mean_to_osculating, mean)[:2]
        return (osc, {"iterations": its}) if return_info else osc

    def osculating_to_mean(self, osc: DelaunayState, return_info=False):
        """One state: the N = 1 case of `osculating_to_mean_batch`."""
        mean, its = self._one(self._osculating_to_mean, osc)[:2]
        return (mean, {"iterations": its}) if return_info else mean

    # -- derived linear objects ----------------------------------------------

    def map_jacobian(self, at: DelaunayState, direction="mean_to_osculating", scaled=False):
        """Jacobian of the map at `at`, assembled from the generator's exact
        Hessian blocks (S_qP, S_qq, S_PP) that the map's own Newton solve
        evaluated last.  That evaluation is one Newton step from the solved
        (P, q) pair, so the matrix is the exact one at an input within
        NEWTON_TOL (scaled) of `at`.  Forward the step is in the angles and
        the matrix differs from the one at the pair by round-off.  Inverse
        the step is in (L, G), and S's second derivatives vary as 1/e^2 with
        L - G: where the step moved L - G by more than STALE_REL of itself,
        the Hessian is taken from one more evaluation, at the solved pair,
        so the matrix is within a few STALE_REL of the one at the pair.  At
        J2 = 0 the Hessian is zero and the matrix the identity.

        The matrix is built in momentum units of sqrt(mu R), where all six
        variables are O(1); `scaled=True` returns it as is (itself
        symplectic, since the unit change has block-diagonal Jacobian T with
        T J T^t proportional to J), `scaled=False` converts back to km^2/s
        momenta.  The inverse direction is the symplectic inverse of the
        forward matrix at the same (P, q).
        """
        solve = {"mean_to_osculating": self._mean_to_osculating,
                 "osculating_to_mean": self._osculating_to_mean}.get(direction)
        if solve is None:
            raise DomainError(f"unknown direction {direction!r}")
        image, _, hess, last = self._one(solve, at)
        if direction == "osculating_to_mean" and abs(last[0] - last[1]) > STALE_REL * (image.L - image.G):
            hess = self.series.at(image.momenta).derivatives(at.l, at.g)[2]
        s = momentum_scale(self.model)
        # S has no h-terms (the field is axisymmetric): the h rows are zero.
        A = np.eye(3)
        A[:2] += hess[3:, :3]
        B = np.zeros((3, 3))
        B[:2, :2] = hess[3:, 3:] / s
        M = generating_jacobian(A, B, hess[:3, :3] * s)
        if direction == "osculating_to_mean":
            M = symplectic_inverse(M)
        if not scaled:
            M[:3, 3:] *= s
            M[3:, :3] /= s
        return M
