"""Mean <-> osculating canonical map.

The mixed-variable generator S(P, q) = P.q + J2*S1(P, q) + J2^2*S2(P, q)
defines the map implicitly through p = dS/dq, Q = dS/dP.  The forward
direction solves for the osculating angles q given (P, Q); the inverse
solves for the mean momenta P given (p, q).  Both are Newton iterations on
the exact S_qP block of the closed-form generator, run over (3, N) arrays
of states with one batched linear solve per step; a single state is the
N = 1 case.  The other half of each output (p = P + S_q forward, Q = q +
S_P inverse) comes from each column's last Newton evaluation plus one
Hessian step (S_qq or S_PP) over the Newton step taken after it, so no
evaluation is made at the solution.  The map's own Jacobian is assembled
from the second derivatives of S at the solved (P, q) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vonzeipel as vz
from .domain import CHAIN_FLOOR, ORDERS, check_j2, near_circular_bound
from .elements import DelaunayState, PhysicalModel, eccentricity_from_momenta
from .errors import DomainError, MapError, describe
from .symplectic import generating_jacobian, symplectic_inverse

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 25


def momentum_scale(model: PhysicalModel) -> float:
    """sqrt(mu R): Delaunay momenta in these units are O(1) for low orbits."""
    return math.sqrt(model.mu * model.R)


def _map_error(why, state, step):
    """MapError naming the reason, the input state (L, G, H, l, g, h) and the
    last scaled Newton step (nan before the first)."""
    return MapError(f"{why}; input {describe('LGHlgh', state)}; last scaled step {step:.3e}")


def _eye(k):
    """(3, 3, k): one identity matrix per column."""
    return np.repeat(np.eye(3)[:, :, None], k, axis=2)


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
        self.series = GeneratingSeries(model, order)

    # -- Newton driver --------------------------------------------------------

    def _solve(self, system, x0, scale, start):
        """Newton iteration for F(x) = 0 on the columns of x0, (3, N).

        system(x, run) gets the whole iterate and the (N,) mask of running
        columns, and returns F, (3, N), dF/dx, (3, 3, N), the momenta's e,
        broadcasting to (N,), and the generator gradient y, (3, N), that the
        map adds to its fixed half, with dy/dx, (3, 3, N), all valid on the
        `run` columns; F is nan where e is below CHAIN_FLOOR, the iterate
        having left the Delaunay chart.  One batched solve steps the running
        columns; a column stops when its own scaled step first falls to
        NEWTON_TOL, as a lone solve would, so its iterate and count do not
        depend on the batch.  A column's y is that of its last evaluation
        plus dy/dx times the step taken after it, good to O(step^2), so
        nothing is evaluated at the solution.  Returns x, y and the
        iterations per column.  Any failure raises MapError naming the first
        failing column's input state (its column of `start`) and its last
        scaled step (nan before its first step).
        """
        x = x0.copy()
        n = x.shape[1]
        its = np.zeros(n, dtype=int)
        step, e_broke = np.full((2, n), math.nan)
        run, broke = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)  # broke: F non-finite
        y = np.zeros_like(x)
        for it in range(1, NEWTON_MAXITER + 1):
            if not run.any():
                break
            F, jac, e, y_it, dy_it = system(x, run)
            bad = run & ~np.isfinite(F).all(axis=0)
            if bad.any():
                broke |= bad
                e_broke[bad] = np.broadcast_to(e, n)[bad]
                run &= ~bad
            x_run = x[:, run]
            x[:, run] = x_run + np.linalg.solve(jac[..., run].transpose(2, 0, 1), -F[:, run].T[..., None])[..., 0].T
            step[run] = np.abs(F[:, run] / scale[:, run]).max(axis=0)
            its[run] = it
            done = run & (step <= NEWTON_TOL)  # this evaluation was the column's last
            # The step as taken in floats, so that y is the evaluation at the returned x to O(step^2).
            dx = x[:, done] - x_run[:, done[run]]
            y[:, done] = y_it[:, done] + np.einsum("ijn,jn->in", dy_it[..., done], dx)
            run &= ~done
        for col in np.flatnonzero(broke | run)[:1]:
            why = f"no convergence in {NEWTON_MAXITER} iterations"
            if e_broke[col] < CHAIN_FLOOR:
                why = f"iterate left the Delaunay chart: e = {e_broke[col]:.3e} below the chain-rule floor {CHAIN_FLOOR}"
            elif broke[col]:
                why = "residual became non-finite"
            raise _map_error(why, start[:, col], step[col])
        return x, y, its

    def _refuse(self, start):
        """Raise MapError for the first column of `start` with e at or below
        the near-circular bound, before any generator is built."""
        e = eccentricity_from_momenta(start[0], start[1])
        bound = near_circular_bound(start[0], self.model)
        bad = np.flatnonzero(e <= bound)
        if bad.size:
            col = bad[0]
            why = f"map left the admissible domain: e = {e[col]:.3e} is not above |J2| (R/a)^2 = {bound[col]:.3e}"
            raise _map_error(why, start[:, col], math.nan)

    # -- the map ------------------------------------------------------------

    def mean_to_osculating_batch(self, P, Q):
        """Osculating momenta and angles, both (3, N), and the Newton
        iterations of each column, for mean momenta P and mean angles Q,
        (3, N).  P is (3, N), one column per sample, or one 3-vector shared
        by every column; either way one generator serves every step."""
        P = np.asarray(P, dtype=float).reshape(3, -1)
        Q = np.asarray(Q, dtype=float)
        p = np.broadcast_to(P, Q.shape).copy()
        if self.model.j2 == 0.0:
            return p, Q.copy(), np.zeros(Q.shape[1], dtype=int)
        start = np.vstack([p, Q])
        self._refuse(start)
        generator = self.series.at(P)

        def system(q, run):
            _, grad, hess = generator.derivatives(q[0], q[1])
            jac = _eye(q.shape[1])
            jac[:, :2] += hess[:3, 3:]
            s_q = np.zeros_like(q)  # (S_l, S_g, 0): p = P + s_q
            s_q[:2] = grad[3:]
            s_qq = np.zeros_like(jac)
            s_qq[:2, :2] = hess[3:, 3:]
            return q + grad[:3] - Q, jac, generator.e, s_q, s_qq

        q, s_q, its = self._solve(system, Q, np.ones_like(Q), start)
        p[:2] += s_q[:2]
        return p, q, its

    def osculating_to_mean_batch(self, p, q):
        """Mean momenta and angles, both (3, N), and the Newton iterations
        of each column, for osculating momenta p and angles q, (3, N)."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self.model.j2 == 0.0:
            return p.copy(), q.copy(), np.zeros(p.shape[1], dtype=int)
        start = np.vstack([p, q])
        self._refuse(start)

        def system(P, run):
            e = eccentricity_from_momenta(P[0], P[1])
            live = run & (e >= CHAIN_FLOOR)  # the generator is built on these columns only
            _, grad, hess = self.series.at(P[:, live]).derivatives(q[0, live], q[1, live])
            F = np.full_like(P, math.nan)
            F[:, live] = P[:, live] - p[:, live]
            F[:2, live] += grad[3:]
            jac = _eye(P.shape[1])
            jac[:2, :, live] += hess[3:, :3]
            s_P = np.zeros_like(P)  # Q = q + s_P
            s_P[:, live] = grad[:3]
            s_PP = np.zeros_like(jac)
            s_PP[..., live] = hess[:3, :3]
            return F, jac, e, s_P, s_PP

        P, s_P, its = self._solve(system, p, np.maximum(1.0, np.abs(p)), start)
        return P, q + s_P, its

    def mean_to_osculating(self, mean: DelaunayState, return_info=False):
        """One state: the N = 1 case of `mean_to_osculating_batch`."""
        osc, its = mean, 0
        if self.model.j2 != 0.0:
            p, q, its = self.mean_to_osculating_batch(mean.momenta, mean.angles[:, None])
            osc, its = DelaunayState(*p[:, 0], *q[:, 0]), int(its[0])
        return (osc, {"iterations": its}) if return_info else osc

    def osculating_to_mean(self, osc: DelaunayState, return_info=False):
        """One state: the N = 1 case of `osculating_to_mean_batch`."""
        mean, its = osc, 0
        if self.model.j2 != 0.0:
            P, Q, its = self.osculating_to_mean_batch(osc.momenta[:, None], osc.angles[:, None])
            mean, its = DelaunayState(*P[:, 0], *Q[:, 0]), int(its[0])
        return (mean, {"iterations": its}) if return_info else mean

    # -- derived linear objects ----------------------------------------------

    def map_jacobian(self, at: DelaunayState, direction="mean_to_osculating", scaled=False):
        """Jacobian of the map at `at`, assembled from the generator's exact
        Hessian blocks (S_qP, S_qq, S_PP) at the (P, q) pair the map solves
        for.

        The matrix is built in momentum units of sqrt(mu R), where all six
        variables are O(1); `scaled=True` returns it as is (itself
        symplectic, since the unit change has block-diagonal Jacobian T with
        T J T^t proportional to J), `scaled=False` converts back to km^2/s
        momenta.  The inverse direction is the symplectic inverse of the
        forward matrix at the same (P, q).
        """
        if direction == "mean_to_osculating":
            P, q = at.momenta, self.mean_to_osculating(at).angles
        elif direction == "osculating_to_mean":
            P, q = self.osculating_to_mean(at).momenta, at.angles
        else:
            raise DomainError(f"unknown direction {direction!r}")
        _, _, hess = self.series.at(P).derivatives(q[0], q[1])
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
