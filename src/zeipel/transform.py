"""Mean <-> osculating canonical map.

The mixed-variable generator S(P, q) = P.q + J2*S1(P, q) + J2^2*S2(P, q)
defines the map implicitly through p = dS/dq, Q = dS/dP.  The forward
direction solves for the osculating angles q given (P, Q); the inverse
solves for the mean momenta P given (p, q).  Both are damped-free Newton
iterations with a frozen first-order Jacobian.  The map's own Jacobian is
assembled from the second derivatives of S at the solved (P, q) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vonzeipel as vz
from .elements import DelaunayState, PhysicalModel
from .errors import DomainError, MapError
from .symplectic import generating_jacobian, symplectic_inverse

FD_REL = 1e-6
J2_GUARD = 0.01
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 25


def momentum_scale(model: PhysicalModel) -> float:
    """sqrt(mu R): Delaunay momenta in these units are O(1) for low orbits."""
    return math.sqrt(model.mu * model.R)


def _momentum_step(P, k, model: PhysicalModel):
    """Central-difference step in momentum P[k]: FD_REL relative to |P[k]|,
    floored at sqrt(mu R) so that H near 0 gets no tiny step, and capped so
    that L >= G stays true at the probe points."""
    h = FD_REL * max(momentum_scale(model), abs(P[k]))
    room = 0.25 * (P[0] - P[1])
    if k in (0, 1) and room > 0.0:
        h = min(h, room)
    return max(h, 1e-300)


def _describe(state: DelaunayState):
    return ", ".join(f"{name}={float(getattr(state, name))!r}" for name in "LGHlgh")


@dataclass(frozen=True)
class GeneratingSeries:
    """Gradients of the non-trivial part of S, i.e. S - P.q."""

    model: PhysicalModel
    order: int = 2

    def __post_init__(self):
        if self.order not in (1, 2):
            raise DomainError("order must be 1 or 2")

    def grad_q(self, P, q, j2):
        """(dS/dl, dS/dg, dS/dh) minus the P.q part.  dS/dh = 0 throughout:
        the field is axisymmetric."""
        L, G, H = P
        l, g = q[0], q[1]
        out = j2 * np.array([
            vz.ds1_dl(L, G, H, l, g, self.model),
            vz.ds1_dg(L, G, H, l, g, self.model),
            0.0,
        ])
        if self.order == 2:
            tab = vz.second_order_tables(L, G, H, self.model)
            out += j2 * j2 * np.array([tab.dl(l, g), tab.dg(l, g), 0.0])
        return out

    def grad_P(self, P, q, j2):
        """(dS/dL, dS/dG, dS/dH) minus the P.q part.  The S2 term is a
        central difference over rebuilt coefficient tables."""
        L, G, H = P
        l, g = q[0], q[1]
        out = j2 * vz.ds1_dP(L, G, H, l, g, self.model)
        if self.order == 2:
            fd = np.zeros(3)
            for k in range(3):
                h = _momentum_step(P, k, self.model)
                hi = P.copy()
                lo = P.copy()
                hi[k] += h
                lo[k] -= h
                up = vz.second_order_tables(hi[0], hi[1], hi[2], self.model).value(l, g)
                dn = vz.second_order_tables(lo[0], lo[1], lo[2], self.model).value(l, g)
                fd[k] = (up - dn) / (2.0 * h)
            out += j2 * j2 * fd
        return out


class CanonicalMap:
    """Osculating (p, q) <-> mean (P, Q) Delaunay map at a fixed J2."""

    def __init__(self, model: PhysicalModel, j2=None, order=2):
        self.model = model
        self.j2 = model.j2 if j2 is None else float(j2)
        if abs(self.j2) >= J2_GUARD:
            raise DomainError(f"|J2| = {abs(self.j2):.3e} exceeds the {J2_GUARD} guard")
        self.series = GeneratingSeries(model, order)
        self.order = order

    # -- Newton drivers -----------------------------------------------------

    def _solve(self, residual, jac_at, x0, scale, start, image):
        """Newton iteration for residual(x) = 0 from x0; returns (image(x),
        iterations).  Any failure raises MapError naming the input state
        `start` and the last scaled step (nan before the first step)."""
        x = x0.copy()
        step = math.nan
        polish = False
        try:
            for its in range(1, NEWTON_MAXITER + 1):
                F = residual(x)
                if not np.all(np.isfinite(F)):
                    why = "residual became non-finite"
                    break
                x = x + np.linalg.solve(jac_at(x), -F)
                if polish:
                    return image(x), its
                step = np.abs(F / scale).max()
                if step <= NEWTON_TOL:
                    polish = True  # one extra pass sharpens the FD-Jacobian limit
            else:
                why = f"no convergence in {NEWTON_MAXITER} iterations"
        except DomainError as exc:
            why = f"map left the admissible domain: {exc}"
        raise MapError(f"{why}; input {_describe(start)}; last scaled step {step:.3e}")

    def _jac_angles(self, P, q):
        """I + J2 * d(dS1/dP)/d(l,g), frozen quasi-Newton matrix."""
        L, G, H = P
        jac = np.eye(3)
        for col, h in ((0, FD_REL), (1, FD_REL)):
            qp, qm = q.copy(), q.copy()
            qp[col] += h
            qm[col] -= h
            dcol = (
                vz.ds1_dP(L, G, H, qp[0], qp[1], self.model)
                - vz.ds1_dP(L, G, H, qm[0], qm[1], self.model)
            ) / (2.0 * h)
            jac[:, col] += self.j2 * dcol
        return jac

    # -- the map ------------------------------------------------------------

    def mean_to_osculating(self, mean: DelaunayState, return_info=False):
        P = mean.momenta
        Q = mean.angles
        if self.j2 == 0.0:
            return (mean, {"iterations": 0}) if return_info else mean
        osc, its = self._solve(
            lambda qq: qq + self.series.grad_P(P, qq, self.j2) - Q,
            lambda qq: self._jac_angles(P, qq),
            Q,
            np.ones(3),
            mean,
            lambda q: DelaunayState(*(P + self.series.grad_q(P, q, self.j2)), *q),
        )
        return (osc, {"iterations": its}) if return_info else osc

    def osculating_to_mean(self, osc: DelaunayState, return_info=False):
        p = osc.momenta
        q = osc.angles
        if self.j2 == 0.0:
            return (osc, {"iterations": 0}) if return_info else osc
        mean, its = self._solve(
            lambda PP: PP + self.series.grad_q(PP, q, self.j2) - p,
            lambda PP: self._jac_angles(PP, q).T,  # mixed partials commute
            p,
            np.maximum(1.0, np.abs(p)),
            osc,
            lambda P: DelaunayState(*P, *(q + self.series.grad_P(P, q, self.j2))),
        )
        return (mean, {"iterations": its}) if return_info else mean

    # -- derived linear objects ----------------------------------------------

    def _hessian_blocks(self, P, q, shrink):
        """(A, B, C) = (S_qP, S_qq, S_PP) of the full generator by central
        differences of its gradients, with every step divided by `shrink`.
        S does not depend on h, so only l and g are differenced."""
        grad_P, grad_q, j2 = self.series.grad_P, self.series.grad_q, self.j2
        At = np.eye(3)  # transpose of A, from the angle columns of grad_P
        B = np.zeros((3, 3))
        C = np.zeros((3, 3))
        h = FD_REL / shrink
        for k in (0, 1):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            At[:, k] += (grad_P(P, qp, j2) - grad_P(P, qm, j2)) / (2.0 * h)
            B[:, k] = (grad_q(P, qp, j2) - grad_q(P, qm, j2)) / (2.0 * h)
        for k in range(3):
            hk = _momentum_step(P, k, self.model) / shrink
            hi, lo = P.copy(), P.copy()
            hi[k] += hk
            lo[k] -= hk
            C[:, k] = (grad_P(hi, q, j2) - grad_P(lo, q, j2)) / (2.0 * hk)
        return At.T, B, C

    def map_jacobian(self, at: DelaunayState, direction="mean_to_osculating", scaled=False):
        """Jacobian of the map at `at`, assembled from the generator's
        Hessian blocks at the (P, q) pair the map solves for.

        The blocks take one Richardson pass over central differences.  The
        matrix is built in momentum units of sqrt(mu R), where all six
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
        coarse = self._hessian_blocks(P, q, 1.0)
        fine = self._hessian_blocks(P, q, 2.0)
        A, B, C = ((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))
        s = momentum_scale(self.model)
        M = generating_jacobian(A, 0.5 * (B + B.T) / s, 0.5 * (C + C.T) * s)
        if direction == "osculating_to_mean":
            M = symplectic_inverse(M)
        if not scaled:
            M[:3, 3:] *= s
            M[3:, :3] /= s
        return M


def first_order_displacement(mean: DelaunayState, model: PhysicalModel, j2):
    """Leading-order osc minus mean offset predicted by the generator:
    (J2 dS1/dq, -J2 dS1/dP) at the mean point."""
    L, G, H = mean.momenta
    l, g = mean.l, mean.g
    dq = np.array([
        vz.ds1_dl(L, G, H, l, g, model),
        vz.ds1_dg(L, G, H, l, g, model),
        0.0,
    ])
    dP = vz.ds1_dP(L, G, H, l, g, model)
    return np.concatenate([j2 * dq, -j2 * dP])
