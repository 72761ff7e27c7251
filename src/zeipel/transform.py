"""Mean <-> osculating canonical map.

The mixed-variable generator S(P, q) = P.q + J2*S1(P, q) + J2^2*S2(P, q)
defines the map implicitly through p = dS/dq, Q = dS/dP.  The forward
direction solves for the osculating angles q given (P, Q); the inverse
solves for the mean momenta P given (p, q).  Both are Newton iterations on
the exact S_qP block of the closed-form generator.  The map's own Jacobian
is assembled from the second derivatives of S at the solved (P, q) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vonzeipel as vz
from .elements import DelaunayState, PhysicalModel
from .errors import DomainError, MapError
from .hamiltonian import eccentricity_from_momenta
from .symplectic import generating_jacobian, symplectic_inverse

J2_GUARD = 0.01
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 25


def momentum_scale(model: PhysicalModel) -> float:
    """sqrt(mu R): Delaunay momenta in these units are O(1) for low orbits."""
    return math.sqrt(model.mu * model.R)


def _describe(state: DelaunayState):
    return ", ".join(f"{name}={float(getattr(state, name))!r}" for name in "LGHlgh")


def _derivatives(generator, q):
    """Gradient and Hessian of S - P.q in (L, G, H, l, g, h) at angles q.
    Nothing depends on h: the field is axisymmetric."""
    _, grad, hess = generator.derivatives(q[0], q[1])
    return np.append(grad, 0.0), np.pad(hess, (0, 1))


@dataclass(frozen=True)
class GeneratingSeries:
    """The non-trivial part of S, i.e. S - P.q, in closed form."""

    model: PhysicalModel
    order: int = 2

    def __post_init__(self):
        if self.order not in (1, 2):
            raise DomainError("order must be 1 or 2")

    def at(self, P, j2):
        """J2*S1 (+ J2^2*S2) at momenta P."""
        return vz.ClosedFormGenerator(*P, self.model, (j2, j2 * j2 if self.order == 2 else 0.0))

    def grad_q(self, P, q, j2):
        """(dS/dl, dS/dg, dS/dh) minus the P.q part."""
        return _derivatives(self.at(P, j2), q)[0][3:]

    def grad_P(self, P, q, j2):
        """(dS/dL, dS/dG, dS/dH) minus the P.q part."""
        return _derivatives(self.at(P, j2), q)[0][:3]


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

    def _solve(self, system, x0, scale, start, image):
        """Newton iteration for F(x) = 0 from x0, where system(x) returns
        (F, dF/dx); returns (image(x), iterations).  Any failure raises
        MapError naming the input state `start` and the last scaled step
        (nan before the first step)."""
        x = x0.copy()
        step = math.nan
        try:
            self._check_eccentricity(start)
            for its in range(1, NEWTON_MAXITER + 1):
                F, jac = system(x)
                if not np.all(np.isfinite(F)):
                    why = "residual became non-finite"
                    break
                x = x + np.linalg.solve(jac, -F)
                step = np.abs(F / scale).max()
                if step <= NEWTON_TOL:
                    return image(x), its
            else:
                why = f"no convergence in {NEWTON_MAXITER} iterations"
        except DomainError as exc:
            why = f"map left the admissible domain: {exc}"
        raise MapError(f"{why}; input {_describe(start)}; last scaled step {step:.3e}")

    def _check_eccentricity(self, state: DelaunayState):
        """The generator's momentum partials carry 1/e factors, so its J2
        series in Delaunay variables needs e above |J2| (R/a)^2, the size of
        the eccentricity oscillation it describes."""
        e = float(eccentricity_from_momenta(state.L, state.G))
        bound = abs(self.j2) * (self.model.R * self.model.mu / state.L**2) ** 2
        if e <= bound:
            raise DomainError(f"e = {e:.3e} is not above |J2| (R/a)^2 = {bound:.3e}")

    # -- the map ------------------------------------------------------------

    def mean_to_osculating(self, mean: DelaunayState, return_info=False):
        P = mean.momenta
        Q = mean.angles
        if self.j2 == 0.0:
            return (mean, {"iterations": 0}) if return_info else mean
        generator = self.series.at(P, self.j2)

        def system(q):
            grad, hess = _derivatives(generator, q)
            return q + grad[:3] - Q, np.eye(3) + hess[:3, 3:]

        osc, its = self._solve(
            system,
            Q,
            np.ones(3),
            mean,
            lambda q: DelaunayState(*(P + _derivatives(generator, q)[0][3:]), *q),
        )
        return (osc, {"iterations": its}) if return_info else osc

    def osculating_to_mean(self, osc: DelaunayState, return_info=False):
        p = osc.momenta
        q = osc.angles
        if self.j2 == 0.0:
            return (osc, {"iterations": 0}) if return_info else osc

        def system(P):
            grad, hess = _derivatives(self.series.at(P, self.j2), q)
            return P + grad[3:] - p, np.eye(3) + hess[3:, :3]

        mean, its = self._solve(
            system,
            p,
            np.maximum(1.0, np.abs(p)),
            osc,
            lambda P: DelaunayState(*P, *(q + self.series.grad_P(P, q, self.j2))),
        )
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
        _, hess = _derivatives(self.series.at(P, self.j2), q)
        s = momentum_scale(self.model)
        M = generating_jacobian(np.eye(3) + hess[3:, :3], hess[3:, 3:] / s, hess[:3, :3] * s)
        if direction == "osculating_to_mean":
            M = symplectic_inverse(M)
        if not scaled:
            M[:3, 3:] *= s
            M[3:, :3] /= s
        return M


def first_order_displacement(mean: DelaunayState, model: PhysicalModel, j2):
    """Leading-order osc minus mean offset predicted by the generator:
    (J2 dS1/dq, -J2 dS1/dP) at the mean point."""
    series = GeneratingSeries(model, order=1)
    P, q = mean.momenta, mean.angles
    return np.concatenate([series.grad_q(P, q, j2), -series.grad_P(P, q, j2)])
