"""The check layer's own measurements catch the faults they are named for."""

import numpy as np
from numpy.testing import assert_array_equal

from zeipel import checks, cli, transform
from zeipel import symplectic as symp
from zeipel import vonzeipel as vz

TWO_PI = 2.0 * np.pi


def _scaled(fn, factor):
    return lambda *args: fn(*args) * factor


def _short_average(f, e, nodes_nu=256):
    # the torus grid keeps its 2 pi / n spacing but drops its last nu node
    nu = TWO_PI * np.arange(nodes_nu - 1) / nodes_nu
    g = TWO_PI * np.arange(vz.NODES_G) / vz.NODES_G
    return float(np.mean(f(*np.meshgrid(nu, g, indexing="ij"))))


def _scaled_derivatives(derivatives, factor):
    def scaled(self, l, g):
        value, grad, hess = derivatives(self, l, g)
        return value, grad * factor, hess * factor
    return scaled


def _without_cross_term(A, B, C):
    # generating_jacobian without the -B A^-T C term of its top-left block
    A_inv_T = np.linalg.inv(A).T
    return np.block([[A, B @ A_inv_T], [-A_inv_T @ C, A_inv_T]])


def _untransposed_inverse(M):
    # symplectic_inverse with D and A in place of their transposes
    A, B, C, D = symp.blocks(M)
    return np.block([[D, -B.T], [-C.T, A]])


# S's gradient and Hessian off by 1e-4 of themselves: both generator checks' mutation.
_GENERATOR_OFF = (vz.ClosedFormGenerator, "derivatives",
                  _scaled_derivatives(vz.ClosedFormGenerator.derivatives, 1.0 + 1e-4))

# Each `zeipel verify` check: the attribute a mutation of the code it
# measures replaces, and the replacement.
MUTATIONS = {
    "kepler-residual": (checks, "kepler_solve", lambda M, e: M + e * np.sin(M)),  # the solver's unrefined seed
    "operator-algebra": (vz, "torus_average_weighted", _short_average),
    "k1-vs-quadrature": (vz, "k1", _scaled(vz.k1, 1.0 + 1e-8)),
    "s1-pde-residual": _GENERATOR_OFF,
    "s2-pde-residual": _GENERATOR_OFF,
    "k2-two-routes": (vz, "k2", _scaled(vz.k2, 1.0 + 1e-6)),
    "map-roundtrip": (transform, "NEWTON_TOL", 1e-4),
    "map-jacobian-symplectic": (transform, "generating_jacobian", _without_cross_term),
    "block-identities": (symp, "symplectic_inverse", _untransposed_inverse),
}


def test_every_verify_check_fails_on_its_mutation(monkeypatch):
    # with verify's default seed, model, order and arguments, each check
    # passes on the code as it is and fails once its mutation is applied;
    # a check added to verify needs a row here
    cfg = cli.RunConfig()
    registry = cli.verify_checks(cfg.model, cfg.order)
    assert list(MUTATIONS) == [name for name, *_ in registry]
    for name, check, args, tol in registry:
        clean = check(np.random.default_rng(cfg.seed), **args)
        with monkeypatch.context() as m:
            m.setattr(*MUTATIONS[name])
            mutated = check(np.random.default_rng(cfg.seed), **args)
        assert clean <= tol < mutated, (name, clean, mutated, tol)


def test_halving_ratios_divide_each_level_by_the_next():
    # position errors per level, and peak-to-peaks (L, G, H) of (8, 4, 1),
    # (1, 1, 1) and (1/8, 1/4, 1): powers of two, so every ratio is exact
    errs = (6.4, 0.8, 0.2)
    ptps = ((8.0, 4.0, 1.0), (1.0, 1.0, 1.0), (0.125, 0.25, 1.0))

    pos, ptp = checks.halving_ratios(errs), checks.halving_ratios(ptps)
    assert pos.shape == (2,) and ptp.shape == (2, 3)
    assert_array_equal(pos, [6.4 / 0.8, 0.8 / 0.2])
    assert_array_equal(ptp, [[8.0, 4.0, 1.0], [8.0, 4.0, 1.0]])
