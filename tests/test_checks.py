"""The check layer's own measurements catch the faults they are named for."""

import numpy as np
from numpy.testing import assert_array_equal

from zeipel import checks
from zeipel import vonzeipel as vz

TWO_PI = 2.0 * np.pi


def test_operator_algebra_catches_a_missing_node(monkeypatch):
    # the torus grid keeps its 2 pi / n spacing but drops its last nu node
    def short_average(f, e, nodes_nu=256):
        nu = TWO_PI * np.arange(nodes_nu - 1) / nodes_nu
        g = TWO_PI * np.arange(vz.NODES_G) / vz.NODES_G
        return float(np.mean(f(*np.meshgrid(nu, g, indexing="ij"))))

    assert checks.operator_algebra(np.random.default_rng(1), 20) <= 1e-12
    monkeypatch.setattr(vz, "torus_average_weighted", short_average)
    assert checks.operator_algebra(np.random.default_rng(1), 20) > 1e-12


def test_halving_ratios_divide_each_level_by_the_next():
    # position errors per level, and peak-to-peaks (L, G, H) of (8, 4, 1),
    # (1, 1, 1) and (1/8, 1/4, 1): powers of two, so every ratio is exact
    errs = (6.4, 0.8, 0.2)
    ptps = ((8.0, 4.0, 1.0), (1.0, 1.0, 1.0), (0.125, 0.25, 1.0))

    pos, ptp = checks.halving_ratios(errs), checks.halving_ratios(ptps)
    assert pos.shape == (2,) and ptp.shape == (2, 3)
    assert_array_equal(pos, [6.4 / 0.8, 0.8 / 0.2])
    assert_array_equal(ptp, [[8.0, 4.0, 1.0], [8.0, 4.0, 1.0]])
