import numpy as np
import pytest
from numpy.testing import assert_allclose

from zeipel.errors import DomainError
from zeipel.symplectic import (
    block_identities,
    blocks,
    is_symplectic,
    random_symplectic,
    structure_matrix,
    symplectic_inverse,
    symplectic_residual,
)


def test_structure_matrix_properties():
    J = structure_matrix(3)
    assert_allclose(J @ J, -np.eye(6), atol=0)
    assert_allclose(J.T, -J, atol=0)
    # J itself is symplectic, and its inverse is -J
    ok, r = is_symplectic(J)
    assert ok and r == 0.0
    assert_allclose(symplectic_inverse(J), -J, atol=0)


def test_identity_is_symplectic():
    ok, r = is_symplectic(np.eye(8))
    assert ok
    assert r == 0.0
    ids = block_identities(np.eye(6))
    assert all(v == 0.0 for v in ids.values())


def test_uniform_scaling_is_not_symplectic():
    ok, r = is_symplectic(2.0 * np.eye(6))
    assert not ok
    assert r == pytest.approx(3.0)


def test_blocks_shape_guard():
    with pytest.raises(DomainError):
        blocks(np.eye(5))
    with pytest.raises(DomainError):
        blocks(np.ones((4, 6)))


def test_momentum_scaling_pairs_are_symplectic():
    # diag(c, 1/c) in conjugate pairs preserves the form for any c
    for c in (2.0, 0.1, -3.0):
        M = np.diag([c, c, c, 1.0 / c, 1.0 / c, 1.0 / c])
        ok, r = is_symplectic(M)
        assert ok and r < 1e-15


def test_random_family_is_symplectic(rng):
    worst = 0.0
    for _ in range(50):
        M = random_symplectic(rng)
        worst = max(worst, symplectic_residual(M))
    assert worst < 1e-12


def test_random_family_block_identities(rng):
    for _ in range(20):
        ids = block_identities(random_symplectic(rng))
        assert max(ids.values()) < 1e-12


def test_identity_sets_agree_on_verdict(rng):
    # the direct and transposed triplets accept and reject together
    for k in range(100):
        if k % 2 == 0:
            M = random_symplectic(rng)
        else:
            M = np.eye(6) + 0.1 * rng.normal(size=(6, 6))
        ids = block_identities(M)
        direct = max(ids["AB_sym"], ids["CD_sym"], ids["AD_BC_unit"])
        transposed = max(ids["AC_sym_T"], ids["BD_sym_T"], ids["AD_CB_unit_T"])
        assert (direct < 1e-8) == (transposed < 1e-8)


def test_random_noise_is_rejected(rng):
    for _ in range(10):
        M = np.eye(6) + 0.5 * rng.normal(size=(6, 6))
        ok, r = is_symplectic(M)
        assert not ok
        assert r > 1e-3


def test_inverse_matches_structure_conjugation(rng):
    for _ in range(10):
        M = random_symplectic(rng)
        Minv = symplectic_inverse(M)
        assert_allclose(Minv @ M, np.eye(6), atol=1e-12)
        assert_allclose(M @ Minv, np.eye(6), atol=1e-12)
        J = structure_matrix(3)
        assert_allclose(Minv, -J @ M.T @ J, atol=1e-15)


def test_inverse_rejects_non_symplectic():
    with pytest.raises(DomainError):
        symplectic_inverse(2.0 * np.eye(6))


def test_transpose_is_symplectic(rng):
    for _ in range(10):
        M = random_symplectic(rng)
        ok, _ = is_symplectic(M.T, tol=1e-10)
        assert ok


def test_determinant_is_one(rng):
    for _ in range(10):
        M = random_symplectic(rng)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
