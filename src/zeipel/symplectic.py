"""Symplectic-matrix toolkit.

Phase-space ordering is (momenta, coordinates), so a 2N x 2N Jacobian has
blocks M = [[A, B], [C, D]] with A = d p_new/d p_old etc.  The structure
matrix is J = [[0, I], [-I, 0]]; a map Jacobian M is symplectic when
M J M^T = J.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def structure_matrix(n):
    """J = [[0, I], [-I, 0]] of size 2n x 2n."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def blocks(M):
    """Split a 2N x 2N matrix into (A, B, C, D)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise DomainError("matrix must be square with even dimension")
    n = M.shape[0] // 2
    return M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]


def symplectic_residual(M):
    """max |M J M^T - J|."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0] // 2
    J = structure_matrix(n)
    return float(np.abs(M @ J @ M.T - J).max())


def is_symplectic(M, tol=1e-8):
    """(bool, residual) for the M J M^T = J test."""
    r = symplectic_residual(M)
    return r <= tol, r


def block_identities(M):
    """Residuals of the six block identities equivalent to symplecticity.

    Direct set:     A B^T = B A^T,  C D^T = D C^T,  A D^T - B C^T = I.
    Transposed set: A^T C = C^T A,  B^T D = D^T B,  A^T D - C^T B = I.
    """
    A, B, C, D = blocks(M)
    n = A.shape[0]
    eye = np.eye(n)
    return {
        "AB_sym": float(np.abs(A @ B.T - B @ A.T).max()),
        "CD_sym": float(np.abs(C @ D.T - D @ C.T).max()),
        "AD_BC_unit": float(np.abs(A @ D.T - B @ C.T - eye).max()),
        "AC_sym_T": float(np.abs(A.T @ C - C.T @ A).max()),
        "BD_sym_T": float(np.abs(B.T @ D - D.T @ B).max()),
        "AD_CB_unit_T": float(np.abs(A.T @ D - C.T @ B - eye).max()),
    }


def symplectic_inverse(M):
    """Inverse via the block rearrangement (D^T, -B^T; -C^T, A^T),
    equivalently -J M^T J.  Requires M symplectic (`is_symplectic`)."""
    ok, r = is_symplectic(M)
    if not ok:
        raise DomainError(f"matrix is not symplectic, residual {r:.3e}")
    A, B, C, D = blocks(M)
    top = np.hstack([D.T, -B.T])
    bot = np.hstack([-C.T, A.T])
    return np.vstack([top, bot])


def generating_jacobian(A, B, C):
    """Jacobian of the map (P, Q) -> (p, q) that a mixed generator S(P, q)
    induces through p = S_q, Q = S_P, from its second derivatives
    A = S_qP (A[i, j] = d2S/dq_i dP_j), B = S_qq and C = S_PP:
        [[A - B A^-T C, B A^-T], [-A^-T C, A^-T]].
    Symplectic by construction when B and C are symmetric."""
    A_inv_T = np.linalg.inv(A).T
    top = np.hstack([A - B @ A_inv_T @ C, B @ A_inv_T])
    bot = np.hstack([-A_inv_T @ C, A_inv_T])
    return np.vstack([top, bot])


def random_symplectic(rng):
    """Exact symplectic Jacobian of a random near-identity generating map:
    `generating_jacobian` of S_qP = I + eps N with N random and of random
    symmetric S_qq and S_PP of size eps, eps = 1e-2.  The result is
    symplectic for any invertible S_qP and symmetric S_qq and S_PP."""
    n, eps = 3, 1e-2
    N, B, C = eps * rng.normal(size=(3, n, n))
    return generating_jacobian(np.eye(n) + N, B + B.T, C + C.T)
