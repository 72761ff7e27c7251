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
    """Exact symplectic Jacobian of a random near-identity generating map.

    The generator is S = P.q + eps * T(q) * Pi(P) with T a random
    trigonometric polynomial and Pi a random quadratic; its exact second
    derivatives go through `generating_jacobian`.
    """
    n, eps, harmonics = 3, 1e-2, 2
    kvec = rng.integers(1, harmonics + 1, size=(3, n))
    amp = rng.normal(size=3)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    c_lin = rng.normal(size=n)
    c_quad = rng.normal(size=(n, n))
    c_quad = 0.5 * (c_quad + c_quad.T)
    q0 = rng.uniform(0, 2 * np.pi, size=n)
    P0 = rng.uniform(0.5, 2.0, size=n)

    def T_val_grad_hess(q):
        val = 0.0
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        for a, k, ph in zip(amp, kvec, phase):
            arg = float(k @ q) + ph
            val += a * np.sin(arg)
            grad += a * np.cos(arg) * k
            hess -= a * np.sin(arg) * np.outer(k, k)
        return val, grad, hess

    def Pi_val_grad_hess(P):
        val = float(c_lin @ P) + 0.5 * float(P @ c_quad @ P)
        return val, c_lin + c_quad @ P, c_quad

    Tv, Tg, Th = T_val_grad_hess(q0)
    Pv, Pg, Ph = Pi_val_grad_hess(P0)

    A = np.eye(n) + eps * np.outer(Tg, Pg)  # S_qP
    B = eps * Pv * Th                       # S_qq
    C = eps * Tv * Ph                       # S_PP
    return generating_jacobian(A, B, C)
