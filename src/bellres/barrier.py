"""Self-contained log-barrier interior-point solver for tiny SDPs.

Problems are linear objectives over real parameter vectors subject to affine
Hermitian positive-semidefinite cone constraints S_k(x) = A0_k + sum_i x_i
A_ki >= 0.  Equality constraints are handled by affine elimination before the
solve.  Matrices here are at most 4x4, so dense Newton steps are cheap.  The
stopping rule is the duality-gap proxy sum_k dim(S_k)/t, which bounds the true
gap only if every centering step converged; a stalled line search ends its
centering step early without any signal, so the proxy is not a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure


@dataclass
class ConeConstraint:
    """Affine PSD constraint A0 + sum_i x_i basis[i] >= 0."""

    a0: np.ndarray  # (m, m) Hermitian
    basis: np.ndarray  # (n, m, m) Hermitian slices

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.a0 + np.tensordot(x, self.basis, axes=(0, 0))


def hermitian_basis(d: int) -> np.ndarray:
    """Real basis of d x d Hermitian matrices: diagonal, symmetric, antisymmetric."""
    mats = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            mats.append(m)
    return np.array(mats)


def hermitian_from_params(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.tensordot(x, basis, axes=(0, 0))


def params_from_hermitian(h: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # basis elements are orthogonal with squared norms 1 (diag) or 2 (off-diag)
    norms = np.einsum("kij,kji->k", basis, basis).real
    return np.einsum("kij,ji->k", basis, h).real / norms


def solve_sdp(
    c: np.ndarray,
    cones: list[ConeConstraint],
    x0: np.ndarray,
    *,
    gap_tol: float = 1e-9,
) -> tuple[np.ndarray, float]:
    """Minimize c.x subject to the cone constraints, from a strictly feasible x0.

    Returns (x_opt, objective).  The schedule is fixed: the barrier parameter
    starts at t = 1 and grows by a factor 5 per outer step, each centering
    step takes at most 200 Newton steps, and the solve stops once the
    duality-gap proxy total_dim/t drops below gap_tol.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).copy()

    def barrier_value(t_now: float, xx: np.ndarray) -> float | None:
        """t c.x - sum_k log det S_k(x), or None unless every S_k(x) is positive definite."""
        total = t_now * float(c @ xx)
        for cone in cones:
            vals = np.linalg.eigvalsh(cone.evaluate(xx))
            if vals[0] <= 1e-300:
                return None
            total -= float(np.log(vals).sum())
        return total

    t = 1.0
    if barrier_value(t, x) is None:
        raise SolverFailure("starting point not strictly feasible")
    total_dim = sum(cone.a0.shape[0] for cone in cones)
    while True:
        f_cur = barrier_value(t, x)
        for _ in range(200):
            grad = t * c.copy()
            hess = np.zeros((len(c), len(c)))
            for cone in cones:
                s = cone.evaluate(x)
                sinv = np.linalg.inv(s)
                w = np.einsum("ab,ibc->iac", sinv, cone.basis)
                grad -= np.einsum("iaa->i", w).real
                hess += np.einsum("iab,jba->ij", w, w).real
            try:
                step = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = -np.linalg.solve(hess + 1e-10 * np.trace(hess) * np.eye(len(c)), grad)
            decrement = float(-grad @ step)
            if decrement <= 1e-11:
                break
            # backtracking: stay strictly inside all cones, require descent
            alpha = 1.0
            accepted = False
            for _ in range(70):
                f_new = barrier_value(t, x + alpha * step)
                if f_new is not None and f_new <= f_cur - 0.25 * alpha * decrement:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break  # stalled at this centering accuracy; proceed on the path
            x = x + alpha * step
            f_cur = f_new
        if total_dim / t <= gap_tol:
            return x, float(c @ x)
        t *= 5.0
        if t > 1e18:
            raise SolverFailure(
                f"barrier parameter diverged at gap proxy {total_dim / t:.2e}"
            )


def eliminate_equalities(
    c: np.ndarray,
    cones: list[ConeConstraint],
    a_eq: np.ndarray,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[ConeConstraint], np.ndarray]:
    """Reparametrize x = x0 + N z so equalities A x = b hold identically.

    x0 must already satisfy A x0 = b; N is an orthonormal null-space basis of A.
    Returns (c_z, cones_z, N); z = 0 maps back to x0, and the constant
    objective shift c.x0 is left to the caller.
    """
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    _, sv, vt = np.linalg.svd(a_eq)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if len(sv) else 1.0)))
    null = vt[rank:].T
    cones_z = []
    for cone in cones:
        a0 = cone.a0 + np.tensordot(x0, cone.basis, axes=(0, 0))
        basis_z = np.tensordot(null.T, cone.basis, axes=(1, 0))
        cones_z.append(ConeConstraint(a0=a0, basis=basis_z))
    c_z = null.T @ c
    return c_z, cones_z, null
