"""Self-contained log-barrier interior-point solver for tiny SDPs.

Problems are linear objectives over real parameter vectors subject to affine
Hermitian positive-semidefinite cone constraints S_k(x) = A0_k + sum_i x_i
A_ki >= 0.  Equality constraints are handled by affine elimination before the
solve.  Each solve stacks its cones into one block-diagonal cone S(x); one
Cholesky factor per trial point tests strict feasibility and gives the
log-det.  S(x) and the Newton system are real matmuls over (re, im) pairs:
OpenBLAS splits complex products of these sizes across threads, and on a
loaded host every Newton step then waits for a free core.  The stopping
rule is the duality-gap proxy dim(S)/t, which bounds the true gap only if
every centering step converged; a stalled line search, or an accepted step
too small to move x, ends its centering step early without any signal, so
the proxy is not a certificate.
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
        n, m, _ = self.basis.shape
        flat = np.ascontiguousarray(self.basis, dtype=complex).view(float).reshape(n, -1)
        return self.a0 + (x @ flat).view(complex).reshape(m, m)  # real x, (re, im) pairs


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
    # hermitian_basis(d) is orthogonal with squared norms 1 (diag) or 2 (off-diag)
    d = basis.shape[1]
    return np.einsum("kij,ji->k", basis, h).real / np.repeat([1.0, 2.0], [d, d * d - d])


def _stack(cones: list[ConeConstraint]) -> ConeConstraint:
    """The cones as one block-diagonal cone: S(x) > 0 exactly when every S_k(x) > 0."""
    sizes = np.cumsum([0] + [cone.a0.shape[0] for cone in cones])
    a0 = np.zeros((sizes[-1], sizes[-1]), dtype=complex)
    basis = np.zeros((len(cones[0].basis), sizes[-1], sizes[-1]), dtype=complex)
    for cone, lo, hi in zip(cones, sizes[:-1], sizes[1:]):
        a0[lo:hi, lo:hi] = cone.a0
        basis[:, lo:hi, lo:hi] = cone.basis
    return ConeConstraint(a0=a0, basis=basis)


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
    duality-gap proxy dim(S)/t drops below gap_tol.  The cones are stacked
    into one block-diagonal cone S(x); a trial point is strictly feasible
    when S(x) has a Cholesky factor L, and then log det S(x) = 2 sum log
    diag L.  A centering step ends when an accepted step leaves x unchanged.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    cone = _stack(cones)
    n, m, _ = cone.basis.shape

    def barrier_value(t_now: float, xx: np.ndarray) -> float | None:
        """t c.x - log det S(x), or None unless S(x) is positive definite."""
        try:
            chol = np.linalg.cholesky(cone.evaluate(xx))
        except np.linalg.LinAlgError:
            return None
        return t_now * float(c @ xx) - 2.0 * float(np.log(chol.diagonal().real).sum())

    t = 1.0
    if barrier_value(t, x) is None:
        raise SolverFailure("starting point not strictly feasible")
    while True:
        f_cur = barrier_value(t, x)
        for _ in range(200):
            w = np.linalg.inv(cone.evaluate(x)) @ cone.basis  # W_i = S^-1 A_i
            grad = t * c - np.trace(w, axis1=1, axis2=2).real
            # Re tr(W_i W_j) as a real product of the (re, im) pairs of W_i and W_j^H
            w_adj = np.ascontiguousarray(w.conj().transpose(0, 2, 1))
            hess = w.view(float).reshape(n, -1) @ w_adj.view(float).reshape(n, -1).T
            try:
                step = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = -np.linalg.solve(hess + 1e-10 * np.trace(hess) * np.eye(n), grad)
            decrement = float(-grad @ step)
            if decrement <= 1e-11:
                break
            # backtracking: stay strictly inside the cone, require descent
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
            x_new = x + alpha * step
            if np.array_equal(x_new, x):
                break  # the step is below x's resolution: nothing left to gain at this t
            x = x_new
            f_cur = f_new
        if m / t <= gap_tol:
            return x, float(c @ x)
        t *= 5.0
        if t > 1e18:
            raise SolverFailure(f"barrier parameter diverged at gap proxy {m / t:.2e}")


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
        a0 = cone.evaluate(x0)
        basis_z = np.tensordot(null.T, cone.basis, axes=(1, 0))
        cones_z.append(ConeConstraint(a0=a0, basis=basis_z))
    c_z = null.T @ c
    return c_z, cones_z, null
