"""Self-contained primal-dual interior-point solver for tiny SDPs.

Problems are linear objectives over real parameter vectors subject to affine
Hermitian positive-semidefinite cone constraints S_k(x) = A0_k + sum_i x_i
A_ki >= 0 and optional equality rows.  The solver removes the rows itself: it
runs on x = x0 + N z, N an orthonormal null-space basis of the rows.  A solve
stacks its cones into one block-diagonal cone S(x) and keeps a dual Z > 0 for
max -Re tr(A0 Z) s.t. Re tr(A_i Z) = c_i.  Each iteration is one Mehrotra
predictor-corrector step (SIAM J. Optim. 2(4), 1992) on HKM directions
(Helmberg et al., SIAM J. Optim. 6(2), 1996).  A solve stops on a certificate,
a small gap tr(S Z) and dual residual, or raises SolverFailure.  The returned
SolveInfo also holds the dual Z itself and, with equality rows, their
multipliers nu: c - A*(Z) = a_eq^T nu, the sensitivity of the optimum to the
rows that a caller's gradient needs.  S(x) and the Schur matrix are real
matmuls over (re, im) pairs: OpenBLAS splits complex products of these sizes
across threads, and a loaded host then stalls them.
"""

from __future__ import annotations

import itertools
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


_TO_BOUNDARY = 0.98  # fraction of the step to the cone boundary taken on each side
_MAX_ITERATIONS = 100
_SCHUR_CUT = 1e-14  # Schur eigenvalues below this share of the largest are dropped


@dataclass(frozen=True)
class SolveInfo:
    """A certified solve: x, c.x, the dual objective -Re tr(A0 Z), tr(S(x) Z) and iterations.

    All in the caller's variables; the dual objective is c.x0 - Re tr(S(x0) Z),
    the dual of the program in z plus c.x0, which equals -Re tr(A0 Z) where
    A*(Z) = c.  z is the block-diagonal dual matrix over the cones in their
    order; multipliers holds nu with c - A*(Z) = a_eq^T nu, one entry per row
    of a_eq (None without rows), where A*(Z)_i = Re tr(A_i Z) over the
    caller's cones.
    """

    x: np.ndarray
    value: float
    dual_value: float
    gap: float
    iterations: int
    multipliers: np.ndarray | None
    z: np.ndarray


def _cholesky(h: np.ndarray, failure: str) -> np.ndarray:
    """Lower Cholesky factor of h; SolverFailure(failure) unless h is positive definite."""
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise SolverFailure(failure) from None


def _max_step(inv_factor: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with F F^H + alpha d >= 0, given F^-1; inf when d >= 0."""
    low = np.linalg.eigvalsh(inv_factor @ d @ inv_factor.conj().T)[0]
    return -1.0 / low if low < 0.0 else np.inf


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
    a_eq: np.ndarray | None = None,
    *,
    gap_tol: float = 1e-9,
) -> SolveInfo:
    """Minimize c.x subject to the cones and a_eq x = a_eq x0, from a strictly feasible x0.

    The rows of a_eq must hold at x0; they may be redundant.  The solve runs on
    x = x0 + N z, where N is an orthonormal basis of the null space of a_eq
    with each nonzero row scaled to unit norm (singular values at or below
    1e-12 of the largest count as zero), with the cones shifted to S_k(x0)
    and z starting at 0.  Every row then holds at the returned x up to
    rounding.  Without a_eq, N = I and x = x0 + z.

    Z starts at S(x0)^-1.  Each iteration factors the Schur matrix M_ij =
    Re tr(A_i Z A_j S^-1) once for an affine predictor and a corrector with
    centering (mu_aff / mu)^3, and moves x and Z 0.98 of the way to their
    cone boundaries.  The solve returns once tr(S Z) <= gap_tol and each dual
    residual c_i - Re tr(A_i Z) is within 1e-9 (1 + max|c|): c.x minus the
    dual objective is then the gap plus residual times x.  The multipliers nu
    of the rows come from the same SVD, as the least-squares solution of
    c - A*(Z) = a_eq^T nu: found for the unit-norm rows, then divided by the
    row norms.  SolverFailure is raised when x0 is not strictly feasible,
    when c.x falls along a predictor that never meets the cone boundary
    (unbounded below), when a direction is not finite or an iterate leaves
    its cone, and after _MAX_ITERATIONS.
    """
    c_x = np.asarray(c, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    rows = np.zeros((0, len(x0))) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    # each row at unit norm, so that the rank cut does not depend on a row's scale
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    u, sv, vt = np.linalg.svd(rows / norms[:, None])  # without rows vt = I exactly, so N = I
    rank = int(np.sum(sv > 1e-12 * sv.max(initial=1.0)))
    null = vt[rank:].T
    caller = _stack(cones)
    m = caller.a0.shape[0]
    # from here on c and x are N^T c and z, and the cone is S(x0 + N z); N^T A is a
    # real product over the (re, im) pairs of A
    basis = (null.T @ caller.basis.view(float).reshape(len(x0), -1)).view(complex)
    cone = ConeConstraint(caller.evaluate(x0), basis.reshape(-1, m, m))
    c, x = null.T @ c_x, np.zeros(null.shape[1])
    n = len(c)
    flat = cone.basis.view(float).reshape(n, -1)
    dual_tol = 1e-9 * (1.0 + float(np.abs(c).max(initial=0.0)))

    def adjoint(h: np.ndarray) -> np.ndarray:
        """Re tr(A_i h) for every i: A_i pairs with h itself on the (re, im) view."""
        return flat @ np.ascontiguousarray(h).view(float).ravel()

    def direction(shift: np.ndarray):
        """HKM step: dZ = Herm(shift - Z - Z dS S^-1) with Re tr(A_i dZ) = c_i - Re tr(A_i Z)."""
        dx = vec @ ((vec.T @ (adjoint(shift) - c)) / eig)  # M dx = A*(shift) - c
        ds = (dx @ flat).view(complex).reshape(m, m)  # not S(x + dx) - S(x), which cancels
        dz = shift - z - z @ ds @ s_inv
        dz = 0.5 * (dz + dz.conj().T)
        if not (np.isfinite(dx).all() and np.isfinite(dz).all()):
            raise SolverFailure(f"non-finite direction at iteration {iteration}")
        return dx, ds, dz

    z = None
    for iteration in itertools.count():
        s = cone.evaluate(x)
        where = "starting point" if z is None else f"primal iterate at iteration {iteration}"
        s_chol = _cholesky(s, f"{where} not strictly feasible")
        s_chol_inv = np.linalg.inv(s_chol)
        s_inv = s_chol_inv.conj().T @ s_chol_inv
        z = s_inv if z is None else z
        z_chol = _cholesky(z, f"dual iterate at iteration {iteration} not strictly feasible")
        gap = float(np.vdot(s, z).real)  # tr(S Z)
        residual = float(np.abs(c - adjoint(z)).max(initial=0.0))
        if gap <= gap_tol and residual <= dual_tol:
            # back to the caller's x, where c.x = c.x0 + (N^T c).z
            x, dual, nu = x0 + null @ x, float(c_x @ x0) - float(np.vdot(cone.a0, z).real), None
            if a_eq is not None:
                # c - A*(Z) lies in the row space of a_eq = U_r diag(sv_r) V_r^T up to
                # the residual; A*(Z) is over the caller's cones
                a_z = np.einsum("kij,ji->k", caller.basis, z).real
                nu = u[:, :rank] @ ((vt[:rank] @ (c_x - a_z)) / sv[:rank]) / norms
            return SolveInfo(x, float(c_x @ x), dual, gap, iteration, nu, z)
        if iteration == _MAX_ITERATIONS:
            raise SolverFailure(f"no certificate in {iteration} iterations: gap {gap:.2e}, "
                                f"dual residual {residual:.2e}")
        z_chol_inv = np.linalg.inv(z_chol)
        # M_ij = Re tr(B_i B_j^H) with B_i = L^-1 A_i R, where S = L L^H and Z = R R^H
        b = (s_chol_inv @ cone.basis @ z_chol).view(float).reshape(n, -1)
        # near the optimum M is too ill-conditioned for Cholesky, which fails or
        # loses the dual residual; its eigenvalues below _SCHUR_CUT are dropped
        eig, vec = np.linalg.eigh(b @ b.T)
        keep = eig > _SCHUR_CUT * eig[-1]
        eig, vec = eig[keep], vec[:, keep]
        dx, ds, dz = direction(np.zeros_like(s))  # the affine predictor
        primal_max = _max_step(s_chol_inv, ds)
        if primal_max == np.inf and float(c @ dx) < 0.0:
            raise SolverFailure("unbounded below: c.x falls along a direction in the cone")
        dual_max = _max_step(z_chol_inv, dz)
        affine = np.vdot(s + min(1.0, primal_max) * ds, z + min(1.0, dual_max) * dz).real
        sigma_mu = gap / m * min(1.0, (max(float(affine), 0.0) / gap) ** 3)
        second = dz @ ds @ s_inv  # the second-order term of (Z + dZ)(S + dS)
        dx, ds, dz = direction(sigma_mu * s_inv - second)
        x = x + min(1.0, _TO_BOUNDARY * _max_step(s_chol_inv, ds)) * dx
        z = z + min(1.0, _TO_BOUNDARY * _max_step(z_chol_inv, dz)) * dz
