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

An iteration makes seven LAPACK calls: the Cholesky factors of S and Z, the
inverses of both factors, one eigh of the Schur matrix, and for each of the
two directions one eigvalsh on the stacked primal and dual step-length
matrices.  At these sizes (m <= 12) the public numpy.linalg functions cost
more in their Python wrappers than in LAPACK, so the solver calls the gufuncs
behind them (numpy.linalg._umath_linalg) with the same signatures, which
gives the same results to the bit.  Where numpy.linalg.cholesky raises
LinAlgError the gufunc returns NaN, and the solver raises SolverFailure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs behind numpy.linalg

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
    """Real basis of d x d Hermitian matrices: diagonal, symmetric, antisymmetric.

    ValueError unless d is an integer (Python or numpy, not bool) of at least 1.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"hermitian_basis needs an integer d of at least 1, got {d!r}")
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
    """Lower Cholesky factor of h; SolverFailure(failure) unless h is positive definite.

    Where numpy.linalg.cholesky raises LinAlgError, its gufunc instead fills
    the factor with NaN and sets the invalid flag, which is silenced here.
    """
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(h, signature="D->D")
    if np.isnan(factor[0, 0]):
        raise SolverFailure(failure)
    return factor


def _inv(h: np.ndarray) -> np.ndarray:
    """h^-1, as numpy.linalg.inv; only ever given a Cholesky factor, which is nonsingular."""
    return _umath_linalg.inv(h, signature="D->D")


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian h[..., :, :], as numpy.linalg.eigvalsh."""
    return _umath_linalg.eigvalsh_lo(h, signature="D->d")


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a real symmetric h, as numpy.linalg.eigh."""
    return _umath_linalg.eigh_lo(h, signature="d->dd")


def _max_steps(inv_factors: np.ndarray, inv_factors_h: np.ndarray, d: np.ndarray) -> list[float]:
    """Largest alpha_k with F_k F_k^H + alpha_k d_k >= 0 for each k, given F_k^-1 and its
    conjugate transpose; inf when d_k >= 0."""
    lows = _eigvalsh(inv_factors @ d @ inv_factors_h)[:, 0].tolist()
    return [-1.0 / low if low < 0.0 else np.inf for low in lows]


def _stack(cones: list[ConeConstraint]) -> ConeConstraint:
    """The cones as one block-diagonal cone: S(x) > 0 exactly when every S_k(x) > 0."""
    sizes = np.cumsum([0] + [cone.a0.shape[0] for cone in cones])
    a0 = np.zeros((sizes[-1], sizes[-1]), dtype=complex)
    basis = np.zeros((len(cones[0].basis), sizes[-1], sizes[-1]), dtype=complex)
    for cone, lo, hi in zip(cones, sizes[:-1], sizes[1:]):
        a0[lo:hi, lo:hi] = cone.a0
        basis[:, lo:hi, lo:hi] = cone.basis
    return ConeConstraint(a0=a0, basis=basis)


def _check_inputs(c: np.ndarray, cones: list[ConeConstraint], x0: np.ndarray,
                  rows: np.ndarray, gap_tol: float) -> None:
    """ValueError naming the argument unless the program is well formed and finite."""
    if not cones:
        raise ValueError("cones is empty")
    if not (np.isfinite(gap_tol) and gap_tol > 0.0):
        raise ValueError(f"gap_tol must be finite and > 0, got {gap_tol!r}")
    lengths = sorted({len(cone.basis) for cone in cones})
    if len(lengths) > 1:
        raise ValueError(f"cones have bases of lengths {lengths}; they must share one")
    n = lengths[0]
    for name, arr, shape in (("c", c, (n,)), ("x0", x0, (n,)), ("a_eq", rows, (len(rows), n))):
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape} for the cones' "
                             f"{n} basis matrices")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} is not finite")


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
    residual c_i - Re tr(A_i Z), formed only once the gap passes, is within
    1e-9 (1 + max|c|): c.x minus the dual objective is then the gap plus
    residual times x.  The multipliers nu
    of the rows come from the same SVD, as the least-squares solution of
    c - A*(Z) = a_eq^T nu: found for the unit-norm rows, then divided by the
    row norms.  SolverFailure is raised when x0 is not strictly feasible,
    when c.x falls along a predictor that never meets the cone boundary
    (unbounded below), when a direction is not finite or an iterate leaves
    its cone, and after _MAX_ITERATIONS.

    ValueError, naming the argument, is raised before any factorisation when
    cones is empty or their bases differ in length, when gap_tol is not
    finite and > 0, and when c, x0 or a_eq is not finite or has a length
    other than the cones' number of basis matrices.
    """
    c_x = np.asarray(c, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    rows = np.zeros((0, len(x0))) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    _check_inputs(c_x, cones, x0, rows, gap_tol)
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
    neg_c = -c  # A*(0) - c, the predictor's right-hand side

    def adjoint(h: np.ndarray) -> np.ndarray:
        """Re tr(A_i h) for every i: A_i pairs with h itself on the (re, im) view."""
        return flat @ np.ascontiguousarray(h).view(float).ravel()

    def direction(rhs: np.ndarray, base: np.ndarray):
        """HKM step toward a shift, given rhs = A*(shift) - c and base = shift - Z.

        M dx = rhs and dZ = Herm(base - Z dS S^-1), so Re tr(A_i dZ) = c_i - Re tr(A_i Z).
        Returns dx and the stack (dS, dZ).
        """
        dx = vec @ ((vec.T @ rhs) / eig)
        ds = (dx @ flat).view(complex).reshape(m, m)  # not S(x + dx) - S(x), which cancels
        dz = base - z @ ds @ s_inv
        dz = 0.5 * (dz + dz.conj().T)
        if not (np.isfinite(dx).all() and np.isfinite(dz).all()):
            raise SolverFailure(f"non-finite direction at iteration {iteration}")
        return dx, np.array([ds, dz])

    z = None
    for iteration in itertools.count():
        s = cone.evaluate(x)
        where = "starting point" if z is None else f"primal iterate at iteration {iteration}"
        s_chol_inv = _inv(_cholesky(s, f"{where} not strictly feasible"))
        if z is None:
            z = s_chol_inv.conj().T @ s_chol_inv  # S^-1
        z_chol = _cholesky(z, f"dual iterate at iteration {iteration} not strictly feasible")
        gap = float(np.vdot(s, z).real)  # tr(S Z)
        # the dual residual matters only once the gap passes, and for the last message
        last, residual = iteration == _MAX_ITERATIONS, np.inf
        if gap <= gap_tol or last:
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
        if last:
            raise SolverFailure(f"no certificate in {iteration} iterations: gap {gap:.2e}, "
                                f"dual residual {residual:.2e}")
        # the inverse factors of S and Z, stacked so that both step lengths of a
        # direction come from one eigvalsh call
        inv_f = np.array([s_chol_inv, _inv(z_chol)])
        inv_fh = inv_f.conj().transpose(0, 2, 1)
        s_inv = inv_fh[0] @ inv_f[0]
        # M_ij = Re tr(B_i B_j^H) with B_i = L^-1 A_i R, where S = L L^H and Z = R R^H
        b = (s_chol_inv @ cone.basis @ z_chol).view(float).reshape(n, -1)
        # near the optimum M is too ill-conditioned for Cholesky, which fails or
        # loses the dual residual; its eigenvalues below _SCHUR_CUT are dropped
        eig, vec = _eigh(b @ b.T)
        keep = eig > _SCHUR_CUT * eig[-1]
        eig, vec = eig[keep], vec[:, keep]
        dx, d = direction(neg_c, -z)  # the affine predictor, whose shift is 0
        primal_max, dual_max = _max_steps(inv_f, inv_fh, d)
        if primal_max == np.inf and float(c @ dx) < 0.0:
            raise SolverFailure("unbounded below: c.x falls along a direction in the cone")
        affine = np.vdot(s + min(1.0, primal_max) * d[0], z + min(1.0, dual_max) * d[1]).real
        sigma_mu = gap / m * min(1.0, (max(float(affine), 0.0) / gap) ** 3)
        # the centering target less the second-order term of (Z + dZ)(S + dS)
        shift = sigma_mu * s_inv - d[1] @ d[0] @ s_inv
        dx, d = direction(adjoint(shift) - c, shift - z)
        primal_max, dual_max = _max_steps(inv_f, inv_fh, d)
        x = x + min(1.0, _TO_BOUNDARY * primal_max) * dx
        z = z + min(1.0, _TO_BOUNDARY * dual_max) * d[1]
