"""Two-qubit resource minimization for Bell-diagonal operators.

Closed forms (entanglement robustness 2*lam1 - 1 of Bell-diagonal states, the
CHSH spectrum as a function of the incompatibility C, the steering analogue)
plus interior-point PPT / incoherence solvers used as independent verifiers
and for the three-setting experiment where the closed forms do not apply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import barrier
from .barrier import ConeConstraint, hermitian_basis, hermitian_from_params, params_from_hermitian
from .bounds import construct_optimal_state, min_lambda1_for_value
from .errors import Infeasible, NotBellDiagonal, OutOfRange, SolverFailure
from .linalg import DensityState, Spectrum, density_state, eig_hermitian, partial_transpose

_B = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1],  # Phi+
        [1, 0, 0, -1],  # Phi-
        [0, 1, 1, 0],  # Psi+
        [0, 1, -1, 0],  # Psi-
    ],
    dtype=complex,
).T  # columns are the Bell vectors

BELL_LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")

# closest-separable-state product bases for each rank-2 Bell-vector pair
_COHERENCE_BASIS_TABLE = {
    frozenset({"Phi+", "Phi-"}): "z-product",
    frozenset({"Phi+", "Psi+"}): "x-product",
    frozenset({"Phi+", "Psi-"}): "y-product",
    frozenset({"Phi-", "Psi+"}): "y-product",
    frozenset({"Phi-", "Psi-"}): "x-product",
    frozenset({"Psi+", "Psi-"}): "z-product",
}


@dataclass(frozen=True)
class BdsState:
    """Bell-diagonal state: descending weights on a maximally entangled basis."""

    lambdas: np.ndarray
    basis_perm: tuple[int, ...] = (0, 1, 2, 3)

    @property
    def entangled(self) -> bool:
        return self.lambdas[0] > 0.5

    def matrix(self) -> np.ndarray:
        cols = _B[:, list(self.basis_perm)]
        return (cols * self.lambdas) @ cols.conj().T


@dataclass(frozen=True)
class ResourceReport:
    """Per-state robustness bundle with the witnessing states."""

    p_r: float
    c_r: float
    d_r: float
    e_r: float
    witness_state: DensityState
    void_state: DensityState
    coherence_basis: str

    def __post_init__(self):
        if not (
            self.p_r >= self.c_r - 1e-9
            and self.c_r >= self.d_r - 1e-9
            and self.d_r >= self.e_r - 1e-9
        ):
            raise ValueError(
                f"resource hierarchy violated: P_R={self.p_r} C_R={self.c_r} "
                f"D_R={self.d_r} E_R={self.e_r}"
            )


def is_bell_diagonal(op) -> tuple[bool, Spectrum]:
    """Whether a 4x4 Hermitian operator is diagonal in a maximally entangled basis.

    That holds exactly when both partial traces are proportional to the
    identity.  The operator is then c 1 + sum_ij T_ij sigma_i (x) sigma_j,
    and local rotations that bring T to signed diagonal form make it diagonal
    in the Bell basis, degenerate eigenspaces included.
    """
    spec = eig_hermitian(op)
    if spec.dim != 4:
        raise OutOfRange("Bell-diagonality test is defined for 4x4 operators")
    m = np.asarray(op, dtype=complex)
    t = m.reshape(2, 2, 2, 2)
    half = np.trace(m).real / 2.0 * np.eye(2)
    marginals = (np.einsum("ajbj->ab", t), np.einsum("iaib->ab", t))
    off = max(np.abs(tr - half).max() for tr in marginals)
    return bool(off <= 1e-8 * (1.0 + np.abs(spec.values).max())), spec


def _product_basis_label(v1: np.ndarray, v2: np.ndarray) -> str:
    """Match the top-two eigenvectors against the standard Bell pairs."""
    names = []
    for v in (v1, v2):
        overlaps = np.abs(_B.conj().T @ v)
        k = int(np.argmax(overlaps))
        if overlaps[k] < 1.0 - 1e-8:
            return "lu-equivalent-product"
        names.append(BELL_LABELS[k])
    key = frozenset(names)
    return _COHERENCE_BASIS_TABLE.get(key, "lu-equivalent-product")


def min_resources_for_value(op, local_bound: float, v: float) -> ResourceReport:
    """Simultaneous minimizer of P_R, C_R, D_R, E_R for Bell-diagonal operators.

    Valid for Bell-diagonal operators: the witness is the minimal-purity
    state of min_lambda1_for_value, of whatever rank it needs, and all four
    robustnesses are monotone functions of its lam1 alone.
    """
    if v <= 0:
        raise OutOfRange(f"violation must be positive, got {v}")
    flag, spec = is_bell_diagonal(op)
    if not flag:
        raise NotBellDiagonal("operator is not diagonal in a maximally entangled basis")
    sol = min_lambda1_for_value(spec.values, local_bound + v, 4)
    lam1 = float(sol.lambdas[0])
    v1 = spec.vectors[:, 0]
    v2 = spec.vectors[:, 1]
    xi = 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
    e_r = max(0.0, 2.0 * lam1 - 1.0)
    return ResourceReport(
        p_r=4.0 * lam1 - 1.0,
        c_r=e_r,
        d_r=e_r,
        e_r=e_r,
        witness_state=construct_optimal_state(sol, spec, (2, 2)),
        void_state=density_state(xi, (2, 2)),
        coherence_basis=_product_basis_label(v1, v2),
    )


def _in_range(name: str, values, upper: float) -> np.ndarray:
    """values as a float array, or OutOfRange unless every entry lies in [0, upper]."""
    arr = np.asarray(values, dtype=float)
    outside = ~((0.0 <= arr) & (arr <= upper))
    if outside.any():
        raise OutOfRange(f"{name} must lie in [0, {upper:g}], got {arr[outside].flat[0]}")
    return arr


def _pm_sqrt_spectrum(center: float, c: np.ndarray) -> np.ndarray:
    hi, lo = np.sqrt(center + c), np.sqrt(center - c)
    return np.stack([hi, lo, -lo, -hi], axis=-1)


def chsh_eigenvalues(c) -> np.ndarray:
    """CHSH operator spectrum (+sqrt(4+C), +sqrt(4-C), -sqrt(4-C), -sqrt(4+C)).

    C may be an array; the spectra then run along a new last axis of length 4.
    """
    return _pm_sqrt_spectrum(4.0, _in_range("C", c, 4.0))


def chsh_max_value(lambda1: float, c: float) -> float:
    """Maximal CHSH value sqrt(4+C)*lam1 + sqrt(4-C)*(1-lam1)."""
    if not 0.5 <= lambda1 <= 1.0:
        raise OutOfRange(f"lambda1 must lie in [1/2, 1], got {lambda1}")
    mu = chsh_eigenvalues(c)
    return float(mu[0] * lambda1 + mu[1] * (1.0 - lambda1))


def c_max(lambda1: float) -> float:
    """Incompatibility maximizing the CHSH value at fixed lam1."""
    if not 0.5 <= lambda1 <= 1.0:
        raise OutOfRange(f"lambda1 must lie in [1/2, 1], got {lambda1}")
    return 4.0 * (2.0 * lambda1 - 1.0) / (2.0 * lambda1**2 - 2.0 * lambda1 + 1.0)


def _rank2_curve(x, mu: np.ndarray, local: float, v: float) -> np.recarray:
    """Minimal lam1, E_R = 2*lam1 - 1 and P_R = 4*lam1 - 1 at Bell value t = local + v.

    mu holds descending Bell-diagonal spectra, shape (..., 4).  The optimal
    state mixes the top two eigenvectors with lam1 = (t - mu2)/(mu1 - mu2);
    points where t exceeds mu1 are infeasible and carry NaN.  Returns a
    record array of x's broadcast shape with fields x, lambda1, e_r, p_r,
    feasible.
    """
    if v <= 0:
        raise OutOfRange(f"violation must be positive, got {v}")
    target = local + v
    mu1, mu2 = mu[..., 0], mu[..., 1]
    feasible = target <= mu1 + 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):  # mu1 = mu2 only where infeasible
        lam1 = np.where(feasible, np.minimum(1.0, (target - mu2) / (mu1 - mu2)), np.nan)
    return np.rec.fromarrays(
        np.broadcast_arrays(x, lam1, 2.0 * lam1 - 1.0, 4.0 * lam1 - 1.0, feasible),
        names="x,lambda1,e_r,p_r,feasible",
    )


def min_er_vs_c_curve(v: float, c_grid) -> np.recarray:
    """Minimal entanglement robustness versus CHSH incompatibility at violation v."""
    c = np.asarray(c_grid, dtype=float)
    return _rank2_curve(c, chsh_eigenvalues(c), 2.0, v)


def steering_eigenvalues(c_a) -> np.ndarray:
    """F2 steering operator spectrum (+sqrt(2+C_A), ..., -sqrt(2+C_A)); C_A may be an array."""
    return _pm_sqrt_spectrum(2.0, _in_range("C_A", c_a, 2.0))


def min_er_vs_ca_curve(v: float, ca_grid) -> np.recarray:
    """Steering analogue of the CHSH curve; local bound sqrt(2)."""
    c_a = np.asarray(ca_grid, dtype=float)
    return _rank2_curve(c_a, steering_eigenvalues(c_a), np.sqrt(2.0), v)


def lambda1_heatmap(v: float, ca_grid, cb_grid) -> np.recarray:
    """Necessary lam1 over a (C_A, C_B) grid: the CHSH curve at C = C_A * C_B.

    Each single-party incompatibility must lie in [0, 2].  Row i holds C_A =
    ca_grid[i]; the x field holds C_B.
    """
    c_a = _in_range("C_A", ca_grid, 2.0)
    c_b = _in_range("C_B", cb_grid, 2.0)
    c = np.multiply.outer(c_a, c_b)
    return _rank2_curve(np.broadcast_to(c_b, c.shape), chsh_eigenvalues(c), 2.0, v)


_H4 = hermitian_basis(4)
_H4_PT = np.array([partial_transpose(m, 1) for m in _H4])
_TRACE_H4 = np.einsum("kii->k", _H4).real


def er_ppt_solver(rho: DensityState) -> float:
    """Generalized robustness of entanglement of a two-qubit state via PPT.

    Solves min Tr(sigma) s.t. sigma >= 0 and (rho + sigma)^{T_B} >= 0 with the
    log-barrier solver; for 2x2 systems PPT is exact separability.
    """
    m = rho.matrix if isinstance(rho, DensityState) else np.asarray(rho, dtype=complex)
    cones = [
        ConeConstraint(a0=np.zeros((4, 4), dtype=complex), basis=_H4),
        ConeConstraint(a0=partial_transpose(m, 1), basis=_H4_PT),
    ]
    x0 = params_from_hermitian(np.eye(4, dtype=complex), _H4)
    return max(0.0, barrier.solve_sdp(_TRACE_H4, cones, x0, gap_tol=1e-9).value)


def _bell_value_program(op, target: float, y_cones, c_y, y_start, gap_tol: float):
    """Joint SDP over (rho, y): min c_y.y s.t. rho >= 0, Tr(rho) = 1, Tr(rho I) = target.

    y_cones lists the further cones as (rho block, y block) basis pairs over
    the 16 rho parameters and the len(c_y) y parameters.  The solve starts
    from the strictly feasible rho0 = t v1 v1^dag + (1 - t) 1/4 on the
    target, with y = y_start(rho0).  Returns (rho parameters, objective).
    """
    spec = eig_hermitian(op)
    mu = spec.values
    mean = float(mu.mean())
    if not mean - 1e-12 <= target < mu[0] - 1e-12:
        raise Infeasible(f"target {target} outside [Tr(I)/d, mu1) = [{mean}, {mu[0]})")
    n, k = len(_H4), len(c_y)
    # x = (rho params, y params)
    cones = [
        ConeConstraint(a0=np.zeros((4, 4), dtype=complex), basis=np.concatenate(pair))
        for pair in [(_H4, np.zeros((k, 4, 4), dtype=complex)), *y_cones]
    ]
    c = np.concatenate([np.zeros(n), c_y])
    bell = np.einsum("kij,ji->k", _H4, op).real
    # Tr(rho) = 1 and Tr(rho I) = target hold at x0 and along the null space of a_eq
    a_eq = np.stack([np.concatenate([_TRACE_H4, np.zeros(k)]), np.concatenate([bell, np.zeros(k)])])
    t_mix = (target - mean) / (mu[0] - mean)
    v1 = spec.vectors[:, 0]
    rho0 = t_mix * np.outer(v1, v1.conj()) + (1.0 - t_mix) * np.eye(4) / 4.0
    x0 = np.concatenate([params_from_hermitian(rho0, _H4), y_start(rho0)])
    c_z, cones_z, null = barrier.eliminate_equalities(c, cones, a_eq, x0)
    z = barrier.solve_sdp(c_z, cones_z, np.zeros(null.shape[1]), gap_tol=gap_tol).x
    x = x0 + null @ z
    return x[:n], float(c @ x)


def er_min_for_value(op, target: float) -> tuple[float, DensityState]:
    """Minimal entanglement robustness over all states with Tr(rho I) = target.

    Joint SDP over (rho, sigma): min Tr(sigma) s.t. rho >= 0, Tr(rho) = 1,
    Tr(rho I) = target, sigma >= 0, (rho + sigma)^{T_B} >= 0.
    """
    sigma_cones = [(np.zeros_like(_H4), _H4), (_H4_PT, _H4_PT)]
    sigma0 = params_from_hermitian(np.eye(4, dtype=complex), _H4)
    rho_params, value = _bell_value_program(
        np.asarray(op, dtype=complex), target, sigma_cones, _TRACE_H4, lambda rho0: sigma0, 1e-9
    )
    rho = hermitian_from_params(rho_params, _H4)
    return max(0.0, value), density_state(rho, (2, 2), tol=1e-7)


_PRODUCT_EIGS = {
    "z-product": np.eye(2, dtype=complex),
    "x-product": (1.0 / np.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=complex),
    "y-product": (1.0 / np.sqrt(2.0)) * np.array([[1, 1], [1j, -1j]], dtype=complex),
}


def product_basis_matrix(label_or_angles) -> np.ndarray:
    """4x4 unitary whose columns form a product basis.

    Accepts one of the named Pauli product bases or six Euler angles
    (alpha, beta, gamma) per qubit defining local SU(2) rotations of the
    computational basis.
    """
    if isinstance(label_or_angles, str):
        u = _PRODUCT_EIGS[label_or_angles]
        return np.kron(u, u)
    angles = np.asarray(label_or_angles, dtype=float)
    return np.kron(_su2(*angles[:3]), _su2(*angles[3:]))


def _su2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    rz1 = np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
    ry = np.array(
        [[np.cos(beta / 2), -np.sin(beta / 2)], [np.sin(beta / 2), np.cos(beta / 2)]]
    )
    rz2 = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
    return rz1 @ ry @ rz2


@functools.cache
def _diag_basis(d: int) -> np.ndarray:
    """The matrix units E_ii: the first d elements of hermitian_basis(d)."""
    return hermitian_basis(d)[:d]


def cr_fixed_basis(rho, basis: np.ndarray, *, gap_tol: float = 1e-9) -> float:
    """Generalized robustness of coherence in a fixed orthonormal product basis.

    Equivalent program: min Tr(D) - 1 over D diagonal in the basis with
    D >= rho.
    """
    m = rho.matrix if isinstance(rho, DensityState) else np.asarray(rho, dtype=complex)
    d = m.shape[0]
    u = np.asarray(basis, dtype=complex)
    if np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-10:
        raise ValueError("basis columns must be orthonormal")
    rot = u.conj().T @ m @ u
    cones = [ConeConstraint(a0=-rot, basis=_diag_basis(d))]
    x0 = np.real(np.diag(rot)) + 1.0
    return max(0.0, barrier.solve_sdp(np.ones(d), cones, x0, gap_tol=gap_tol).value - 1.0)


def cr_min_for_value(op, target: float, basis: np.ndarray, *, gap_tol: float = 1e-8) -> float:
    """Minimal coherence robustness (fixed basis) over states with Tr(rho I) = target."""
    u = np.asarray(basis, dtype=complex)
    rot_op = u.conj().T @ np.asarray(op, dtype=complex) @ u
    _, value = _bell_value_program(
        rot_op, target, [(-_H4, _diag_basis(4))], np.ones(4),
        lambda rho0: np.real(np.diag(rho0)) + 1.0, gap_tol,
    )
    return max(0.0, value - 1.0)


def cr_min_over_product_bases(
    rho, *, restarts: int = 32, seed: int | None = None, target_op=None, target: float | None = None
) -> tuple[float, np.ndarray]:
    """Best-effort minimization of coherence robustness over all product bases.

    Derivative-free (Nelder-Mead) search over 3+3 local-rotation angles with
    random restarts; returns an upper bound to the true minimum and the best
    basis found.  If target_op/target are given, the state itself is also
    optimized inside each basis (the joint program used for the three-setting
    experiment); otherwise rho is held fixed.  A basis whose solve fails
    counts as rejected; SolverFailure is raised when every basis tried failed.
    """
    from scipy.optimize import minimize

    from .oracles import default_rng

    rng = default_rng(seed)

    if target_op is not None:
        if target is None:
            raise ValueError("target value required together with target_op")
        program = functools.partial(cr_min_for_value, target_op, target)
    else:
        program = functools.partial(cr_fixed_basis, rho)

    def objective(angles, gap_tol=1e-6):
        try:
            return program(product_basis_matrix(angles), gap_tol=gap_tol)
        except SolverFailure:
            return np.inf

    def nelder_mead(fun, x0, **options):
        # a simplex whose points all failed compares inf - inf; they stay rejected
        with np.errstate(invalid="ignore"):
            return minimize(fun, x0, method="Nelder-Mead", options=options)

    best_val = np.inf
    best_angles = np.zeros(6)
    # cheap wide exploration; accuracy comes from the polish pass below
    for _ in range(restarts):
        res = nelder_mead(objective, rng.uniform(0.0, 2.0 * np.pi, size=6),
                          xatol=3e-4, fatol=1e-5, maxfev=100)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_angles = res.x
    res = nelder_mead(lambda a: objective(a, gap_tol=1e-8), best_angles,
                      xatol=1e-7, fatol=1e-9, maxfev=400)
    if res.fun < best_val:
        best_val = float(res.fun)
        best_angles = res.x
    if not np.isfinite(best_val):
        raise SolverFailure(
            f"no product basis gave a finite C_R: best {best_val} in {restarts} restarts"
        )
    return best_val, product_basis_matrix(best_angles)
