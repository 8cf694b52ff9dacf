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
from .bounds import _check_interior, construct_optimal_state, min_lambda1_for_value
from .errors import DimMismatch, NotBellDiagonal, OutOfRange, SolverFailure
from .linalg import (
    DensityState,
    Spectrum,
    _tol,
    as_matrix,
    density_state,
    eig_hermitian,
    partial_transpose,
)
from .oracles import _check_integer, default_rng

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
    return bool(off <= 1e-8 * np.abs(spec.values).max()), spec


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
    v = float(_violation(v))
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


def _in_range(name: str, values, upper: float, lower: float = 0.0) -> np.ndarray:
    """values as a float array, or OutOfRange unless every entry lies in [lower, upper]."""
    arr = np.asarray(values, dtype=float)
    outside = ~((lower <= arr) & (arr <= upper))
    if outside.any():
        raise OutOfRange(f"{name} must lie in [{lower:g}, {upper:g}], got {arr[outside].flat[0]}")
    return arr


def _violation(v) -> np.ndarray:
    """v as a float array, or OutOfRange unless every entry is finite and above 0."""
    arr = np.asarray(v, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        raise OutOfRange(f"violation must be finite and positive, got {arr[bad].flat[0]}")
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
    lambda1 = float(_in_range("lambda1", lambda1, 1.0, 0.5))
    mu = chsh_eigenvalues(c)
    return float(mu[0] * lambda1 + mu[1] * (1.0 - lambda1))


def c_max(lambda1: float) -> float:
    """Incompatibility maximizing the CHSH value at fixed lam1."""
    lambda1 = float(_in_range("lambda1", lambda1, 1.0, 0.5))
    return 4.0 * (2.0 * lambda1 - 1.0) / (2.0 * lambda1**2 - 2.0 * lambda1 + 1.0)


def _rank2_curve(x, mu: np.ndarray, local: float, v) -> np.recarray:
    """Minimal lam1, E_R = 2*lam1 - 1 and P_R = 4*lam1 - 1 at Bell value t = local + v.

    mu holds descending Bell-diagonal spectra, shape (..., 4), and v is a
    scalar or an array that broadcasts against mu[..., 0].  lam1 is
    min_lambda1_for_value's rank-2 step in its frame, tau = t - mu1 and
    z2 = mu2 - mu1: 1/n within _tol of an n-fold mu1, else
    max((tau - z2)/(-z2), 1/2).  Every caller's spectrum is +-sqrt(c +- C),
    so mu3 = -mu2 < 0 < mu1 leaves n = 1 or 2, and its local bound is at
    least (mu1 + mu2)/2, so rank 2 suffices; points with t above mu1 are
    infeasible and carry NaN.  Returns a record array of the broadcast shape
    with fields x, lambda1, e_r, p_r, feasible.
    """
    target = local + _violation(v)
    tau, z2, tol = target - mu[..., 0], mu[..., 1] - mu[..., 0], _tol(mu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only where tau >= 0
        step = np.maximum((tau - z2) / -z2, 0.5)
    feasible = tau <= tol
    lam1 = np.where(tau < -tol, step, np.where(feasible, 1.0 / (1.0 + (z2 >= -tol)), np.nan))
    return np.rec.fromarrays(
        np.broadcast_arrays(x, lam1, 2.0 * lam1 - 1.0, 4.0 * lam1 - 1.0, feasible),
        names="x,lambda1,e_r,p_r,feasible",
    )


def min_er_vs_c_curve(v, c_grid) -> np.recarray:
    """Minimal entanglement robustness versus CHSH incompatibility at violation v.

    v may be an array that broadcasts against c_grid: at C = 4 it gives the
    resources along a violation sweep.
    """
    c = np.asarray(c_grid, dtype=float)
    return _rank2_curve(c, chsh_eigenvalues(c), 2.0, v)


def steering_eigenvalues(c_a) -> np.ndarray:
    """F2 steering operator spectrum (+sqrt(2+C_A), ..., -sqrt(2+C_A)); C_A may be an array."""
    return _pm_sqrt_spectrum(2.0, _in_range("C_A", c_a, 2.0))


def min_er_vs_ca_curve(v: float, ca_grid) -> np.recarray:
    """Steering analogue of the CHSH curve; local bound sqrt(2)."""
    c_a = np.asarray(ca_grid, dtype=float)
    return _rank2_curve(c_a, steering_eigenvalues(c_a), np.sqrt(2.0), v)


def _c_product(ca_grid, cb_grid) -> np.ndarray:
    """C = C_A * C_B over the grid, row i at C_A = ca_grid[i], or OutOfRange
    unless each grid is 1-D and each single-party incompatibility lies in [0, 2]."""
    ca, cb = _in_range("C_A", ca_grid, 2.0), _in_range("C_B", cb_grid, 2.0)
    if ca.ndim != 1 or cb.ndim != 1:
        raise OutOfRange(f"C_A and C_B grids must be 1-D, got shapes {ca.shape} and {cb.shape}")
    return np.multiply.outer(ca, cb)


def lambda1_heatmap(v: float, ca_grid, cb_grid) -> np.recarray:
    """Necessary lam1 over a (C_A, C_B) grid: the CHSH curve at C = C_A * C_B.

    Each grid must be 1-D, and each single-party incompatibility must lie in
    [0, 2].  Row i holds C_A = ca_grid[i]; the x field holds C_B.  The other
    fields depend on the grid point only through C, and equal
    min_er_vs_c_curve(v, C)'s.
    """
    c = _c_product(ca_grid, cb_grid)
    c_b = np.broadcast_to(np.asarray(cb_grid, dtype=float), c.shape)
    return _rank2_curve(c_b, chsh_eigenvalues(c), 2.0, v)


_H4 = hermitian_basis(4)
_H4_PT = np.array([partial_transpose(m, 1) for m in _H4])
_TRACE_H4 = np.einsum("kii->k", _H4).real


def _state(rho, dims=None) -> DensityState:
    """rho if a DensityState, else density_state(rho, dims or (d,))."""
    return rho if isinstance(rho, DensityState) else density_state(rho, dims or np.shape(rho)[:1])


def _two_qubit(a) -> np.ndarray:
    """a as a complex matrix, or DimMismatch unless it is 4x4."""
    m = as_matrix(a)
    if m.shape != (4, 4):
        raise DimMismatch(f"expected a 4x4 two-qubit matrix, got shape {m.shape}")
    return m


def er_ppt_solver(rho) -> float:
    """Generalized robustness of entanglement of a two-qubit state via PPT.

    Solves min Tr(sigma) s.t. sigma >= 0 and (rho + sigma)^{T_B} >= 0 with the
    primal-dual SDP solver; for 2x2 systems PPT is exact separability.  An
    array is checked as a state by density_state with dims (2, 2).
    """
    m = _two_qubit(_state(rho, (2, 2)).matrix)
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
    target, with y = y_start(rho0).  Returns the SolveInfo over x = (rho
    parameters, y); its multipliers are those of the trace and Bell rows.
    """
    spec = eig_hermitian(op)
    mu = spec.values
    _check_interior(mu, target)
    mean = float(mu.mean())
    n, k = len(_H4), len(c_y)
    # x = (rho params, y params)
    cones = [
        ConeConstraint(a0=np.zeros((4, 4), dtype=complex), basis=np.concatenate(pair))
        for pair in [(_H4, np.zeros((k, 4, 4), dtype=complex)), *y_cones]
    ]
    c = np.concatenate([np.zeros(n), c_y])
    bell = np.einsum("kij,ji->k", _H4, op).real
    # Tr(rho) = 1 and Tr(rho I) = target hold at x0
    a_eq = np.stack([np.concatenate([_TRACE_H4, np.zeros(k)]), np.concatenate([bell, np.zeros(k)])])
    t_mix = (target - mean) / (mu[0] - mean)
    v1 = spec.vectors[:, 0]
    rho0 = t_mix * np.outer(v1, v1.conj()) + (1.0 - t_mix) * np.eye(4) / 4.0
    x0 = np.concatenate([params_from_hermitian(rho0, _H4), y_start(rho0)])
    return barrier.solve_sdp(c, cones, x0, a_eq, gap_tol=gap_tol)


def er_min_for_value(op, target: float) -> tuple[float, DensityState]:
    """Minimal entanglement robustness over all states with Tr(rho I) = target.

    Joint SDP over (rho, sigma): min Tr(sigma) s.t. rho >= 0, Tr(rho) = 1,
    Tr(rho I) = target, sigma >= 0, (rho + sigma)^{T_B} >= 0.
    """
    sigma_cones = [(np.zeros_like(_H4), _H4), (_H4_PT, _H4_PT)]
    sigma0 = params_from_hermitian(np.eye(4, dtype=complex), _H4)
    info = _bell_value_program(
        _two_qubit(op), target, sigma_cones, _TRACE_H4, lambda rho0: sigma0, 1e-9
    )
    rho = hermitian_from_params(info.x[: len(_H4)], _H4)
    return max(0.0, info.value), density_state(rho, (2, 2), tol=1e-7)


_HALF_Z = np.diag([-0.5j, 0.5j])  # d/dt exp(-i t sigma_z / 2) = _HALF_Z exp(-i t sigma_z / 2)
_HALF_Y = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)  # likewise for sigma_y


def _product_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = a (x) b of x = (alpha_A, beta_A, alpha_B, beta_B) and dU/dx_j, shape (4, 4, 4).

    Each qubit's rotation is Rz(alpha) Ry(beta), every factor
    exp(-i angle sigma / 2).  A trailing Rz(gamma) would only put a phase on
    each column, so it would not change the basis projectors: gamma is a
    gauge, and leaving it out spares the search two flat directions.
    """
    sides = []
    for alpha, beta in x.reshape(2, 2):
        rz = np.diag(np.exp(alpha * _HALF_Z.diagonal()))
        ry = np.array(
            [[np.cos(beta / 2), -np.sin(beta / 2)], [np.sin(beta / 2), np.cos(beta / 2)]]
        )
        u = rz @ ry
        sides.append((u, np.array([_HALF_Z @ u, rz @ _HALF_Y @ ry])))
    (a, da), (b, db) = sides
    left = np.concatenate([da, np.broadcast_to(a, da.shape)])
    right = np.concatenate([np.broadcast_to(b, db.shape), db])
    du = np.einsum("kij,klm->kiljm", left, right).reshape(4, 4, 4)  # kron(left_k, right_k)
    return np.kron(a, b), du


def _rotate(m: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """U = basis and U^dag m U, or ValueError unless U has m's shape and orthonormal columns."""
    u = np.asarray(basis, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite U fails the test
        bad = u.shape != m.shape or not (np.abs(u.conj().T @ u - np.eye(len(m))).max() <= 1e-10)
    if bad:
        raise ValueError(f"basis must be {m.shape[0]}x{m.shape[1]} with orthonormal columns")
    return u, u.conj().T @ m @ u


@functools.cache
def _diag_basis(d: int) -> np.ndarray:
    """The matrix units E_ii: the first d elements of hermitian_basis(d)."""
    return hermitian_basis(d)[:d]


def cr_fixed_basis(rho, basis: np.ndarray, *, gap_tol: float = 1e-9, gradient: bool = False):
    """Generalized robustness of coherence in a fixed orthonormal product basis.

    Equivalent program: min Tr(D) - 1 over D diagonal in the basis with
    D >= rho.  With gradient=True returns (value, G), where G = 2 rho U Z
    gives the change of the value with the basis U as Re tr(G^dag dU): only
    the cone's a0 = -U^dag rho U depends on U, and Z is its dual.  An array
    is checked as a state by density_state with dims (d,).
    """
    m = _state(rho).matrix
    d = m.shape[0]
    u, rot = _rotate(m, basis)
    cones = [ConeConstraint(a0=-rot, basis=_diag_basis(d))]
    x0 = np.real(np.diag(rot)) + 1.0
    info = barrier.solve_sdp(np.ones(d), cones, x0, gap_tol=gap_tol)
    value = max(0.0, info.value - 1.0)
    return (value, 2.0 * m @ u @ info.z) if gradient else value


def cr_min_for_value(
    op, target: float, basis: np.ndarray, *, gap_tol: float = 1e-8, gradient: bool = False
):
    """Minimal coherence robustness (fixed basis) over states with Tr(rho I) = target.

    With gradient=True returns (value, G), where G = -2 nu I U rho gives the
    change of the value with the basis U as Re tr(G^dag dU): only the Bell row
    Tr(rho U^dag I U) = target depends on U, nu is its multiplier and rho the
    optimal state in the basis.
    """
    op = _two_qubit(op)
    u, rot = _rotate(op, basis)
    info = _bell_value_program(
        rot, target, [(-_H4, _diag_basis(4))], np.ones(4),
        lambda rho0: np.real(np.diag(rho0)) + 1.0, gap_tol,
    )
    value = max(0.0, info.value - 1.0)
    if not gradient:
        return value
    rho = hermitian_from_params(info.x[: len(_H4)], _H4)
    return value, -2.0 * info.multipliers[1] * op @ u @ rho


def _angle_objective(program):
    """x -> (C_R, its gradient in the four angles) of program(U) at U = _product_basis(x).

    The gradient comes from the solve itself (envelope theorem), chained to
    the angles.  A basis whose solve fails gets (inf, 0).
    """

    def objective(x):
        u, du = _product_basis(x)
        try:
            value, g = program(u, gap_tol=1e-8, gradient=True)
        except SolverFailure:
            return np.inf, np.zeros(4)
        return value, np.einsum("kij,ij->k", du, g.conj()).real

    return objective


# A full BFGS step that predicts a fall -g.p below this ends the run.  C_R values
# from gap-1e-8 solves cannot resolve such a fall, and once 1e-4 t g.p is under
# half an ulp of f the Armijo bound f + 1e-4 t g.p rounds to f itself, so a trial
# "falls" without lowering f and the run would spend its remaining steps in place.
_NEGLIGIBLE_FALL = 1e-11


def _bfgs(fun, x: np.ndarray) -> tuple[np.ndarray, float]:
    """BFGS on fun(x) -> (value, gradient) from x, with a backtracking line search.

    Each step tries the quasi-Newton step p = -H g, scaled to a length of at
    most 1, and halves it until the value falls by at least 1e-4 t g.p, at
    most 10 trials; an inf value counts as no fall, so the search backs off
    from a point whose value could not be computed.  H's update is skipped
    unless y.s > 0.  Stops at a value that is not finite, at an inf-norm
    gradient of at most 1e-6, after 100 steps, before a line search whose
    full step predicts a fall -g.p below _NEGLIGIBLE_FALL, or when no trial
    falls.  Returns the point reached and its value.
    """
    f, g = fun(x)
    h = np.eye(len(x))
    for _ in range(100):
        if not (f < np.inf and np.abs(g).max() > 1e-6):
            break
        p = -h @ g
        p /= max(1.0, np.linalg.norm(p))
        if -(g @ p) < _NEGLIGIBLE_FALL:
            break
        for t in 0.5 ** np.arange(10):
            f_new, g_new = fun(x + t * p)
            if f_new <= f + 1e-4 * t * (g @ p):
                break
        else:
            break
        s, y = t * p, g_new - g
        x, f, g = x + s, f_new, g_new
        if y @ s > 0:
            r = np.eye(len(x)) - np.outer(s, y) / (y @ s)
            h = r @ h @ r.T + np.outer(s, s) / (y @ s)
    return x, float(f)


def cr_min_over_product_bases(
    rho, *, restarts: int = 4, seed: int | None = None, target_op=None, target: float | None = None
) -> tuple[float, np.ndarray]:
    """Best-effort minimization of coherence robustness over all product bases.

    Give either rho, held fixed, or target_op with target, in which case the
    state is also optimized inside each basis (the joint program of the
    three-setting experiment).  From each of `restarts` random starts (an
    integer of at least 1, not a bool, else ValueError) one BFGS run (_bfgs)
    goes over the four local-rotation angles (alpha, beta) per qubit, every
    solve at gap 1e-8, and the best run is kept.  Each step backtracks from
    the quasi-Newton step until the value falls enough (Armijo), and a run
    stops at an inf-norm gradient of at most 1e-6, after 100 steps, when the
    full step predicts a fall below 1e-11, or when 10 trial steps give no
    fall.  On the three-setting fixture every start reaches the same C_R (32
    starts within 3.4e-11; 17 of them stop on the last two rules, where the
    gap-1e-8 solves leave the gradient too noisy for 1e-6), so a few
    restarts suffice.  A third Euler angle gamma per qubit
    would only put a phase on each basis column, which leaves C_R unchanged,
    so it is a gauge and is left out.  The gradient comes from the solve
    itself (envelope theorem), chained to the angles; it costs no extra
    solves.  Returns an upper bound to the true minimum and the best basis
    found.

    A basis whose solve fails gets the value inf: a start there stops at
    once, and a line search that meets one halves its step, as it does for
    any trial that gives no fall.
    SolverFailure is raised when every basis tried failed.
    """
    _check_integer(restarts, 1, "restarts", ValueError)
    joint = target_op is not None
    if (rho is not None) == joint or (target is not None) != joint:
        raise ValueError("give rho, or target_op together with target, but not both")

    if joint:
        program = functools.partial(cr_min_for_value, target_op, target)
    else:
        program = functools.partial(cr_fixed_basis, _state(rho))
    objective = _angle_objective(program)
    rng = default_rng(seed)
    # each start draws all six Euler angles, so a seed gives the same stream as
    # ever, and keeps the four that are not a gauge
    runs = [
        _bfgs(objective, rng.uniform(0.0, 2.0 * np.pi, size=6)[[0, 1, 3, 4]])
        for _ in range(restarts)
    ]
    x, value = min(runs, key=lambda run: run[1])
    if not np.isfinite(value):
        raise SolverFailure(
            f"no product basis gave a finite C_R: best {value} in {restarts} restarts"
        )
    return value, _product_basis(x)[0]
