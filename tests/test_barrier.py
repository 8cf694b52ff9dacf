"""Tests for the primal-dual SDP solver and the equality elimination."""

import numpy as np
import pytest

from bellres import barrier, bell, bounds, twoqubit
from bellres.barrier import ConeConstraint, eliminate_equalities, hermitian_basis, solve_sdp
from bellres.errors import SolverFailure
from bellres.linalg import eig_hermitian

# [[x, 1], [1, x]] >= 0 in one real parameter x; its eigenvalues are x - 1 and x + 1
_PAIR_CONE = ConeConstraint(
    a0=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), basis=np.eye(2, dtype=complex)[None]
)


@pytest.mark.parametrize("x0", [0.5, 1.0], ids=["outside", "boundary"])
def test_start_must_be_strictly_feasible(x0):
    with pytest.raises(SolverFailure, match="strictly feasible"):
        solve_sdp(np.ones(1), [_PAIR_CONE], np.array([x0]))


def test_pair_cone_minimum():
    info = solve_sdp(np.ones(1), [_PAIR_CONE], np.array([3.0]))
    assert info.value == pytest.approx(1.0, abs=1e-8)
    assert info.x[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("gap_tol", [1e-6, 1e-9])
def test_pair_cone_certificate(gap_tol):
    info = solve_sdp(np.ones(1), [_PAIR_CONE], np.array([3.0]), gap_tol=gap_tol)
    assert 0.0 <= info.gap <= gap_tol
    assert info.value - info.dual_value == pytest.approx(info.gap, abs=1e-12)
    assert info.dual_value <= 1.0 <= info.value


def test_unbounded_program_raises():
    # min -x s.t. [x] >= 0: c.x falls without bound along a direction that stays in the cone
    ray = ConeConstraint(a0=np.zeros((1, 1), dtype=complex), basis=np.ones((1, 1, 1)) + 0j)
    with pytest.raises(SolverFailure, match="unbounded"):
        solve_sdp(-np.ones(1), [ray], np.array([1.0]))


def test_complex_data_minimum():
    # min Re tr(C X) over density matrices X is lambda_min(C); C has large imaginary parts,
    # so pairing A_i with Z^T instead of Z in Re tr(A_i Z) would miss the minimum
    rng = np.random.default_rng(0xC0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c_mat = g + g.conj().T
    basis = hermitian_basis(4)
    c = np.einsum("kij,ji->k", basis, c_mat).real
    x0 = barrier.params_from_hermitian(np.eye(4, dtype=complex) / 4.0, basis)
    trace = np.einsum("kii->k", basis).real
    psd = ConeConstraint(a0=np.zeros((4, 4), dtype=complex), basis=basis)
    c_z, cones_z, null = eliminate_equalities(c, [psd], trace[None], x0)
    info = solve_sdp(c_z, cones_z, np.zeros(null.shape[1]))
    assert info.value + c @ x0 == pytest.approx(np.linalg.eigvalsh(c_mat)[0], abs=1e-8)



def test_cones_of_different_sizes():
    # diag(x - 2, x, x) >= 0 binds at x = 2, inside the pair cone's x >= 1
    diag = ConeConstraint(
        a0=np.diag([-2.0, 0.0, 0.0]).astype(complex), basis=np.eye(3, dtype=complex)[None]
    )
    info = solve_sdp(np.ones(1), [_PAIR_CONE, diag], np.array([3.0]))
    assert info.value == pytest.approx(2.0, abs=1e-8)
    assert info.x[0] == pytest.approx(2.0, abs=1e-8)


def test_evaluate_is_the_affine_sum():
    rng = np.random.default_rng(0xBB)
    g = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    herm = g + g.conj().transpose(0, 2, 1)
    cone = ConeConstraint(a0=herm[0], basis=herm[1:])
    x = rng.normal(size=5)
    want = herm[0] + sum(xi * b for xi, b in zip(x, herm[1:]))
    np.testing.assert_allclose(cone.evaluate(x), want, atol=1e-12)


def test_heavy_ppt_state_evaluation_count(monkeypatch):
    # one of the slow entangled states of the PPT program: thousands of cone
    # evaluations when Newton steps that leave x unchanged kept repeating
    calls = []
    evaluate = barrier.ConeConstraint.evaluate

    def counted(cone, x):
        calls.append(1)
        return evaluate(cone, x)

    monkeypatch.setattr(barrier.ConeConstraint, "evaluate", counted)
    rho = twoqubit.BdsState(np.array([0.63, 0.23, 0.09, 0.05]), (2, 0, 3, 1)).matrix()
    assert twoqubit.er_ppt_solver(rho) == pytest.approx(0.26, abs=1e-7)
    assert len(calls) <= 2000


def test_singular_schur_matrix():
    # near this optimum the Schur matrix is numerically singular: a plain solve of it
    # raises LinAlgError, while the truncated eigendecomposition converges
    op = bell.build_bell_operator(bell.chsh_scenario())
    target = 2.6086762566521635
    lam1 = bounds.min_lambda1_for_value(eig_hermitian(op).values, target, 4).lambdas[0]
    c_r = twoqubit.cr_min_for_value(op, target, twoqubit.product_basis_matrix("x-product"))
    assert c_r == pytest.approx(2.0 * lam1 - 1.0, abs=1e-7)


@pytest.fixture
def solver_counts(monkeypatch):
    """Cone evaluations and SolveInfo.iterations of every solve, as two live lists."""
    evaluations, iterations = [], []
    evaluate, solve = barrier.ConeConstraint.evaluate, barrier.solve_sdp

    def counted_evaluate(cone, x):
        evaluations.append(1)
        return evaluate(cone, x)

    def counted_solve(*args, **kwargs):
        info = solve(*args, **kwargs)
        iterations.append(info.iterations)
        return info

    monkeypatch.setattr(barrier.ConeConstraint, "evaluate", counted_evaluate)
    monkeypatch.setattr(barrier, "solve_sdp", counted_solve)
    return evaluations, iterations


def test_fixture_panel_evaluation_count(i3322_scenario, solver_counts):
    # the fixed-basis solves of the product-basis C_R search, at both of its gaps
    evaluations, iterations = solver_counts
    op = bell.build_bell_operator(i3322_scenario)
    angles = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=(60, 6))
    per_solve = []
    for gap_tol in (1e-6, 1e-8):
        for basis in map(twoqubit.product_basis_matrix, angles):
            evaluations.clear()
            twoqubit.cr_min_for_value(op, 4.001, basis, gap_tol=gap_tol)
            per_solve.append(len(evaluations))
    assert len(iterations) == 120
    assert max(per_solve) <= 40
    assert np.median(iterations) <= 20
    evaluations.clear()
    e_r, _ = twoqubit.er_min_for_value(op, 4.001)
    assert e_r == pytest.approx(0.8291711375, abs=1e-8)
    assert len(evaluations) <= 60


def test_eliminated_equalities_hold_on_the_null_space():
    rng = np.random.default_rng(0xBA)
    rows = rng.normal(size=(2, 5))
    a_eq = np.vstack([rows, rows.sum(axis=0)])  # rank 2: the third row is redundant
    x0 = rng.normal(size=5)
    sym = rng.normal(size=(5, 3, 3))
    cone = ConeConstraint(a0=np.eye(3, dtype=complex), basis=(sym + sym.transpose(0, 2, 1)) + 0j)
    c = rng.normal(size=5)
    c_z, (cone_z,), null = eliminate_equalities(c, [cone], a_eq, x0)
    assert null.shape == (5, 3)
    z = rng.normal(size=3)
    x = x0 + null @ z
    np.testing.assert_allclose(a_eq @ x, a_eq @ x0, atol=1e-12)
    np.testing.assert_allclose(cone_z.evaluate(z), cone.evaluate(x), atol=1e-12)
    assert c_z @ z == pytest.approx(c @ x - c @ x0, abs=1e-12)
