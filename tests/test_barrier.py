"""Tests for the primal-dual SDP solver, with and without equality rows."""

import warnings

import numpy as np
import pytest

from bellres import barrier, bell, bounds, twoqubit
from bellres.barrier import ConeConstraint, hermitian_basis, solve_sdp
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


_TWO_PARAMETER_CONE = ConeConstraint(a0=np.eye(2, dtype=complex), basis=hermitian_basis(2)[:2])


@pytest.mark.parametrize(
    "c, cones, x0, a_eq, gap_tol, name",
    [
        ([1.0], [_PAIR_CONE], [3.0], None, np.nan, "gap_tol"),
        ([1.0], [_PAIR_CONE], [3.0], None, 0.0, "gap_tol"),
        ([1.0], [_PAIR_CONE], [3.0], None, -1.0, "gap_tol"),
        ([1.0], [_PAIR_CONE], [3.0], None, np.inf, "gap_tol"),
        ([1.0], [], [3.0], None, 1e-9, "cones"),
        ([1.0], [_PAIR_CONE, _TWO_PARAMETER_CONE], [3.0], None, 1e-9, "cones"),
        ([np.inf], [_PAIR_CONE], [3.0], None, 1e-9, "c"),
        ([np.nan], [_PAIR_CONE], [3.0], None, 1e-9, "c"),
        ([1.0], [_PAIR_CONE], [np.nan], None, 1e-9, "x0"),
        ([1.0, 1.0], [_TWO_PARAMETER_CONE], [0.0, 0.0], [[np.inf, 1.0]], 1e-9, "a_eq"),
        ([1.0, 1.0], [_TWO_PARAMETER_CONE], [0.0, 0.0], [[np.nan, 1.0]], 1e-9, "a_eq"),
        ([1.0, 1.0], [_PAIR_CONE], [3.0], None, 1e-9, "c"),
        ([1.0], [_PAIR_CONE], [3.0, 3.0], None, 1e-9, "x0"),
        ([1.0, 1.0], [_TWO_PARAMETER_CONE], [0.0, 0.0], [[1.0, 1.0, 1.0]], 1e-9, "a_eq"),
        ([1.0, 1.0], [_TWO_PARAMETER_CONE], [0.0], None, 1e-9, "x0"),
    ],
    ids=["gap-nan", "gap-0", "gap-negative", "gap-inf", "no-cones", "cones-disagree", "c-inf",
         "c-nan", "x0-nan", "a_eq-inf", "a_eq-nan", "c-too-long", "x0-too-long",
         "a_eq-too-wide", "x0-too-short"],
)
def test_malformed_program_raises_value_error(c, cones, x0, a_eq, gap_tol, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        solve_sdp(np.array(c), cones, np.array(x0), a_eq, gap_tol=gap_tol)


# these returned an empty basis, or hit range()'s TypeError
@pytest.mark.parametrize("d", [0, -1, 2.0, True])
def test_hermitian_basis_needs_a_dimension_of_at_least_1(d):
    with pytest.raises(ValueError, match="integer d of at least 1"):
        hermitian_basis(d)


def test_pair_cone_minimum():
    info = solve_sdp(np.ones(1), [_PAIR_CONE], np.array([3.0]))
    assert info.value == pytest.approx(1.0, abs=1e-8)
    assert info.x[0] == pytest.approx(1.0, abs=1e-8)
    assert info.multipliers is None  # no equality rows
    assert info.z.shape == (2, 2)


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
    info = solve_sdp(c, [psd], x0, trace[None])
    assert info.value == pytest.approx(np.linalg.eigvalsh(c_mat)[0], abs=1e-8)
    # C - Z - nu 1 = 0 with Z >= 0 singular: the trace row's multiplier is the minimum
    assert info.multipliers[0] == pytest.approx(np.linalg.eigvalsh(c_mat)[0], abs=1e-8)
    assert trace @ info.x == pytest.approx(1.0, abs=1e-12)
    assert info.value - info.dual_value == pytest.approx(info.gap, abs=1e-12)


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


def test_heavy_ppt_state_evaluation_count(monkeypatch, bds_matrix):
    # one of the slow entangled states of the PPT program: a solver that repeats steps
    # which leave x unchanged runs to thousands of cone evaluations; this one takes about ten
    calls = []
    evaluate = barrier.ConeConstraint.evaluate

    def counted(cone, x):
        calls.append(1)
        return evaluate(cone, x)

    monkeypatch.setattr(barrier.ConeConstraint, "evaluate", counted)
    rho = bds_matrix([0.63, 0.23, 0.09, 0.05], (2, 0, 3, 1))
    assert twoqubit.er_ppt_solver(rho) == pytest.approx(0.26, abs=1e-7)
    assert len(calls) <= 2000


def test_singular_schur_matrix(euler_basis):
    # near this optimum the Schur matrix is numerically singular: a plain solve of it
    # raises LinAlgError, while the truncated eigendecomposition converges
    op = bell.build_bell_operator(bell.chsh_scenario())
    target = 2.6086762566521635
    lam1 = bounds.min_lambda1_for_value(eig_hermitian(op).values, target, 4).lambdas[0]
    # Ry(pi/2) Rz(pi) = -i H on each qubit: the x-product basis H (x) H up to a global sign
    x_product = euler_basis([0.0, np.pi / 2, np.pi] * 2)
    c_r = twoqubit.cr_min_for_value(op, target, x_product)
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


def test_fixture_panel_evaluation_count(i3322_scenario, solver_counts, euler_basis):
    # the fixed-basis solves of the product-basis C_R search, at both of its gaps
    evaluations, iterations = solver_counts
    op = bell.build_bell_operator(i3322_scenario)
    angles = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=(60, 6))
    per_solve = []
    for gap_tol in (1e-6, 1e-8):
        for basis in map(euler_basis, angles):
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


def test_redundant_equality_rows_hold_at_the_solution():
    # min c.x over 3 x 3 density matrices with one more row; the third row is the sum
    # of the first two, so the row set has rank 2
    rng = np.random.default_rng(0xBA)
    basis = hermitian_basis(3)
    trace = np.einsum("kii->k", basis).real
    row = rng.normal(size=9)
    a_eq = np.vstack([trace, row, trace + row])
    x0 = barrier.params_from_hermitian(np.eye(3, dtype=complex) / 3.0, basis)
    c = rng.normal(size=9)
    psd = ConeConstraint(a0=np.zeros((3, 3), dtype=complex), basis=basis)
    info = solve_sdp(c, [psd], x0, a_eq)
    np.testing.assert_allclose(a_eq @ info.x, a_eq @ x0, rtol=0.0, atol=1e-12)
    assert info.value == c @ info.x
    # the multipliers close the KKT system c - A*(Z) = a_eq^T nu despite the redundant row
    a_z = np.einsum("kij,ji->k", basis, info.z).real
    assert np.abs(c - a_z - a_eq.T @ info.multipliers).max() <= 1e-8


def _random_hermitian(rng, shape):
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return g + np.swapaxes(g, -1, -2).conj()


@pytest.mark.parametrize("m", [4, 8, 12])
@pytest.mark.parametrize("stack", [(), (2,)], ids=["single", "pair"])
def test_lapack_calls_equal_numpy_linalg_to_the_bit(m, stack):
    # the loop calls numpy.linalg's own gufuncs without its wrappers; a numpy
    # release that changes that private route fails here
    rng = np.random.default_rng(m)
    h = _random_hermitian(rng, stack + (m, m))
    pd = h @ np.swapaxes(h, -1, -2).conj() + np.eye(m)
    factor = np.linalg.cholesky(pd)
    for one, want in zip(pd.reshape(-1, m, m), factor.reshape(-1, m, m)):  # one matrix a call
        assert np.array_equal(barrier._cholesky(one, "unused"), want)
    assert np.array_equal(barrier._inv(factor), np.linalg.inv(factor))
    assert np.array_equal(barrier._eigvalsh(h), np.linalg.eigvalsh(h))
    real = h.real + np.swapaxes(h.real, -1, -2)
    for got, want in zip(barrier._eigh(real), np.linalg.eigh(real)):
        assert np.array_equal(got, want)


def test_non_positive_definite_cholesky_raises_without_a_warning():
    h = np.diag([1.0, -1.0, 2.0, 3.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure, match="^not positive definite$"):
            barrier._cholesky(h, "not positive definite")


def test_solve_calls_no_numpy_linalg_factorisation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called inside the loop")

    for name in ("cholesky", "inv", "eigvalsh", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    info = solve_sdp(np.ones(1), [_PAIR_CONE], np.array([3.0]))
    assert info.value == pytest.approx(1.0, abs=1e-8)
