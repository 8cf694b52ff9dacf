"""Tests for the two-qubit resource machinery and the convex verifiers."""

import numpy as np
import pytest

from bellres import bell, twoqubit
from bellres.errors import Infeasible, NotBellDiagonal, OutOfRange
from bellres.linalg import PAULI_X, PAULI_Z, density_state, eig_hermitian, tensor
from bellres.oracles import default_rng
from bellres.twoqubit import (
    _B,
    BdsState,
    c_max,
    chsh_eigenvalues,
    chsh_max_value,
    cr_fixed_basis,
    cr_min_for_value,
    cr_min_over_product_bases,
    er_min_for_value,
    er_ppt_solver,
    is_bell_diagonal,
    lambda1_heatmap,
    min_er_vs_c_curve,
    min_er_vs_ca_curve,
    min_resources_for_value,
    product_basis_matrix,
    steering_eigenvalues,
)

RT2 = np.sqrt(2.0)
TSIRELSON = 2 * RT2


def _bds_matrix(lambdas, perm=(0, 1, 2, 3)):
    state = BdsState(np.asarray(lambdas, dtype=float), tuple(perm))
    m = state.matrix()
    return (m + m.conj().T) / 2


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestBdsState:
    def test_entangled_flag(self):
        assert BdsState(np.array([0.6, 0.4, 0.0, 0.0])).entangled
        assert not BdsState(np.array([0.5, 0.5, 0.0, 0.0])).entangled

    def test_matrix_spectrum(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        vals = eig_hermitian(_bds_matrix(lam, (2, 0, 3, 1))).values
        assert np.allclose(vals, lam, atol=1e-12)


class TestIsBellDiagonal:
    def test_chsh_default(self, chsh_op):
        flag, _ = is_bell_diagonal(chsh_op)
        assert flag

    def test_product_operator(self):
        flag, _ = is_bell_diagonal(tensor(PAULI_Z, np.eye(2)))
        assert not flag

    def test_steering_operator(self):
        op = bell.steering_operator_f2(PAULI_Z, PAULI_X)
        flag, _ = is_bell_diagonal(op)
        assert flag

    def test_random_chsh_settings(self):
        rng = default_rng(0x1BD)
        for _ in range(1000):
            obs = [bell.observable_from_bloch(random_bloch(rng)) for _ in range(4)]
            op = (
                tensor(obs[0], obs[2])
                + tensor(obs[0], obs[3])
                + tensor(obs[1], obs[2])
                - tensor(obs[1], obs[3])
            )
            flag, _ = is_bell_diagonal(op)
            assert flag

    def test_wrong_dim(self):
        with pytest.raises(OutOfRange):
            is_bell_diagonal(np.eye(2))


class TestMinResourcesForValue:
    def test_tsirelson(self, chsh_op):
        rep = min_resources_for_value(chsh_op, 2.0, TSIRELSON - 2.0)
        assert rep.e_r == pytest.approx(1.0, abs=1e-12)
        assert rep.p_r == pytest.approx(3.0, abs=1e-12)

    def test_v02(self, chsh_op):
        rep = min_resources_for_value(chsh_op, 2.0, 0.2)
        lam1 = 2.2 / TSIRELSON
        assert rep.e_r == pytest.approx(2 * lam1 - 1, abs=1e-10)
        assert rep.p_r == pytest.approx(4 * lam1 - 1, abs=1e-10)
        assert rep.c_r == rep.d_r == rep.e_r
        # the witness state achieves the Bell value
        got = np.trace(rep.witness_state.matrix @ chsh_op).real
        assert got == pytest.approx(2.2, abs=1e-10)
        # the void state is separable (PPT) with zero robustness
        assert er_ppt_solver(rep.void_state) <= 1e-7

    def test_phi_plus_psi_plus_pair_is_x_product(self):
        op = _bds_matrix([1.0, 0.0, 0.0, 0.0]) * 3 + _bds_matrix([0.0, 0.0, 1.0, 0.0]) * 2
        op += -1.0 * _bds_matrix([0.0, 0.0, 0.0, 1.0])  # spectrum (3, 2, 0, -1)
        rep = min_resources_for_value(op, 2.0, 0.8)
        assert rep.coherence_basis == "x-product"
        # closest incoherent state in that basis reproduces E_R
        basis = product_basis_matrix("x-product")
        got = cr_fixed_basis(rep.witness_state, basis)
        assert abs(got - rep.e_r) <= 1e-6

    def test_not_bell_diagonal(self):
        with pytest.raises(NotBellDiagonal):
            min_resources_for_value(tensor(PAULI_Z, np.eye(2)), 1.0, 0.1)

    def test_infeasible(self, chsh_op):
        with pytest.raises(Infeasible):
            min_resources_for_value(chsh_op, 2.0, 1.0)

    def test_bad_violation(self, chsh_op):
        with pytest.raises(OutOfRange):
            min_resources_for_value(chsh_op, 2.0, -0.1)


class TestChshFormulas:
    def test_eigenvalues_c4(self):
        assert np.allclose(chsh_eigenvalues(4.0), [TSIRELSON, 0, 0, -TSIRELSON])

    def test_eigenvalues_c0(self):
        assert np.allclose(chsh_eigenvalues(0.0), [2, 2, -2, -2])

    def test_eigenvalues_c32_matches_settings(self):
        got = chsh_eigenvalues(3.2)
        assert np.allclose(got, [np.sqrt(7.2), np.sqrt(0.8), -np.sqrt(0.8), -np.sqrt(7.2)])
        # realize C = 3.2 with actual settings and eigendecompose
        a1, a2 = bell.chsh_settings_for_c(np.sqrt(3.2))
        b1, b2 = bell.chsh_settings_for_c(np.sqrt(3.2))
        op = tensor(a1, b1) + tensor(a1, b2) + tensor(a2, b1) - tensor(a2, b2)
        assert np.abs(eig_hermitian(op).values - got).max() <= 1e-9

    def test_max_value_examples(self):
        assert chsh_max_value(1.0, 4.0) == pytest.approx(TSIRELSON, abs=1e-12)
        assert chsh_max_value(0.75, 3.2) == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert chsh_max_value(0.5, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_c_max_examples(self):
        assert c_max(1.0) == pytest.approx(4.0, abs=1e-12)
        assert c_max(0.5) == pytest.approx(0.0, abs=1e-12)
        assert c_max(0.75) == pytest.approx(3.2, abs=1e-12)

    def test_c_max_is_argmax(self):
        for lam1 in np.linspace(0.51, 0.99, 9):
            star = chsh_max_value(lam1, c_max(lam1))
            for c in np.linspace(0.0, 4.0, 100):
                assert star >= chsh_max_value(lam1, float(c)) - 1e-12

    def test_c_max_stationarity(self):
        lam1 = 0.8
        c0 = c_max(lam1)
        h = 1e-6
        deriv = (chsh_max_value(lam1, c0 + h) - chsh_max_value(lam1, c0 - h)) / (2 * h)
        assert abs(deriv) <= 1e-5

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            chsh_eigenvalues(4.5)
        with pytest.raises(OutOfRange):
            chsh_max_value(0.4, 2.0)
        with pytest.raises(OutOfRange):
            c_max(1.1)


class TestCurves:
    def test_curve_anchor_values(self):
        pts = min_er_vs_c_curve(0.001, [0.5, 4.0])
        # independent closed form: E_R = 2 lam1 - 1 with
        # lam1 = (target - mu2) / (mu1 - mu2), mu = +-sqrt(4 +- C)
        lam1_low = (2.001 - np.sqrt(3.5)) / (np.sqrt(4.5) - np.sqrt(3.5))
        assert pts[0].e_r == pytest.approx(2 * lam1_low - 1, abs=1e-10)
        assert pts[1].e_r == pytest.approx(2 * 2.001 / np.sqrt(8.0) - 1, abs=1e-10)
        assert pts[0].e_r < pts[1].e_r  # non-monotone dip exists

    def test_infeasible_cells(self):
        pts = min_er_vs_c_curve(0.001, [0.0, 0.002, 0.01])
        assert not pts[0].feasible
        assert not pts[1].feasible
        assert pts[2].feasible

    def test_tsirelson_point(self):
        pts = min_er_vs_c_curve(TSIRELSON - 2.0, np.linspace(0, 4, 5))
        feas = [p for p in pts if p.feasible]
        assert len(feas) == 1
        assert feas[0].x == 4.0
        assert feas[0].e_r == pytest.approx(1.0, abs=1e-9)

    def test_steering_eigenvalues(self):
        assert np.allclose(steering_eigenvalues(2.0), [2, 0, 0, -2])
        assert np.allclose(steering_eigenvalues(0.0), [RT2, RT2, -RT2, -RT2])
        with pytest.raises(OutOfRange):
            steering_eigenvalues(2.5)

    def test_steering_curve_non_monotone(self):
        pts = [p for p in min_er_vs_ca_curve(0.01, np.linspace(0, 2, 101)) if p.feasible]
        e = [p.e_r for p in pts]
        k = int(np.argmin(e))
        assert 0 < k < len(e) - 1  # interior dip

    def test_steering_ca0_infeasible(self):
        pts = min_er_vs_ca_curve(0.01, [0.0])
        assert not pts[0].feasible


def _heatmap_loop(v, ca_grid, cb_grid):
    """Per-cell reference for lambda1_heatmap: lam1 at C = C_A C_B, NaN where infeasible."""
    target = 2.0 + v
    lam1 = np.full((len(ca_grid), len(cb_grid)), np.nan)
    for i, c_a in enumerate(ca_grid):
        for j, c_b in enumerate(cb_grid):
            c = c_a * c_b
            hi, lo = np.sqrt(4.0 + c), np.sqrt(4.0 - c)
            if target <= hi + 1e-12:
                lam1[i, j] = min(1.0, (target - lo) / (hi - lo))
    return lam1


class TestHeatmap:
    # the last v puts the target 5e-13 above mu1 at C = 4: feasible by the slack, lam1 clamped
    @pytest.mark.parametrize("v", [0.001, 0.3, TSIRELSON - 2.0 + 5e-13])
    def test_matches_per_cell_loop(self, v):
        ca, cb = np.linspace(0, 2, 81), np.linspace(0, 2, 41)
        grid = lambda1_heatmap(v, ca, cb)
        lam1 = _heatmap_loop(v, ca, cb)
        assert grid.shape == (81, 41)
        np.testing.assert_array_equal(grid.x, np.broadcast_to(cb, grid.shape))
        np.testing.assert_array_equal(grid.lambda1, lam1)
        np.testing.assert_array_equal(grid.e_r, 2.0 * lam1 - 1.0)
        np.testing.assert_array_equal(grid.p_r, 4.0 * lam1 - 1.0)
        np.testing.assert_array_equal(grid.feasible, ~np.isnan(lam1))

    def test_out_of_domain(self):
        with pytest.raises(OutOfRange):
            lambda1_heatmap(0.001, [0.0, 3.0], [2.0, 3.0])
        with pytest.raises(OutOfRange):
            lambda1_heatmap(0.001, [0.0, 2.5], [0.0, 0.5])  # product 1.25 is a valid C
        with pytest.raises(OutOfRange):
            lambda1_heatmap(0.001, [1.0], [-0.5])

    def test_corner_cells(self):
        rows = lambda1_heatmap(0.001, [2.0], [0.0, 2.0])
        assert not rows[0][0].feasible  # (2, 0): max eigenvalue 2 = local bound
        col = min_er_vs_c_curve(0.001, [4.0])[0]
        assert rows[0][1].lambda1 == pytest.approx(col.lambda1, abs=1e-12)


class TestErSolvers:
    def test_phi_plus(self):
        rho = density_state(_bds_matrix([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert er_ppt_solver(rho) == pytest.approx(1.0, abs=1e-6)

    def test_separable(self):
        rho = density_state(np.eye(4) / 4, (2, 2))
        assert er_ppt_solver(rho) <= 1e-7

    def test_bds_075(self):
        rho = density_state(_bds_matrix([0.75, 0.25, 0.0, 0.0]), (2, 2))
        assert er_ppt_solver(rho) == pytest.approx(0.5, abs=1e-6)

    def test_random_bds_agreement(self):
        rng = default_rng(0xE2)
        for _ in range(30):
            lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            perm = tuple(int(i) for i in rng.permutation(4))
            rho = density_state(_bds_matrix(lam, perm), (2, 2))
            assert er_ppt_solver(rho) == pytest.approx(max(0.0, 2 * lam[0] - 1), abs=1e-5)

    def test_joint_min_matches_closed_form(self, chsh_op):
        # for a Bell-diagonal operator the joint minimum over states equals
        # the closed form from the rank-2 construction
        e_r, rho = er_min_for_value(chsh_op, 2.2)
        lam1 = 2.2 / TSIRELSON
        assert e_r == pytest.approx(2 * lam1 - 1, abs=1e-5)
        assert np.trace(rho.matrix @ chsh_op).real == pytest.approx(2.2, abs=1e-6)

    # CHSH: Tr(I)/d = 0 and mu1 = 2 sqrt 2
    @pytest.mark.parametrize("target", [3.0, -0.5], ids=["above-mu1", "below-mean"])
    @pytest.mark.parametrize(
        "program",
        [er_min_for_value, lambda op, target: cr_min_for_value(op, target, np.eye(4))],
        ids=["er", "cr"],
    )
    def test_joint_min_infeasible(self, chsh_op, program, target):
        with pytest.raises(Infeasible):
            program(chsh_op, target)


class TestCrSolvers:
    def test_diagonal_state(self):
        rho = density_state(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
        assert cr_fixed_basis(rho, np.eye(4)) <= 1e-7

    def test_single_qubit_plus(self):
        plus = np.full((2, 2), 0.5)
        assert cr_fixed_basis(plus, np.eye(2)) == pytest.approx(1.0, abs=1e-6)

    def test_non_orthonormal_basis_rejected(self):
        rho = density_state(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            cr_fixed_basis(rho, np.ones((4, 4)))

    def test_rank2_phi_mixture_computational_basis(self):
        lam = [0.8, 0.2, 0.0, 0.0]
        rho = density_state(_bds_matrix(lam), (2, 2))
        value, basis = cr_min_over_product_bases(rho, restarts=8, seed=0xC0)
        assert value == pytest.approx(0.6, abs=1e-4)
        # computational basis itself already reaches 2*lam1 - 1
        assert cr_fixed_basis(rho, np.eye(4)) == pytest.approx(0.6, abs=1e-6)

    def test_product_pure_state(self):
        ket = np.kron([1.0, 0.0], [1.0 / RT2, 1.0 / RT2])
        rho = density_state(np.outer(ket, ket), (2, 2))
        value, _ = cr_min_over_product_bases(rho, restarts=8, seed=0xC1)
        assert value <= 1e-4

    def test_joint_cr_at_least_joint_er(self, chsh_op):
        c_r = cr_min_for_value(chsh_op, 2.2, np.eye(4))
        e_r, _ = er_min_for_value(chsh_op, 2.2)
        assert c_r >= e_r - 1e-6

    def test_product_basis_matrix_named_and_angles(self):
        for label in ("z-product", "x-product", "y-product"):
            u = product_basis_matrix(label)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
        u = product_basis_matrix(np.zeros(6))
        assert np.abs(u - np.eye(4)).max() <= 1e-12


def test_bell_basis_is_orthonormal():
    assert np.abs(_B.conj().T @ _B - np.eye(4)).max() <= 1e-12
