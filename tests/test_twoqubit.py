"""Tests for the two-qubit resource machinery and the convex verifiers."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from bellres import barrier, bell, twoqubit
from bellres.bounds import min_lambda1_for_value
from bellres.errors import (
    DimMismatch,
    Infeasible,
    NotBellDiagonal,
    NotHermitian,
    OutOfRange,
    SolverFailure,
)
from bellres.linalg import PAULI_X, PAULI_Z, commutator_norm, density_state, eig_hermitian, tensor
from bellres.oracles import default_rng
from bellres.twoqubit import (
    _B,
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
    steering_eigenvalues,
)

RT2 = np.sqrt(2.0)
TSIRELSON = 2 * RT2


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestBdsState:
    def test_matrix_spectrum(self, bds_matrix):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        vals = eig_hermitian(bds_matrix(lam, (2, 0, 3, 1))).values
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

    def test_non_degenerate_not_bell_diagonal(self, chsh_op):
        op = chsh_op + 0.1 * tensor(PAULI_Z, np.eye(2))
        flag, spec = is_bell_diagonal(op)
        assert np.diff(spec.values).max() < -1e-3  # no degenerate eigenspace
        assert not flag

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

    @pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**30])
    def test_verdict_is_scale_free(self, chsh_op, scale):
        ops = {
            "product": (tensor(PAULI_Z, np.eye(2)), False),
            "chsh": (chsh_op, True),
            "steering": (bell.steering_operator_f2(PAULI_Z, PAULI_X), True),
            "identity": (np.eye(4), True),
            "zero": (np.zeros((4, 4)), True),
        }
        for name, (op, verdict) in ops.items():
            assert is_bell_diagonal(scale * op)[0] == verdict, name

    def test_small_operator_is_not_bell_diagonal(self):
        # Z (x) 1 + Z (x) Z / 2 has a marginal far from the identity at any scale
        op = 1e-9 * (tensor(PAULI_Z, np.eye(2)) + 0.5 * tensor(PAULI_Z, PAULI_Z))
        assert not is_bell_diagonal(op)[0]
        with pytest.raises(NotBellDiagonal):
            min_resources_for_value(op, 1e-9, 1e-10)


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

    def test_phi_plus_psi_plus_pair_is_x_product(self, bds_matrix, euler_basis):
        op = bds_matrix([1.0, 0.0, 0.0, 0.0]) * 3 + bds_matrix([0.0, 0.0, 1.0, 0.0]) * 2
        op += -1.0 * bds_matrix([0.0, 0.0, 0.0, 1.0])  # spectrum (3, 2, 0, -1)
        rep = min_resources_for_value(op, 2.0, 0.8)
        assert rep.coherence_basis == "x-product"
        # closest incoherent state in that basis reproduces E_R
        # Ry(pi/2) Rz(pi) = -i H on each qubit: H (x) H up to a global sign
        basis = euler_basis([0.0, np.pi / 2, np.pi] * 2)
        got = cr_fixed_basis(rep.witness_state, basis)
        assert abs(got - rep.e_r) <= 1e-6

    def test_locally_rotated_chsh_is_lu_equivalent_product(self, chsh_op):
        # a rotation of Alice's qubit about x keeps the spectrum but moves the
        # top eigenvectors off the standard Bell pairs
        u = tensor(np.cos(0.15) * np.eye(2) - 1j * np.sin(0.15) * PAULI_X, np.eye(2))
        rep = min_resources_for_value(u @ chsh_op @ u.conj().T, 2.0, 0.2)
        plain = min_resources_for_value(chsh_op, 2.0, 0.2)
        assert rep.coherence_basis == "lu-equivalent-product"
        assert rep.p_r == pytest.approx(plain.p_r, abs=1e-12)
        assert rep.e_r == pytest.approx(plain.e_r, abs=1e-12)

    def test_witness_of_rank_above_two(self, bds_matrix):
        # minimal-purity rank 4: a rank-2 witness would miss the Bell value
        mu = [1.0, 0.9, 0.8, -2.7]
        op = sum(m * bds_matrix(np.eye(4)[k]) for k, m in enumerate(mu))
        rep = min_resources_for_value(op, 0.5, 0.1)
        assert np.trace(rep.witness_state.matrix @ op).real == pytest.approx(0.6, abs=1e-12)
        assert np.linalg.matrix_rank(rep.witness_state.matrix, tol=1e-9) == 4

    def test_not_bell_diagonal(self):
        with pytest.raises(NotBellDiagonal):
            min_resources_for_value(tensor(PAULI_Z, np.eye(2)), 1.0, 0.1)

    def test_infeasible(self, chsh_op):
        with pytest.raises(Infeasible):
            min_resources_for_value(chsh_op, 2.0, 1.0)

    def test_bad_violation(self, chsh_op):
        for v in (-0.1, 0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(OutOfRange):
                min_resources_for_value(chsh_op, 2.0, v)


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

    def test_violation_array_matches_scalars(self):
        v = np.array([0.001, 0.3, TSIRELSON - 2.0, 0.9])
        c = np.array([0.5, 3.0, 4.0])
        sweep = min_er_vs_c_curve(v[:, None], c)
        assert sweep.shape == (4, 3)
        for k, vk in enumerate(v):
            row = min_er_vs_c_curve(vk, c)
            for name in ("x", "lambda1", "e_r", "p_r", "feasible"):
                np.testing.assert_array_equal(sweep[name][k], row[name])

    @pytest.mark.parametrize("v", [-0.1, 0.0, np.nan, np.inf, -np.inf, [0.2, 0.0]])
    def test_bad_violation(self, v):
        for curve in (
            lambda: min_er_vs_c_curve(v, [4.0]),
            lambda: min_er_vs_ca_curve(v, [2.0]),
            lambda: lambda1_heatmap(v, [2.0], [2.0]),
        ):
            with pytest.raises(OutOfRange, match="violation"):
                curve()


def _lambda1_loop(mu, target):
    """The tables' reference: min_lambda1_for_value's lam1 per spectrum, NaN where infeasible."""
    lam1 = np.full(mu.shape[:-1], np.nan)
    for idx in np.ndindex(lam1.shape):
        try:
            lam1[idx] = min_lambda1_for_value(mu[idx], target, 4).lambdas[0]
        except Infeasible:
            pass
    return lam1


class TestTablesRunMinLambda1:
    # v runs over [1e-14, 1]; C = 0 and C_A = 0 (a two-fold top level) are always on
    # the grids, and so is the feasibility edge t = mu1
    @given(st.floats(-14.0, 0.0), st.lists(st.floats(0.0, 1.0), max_size=6))
    @example(-14.0, [])
    @settings(max_examples=60, deadline=None)
    def test_lambda1_is_min_lambda1_for_value(self, log_v, fracs):
        v = 10.0**log_v
        c = np.array([0.0, 4.0, min(4.0 * v + v * v, 4.0), *(4.0 * np.array(fracs))])
        c_a = np.array([0.0, 2.0, min(2.0 * RT2 * v + v * v, 2.0), *(2.0 * np.array(fracs))])
        for table, mu, local in (
            (min_er_vs_c_curve(v, c), chsh_eigenvalues(c), 2.0),
            (min_er_vs_ca_curve(v, c_a), steering_eigenvalues(c_a), RT2),
            (lambda1_heatmap(v, c_a, c / 2.0),
             chsh_eigenvalues(np.multiply.outer(c_a, c / 2.0)), 2.0),
        ):
            lam1 = _lambda1_loop(mu, local + v)
            np.testing.assert_array_equal(table.lambda1, lam1)
            np.testing.assert_array_equal(table.feasible, ~np.isnan(lam1))


class TestHeatmap:
    # the last v puts the target 5e-13 above mu1 at C = 4: within _tol of it, so lam1 = 1
    @pytest.mark.parametrize("v", [0.001, 0.3, TSIRELSON - 2.0 + 5e-13])
    def test_matches_per_cell_loop(self, v):
        ca, cb = np.linspace(0, 2, 81), np.linspace(0, 2, 41)
        grid = lambda1_heatmap(v, ca, cb)
        lam1 = _lambda1_loop(chsh_eigenvalues(np.multiply.outer(ca, cb)), 2.0 + v)
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

    @pytest.mark.parametrize(
        "ca, cb",
        [(np.ones((2, 2)), np.ones(3)), (np.ones(3), np.ones((1, 3))), (1.0, np.ones(3)),
         (np.ones(3), 1.0)],
        ids=["2d-ca", "2d-cb", "scalar-ca", "scalar-cb"],
    )
    def test_grids_must_be_1d(self, ca, cb):
        # a 2-D grid used to give a record array of three or more dimensions
        with pytest.raises(OutOfRange, match="must be 1-D"):
            lambda1_heatmap(0.1, ca, cb)

    def test_corner_cells(self):
        rows = lambda1_heatmap(0.001, [2.0], [0.0, 2.0])
        assert not rows[0][0].feasible  # (2, 0): max eigenvalue 2 = local bound
        col = min_er_vs_c_curve(0.001, [4.0])[0]
        assert rows[0][1].lambda1 == pytest.approx(col.lambda1, abs=1e-12)


class TestErSolvers:
    def test_phi_plus(self, bds_matrix):
        rho = density_state(bds_matrix([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert er_ppt_solver(rho) == pytest.approx(1.0, abs=1e-6)

    def test_separable(self):
        rho = density_state(np.eye(4) / 4, (2, 2))
        assert er_ppt_solver(rho) <= 1e-7

    def test_bds_075(self, bds_matrix):
        rho = density_state(bds_matrix([0.75, 0.25, 0.0, 0.0]), (2, 2))
        assert er_ppt_solver(rho) == pytest.approx(0.5, abs=1e-6)

    def test_random_bds_agreement(self, bds_matrix):
        rng = default_rng(0xE2)
        for _ in range(30):
            lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            perm = tuple(int(i) for i in rng.permutation(4))
            rho = density_state(bds_matrix(lam, perm), (2, 2))
            assert er_ppt_solver(rho) == pytest.approx(max(0.0, 2 * lam[0] - 1), abs=1e-5)

    def test_joint_min_matches_closed_form(self, chsh_op):
        # for a Bell-diagonal operator the joint minimum over states equals
        # the closed form from the rank-2 construction
        e_r, rho = er_min_for_value(chsh_op, 2.2)
        lam1 = 2.2 / TSIRELSON
        assert e_r == pytest.approx(2 * lam1 - 1, abs=1e-5)
        assert np.trace(rho.matrix @ chsh_op).real == pytest.approx(2.2, abs=1e-6)

    def test_joint_min_does_not_depend_on_the_scale(self, chsh_op):
        # with a cut at 1e-12 max(1, sigma_max), the Bell row of a 1e-13 operator
        # counted as zero: the solve dropped it and returned E_R = 1.2e-10
        e_r, _ = er_min_for_value(chsh_op, 2.5)
        scaled, rho = er_min_for_value(1e-13 * chsh_op, 2.5e-13)
        assert scaled == pytest.approx(e_r, rel=1e-9)
        assert np.trace(rho.matrix @ chsh_op).real == pytest.approx(2.5, abs=1e-6)

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

    @pytest.mark.parametrize(
        "program",
        [er_min_for_value, lambda op, target: cr_min_for_value(op, target, np.eye(4))],
        ids=["er", "cr"],
    )
    def test_joint_min_non_finite_target(self, chsh_op, program):
        with pytest.raises(OutOfRange, match="target must be finite"):
            program(chsh_op, np.nan)


def _random_state(seed: int, rank: int) -> np.ndarray:
    """A random two-qubit density matrix of the given rank."""
    g = default_rng(seed).normal(size=(4, rank, 2)) @ [1.0, 1.0j]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_unitary(seed: int, d: int) -> np.ndarray:
    """A random d x d unitary: Q of a complex Gaussian."""
    g = default_rng(seed).normal(size=(d, d, 2)) @ [1.0, 1.0j]
    return np.linalg.qr(g)[0]


_SEEDS = st.integers(0, 2**32 - 1)
_RANKS = st.integers(1, 4)


class TestSdpProperties:
    """Invariances and the resource hierarchy of the fixed-state programs on random states."""

    @settings(max_examples=20)
    @given(_SEEDS, _RANKS, _SEEDS)
    def test_er_is_invariant_under_local_unitaries(self, seed, rank, u_seed):
        rho = _random_state(seed, rank)
        u = np.kron(_random_unitary(u_seed, 2), _random_unitary(u_seed + 1, 2))
        assert er_ppt_solver(u @ rho @ u.conj().T) == pytest.approx(er_ppt_solver(rho), abs=1e-8)

    @settings(max_examples=20)
    @given(_SEEDS, _RANKS, st.lists(st.floats(0.0, 2.0 * np.pi), min_size=10, max_size=10))
    def test_cr_is_invariant_under_column_phases(self, euler_basis, seed, rank, angles):
        rho = _random_state(seed, rank)
        u = euler_basis(angles[:6])
        phased = u * np.exp(1j * np.array(angles[6:]))
        assert cr_fixed_basis(rho, phased) == pytest.approx(cr_fixed_basis(rho, u), abs=1e-8)

    @settings(max_examples=20)
    @given(_SEEDS, _RANKS, st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6))
    def test_er_cr_pr_hierarchy(self, euler_basis, seed, rank, angles):
        # a product basis's incoherent states are separable, and the maximally mixed
        # state that P_R = 4 lambda1 - 1 mixes towards is incoherent in every basis
        rho = _random_state(seed, rank)
        e_r = er_ppt_solver(rho)
        c_r = cr_fixed_basis(rho, euler_basis(angles))
        p_r = 4.0 * np.linalg.eigvalsh(rho)[-1] - 1.0
        assert e_r <= c_r + 1e-8
        assert c_r <= p_r + 1e-8


# unit Bloch vectors from polar and azimuthal angles
_BLOCH = st.builds(
    lambda theta, phi: [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
    st.floats(0.0, np.pi),
    st.floats(0.0, 2.0 * np.pi),
)
# how far v lies towards its largest value mu1 - local
_TOWARDS_MU1 = st.floats(0.02, 0.98)
_LEAST_C = 0.1


class TestCurvesAgainstTheSdp:
    """The rank-2 curves are the joint E_R program's minimum over all states,
    for random measurement settings of the CHSH and F2 steering operators."""

    @settings(max_examples=50)
    @given(st.lists(_BLOCH, min_size=4, max_size=4), _TOWARDS_MU1)
    def test_chsh_curve_is_the_joint_er_minimum(self, bloch, frac):
        obs = [bell.observable_from_bloch(b) for b in bloch]
        op = sum(
            sign * tensor(obs[x], obs[2 + y])
            for (x, y), sign in zip(itertools.product(range(2), repeat=2), [1, 1, 1, -1])
        )
        c = min(bell.incompatibility(*obs)[2], 4.0)
        assume(c >= _LEAST_C)
        v = frac * (np.sqrt(4.0 + c) - 2.0)
        e_r, _ = er_min_for_value(op, 2.0 + v)
        assert e_r == pytest.approx(min_er_vs_c_curve(v, c).e_r, abs=1e-8)

    @settings(max_examples=50)
    @given(st.lists(_BLOCH, min_size=2, max_size=2), _TOWARDS_MU1)
    def test_steering_curve_is_the_joint_er_minimum(self, bloch, frac):
        a1, a2 = (bell.observable_from_bloch(b) for b in bloch)
        c_a = min(commutator_norm(a1, a2), 2.0)
        assume(c_a >= _LEAST_C)
        v = frac * (np.sqrt(2.0 + c_a) - RT2)
        e_r, _ = er_min_for_value(bell.steering_operator_f2(a1, a2), RT2 + v)
        assert e_r == pytest.approx(min_er_vs_ca_curve(v, c_a).e_r, abs=1e-8)

    # Below _LEAST_C the top two levels are close, and the joint program's
    # iterates leave their cone or stall on the dual residual for some v: at
    # C = 0.01, 9 of 13 violations from 2% to 98% of the way to mu1 fail for
    # CHSH and 8 of 13 for steering.  These two cases pin that defect.
    @pytest.mark.xfail(raises=SolverFailure, strict=True,
                       reason="the joint E_R program fails near a degenerate top pair")
    @pytest.mark.parametrize("steering", [False, True], ids=["chsh", "steering"])
    def test_nearly_compatible_settings_fail_the_joint_program(self, steering):
        a1, a2 = bell.chsh_settings_for_c(0.01 if steering else 0.1)  # C = 0.01 either way
        if steering:
            op, local, v = bell.steering_operator_f2(a1, a2), RT2, 0.34 * (np.sqrt(2.01) - RT2)
            want = min_er_vs_ca_curve(v, 0.01).e_r
        else:
            op = tensor(a1, a1) + tensor(a1, a2) + tensor(a2, a1) - tensor(a2, a2)
            local, v = 2.0, 0.5 * (np.sqrt(4.01) - 2.0)
            want = min_er_vs_c_curve(v, 0.01).e_r
        e_r, _ = er_min_for_value(op, local + v)
        assert e_r == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize(
    "program",
    [
        er_ppt_solver,
        lambda rho: cr_fixed_basis(rho, np.eye(4)),
        lambda rho: cr_min_over_product_bases(rho, restarts=1, seed=1),
    ],
    ids=["er", "cr", "search"],
)
def test_fixed_state_programs_refuse_a_nan_array(program):
    with pytest.raises(NotHermitian, match="non-finite"):
        program(np.full((4, 4), np.nan))
    # nor an array that is not a state, which would still get a value
    with pytest.raises(ValueError, match="negative eigenvalue"):
        program(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError, match="trace 2.0 is not 1"):
        program(np.eye(4) / 2)


_NINE = np.diag(np.arange(9.0)[::-1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: er_ppt_solver(np.eye(9) / 9),
        lambda: er_ppt_solver(density_state(np.eye(9) / 9, (3, 3))),
        lambda: er_min_for_value(_NINE, 7.0),
        lambda: er_min_for_value(np.diag([1.0, -1.0]), 0.5),
        lambda: cr_min_for_value(_NINE, 7.0, np.eye(9)),
        lambda: cr_min_for_value(_NINE, 7.0, np.eye(4)),
        lambda: cr_min_over_product_bases(None, restarts=1, seed=1, target_op=_NINE, target=7.0),
    ],
    ids=["er-array", "er-state", "er-joint", "er-joint-2x2", "cr-joint", "cr-joint-4x4-basis",
         "search-joint"],
)
def test_two_qubit_programs_refuse_other_sizes(monkeypatch, call):
    # refused before any cone is built, not by numpy's broadcasting inside one
    def no_cone(*args, **kwargs):
        raise AssertionError("a cone was built")

    monkeypatch.setattr(twoqubit, "ConeConstraint", no_cone)
    with pytest.raises(DimMismatch, match="4x4|inconsistent"):
        call()


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

    @pytest.mark.parametrize(
        "basis",
        [
            2.0 * np.eye(4),
            np.ones((4, 4)),
            np.eye(2),
            np.full((4, 4), np.nan),
            np.full((4, 4), np.inf),
        ],
        ids=["2I", "ones", "2x2", "nan", "inf"],
    )
    @pytest.mark.parametrize("program", ["fixed", "joint"])
    def test_both_programs_check_the_basis(self, chsh_op, program, basis):
        with pytest.raises(ValueError, match="orthonormal columns"):
            if program == "fixed":
                cr_fixed_basis(np.eye(4) / 4, basis)
            else:
                cr_min_for_value(chsh_op, 2.2, basis)

    def test_rank2_phi_mixture_computational_basis(self, bds_matrix):
        lam = [0.8, 0.2, 0.0, 0.0]
        rho = density_state(bds_matrix(lam), (2, 2))
        value, basis = cr_min_over_product_bases(rho, restarts=8, seed=0xC0)
        assert value == pytest.approx(0.6, abs=1e-4)
        # computational basis itself already reaches 2*lam1 - 1
        assert cr_fixed_basis(rho, np.eye(4)) == pytest.approx(0.6, abs=1e-6)

    def test_product_pure_state(self):
        ket = np.kron([1.0, 0.0], [1.0 / RT2, 1.0 / RT2])
        rho = density_state(np.outer(ket, ket), (2, 2))
        value, _ = cr_min_over_product_bases(rho, restarts=8, seed=0xC1)
        assert value <= 1e-4

    def test_search_without_a_finite_value_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverFailure("no solve")

        monkeypatch.setattr(twoqubit, "cr_fixed_basis", fail)
        rho = density_state(np.eye(4) / 4, (2, 2))
        message = "no product basis gave a finite C_R: best inf in 1 restarts"
        with pytest.raises(SolverFailure, match=message):
            cr_min_over_product_bases(rho, restarts=1, seed=0xC2)

    def test_search_survives_partial_solve_failures(self, monkeypatch, i3322_scenario):
        # a failed basis is rejected and the line search backs off from it, so the
        # run still reaches the unforced C_R; no RuntimeWarning escapes (the suite
        # turns them into errors)
        calls = itertools.count(1)
        solve = twoqubit.cr_min_for_value

        def flaky(*args, **kwargs):
            if next(calls) % 3 == 0:
                raise SolverFailure("forced")
            return solve(*args, **kwargs)

        monkeypatch.setattr(twoqubit, "cr_min_for_value", flaky)
        op = bell.build_bell_operator(i3322_scenario)
        value, _ = cr_min_over_product_bases(
            None, restarts=1, seed=0xB311, target_op=op, target=4.001
        )
        assert next(calls) > 10
        assert value == pytest.approx(I3322_CR, abs=1e-6)

    @pytest.mark.parametrize(
        "rho, with_op, target",
        [(None, False, None), (np.eye(4) / 4, False, 2.2), (np.eye(4) / 4, True, 2.2)],
        ids=["neither", "target-without-op", "rho-with-op"],
    )
    def test_search_needs_exactly_one_mode(self, chsh_op, rho, with_op, target):
        op = chsh_op if with_op else None
        with pytest.raises(ValueError, match="rho, or target_op"):
            cr_min_over_product_bases(rho, restarts=1, seed=0xC3, target_op=op, target=target)

    @pytest.mark.parametrize("restarts", [0, -2, True, False, 2.5, 1.0, np.float64(4.0), "4", None])
    def test_restarts_must_be_an_integer_of_at_least_1(self, restarts):
        rho = density_state(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="restarts must be an integer of at least 1"):
            cr_min_over_product_bases(rho, restarts=restarts, seed=0xC3)

    def test_numpy_integer_restarts(self):
        rho = density_state(np.eye(4) / 4, (2, 2))
        value, _ = cr_min_over_product_bases(rho, restarts=np.int64(1), seed=0xC3)
        assert value <= 1e-6

    def test_bench_configuration_search(self, i3322_scenario):
        op = bell.build_bell_operator(i3322_scenario)
        value, basis = cr_min_over_product_bases(
            None, restarts=1, seed=0xB311, target_op=op, target=4.001
        )
        assert I3322_ER - 1e-8 <= value <= 0.8419288
        assert np.abs(basis.conj().T @ basis - np.eye(4)).max() <= 1e-10
        # a Kronecker product a (x) b has a rank-1 realignment
        realigned = basis.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        sv = np.linalg.svd(realigned, compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_joint_gradient_matches_differences(self, i3322_scenario, seed):
        op = bell.build_bell_operator(i3322_scenario)
        _check_angle_gradient(
            lambda u, **kw: cr_min_for_value(op, 4.001, u, gap_tol=1e-9, **kw), seed
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fixed_basis_gradient_matches_differences(self, seed):
        g = default_rng(0x6D).normal(size=(4, 4)) + 1j * default_rng(0x6E).normal(size=(4, 4))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real  # full rank
        _check_angle_gradient(lambda u, **kw: cr_fixed_basis(rho, u, gap_tol=1e-9, **kw), seed)

    def test_joint_cr_at_least_joint_er(self, chsh_op):
        c_r = cr_min_for_value(chsh_op, 2.2, np.eye(4))
        e_r, _ = er_min_for_value(chsh_op, 2.2)
        assert c_r >= e_r - 1e-6

    @given(
        angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6),
        shift=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20)
    def test_gamma_is_a_gauge(self, i3322_scenario, euler_basis, angles, shift, seed):
        # the trailing Rz(gamma) of each qubit only phases the basis columns, which
        # the search relies on when it leaves gamma out
        rho = _random_state(seed, 4)
        op = bell.build_bell_operator(i3322_scenario)
        shifted = np.array(angles) + np.array([0, 0, shift[0], 0, 0, shift[1]])
        for program in (
            lambda u: cr_fixed_basis(rho, u),
            lambda u: cr_min_for_value(op, 4.001, u, gap_tol=1e-9),
        ):
            try:
                before, after = (program(euler_basis(a)) for a in (angles, shifted))
            except SolverFailure:
                # about 1 joint solve in 100 fails at gap 1e-9 (the dual residual stalls
                # at its fixed tolerance); a basis without a value says nothing of the gauge
                reject()
            assert after == pytest.approx(before, abs=1e-8)

    def _bench_configuration_gaps(self, monkeypatch, op):
        """gap_tol of every solve the bench-configuration search makes, and its C_R."""
        gaps = []
        solve = barrier.solve_sdp

        def counted_solve(*args, **kwargs):
            gaps.append(kwargs.get("gap_tol"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(barrier, "solve_sdp", counted_solve)
        value, _ = cr_min_over_product_bases(
            None, restarts=1, seed=0xB311, target_op=op, target=4.001
        )
        return gaps, value

    def test_bench_configuration_solve_count(self, monkeypatch, i3322_scenario):
        # gamma is a gauge and left out of the search, so BFGS spends no solves on
        # flat directions, and one run per start spends none on a second stage:
        # this search makes 23
        gaps, value = self._bench_configuration_gaps(
            monkeypatch, bell.build_bell_operator(i3322_scenario)
        )
        assert len(gaps) <= 35
        assert value == pytest.approx(0.8419287612, abs=1e-9)

    def test_every_search_solve_is_at_gap_1e_8(self, monkeypatch, i3322_scenario):
        gaps, _ = self._bench_configuration_gaps(
            monkeypatch, bell.build_bell_operator(i3322_scenario)
        )
        assert gaps and set(gaps) == {1e-8}


def _recorded(fun):
    """fun, and the list it appends each point it is called at to."""
    points = []

    def recorded(x):
        points.append(np.array(x))
        return fun(x)

    return recorded, points


def _rosenbrock(x):
    """The n-dimensional Rosenbrock function and its gradient."""
    a, b = x[:-1], x[1:]
    value = float(np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    g[1:] += 200.0 * (b - a**2)
    return value, g


class TestBfgs:
    """The C_R search's minimizer on objectives with known answers."""

    def test_convex_quadratic_reaches_the_gradient_tolerance(self):
        rng = default_rng(0xBF)
        m = rng.normal(size=(4, 4))
        a, b = m @ m.T + np.eye(4), rng.normal(size=4)
        x, value = twoqubit._bfgs(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), np.zeros(4))
        assert np.abs(a @ x - b).max() <= 1e-6
        assert value == 0.5 * x @ a @ x - b @ x

    def test_infinite_value_start_returns_at_once(self):
        # a start whose solve fails; the gradient is no help there
        fun, points = _recorded(lambda x: (np.inf, np.ones(4)))
        x, value = twoqubit._bfgs(fun, np.ones(4))
        assert len(points) == 1 and value == np.inf and np.array_equal(x, np.ones(4))

    def test_zero_gradient_start_returns_at_once(self):
        fun, points = _recorded(lambda x: (float(x @ x), 2.0 * x))
        x, value = twoqubit._bfgs(fun, np.zeros(4))
        assert len(points) == 1 and value == 0.0 and np.array_equal(x, np.zeros(4))

    def test_backs_off_from_infinite_trials_and_stops(self):
        x0 = np.ones(4)
        fun, points = _recorded(
            lambda x: (1.0, np.ones(4)) if np.array_equal(x, x0) else (np.inf, np.zeros(4))
        )
        x, value = twoqubit._bfgs(fun, x0)
        assert len(points) == 1 + 10 and value == 1.0 and np.array_equal(x, x0)
        # the first trial is the unit-length steepest-descent step, then halvings
        lengths = [np.linalg.norm(p - x0) for p in points[1:]]
        np.testing.assert_allclose(lengths, 0.5 ** np.arange(10), rtol=1e-15)

    def test_negligible_predicted_fall_returns_at_once(self):
        # -g.p = 4e-12: the Armijo bound rounds to the value itself, so a line
        # search would "succeed" on every step without lowering it
        fun, points = _recorded(lambda x: (1.0, np.array([2e-6, 0.0, 0.0, 0.0])))
        x, value = twoqubit._bfgs(fun, np.zeros(4))
        assert len(points) == 1 and value == 1.0 and np.array_equal(x, np.zeros(4))

    def test_linear_objective_takes_100_unit_steps(self):
        fun, points = _recorded(lambda x: (float(x[0]), np.ones(1)))
        x, value = twoqubit._bfgs(fun, np.zeros(1))
        assert len(points) == 1 + 100 and value == -100.0

    def test_rosenbrock_stops_at_the_step_cap(self):
        fun, points = _recorded(_rosenbrock)
        x, value = twoqubit._bfgs(fun, np.full(12, -2.0))
        # short of the tolerance, on the point it evaluated last: neither the
        # gradient test nor a failed line search ended the run
        assert len(points) >= 1 + 100 and np.abs(_rosenbrock(x)[1]).max() > 1e-6
        assert np.array_equal(x, points[-1]) and value == _rosenbrock(x)[0]


I3322_ER = 0.8291711375  # E_R of the three-setting fixture at 4.001
I3322_CR = 0.8419287612  # its C_R, as the product-basis search finds it


def _check_angle_gradient(program, seed, h=1e-5):
    """program(U, gradient=True)'s G, chained to the four search angles, against differences."""
    x = default_rng(seed).uniform(0.0, 2.0 * np.pi, size=4)
    u, du = twoqubit._product_basis(x)
    value, g_u = program(u, gradient=True)
    assert value == program(u)
    grad = np.einsum("kij,ij->k", du, g_u.conj()).real

    def moved(step):
        return program(twoqubit._product_basis(x + step)[0])

    diffs = [(moved(step) - moved(-step)) / (2.0 * h) for step in h * np.eye(4)]
    np.testing.assert_allclose(grad, diffs, rtol=0.0, atol=1e-4 * (1.0 + np.abs(grad).max()))


def test_bell_basis_is_orthonormal():
    assert np.abs(_B.conj().T @ _B - np.eye(4)).max() <= 1e-12
