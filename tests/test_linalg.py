"""Unit and property tests for the dense Hermitian linear-algebra core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellres.errors import BadSubsystem, DimensionOverflow, DimMismatch, NotHermitian
from bellres.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityState,
    check_hermitian,
    commutator_norm,
    density_state,
    eig_hermitian,
    partial_transpose,
    state_functionals,
    tensor,
)

RT2 = np.sqrt(2.0)

BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / RT2
BELL_PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / RT2


def _rand_herm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def _chsh_operator():
    b1 = (PAULI_Z + PAULI_X) / RT2
    b2 = (PAULI_Z - PAULI_X) / RT2
    return (
        tensor(PAULI_Z, b1)
        + tensor(PAULI_Z, b2)
        + tensor(PAULI_X, b1)
        - tensor(PAULI_X, b2)
    )


class TestEigHermitian:
    def test_pauli_z(self):
        spec = eig_hermitian(PAULI_Z)
        assert np.allclose(spec.values, [1.0, -1.0])

    def test_chsh_spectrum(self):
        spec = eig_hermitian(_chsh_operator())
        assert np.allclose(spec.values, [2 * RT2, 0.0, 0.0, -2 * RT2], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = _rand_herm(rng, 6)
            spec = eig_hermitian(a)
            recon = (spec.vectors * spec.values) @ spec.vectors.conj().T
            assert np.abs(a - recon).max() <= 1e-10 * (1 + np.abs(a).max())

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(3)
        a = _rand_herm(rng, 5)
        spec = eig_hermitian(a)
        assert np.all(np.diff(spec.values) <= 1e-12)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_deterministic_on_degenerate_input(self):
        op = np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex)
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        a = q @ op @ q.conj().T
        a = (a + a.conj().T) / 2
        s1 = eig_hermitian(a)
        s2 = eig_hermitian(a.copy())
        assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            eig_hermitian([[0.0, 1.0], [0.0, 0.0]])

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_shift_property(self, seed, c):
        rng = np.random.default_rng(seed)
        a = _rand_herm(rng, 4)
        base = eig_hermitian(a).values
        shifted = eig_hermitian(a + c * np.eye(4)).values
        assert np.abs(shifted - (base + c)).max() <= 1e-10


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_zz(self):
        assert np.allclose(tensor(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_basis_flip(self):
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        assert np.allclose(tensor(PAULI_X, PAULI_X) @ ket00, [0, 0, 0, 1])

    def test_overflow(self):
        with pytest.raises(DimensionOverflow):
            tensor(np.eye(17), np.eye(17))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_products(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _rand_herm(rng, 3), _rand_herm(rng, 2)
        got = np.sort(eig_hermitian(tensor(a, b)).values)
        expect = np.sort(np.outer(eig_hermitian(a).values, eig_hermitian(b).values).ravel())
        assert np.abs(got - expect).max() <= 1e-9


class TestCommutatorNorm:
    def test_pauli_pair(self):
        assert commutator_norm(PAULI_Z, PAULI_X) == pytest.approx(2.0, abs=1e-12)

    def test_commuting(self):
        assert commutator_norm(PAULI_Z, PAULI_Z) == pytest.approx(0.0, abs=1e-12)

    def test_angle_pi_over_6(self):
        theta = np.pi / 6
        other = np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
        assert commutator_norm(PAULI_Z, other) == pytest.approx(1.0, abs=1e-12)
        # cross-check against the dense commutator's singular values
        comm = PAULI_Z @ other - other @ PAULI_Z
        assert np.linalg.svd(comm, compute_uv=False).max() == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            commutator_norm(PAULI_Z, np.eye(3))


class TestPartialTranspose:
    def test_product_state_unchanged(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert np.array_equal(partial_transpose(rho, 1), rho)

    def test_phi_plus(self):
        rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
        vals = np.linalg.eigvalsh(partial_transpose(rho, 1))
        assert vals.min() == pytest.approx(-0.5, abs=1e-12)

    def test_bds_closed_form(self):
        rho = 0.6 * np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()) + 0.4 * np.outer(
            BELL_PHI_MINUS, BELL_PHI_MINUS.conj()
        )
        vals = eig_hermitian(partial_transpose(rho, 0)).values
        assert vals.min() == pytest.approx(0.5 - 0.6, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1]))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed, subsystem):
        rng = np.random.default_rng(seed)
        a = _rand_herm(rng, 6)
        state = DensityState(matrix=a, dims=(2, 3))
        once = partial_transpose(state, subsystem)
        twice = partial_transpose(DensityState(matrix=once, dims=(2, 3)), subsystem)
        assert np.abs(twice - a).max() <= 1e-14

    def test_bad_subsystem(self):
        rho = np.eye(4) / 4
        with pytest.raises(BadSubsystem):
            partial_transpose(rho, 2)
        with pytest.raises(BadSubsystem):
            partial_transpose(np.eye(6) / 6, 0)  # 6 is not a perfect square


class TestStateFunctionals:
    def test_maximally_mixed(self):
        f = state_functionals(density_state(np.eye(4) / 4, (2, 2)))
        assert f.linear_purity == pytest.approx(0.25, abs=1e-12)
        assert f.renyi2_purity == pytest.approx(0.0, abs=1e-12)
        assert f.entropy == pytest.approx(np.log(4), abs=1e-12)
        assert f.lambda1 == pytest.approx(0.25, abs=1e-12)

    def test_pure_state(self):
        rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
        f = state_functionals(density_state(rho, (2, 2)))
        assert f.linear_purity == pytest.approx(1.0, abs=1e-10)
        assert f.renyi2_purity == pytest.approx(2.0, abs=1e-9)
        assert f.entropy == pytest.approx(0.0, abs=1e-8)
        assert f.lambda1 == pytest.approx(1.0, abs=1e-10)

    def test_qubit_diag(self):
        f = state_functionals(density_state(np.diag([0.75, 0.25]), (2,)))
        assert f.linear_purity == pytest.approx(0.625, abs=1e-12)
        assert f.renyi2_purity == pytest.approx(np.log2(1.25), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_purity_is_sum_of_squared_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(4))
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        rho = (q * lam) @ q.conj().T
        rho = (rho + rho.conj().T) / 2
        f = state_functionals(density_state(rho, (4,)))
        assert abs(f.linear_purity - float((lam**2).sum())) <= 1e-10


class TestValidation:
    def test_check_hermitian_passes_and_fails(self):
        check_hermitian(PAULI_Y)
        with pytest.raises(NotHermitian):
            check_hermitian([[0, 1e-3], [0, 0]])

    def test_density_state_trace(self):
        with pytest.raises(ValueError):
            density_state(np.eye(2), (2,))

    def test_density_state_negative(self):
        with pytest.raises(ValueError):
            density_state(np.diag([1.5, -0.5]), (2,))

    def test_density_state_dims(self):
        with pytest.raises(DimMismatch):
            density_state(np.eye(4) / 4, (2, 3))
