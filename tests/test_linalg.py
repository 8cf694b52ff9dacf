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
    _tol,
    as_matrix,
    check_hermitian,
    commutator_norm,
    density_state,
    eig_hermitian,
    partial_transpose,
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


def _eig_loop(a):
    """Per-column reference for eig_hermitian: eigh reversed, then the phase fix as a loop."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=complex))
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        pivot = v[np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0]]
        vecs[:, j] = v * (abs(pivot) / pivot)
    return vals, vecs


def _spectrum_panel():
    """Random, degenerate-pair, degenerate-top, diagonal with a degenerate pair, and CHSH."""
    rng = np.random.default_rng(0x5EC)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return [
        g + g.conj().T,
        (q * [3.0, 1.0, 1.0, -2.0]) @ q.conj().T,
        (q * [2.0, 2.0, 2.0, -1.0]) @ q.conj().T,
        np.kron(np.diag([1.0, -1.0]), np.eye(2)),
        _chsh_operator(),
    ]


class TestEigHermitian:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        levels = rng.choice([-1.0, 0.0, 2.0], size=5)  # degenerate clusters of every size
        inputs = [_rand_herm(rng, 5), (q * levels) @ q.conj().T, np.diag(levels) + 0j]
        for a in inputs + _spectrum_panel():
            a = (a + a.conj().T) / 2
            spec = eig_hermitian(a)
            vals, vecs = _eig_loop(a)
            assert np.array_equal(spec.values, vals)
            assert np.array_equal(spec.vectors, vecs)

    def test_near_degenerate_levels_keep_their_vectors(self):
        # a 1e-10 gap is far above _tol: each top level keeps its own eigenvector
        a = np.diag([1.0, 1.0 - 1e-10, 0.0, -1.0]) + 0j
        spec = eig_hermitian(a)
        rayleigh = np.einsum("ik,ij,jk->k", spec.vectors.conj(), a, spec.vectors).real
        assert np.abs(rayleigh - spec.values).max() <= _tol(spec.values)

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

    def test_three_subsystems(self):
        state = DensityState(matrix=np.eye(8) / 8, dims=(2, 2, 2))
        with pytest.raises(BadSubsystem, match="exactly two subsystems"):
            partial_transpose(state, 0)


class TestValidation:
    def test_check_hermitian_passes_and_fails(self):
        check_hermitian(PAULI_Y)
        with pytest.raises(NotHermitian):
            check_hermitian([[0, 1e-3], [0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_entry_refused(self, bad):
        m = np.diag([1.0, -1.0]).astype(complex)
        m[0, 0] = bad
        with pytest.raises(NotHermitian, match="non-finite entry"):
            check_hermitian(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_callers_refuse_non_finite_entries(self, bad):
        m = np.eye(2) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(NotHermitian, match="non-finite entry"):
            eig_hermitian(m)
        with pytest.raises(NotHermitian, match="non-finite entry"):
            commutator_norm(PAULI_X, m)
        with pytest.raises(NotHermitian, match="non-finite entry"):
            density_state(m, (2,))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_not_a_square_matrix(self, shape):
        with pytest.raises(DimMismatch, match="expected a square matrix"):
            check_hermitian(np.zeros(shape))

    def test_empty_matrix_is_refused(self):
        # 0 x 0 passed the shape test, and the callers raised numpy's "zero-size array"
        for call in (as_matrix, check_hermitian, eig_hermitian):
            with pytest.raises(DimMismatch, match="size at least 1, got shape \\(0, 0\\)"):
                call(np.zeros((0, 0)))

    def test_density_state_trace(self):
        with pytest.raises(ValueError):
            density_state(np.eye(2), (2,))

    def test_density_state_negative(self):
        with pytest.raises(ValueError):
            density_state(np.diag([1.5, -0.5]), (2,))

    def test_density_state_dims(self):
        with pytest.raises(DimMismatch):
            density_state(np.eye(4) / 4, (2, 3))
