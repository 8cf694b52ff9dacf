"""Dense complex Hermitian linear algebra for small matrices (d <= 16).

All operations are pure functions over immutable numpy arrays.  The
eigendecomposition is deterministic: eigh is, and a phase rule fixes each
eigenvector's phase, so downstream optimal-state constructions are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSubsystem, DimensionOverflow, DimMismatch, NotHermitian

HERMITICITY_RTOL = 1e-12
MAX_DIM = 256

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.shape[0]:
        raise DimMismatch(f"expected a square matrix of size at least 1, got shape {m.shape}")
    return m


def check_hermitian(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    m = as_matrix(a)
    if not np.isfinite(m).all():  # NaN would pass every comparison below
        raise NotHermitian("matrix has a non-finite entry")
    dev = np.abs(m - m.conj().T).max()
    if dev == 0.0:  # exactly Hermitian, whatever the scale
        return m
    scale = np.abs(m).max()
    if dev > rtol * scale:
        raise NotHermitian(f"asymmetry {dev:.3e} exceeds {rtol:.1e} * {scale:.3e}")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


def _tol(mu):
    """Tolerance on the eigenvalue (Bell-value) scale: 1e-12 of mu1 - mu_d, mu descending."""
    return 1e-12 * (mu[..., 0] - mu[..., -1])


def eig_hermitian(a) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian matrix.

    Eigenvalues come out in descending order.  Each eigenvector's first
    nonzero entry (the first above 1e-12 of its largest) is made real
    positive, so identical inputs always produce identical output.  Inside a
    degenerate eigenspace the vectors are in whatever order eigh returns.
    """
    m = check_hermitian(a)
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1]
    size = np.abs(vecs)
    pivot = vecs[np.argmax(size > 1e-12 * size.max(axis=0), axis=0), np.arange(len(vals))]
    # |pivot| as hypot, the scalar abs: np.abs of a complex array rounds differently
    vecs = vecs * (np.hypot(pivot.real, pivot.imag) / pivot)
    return Spectrum(values=vals, vectors=vecs)


def tensor(a, b) -> np.ndarray:
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[0] * mb.shape[0] > MAX_DIM:
        raise DimensionOverflow(
            f"product dimension {ma.shape[0] * mb.shape[0]} exceeds cap {MAX_DIM}"
        )
    return np.kron(ma, mb)


def commutator_norm(x, y) -> float:
    """Operator norm of [X, Y] for Hermitian X, Y (largest |eigenvalue|)."""
    mx = check_hermitian(x)
    my = check_hermitian(y)
    if mx.shape != my.shape:
        raise DimMismatch(f"shape {mx.shape} vs {my.shape}")
    comm = mx @ my - my @ mx
    # i[X, Y] is Hermitian, so the singular values are its |eigenvalues|
    vals = np.linalg.eigvalsh(1j * comm)
    return float(np.abs(vals).max())


@dataclass(frozen=True)
class DensityState:
    """Unit-trace positive semidefinite matrix with subsystem dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]


def density_state(matrix, dims, *, tol: float = 1e-10) -> DensityState:
    m = check_hermitian(matrix, rtol=1e-10)
    dims = tuple(int(x) for x in dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise DimMismatch(f"dims {dims} inconsistent with matrix of dim {m.shape[0]}")
    tr = np.trace(m).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} is not 1 within {tol}")
    if np.linalg.eigvalsh(m).min() < -tol:
        raise ValueError("matrix has a negative eigenvalue beyond tolerance")
    return DensityState(matrix=m, dims=dims)


def partial_transpose(rho, subsystem: int):
    """Transpose one tensor factor of a bipartite operator."""
    if isinstance(rho, DensityState):
        m, dims = rho.matrix, rho.dims
    else:
        m = as_matrix(rho)
        d = m.shape[0]
        r = int(round(np.sqrt(d)))
        if r * r != d:
            raise BadSubsystem("cannot infer two equal factors; pass a DensityState")
        dims = (r, r)
    if len(dims) != 2:
        raise BadSubsystem(f"need exactly two subsystems, got dims {dims}")
    if subsystem not in (0, 1):
        raise BadSubsystem(f"subsystem must be 0 or 1, got {subsystem}")
    da, db = dims
    t = m.reshape(da, db, da, db)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db)
