"""Bell / steering operator construction, local bounds, and incompatibility.

Scenarios are stored in POVM form: per-party lists of measurement settings,
each setting a list of positive operators summing to the identity.  Bell
coefficients are a sparse mapping (a, b, x, y) -> real weight.  Single-party
marginal terms are encoded against a trivial one-outcome "dummy" setting of
the other party whose only element is the identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotDichotomic, NotUnit, OutOfRange, TooLargeToEnumerate
from .linalg import (
    PAULI_X,
    PAULI_Z,
    PAULIS,
    check_hermitian,
    tensor,
)

ENUMERATION_CAP = 4096

Povm = list[np.ndarray]


@dataclass
class BellScenario:
    """Two-party Bell scenario: POVMs plus a sparse coefficient tensor."""

    alice: list[Povm]
    bob: list[Povm]
    coefficients: dict[tuple[int, int, int, int], float]
    name: str = ""
    psd_tol: float = 1e-10  # slack for POVM elements printed at finite precision

    def __post_init__(self):
        for povms in (self.alice, self.bob):
            for setting in povms:
                total = sum(setting)
                dim = total.shape[0]
                if np.abs(total - np.eye(dim)).max() > 1e-10:
                    raise ValueError("POVM elements of a setting must sum to identity")
                for m in setting:
                    check_hermitian(m, rtol=1e-10)
                    if np.linalg.eigvalsh(m).min() < -self.psd_tol:
                        raise ValueError("POVM element is not positive semidefinite")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.alice[0][0].shape[0], self.bob[0][0].shape[0])


@dataclass
class CorrelationScenario:
    """Correlation-matrix form: g_{xy} with qubit observables from Bloch vectors."""

    g: np.ndarray
    bloch_a: np.ndarray
    bloch_b: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.bloch_a = np.asarray(self.bloch_a, dtype=float)
        self.bloch_b = np.asarray(self.bloch_b, dtype=float)
        for vecs in (self.bloch_a, self.bloch_b):
            norms = np.linalg.norm(vecs, axis=1)
            if np.abs(norms - 1.0).max() > 1e-12:
                raise NotUnit(f"Bloch vector norms {norms} deviate from 1")
        settings = (len(self.bloch_a), len(self.bloch_b))
        if self.g.shape != settings:
            raise ValueError(f"g has shape {self.g.shape}, expected {settings} from the Bloch vectors")


def observable_from_bloch(a) -> np.ndarray:
    """Traceless qubit observable a . sigma with eigenvalues +/-1."""
    v = np.asarray(a, dtype=float)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise NotUnit(f"not a unit 3-vector: {a}")
    return sum(v[i] * PAULIS[i] for i in range(3))


def build_bell_operator(s: BellScenario) -> np.ndarray:
    dims = s.dims
    op = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    for (a, b, x, y), c in s.coefficients.items():
        op += c * tensor(s.alice[x][a], s.bob[y][b])
    return (op + op.conj().T) / 2


def build_correlation_operator(s: CorrelationScenario) -> np.ndarray:
    obs_a = [observable_from_bloch(v) for v in s.bloch_a]
    obs_b = [observable_from_bloch(v) for v in s.bloch_b]
    op = np.zeros((4, 4), dtype=complex)
    for x in range(s.g.shape[0]):
        for y in range(s.g.shape[1]):
            if s.g[x, y] != 0.0:
                op += s.g[x, y] * tensor(obs_a[x], obs_b[y])
    return op


def _check_dichotomic(a) -> np.ndarray:
    m = check_hermitian(a)
    vals = np.sort(np.linalg.eigvalsh(m))
    if m.shape != (2, 2) or np.abs(vals - np.array([-1.0, 1.0])).max() > 1e-9:
        raise NotDichotomic("observable must be a qubit operator with +/-1 eigenvalues")
    return m


def steering_operator_f2(a1, a2) -> np.ndarray:
    """Two-setting linear steering operator with Bob fixed to (sigma_z, sigma_x).

    Any orthonormal alignment of Bob is local-unitarily equivalent, so the
    spectrum is independent of this choice.
    """
    m1 = _check_dichotomic(a1)
    m2 = _check_dichotomic(a2)
    return tensor(m1, PAULI_Z) + tensor(m2, PAULI_X)


def _strategies(povms: list[Povm]) -> np.ndarray:
    counts = [len(s) for s in povms]
    total = int(np.prod(counts))
    if total > ENUMERATION_CAP:
        raise TooLargeToEnumerate(f"{total} deterministic strategies exceed cap {ENUMERATION_CAP}")
    return np.array(list(itertools.product(*[range(c) for c in counts])), dtype=int)


def local_bound(s: BellScenario) -> float:
    """Exact LHV bound: max over deterministic response pairs."""
    fa = _strategies(s.alice)
    fb = _strategies(s.bob)
    ka, kb = fa.shape[1], fb.shape[1]
    max_a = max(len(p) for p in s.alice)
    max_b = max(len(p) for p in s.bob)
    c = np.zeros((max_a, max_b, ka, kb))
    for (a, b, x, y), v in s.coefficients.items():
        c[a, b, x, y] += v
    # per Alice strategy, accumulate coefficients over x into a (b, y) table
    xs = np.arange(ka)
    ta = c[fa[:, xs], :, xs, :].sum(axis=1)  # (nA, max_b, kb)
    ys = np.arange(kb)
    best = -np.inf
    for block in np.array_split(fb, max(1, len(fb) // 512)):
        vals = ta[:, block[:, ys], ys].sum(axis=-1)  # (nA, nB_block)
        best = max(best, vals.max())
    return float(best)


def incompatibility(a1, a2, b1, b2) -> tuple[float, float, float, float]:
    """Commutator-norm incompatibilities (C_A, C_B, C = C_A C_B, C_A + C_B)."""
    from .linalg import commutator_norm

    ca = commutator_norm(a1, a2)
    cb = commutator_norm(b1, b2)
    return ca, cb, ca * cb, ca + cb


def projective_qubit_povm(observable) -> Povm:
    """Split a +/-1 qubit observable A into {(1 - A)/2, (1 + A)/2}.

    Index 0 is the -1 outcome, matching the A = M_1 - M_0 sign convention
    used throughout this package.
    """
    m = _check_dichotomic(observable)
    eye = np.eye(2)
    return [(eye - m) / 2, (eye + m) / 2]


def scenario_from_observables(
    obs_a, obs_b, g, marg_a=None, marg_b=None, name: str = ""
) -> BellScenario:
    """Build a POVM-form scenario from +/-1 observables and correlation weights.

    g[x][y] weights <A_x B_y>; marg_a[x] weights <A_x>, marg_b[y] weights
    <B_y>.  Marginals are attached to a trivial single-outcome identity
    setting appended to the other party.
    """
    alice = [projective_qubit_povm(a) for a in obs_a]
    bob = [projective_qubit_povm(b) for b in obs_b]
    return scenario_from_dichotomic_povms(alice, bob, g, marg_a, marg_b, name=name)


def scenario_from_dichotomic_povms(
    alice: list[Povm],
    bob: list[Povm],
    g,
    marg_a=None,
    marg_b=None,
    name: str = "",
    psd_tol: float = 1e-10,
) -> BellScenario:
    """Two-outcome scenario where outcome index 0 carries sign -1, index 1 sign +1.

    g must have shape (len(alice), len(bob)); marg_a and marg_b, when given,
    hold one weight per setting of their party.
    """
    g = np.asarray(g, dtype=float)
    alice = [list(s) for s in alice]
    bob = [list(s) for s in bob]
    for name, weights, shape in (
        ("g", g, (len(alice), len(bob))),
        ("marg_a", marg_a, (len(alice),)),
        ("marg_b", marg_b, (len(bob),)),
    ):
        if weights is not None and np.shape(weights) != shape:
            raise ValueError(f"{name} has shape {np.shape(weights)}, expected {shape}")
    sign = (-1.0, 1.0)
    coeffs: dict[tuple[int, int, int, int], float] = {}

    def add(key, v):
        if v != 0.0:
            coeffs[key] = coeffs.get(key, 0.0) + v

    for x in range(len(alice)):
        for y in range(len(bob)):
            if g[x, y] != 0.0:
                for a in range(2):
                    for b in range(2):
                        add((a, b, x, y), g[x, y] * sign[a] * sign[b])
    if marg_a is not None and np.any(np.asarray(marg_a) != 0):
        bob = bob + [[np.eye(2, dtype=complex)]]
        y_dummy = len(bob) - 1
        for x, w in enumerate(marg_a):
            for a in range(2):
                add((a, 0, x, y_dummy), w * sign[a])
    if marg_b is not None and np.any(np.asarray(marg_b) != 0):
        alice = alice + [[np.eye(2, dtype=complex)]]
        x_dummy = len(alice) - 1
        for y, w in enumerate(marg_b):
            for b in range(2):
                add((0, b, x_dummy, y), w * sign[b])
    return BellScenario(alice=alice, bob=bob, coefficients=coeffs, name=name, psd_tol=psd_tol)


def chsh_scenario(angle: float | None = None) -> BellScenario:
    """CHSH with the maximally incompatible (C = 4) settings by default.

    A1 = sigma_z, A2 = sigma_x, B1/B2 = (sigma_z +/- sigma_x)/sqrt(2); an
    optional Alice angle replaces A2 by cos(t) sigma_z + sin(t) sigma_x.
    """
    sq = 1.0 / np.sqrt(2.0)
    a2 = PAULI_X if angle is None else np.cos(angle) * PAULI_Z + np.sin(angle) * PAULI_X
    obs_a = [PAULI_Z, a2]
    obs_b = [sq * (PAULI_Z + PAULI_X), sq * (PAULI_Z - PAULI_X)]
    return scenario_from_observables(obs_a, obs_b, [[1, 1], [1, -1]], name="chsh-c4")


_I3322_ALICE = [
    [[0.4379, 0.3455 + 0.3560j], [0.3455 - 0.3560j, 0.5621]],
    [[0.6885, 0.3964 - 0.2394j], [0.3964 + 0.2394j, 0.3115]],
    [[0.9187, -0.0737 + 0.2632j], [-0.0737 - 0.2632j, 0.0813]],
]

_I3322_BOB = [
    [[0.6973, 0.0630 - 0.4551j], [0.0630 + 0.4551j, 0.3027]],
    [[0.8982, -0.2538 + 0.1645j], [-0.2538 - 0.1645j, 0.1018]],
    [[0.6472, -0.0110 + 0.4777j], [-0.0110 - 0.4777j, 0.3528]],
]

# <A1>+<A2>-<B1>-<B2>+<A1B1>+<A2B1>+<A3B1>+<A1B2>+<A2B2>-<A3B2>+<A1B3>-<A2B3> <= 4
_I3322_G = [[1, 1, 1], [1, 1, -1], [1, -1, 0]]
_I3322_MARG_A = [1, 1, 0]
_I3322_MARG_B = [-1, -1, 0]


def i3322_fixture() -> BellScenario:
    """The three-setting scenario with the fixed measurement matrices.

    The stored 2x2 matrices (4-decimal precision) are the first POVM element
    M_{0|x} of each setting; complements come from completeness.  Observables
    are A_x = M_{1|x} - M_{0|x} = 1 - 2 M_{0|x}.
    """
    eye = np.eye(2, dtype=complex)
    alice = []
    for m in _I3322_ALICE:
        m0 = np.array(m, dtype=complex)
        alice.append([m0, eye - m0])
    bob = []
    for m in _I3322_BOB:
        m0 = np.array(m, dtype=complex)
        bob.append([m0, eye - m0])
    # 5e-4 PSD slack absorbs the 4-decimal rounding of the printed elements
    return scenario_from_dichotomic_povms(
        alice,
        bob,
        _I3322_G,
        marg_a=_I3322_MARG_A,
        marg_b=_I3322_MARG_B,
        name="i3322",
        psd_tol=5e-4,
    )


def steering_f2_scenario() -> tuple[np.ndarray, float]:
    """Built-in F2 steering operator (Alice = Pauli pair) and its bound sqrt(2)."""
    return steering_operator_f2(PAULI_Z, PAULI_X), float(np.sqrt(2.0))


def chsh_settings_for_c(c: float, party: str = "alice") -> tuple[np.ndarray, np.ndarray]:
    """A pair of projective qubit observables with commutator norm c in [0, 2]."""
    if not 0.0 <= c <= 2.0:
        raise OutOfRange(f"single-party incompatibility must be in [0, 2], got {c}")
    theta = np.arcsin(c / 2.0)
    return PAULI_Z, np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
