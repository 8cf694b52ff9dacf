"""Bell / steering operator construction, local bounds, and incompatibility.

Scenarios are stored in POVM form: per-party lists of measurement settings,
each setting a list of positive operators summing to the identity.  Bell
coefficients are a sparse mapping (a, b, x, y) -> real weight.  Single-party
marginal terms are encoded against a trivial one-outcome "dummy" setting of
the other party whose only element is the identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDichotomic, NotUnit, OutOfRange, TooLargeToEnumerate
from .linalg import (
    PAULI_X,
    PAULI_Z,
    PAULIS,
    check_hermitian,
    commutator_norm,
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
    psd_tol: float = 1e-10  # slack for POVM elements printed at finite precision

    def __post_init__(self):
        for party, povms in (("alice", self.alice), ("bob", self.bob)):
            if not povms:
                raise ValueError(f"{party} has no settings")
            for x, setting in enumerate(povms):
                if not setting:
                    raise ValueError(f"{party} setting {x} has no elements")
                if not all(np.isfinite(m).all() for m in setting):
                    raise ValueError("POVM elements must be finite")
                total = sum(setting)
                dim = total.shape[0]
                if np.abs(total - np.eye(dim)).max() > 1e-10:
                    raise ValueError("POVM elements of a setting must sum to identity")
                for m in setting:
                    check_hermitian(m, rtol=1e-10)
                    if np.linalg.eigvalsh(m).min() < -self.psd_tol:
                        raise ValueError("POVM element is not positive semidefinite")
        for (a, b, x, y), c in self.coefficients.items():
            if not (0 <= x < len(self.alice) and 0 <= a < len(self.alice[x])
                    and 0 <= y < len(self.bob) and 0 <= b < len(self.bob[y])):
                raise ValueError(f"coefficient (a, b, x, y) = {(a, b, x, y)} names no outcome")
            if not np.isfinite(c):
                raise ValueError(f"coefficient (a, b, x, y) = {(a, b, x, y)} is {c}, not finite")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.alice[0][0].shape[0], self.bob[0][0].shape[0])


def observable_from_bloch(a) -> np.ndarray:
    """Traceless qubit observable a . sigma with eigenvalues +/-1."""
    v = np.asarray(a, dtype=float)
    if v.shape != (3,) or not abs(math.hypot(*v) - 1.0) <= 1e-12:  # hypot: no overflow; NaN fails
        raise NotUnit(f"not a unit 3-vector: {a}")
    return sum(v[i] * PAULIS[i] for i in range(3))


def build_bell_operator(s: BellScenario) -> np.ndarray:
    dims = s.dims
    op = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    for (a, b, x, y), c in s.coefficients.items():
        op += c * tensor(s.alice[x][a], s.bob[y][b])
    return (op + op.conj().T) / 2


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
    total = math.prod(counts)
    if total > ENUMERATION_CAP:
        raise TooLargeToEnumerate(f"{total} deterministic strategies exceed cap {ENUMERATION_CAP}")
    return np.array(list(itertools.product(*[range(c) for c in counts])), dtype=int)


def local_bound(s: BellScenario) -> float:
    """Exact LHV bound: one party's deterministic strategies against the other's best response.

    With one party's outputs fixed, each setting of the other takes its best
    outcome on its own, so only the party with fewer strategies is
    enumerated (Alice on a tie).
    """
    c = np.zeros((max(map(len, s.alice)), max(map(len, s.bob)), len(s.alice), len(s.bob)))
    for (a, b, x, y), v in s.coefficients.items():
        c[a, b, x, y] += v
    first, second = s.alice, s.bob
    if math.prod(map(len, s.bob)) < math.prod(map(len, s.alice)):
        first, second, c = s.bob, s.alice, c.transpose(1, 0, 3, 2)
    strategies = _strategies(first)
    outcomes = np.array([len(p) for p in second])
    # per strategy, accumulate coefficients over the first party's settings
    # into a table over the second's outcomes and settings
    xs = np.arange(len(first))
    table = c[strategies[:, xs], :, xs, :].sum(axis=1)  # (strategies, outcomes, settings)
    table[:, np.arange(outcomes.max())[:, None] >= outcomes] = -np.inf  # outcomes a setting lacks
    return float(table.max(axis=1).sum(axis=1).max())


def incompatibility(a1, a2, b1, b2) -> tuple[float, float, float, float]:
    """Commutator-norm incompatibilities (C_A, C_B, C = C_A C_B, C_A + C_B)."""
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


def scenario_from_observables(obs_a, obs_b, g, marg_a=None, marg_b=None) -> BellScenario:
    """Build a POVM-form scenario from +/-1 observables and correlation weights.

    g[x][y] weights <A_x B_y>; marg_a[x] weights <A_x>, marg_b[y] weights
    <B_y>.  Marginals are attached to a trivial single-outcome identity
    setting appended to the other party.
    """
    alice = [projective_qubit_povm(a) for a in obs_a]
    bob = [projective_qubit_povm(b) for b in obs_b]
    return scenario_from_dichotomic_povms(alice, bob, g, marg_a, marg_b)


def scenario_from_dichotomic_povms(
    alice: list[Povm],
    bob: list[Povm],
    g,
    marg_a=None,
    marg_b=None,
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
    return BellScenario(alice=alice, bob=bob, coefficients=coeffs, psd_tol=psd_tol)


def chsh_scenario() -> BellScenario:
    """CHSH with the maximally incompatible (C = 4) settings.

    A1 = sigma_z, A2 = sigma_x, B1/B2 = (sigma_z +/- sigma_x)/sqrt(2).
    """
    sq = 1.0 / np.sqrt(2.0)
    obs_a = [PAULI_Z, PAULI_X]
    obs_b = [sq * (PAULI_Z + PAULI_X), sq * (PAULI_Z - PAULI_X)]
    return scenario_from_observables(obs_a, obs_b, [[1, 1], [1, -1]])


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
        psd_tol=5e-4,
    )


def steering_f2_scenario() -> tuple[np.ndarray, float]:
    """Built-in F2 steering operator (Alice = Pauli pair) and its bound sqrt(2)."""
    return steering_operator_f2(PAULI_Z, PAULI_X), float(np.sqrt(2.0))


def chsh_settings_for_c(c: float) -> tuple[np.ndarray, np.ndarray]:
    """A pair of projective qubit observables with commutator norm c in [0, 2]."""
    if not 0.0 <= c <= 2.0:
        raise OutOfRange(f"single-party incompatibility must be in [0, 2], got {c}")
    theta = np.arcsin(c / 2.0)
    return PAULI_Z, np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
