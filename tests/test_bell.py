"""Tests for Bell/steering operator construction, local bounds, incompatibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellres import bell
from bellres.bell import (
    BellScenario,
    CorrelationScenario,
    build_bell_operator,
    build_correlation_operator,
    chsh_scenario,
    chsh_settings_for_c,
    i3322_fixture,
    incompatibility,
    local_bound,
    observable_from_bloch,
    projective_qubit_povm,
    scenario_from_observables,
    steering_f2_scenario,
    steering_operator_f2,
)
from bellres.errors import NotDichotomic, NotUnit, OutOfRange, TooLargeToEnumerate
from bellres.linalg import PAULI_X, PAULI_Z, commutator_norm, eig_hermitian, tensor

RT2 = np.sqrt(2.0)


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestObservableFromBloch:
    def test_z_axis(self):
        assert np.array_equal(observable_from_bloch([0, 0, 1]), PAULI_Z)

    def test_x_axis(self):
        assert np.array_equal(observable_from_bloch([1, 0, 0]), PAULI_X)

    def test_diagonal_axis(self):
        obs = observable_from_bloch([1 / RT2, 0, 1 / RT2])
        assert np.allclose(obs, (PAULI_X + PAULI_Z) / RT2)
        assert np.allclose(eig_hermitian(obs).values, [1.0, -1.0])

    def test_not_unit(self):
        with pytest.raises(NotUnit):
            observable_from_bloch([1, 1, 0])


class TestBuildBellOperator:
    def test_zero_coefficients(self):
        s = chsh_scenario()
        s.coefficients = {}
        assert np.abs(build_bell_operator(s)).max() == 0.0

    def test_chsh_spectrum(self):
        op = build_bell_operator(chsh_scenario())
        assert np.allclose(eig_hermitian(op).values, [2 * RT2, 0, 0, -2 * RT2], atol=1e-12)

    def test_i3322_feasibility(self):
        op = build_bell_operator(i3322_fixture())
        assert eig_hermitian(op).values[0] > 4.001

    def test_single_correlator_sign_convention(self):
        s = scenario_from_observables([PAULI_Z], [PAULI_Z], [[1.0]])
        assert np.allclose(build_bell_operator(s), tensor(PAULI_Z, PAULI_Z), atol=1e-12)

    @pytest.mark.parametrize(
        "n_settings, g, marg_a, message",
        [
            (2, [[1.0]], None, "g has shape"),
            (1, [[1.0, 1.0], [1.0, 1.0]], None, "g has shape"),
            (2, np.ones((2, 2)), [1, 1, 1], "marg_a has shape"),
        ],
        ids=["g-too-small", "g-too-large", "marg-a-too-long"],
    )
    def test_weights_must_match_settings(self, n_settings, g, marg_a, message):
        obs = [PAULI_Z, PAULI_X][:n_settings]
        with pytest.raises(ValueError, match=message):
            local_bound(scenario_from_observables(obs, obs, g, marg_a=marg_a))


class TestBuildCorrelationOperator:
    def test_chsh_equivalence(self):
        s = CorrelationScenario(
            g=[[1, 1], [1, -1]],
            bloch_a=[[0, 0, 1], [1, 0, 0]],
            bloch_b=[[1 / RT2, 0, 1 / RT2], [-1 / RT2, 0, 1 / RT2]],
        )
        op = build_correlation_operator(s)
        assert np.allclose(op, build_bell_operator(chsh_scenario()), atol=1e-12)

    def test_zero(self):
        s = CorrelationScenario(g=[[0.0]], bloch_a=[[0, 0, 1]], bloch_b=[[0, 0, 1]])
        assert np.abs(build_correlation_operator(s)).max() == 0.0

    def test_single_term(self):
        s = CorrelationScenario(g=[[1.0]], bloch_a=[[0, 0, 1]], bloch_b=[[0, 0, 1]])
        assert np.allclose(build_correlation_operator(s), tensor(PAULI_Z, PAULI_Z))

    def test_bad_bloch(self):
        with pytest.raises(NotUnit):
            CorrelationScenario(g=[[1.0]], bloch_a=[[0, 0, 2]], bloch_b=[[0, 0, 1]])


class TestSteeringOperator:
    def test_pauli_pair(self):
        op = steering_operator_f2(PAULI_Z, PAULI_X)
        assert np.allclose(eig_hermitian(op).values, [2, 0, 0, -2], atol=1e-12)

    def test_compatible_pair(self):
        op = steering_operator_f2(PAULI_Z, PAULI_Z)
        assert np.allclose(eig_hermitian(op).values, [RT2, RT2, -RT2, -RT2], atol=1e-12)

    def test_angle(self):
        theta = np.pi / 3
        a2 = np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
        vals = eig_hermitian(steering_operator_f2(PAULI_Z, a2)).values
        assert vals[0] == pytest.approx(np.sqrt(2 + 2 * np.sin(theta)), abs=1e-12)
        assert vals[-1] == pytest.approx(-np.sqrt(2 + 2 * np.sin(theta)), abs=1e-12)

    def test_not_dichotomic(self):
        with pytest.raises(NotDichotomic):
            steering_operator_f2(np.eye(2), PAULI_X)

    def test_builtin(self):
        op, bound = steering_f2_scenario()
        assert bound == pytest.approx(RT2)
        assert np.allclose(op, steering_operator_f2(PAULI_Z, PAULI_X))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spectrum_formula(self, seed):
        rng = np.random.default_rng(seed)
        a1 = observable_from_bloch(random_bloch(rng))
        a2 = observable_from_bloch(random_bloch(rng))
        c_a = min(commutator_norm(a1, a2), 2.0)
        vals = eig_hermitian(steering_operator_f2(a1, a2)).values
        hi, lo = np.sqrt(2 + c_a), np.sqrt(2 - c_a)
        assert np.abs(vals - [hi, lo, -lo, -hi]).max() <= 1e-9


class TestLocalBound:
    def test_chsh(self):
        assert local_bound(chsh_scenario()) == 2.0

    def test_i3322(self):
        assert local_bound(i3322_fixture()) == 4.0

    def test_single_correlator(self):
        s = scenario_from_observables([PAULI_Z], [PAULI_Z], [[1.0]])
        assert local_bound(s) == 1.0

    def test_relabeling_invariance(self):
        s = chsh_scenario()
        swapped = BellScenario(
            alice=[s.alice[1], s.alice[0]],
            bob=s.bob,
            coefficients={(a, b, 1 - x, y): c for (a, b, x, y), c in s.coefficients.items()},
        )
        assert local_bound(swapped) == local_bound(s)

    def test_enumeration_cap(self):
        povm = projective_qubit_povm(PAULI_Z)
        many = [povm] * 13  # 2^13 > 4096 deterministic strategies
        s = BellScenario(alice=many, bob=[povm], coefficients={(0, 0, 0, 0): 1.0})
        with pytest.raises(TooLargeToEnumerate):
            local_bound(s)


class TestIncompatibility:
    def test_pauli_pairs(self):
        got = incompatibility(PAULI_Z, PAULI_X, PAULI_Z, PAULI_X)
        assert got == pytest.approx((2.0, 2.0, 4.0, 4.0), abs=1e-12)

    def test_commuting_alice(self):
        _, _, c, _ = incompatibility(PAULI_Z, PAULI_Z, PAULI_Z, PAULI_X)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_c_tilde_distinguishes(self):
        a1, a2 = chsh_settings_for_c(2.0)
        ca, cb, c1, ct1 = incompatibility(a1, a2, PAULI_Z, PAULI_Z)
        b1, b2 = chsh_settings_for_c(1.0)
        _, _, c2, ct2 = incompatibility(b1, b2, *chsh_settings_for_c(1.0))
        assert ct1 == pytest.approx(2.0, abs=1e-9)
        assert ct2 == pytest.approx(2.0, abs=1e-9)
        assert c1 == pytest.approx(0.0, abs=1e-9)
        assert c2 == pytest.approx(1.0, abs=1e-9)


class TestI3322Fixture:
    def test_printed_entry(self):
        s = i3322_fixture()
        assert s.alice[0][0][0, 0] == pytest.approx(0.4379, abs=1e-12)

    def test_rounding_slack(self):
        s = i3322_fixture()
        for party in (s.alice, s.bob):
            for setting in party[:3]:
                for m in setting:
                    vals = np.linalg.eigvalsh(m)
                    assert vals.min() >= -5e-4
                    assert vals.max() <= 1.0 + 5e-4

    def test_completeness(self):
        s = i3322_fixture()
        for setting in s.alice[:3]:
            assert np.allclose(setting[0] + setting[1], np.eye(2), atol=1e-12)


class TestChshSettingsForC:
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
    def test_commutator_matches(self, c):
        a1, a2 = chsh_settings_for_c(c)
        assert commutator_norm(a1, a2) == pytest.approx(c, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            chsh_settings_for_c(2.5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=1000, deadline=None)
def test_chsh_spectrum_formula_random_settings(seed):
    """Spectrum of any projective-setting CHSH operator is +/-sqrt(4 +/- C)."""
    rng = np.random.default_rng(seed)
    obs = [observable_from_bloch(random_bloch(rng)) for _ in range(4)]
    ca, cb, c, _ = incompatibility(*obs)
    op = np.zeros((4, 4), dtype=complex)
    for x, sign_row in enumerate([[1, 1], [1, -1]]):
        for y, sgn in enumerate(sign_row):
            op += sgn * tensor(obs[x], obs[2 + y])
    vals = eig_hermitian(op).values
    c = min(c, 4.0)
    hi, lo = np.sqrt(4 + c), np.sqrt(4 - c)
    assert np.abs(vals - [hi, lo, -lo, -hi]).max() <= 1e-9
