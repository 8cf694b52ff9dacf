"""Tests for the closed-form minimal-purity / maximal-value solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellres import bell
from bellres.bounds import (
    construct_optimal_state,
    max_value_given_probustness,
    max_value_given_renyi2,
    min_lambda1_for_value,
    min_relent_purity_for_value,
    min_renyi2_for_value,
)
from bellres.errors import DimMismatch, Infeasible, OutOfRange
from bellres.linalg import eig_hermitian, state_functionals
from bellres.oracles import default_rng, min_purity_nelder_mead

RT2 = np.sqrt(2.0)
TSIRELSON = 2 * RT2

MU4 = np.array([4.0, 2.0, 1.0, -1.0])


def _random_mu(rng, d, min_gap=0.05):
    """Distinct descending eigenvalues with a minimum spacing."""
    while True:
        mu = np.sort(rng.normal(size=d) * 3)[::-1]
        if np.diff(mu).max() < -min_gap:
            return mu


class TestMaxValueGivenProbustness:
    def test_pure_state(self):
        sol = max_value_given_probustness(MU4, 3.0, 4)
        assert sol.value == pytest.approx(4.0, abs=1e-12)
        assert sol.rank == 1

    def test_maximally_mixed(self):
        sol = max_value_given_probustness(MU4, 0.0, 4)
        assert sol.value == pytest.approx(MU4.mean(), abs=1e-12)
        assert sol.rank == 4

    def test_rank3_example(self):
        sol = max_value_given_probustness(MU4, 4 * 0.4 - 1.0, 4)
        assert sol.rank == 3
        assert np.allclose(sol.lambdas, [0.4, 0.4, 0.2], atol=1e-12)
        assert sol.value == pytest.approx(2.6, abs=1e-12)

    def test_grid_oracle(self):
        # brute-force: maximize sum(mu*lam) over spectra with lam1 = 0.4 fixed
        lam1 = 0.4
        best = -np.inf
        grid = np.linspace(0.0, lam1, 81)
        for l2 in grid:
            for l3 in grid:
                l4 = 1.0 - lam1 - l2 - l3
                if -1e-12 <= l4 <= min(l3, lam1) + 1e-12 and l3 <= l2 + 1e-12:
                    best = max(best, float(MU4 @ [lam1, l2, l3, max(l4, 0.0)]))
        assert max_value_given_probustness(MU4, 4 * lam1 - 1, 4).value >= best - 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            max_value_given_probustness(MU4, 3.5, 4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_resource(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        mu = _random_mu(rng, d)
        values = [max_value_given_probustness(mu, p, d).value for p in np.linspace(0, d - 1, 100)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestMinLambda1ForValue:
    def test_chsh_v02(self, chsh_op):
        mu = eig_hermitian(chsh_op).values
        sol = min_lambda1_for_value(mu, 2.2, 4)
        assert sol.rank == 2
        assert sol.lambdas[0] == pytest.approx(2.2 / TSIRELSON, abs=1e-12)
        assert sol.resource == pytest.approx(4 * 2.2 / TSIRELSON - 1, abs=1e-12)

    def test_pure_saturation(self):
        sol = min_lambda1_for_value(MU4, 4.0, 4)
        assert sol.rank == 1
        assert sol.lambdas[0] == 1.0

    def test_maximally_mixed_end(self):
        sol = min_lambda1_for_value(MU4, MU4.mean(), 4)
        assert sol.rank == 4
        assert sol.lambdas[0] == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_top(self):
        mu = np.array([3.0, 3.0, 1.0, 0.0])
        sol = min_lambda1_for_value(mu, 3.0, 4)
        assert sol.rank == 2
        assert np.allclose(sol.lambdas, [0.5, 0.5])

    def test_infeasible_above_top(self):
        with pytest.raises(Infeasible):
            min_lambda1_for_value(MU4, 4.5, 4)

    def test_below_mean_needs_flag(self):
        with pytest.raises(Infeasible):
            min_lambda1_for_value(MU4, 0.0, 4)
        sol = min_lambda1_for_value(MU4, 0.0, 4, ascending=True)
        assert sol.lambdas @ MU4[::-1][: sol.rank] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_max_value(self, seed, frac):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        mu = _random_mu(rng, d)
        p_r = frac * (d - 1)
        fwd = max_value_given_probustness(mu, p_r, d)
        back = min_lambda1_for_value(mu, fwd.value, d)
        assert back.lambdas[0] == pytest.approx((1 + p_r) / d, abs=1e-10)


class TestMaxValueGivenRenyi2:
    def test_qubit_example(self):
        sol = max_value_given_renyi2([1.0, -1.0], np.log2(2 * 0.625), 2)
        assert sol.value == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(sol.lambdas, [0.75, 0.25], atol=1e-12)

    def test_pure(self):
        sol = max_value_given_renyi2(MU4, 2.0, 4)
        assert sol.value == pytest.approx(4.0, abs=1e-12)

    def test_maximally_mixed(self):
        sol = max_value_given_renyi2(MU4, 0.0, 4)
        assert sol.value == pytest.approx(MU4.mean(), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            max_value_given_renyi2(MU4, 2.5, 4)

    def test_degenerate_top_branch(self):
        mu = np.array([3.0, 3.0, 1.0, 0.0])
        sol = max_value_given_renyi2(mu, np.log2(4 * 0.5), 4)
        assert sol.value == pytest.approx(3.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_resource(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        mu = _random_mu(rng, d)
        values = [
            max_value_given_renyi2(mu, p, d).value for p in np.linspace(0, np.log2(d), 100)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestMinRenyi2ForValue:
    def test_qubit_example(self):
        sol = min_renyi2_for_value([1.0, -1.0], 0.5, 2)
        assert float((sol.lambdas**2).sum()) == pytest.approx(0.625, abs=1e-12)
        assert sol.resource == pytest.approx(np.log2(1.25), abs=1e-12)

    def test_maximally_mixed(self):
        sol = min_renyi2_for_value(MU4, MU4.mean(), 4)
        assert sol.resource == pytest.approx(0.0, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_renyi2_for_value(MU4, 4.5, 4)
        with pytest.raises(Infeasible):
            min_renyi2_for_value(MU4, 0.0, 4)

    def test_below_mean_branch(self):
        mu = np.array([3.0, 1.0, 0.0, -2.0])  # mean 0.5
        sol = min_renyi2_for_value(mu, 0.0, 4, ascending=True)
        brute = min_purity_nelder_mead(mu, 0.0, seed=0xA5C)
        assert sol.resource == pytest.approx(np.log2(4 * brute), abs=1e-6)
        assert sol.lambdas @ mu[::-1][: sol.rank] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, frac):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        mu = _random_mu(rng, d)
        target = mu.mean() + frac * (mu[0] - mu.mean())
        sol = min_renyi2_for_value(mu, target, d)
        fwd = max_value_given_renyi2(mu, sol.resource, d)
        assert fwd.value == pytest.approx(target, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_strictly_increasing_in_target(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        mu = _random_mu(rng, d)
        targets = mu.mean() + np.linspace(0.05, 0.95, 30) * (mu[0] - mu.mean())
        purities = [float((min_renyi2_for_value(mu, t, d).lambdas ** 2).sum()) for t in targets]
        assert all(b > a for a, b in zip(purities, purities[1:]))


class TestMinRelentPurity:
    def test_maximally_mixed(self):
        s_p, beta, state = min_relent_purity_for_value(np.diag(MU4), MU4.mean() + 1e-9)
        assert beta <= 1e-6
        assert s_p == pytest.approx(0.0, abs=1e-8)

    def test_chsh_gibbs(self, chsh_op):
        s_p, beta, state = min_relent_purity_for_value(chsh_op, 2.2)
        assert s_p > 0.0
        assert beta > 0.0
        # constraint residual and Gibbs commutation
        assert np.trace(state.matrix @ chsh_op).real == pytest.approx(2.2, abs=1e-8)
        comm = state.matrix @ chsh_op - chsh_op @ state.matrix
        assert np.abs(comm).max() <= 1e-9

    def test_infeasible_at_top(self, chsh_op):
        with pytest.raises(Infeasible):
            min_relent_purity_for_value(chsh_op, TSIRELSON)

    def test_monotone_decreasing_in_c(self):
        from bellres.twoqubit import chsh_eigenvalues

        target = 2.2
        values = []
        for c in np.linspace(1.0, 4.0, 25):
            mu = chsh_eigenvalues(float(c))
            s_p, _, _ = min_relent_purity_for_value(np.diag(mu), target)
            values.append(s_p)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_minimizers_differ_from_rank_solution(self):
        # same Bell value, different optimal states (relent vs robustness)
        from bellres.twoqubit import chsh_eigenvalues

        mu = chsh_eigenvalues(3.0)
        op = np.diag(mu)
        target = 2.2
        _, _, gibbs = min_relent_purity_for_value(op, target)
        sol = min_lambda1_for_value(mu, target, 4)
        rank_state = construct_optimal_state(sol, eig_hermitian(op))
        assert np.trace(gibbs.matrix @ op).real == pytest.approx(
            np.trace(rank_state.matrix @ op).real, abs=1e-7
        )
        assert np.linalg.norm(gibbs.matrix - rank_state.matrix) > 1e-6


class TestConstructOptimalState:
    def test_rank1_projector(self):
        spec = eig_hermitian(np.diag(MU4))
        sol = min_lambda1_for_value(MU4, 4.0, 4)
        rho = construct_optimal_state(sol, spec)
        assert np.allclose(rho.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_chsh_v02(self, chsh_op):
        spec = eig_hermitian(chsh_op)
        sol = min_lambda1_for_value(spec.values, 2.2, 4)
        rho = construct_optimal_state(sol, spec, dims=(2, 2))
        assert np.trace(rho.matrix @ chsh_op).real == pytest.approx(2.2, abs=1e-10)
        assert state_functionals(rho).lambda1 == pytest.approx(2.2 / TSIRELSON, abs=1e-10)

    def test_rank3_value(self):
        spec = eig_hermitian(np.diag(MU4))
        sol = max_value_given_probustness(MU4, 4 * 0.4 - 1, 4)
        rho = construct_optimal_state(sol, spec)
        assert np.trace(rho.matrix @ np.diag(MU4)).real == pytest.approx(2.6, abs=1e-10)

    def test_dim_mismatch(self):
        spec = eig_hermitian(np.diag([1.0, -1.0]))
        sol = min_lambda1_for_value(MU4, 2.6, 4)
        with pytest.raises(DimMismatch):
            construct_optimal_state(sol, spec)


def test_i3322_probustness_value(i3322_scenario):
    op = bell.build_bell_operator(i3322_scenario)
    mu = eig_hermitian(op).values
    sol = min_lambda1_for_value(mu, 4.001, 4)
    assert abs(sol.resource - 2.6756) <= 5e-4
