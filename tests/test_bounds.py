"""Tests for the closed-form minimal-purity / maximal-value solvers."""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellres import bell
from bellres.bounds import (
    _relent_purity_rows,
    _renyi2_rows,
    construct_optimal_state,
    max_value_given_probustness,
    max_value_given_renyi2,
    min_lambda1_for_value,
    min_relent_purity_for_value,
    min_renyi2_for_value,
)
from bellres.errors import DimMismatch, Infeasible, OutOfRange
from bellres.linalg import _tol, eig_hermitian
from bellres.oracles import _exact_purity_on_support, default_rng, min_purity_nelder_mead

RT2 = np.sqrt(2.0)
TSIRELSON = 2 * RT2

MU4 = np.array([4.0, 2.0, 1.0, -1.0])


def _random_mu(rng, d, min_gap=0.05):
    """Distinct descending eigenvalues with a minimum spacing."""
    while True:
        mu = np.sort(rng.normal(size=d) * 3)[::-1]
        if np.diff(mu).max() < -min_gap:
            return mu


def _exact(mu, target) -> tuple[float, float]:
    """Minimal lambda1 and minimal linear purity at target, in exact rational arithmetic.

    Evaluated on the float inputs: lambda1 from the first rank whose uniform
    top-r state reaches no higher than target, the purity from the Lagrange
    rank ansatz (the first rank from d down with nonnegative weights).
    """
    mu = [Fraction(float(m)) for m in mu]
    t = Fraction(float(target))
    r = next(r for r in range(2, len(mu) + 1) if sum(mu[:r]) <= r * t)
    lam1 = (t - mu[r - 1]) / (sum(mu[: r - 1]) - (r - 1) * mu[r - 1])
    for r in range(len(mu), 1, -1):
        a = sum(mu[:r]) / r
        s = sum((m - a) ** 2 for m in mu[:r])
        lam = [Fraction(1, r) + (t - a) * (m - a) / s for m in mu[:r]]
        if min(lam) >= 0:
            return float(lam1), float(sum(x * x for x in lam))
    raise AssertionError("no rank admits nonnegative weights")


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

    def test_scale_of_the_operator_does_not_move_the_answer(self):
        mu = np.array([2.0, 0.5, -0.3, -1.2])
        target = mu[0] - 1e-10 * (mu[0] - mu.mean())
        assert min_lambda1_for_value(mu, target, 4).resource == pytest.approx(
            2.9999999995, abs=1e-10
        )
        small = min_lambda1_for_value(mu * 1e-6, target * 1e-6, 4)
        assert small.resource == pytest.approx(2.9999999995, abs=1e-10)

    @pytest.mark.parametrize("solve", [min_lambda1_for_value, min_renyi2_for_value])
    def test_target_two_ulps_above_top_counts_as_top(self, solve):
        mu = np.array([2.0, 0.5, -0.3, -1.2]) * 1e6
        target = np.nextafter(np.nextafter(mu[0], np.inf), np.inf)
        sol = solve(mu, target, 4)
        assert sol.value == mu[0]
        assert np.array_equal(sol.lambdas, [1.0])

    def test_large_offset_matches_exact_arithmetic(self):
        # mu_k - mu1 and t - mu1 are exact at this offset, so no digit is lost to it
        mu = 1e9 + np.array([1.3, 0.4, -0.2, -1.5])
        target = 1e9 + 0.78
        lam1, purity = _exact(mu, target)
        assert abs(min_lambda1_for_value(mu, target, 4).lambdas[0] - lam1) <= 1e-15
        assert abs(float((min_renyi2_for_value(mu, target, 4).lambdas ** 2).sum()) - purity) <= 1e-15

    def test_mean_target_under_large_offset(self):
        # mean(mu) rounds an ulp of 1e9 either way from the exact Tr(I)/d, far above
        # _tol(mu): the exact mean rounded up and a caller's mean(mu) are both feasible
        rng = np.random.default_rng(0)
        for _ in range(100):
            for d in range(3, 9):
                mu = np.sort(1e9 + rng.normal(size=d))[::-1]
                exact = sum(map(Fraction, mu)) / d
                above = float(exact) if Fraction(float(exact)) >= exact else np.nextafter(
                    float(exact), np.inf
                )
                for target in (above, float(mu.mean())):  # neither raises Infeasible
                    min_lambda1_for_value(mu, target, d)
                    min_renyi2_for_value(mu, target, d)
                    min_relent_purity_for_value(np.diag(mu), target)
                lam1, _ = _exact(mu, above)
                assert abs(min_lambda1_for_value(mu, above, d).lambdas[0] - lam1) <= 1e-15

    @pytest.mark.parametrize("solve", [min_lambda1_for_value, min_renyi2_for_value])
    def test_operator_proportional_to_identity(self, solve):
        # the mean of (0.1, 0.1, 0.1) rounds to 0.10000000000000002, above the top level
        sol = solve(np.array([0.1, 0.1, 0.1]), 0.1, 3)
        assert sol.resource == 0.0
        assert np.array_equal(sol.lambdas, np.full(3, 1.0 / 3.0))

    def test_below_mean_needs_flag(self):
        with pytest.raises(Infeasible):
            min_lambda1_for_value(MU4, 0.0, 4)

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
        assert fwd.rank == len(fwd.lambdas) and back.rank == len(back.lambdas)


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
        assert np.allclose(sol.lambdas, [0.5, 0.5], atol=1e-12)
        # a top space of three levels: one weight 1/3 + sqrt((P - 1/3) 2/3) and two equal ones
        sol = max_value_given_renyi2(np.array([3.0, 3.0, 3.0, 0.0]), np.log2(4 * 0.5), 4)
        assert sol.value == 3.0
        assert np.allclose(sol.lambdas, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12)
        assert float((sol.lambdas**2).sum()) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "mu, purity",
        [
            ([0.2128778954780192, 0.2128778954778979], 0.6427382792370886),
            ([0.2128778954780192, 0.2128778954778979], 1.0 - 1e-10),
            ([0.685559408958821, 0.6855594089586524, 0.6159040940797724], 0.9167410218391161),
        ],
    )
    def test_near_degenerate_top_keeps_the_purity(self, mu, purity):
        # the top pair lies about 1e-13 apart, far below the levels' magnitude
        d = len(mu)
        sol = max_value_given_renyi2(np.array(mu), np.log2(d * purity), d)
        assert float((sol.lambdas**2).sum()) == pytest.approx(2.0**sol.resource / d, abs=1e-12)

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

    def test_near_degenerate_top_pair_matches_exact_arithmetic(self):
        # the top pair lies 1e-7 apart: rank 2 is the answer, not a degenerate top space
        mu = np.array([1.0, 1.0 - 1e-7, 0.0, -1.0])
        target = 1.0 - 1e-9
        sol = min_renyi2_for_value(mu, target, 4)
        assert sol.rank == 2
        assert sol.resource == pytest.approx(np.log2(4 * _exact(mu, target)[1]), abs=1e-9)
        assert sol.resource == pytest.approx(1.9711480526610, abs=1e-9)

    def test_below_mean_branch(self):
        mu, target = np.array([3.0, 1.0, 0.0, -2.0]), 0.0  # mean 0.5
        # below the mean: the program on -I, whose descending spectrum is -mu[::-1]
        sol = min_renyi2_for_value(-mu[::-1], -target, 4)
        brute = min_purity_nelder_mead(mu, target, seed=0xA5C)
        assert sol.resource == pytest.approx(np.log2(4 * brute), abs=1e-6)
        assert sol.lambdas @ mu[::-1][: sol.rank] == pytest.approx(target, abs=1e-12)

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
        assert sol.rank == len(sol.lambdas) and fwd.rank == len(fwd.lambdas)

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

    def test_target_at_the_mean_needs_no_search(self, monkeypatch):
        calls, np_exp = [], np.exp

        def exp(x):
            calls.append(x)
            return np_exp(x)

        monkeypatch.setattr(np, "exp", exp)
        s_p, beta, _ = min_relent_purity_for_value(np.diag(MU4), MU4.mean())
        assert beta == 0.0 and s_p == 0.0
        assert len(calls) <= 3

    def test_chsh_gibbs(self, chsh_op):
        s_p, beta, state = min_relent_purity_for_value(chsh_op, 2.2)
        assert s_p > 0.0
        assert beta > 0.0
        # constraint residual and Gibbs commutation
        assert np.trace(state.matrix @ chsh_op).real == pytest.approx(2.2, abs=1e-8)
        comm = state.matrix @ chsh_op - chsh_op @ state.matrix
        assert np.abs(comm).max() <= 1e-9

    @pytest.mark.parametrize("builtin", ["chsh-c4", "i3322", "steering-f2"])
    def test_builtins_within_2_ulp_of_50_digits(self, builtin):
        # the bound command's relent points; the reference is the Gibbs S_P at the
        # returned beta on the same float levels, summed in 50-digit decimals
        if builtin == "steering-f2":
            op, local = bell.steering_f2_scenario()
            target = local + 0.3
        else:
            scenario = bell.chsh_scenario() if builtin == "chsh-c4" else bell.i3322_fixture()
            op = bell.build_bell_operator(scenario)
            target = bell.local_bound(scenario) + 0.2 if builtin == "chsh-c4" else 4.001
        s_p, beta, _ = min_relent_purity_for_value(op, target)
        with localcontext() as ctx:
            ctx.prec = 50
            mu = [Decimal(float(x)) for x in eig_hermitian(op).values]
            w = [(Decimal(beta) * (x - mu[0])).exp() for x in mu]
            lam = [x / sum(w) for x in w]
            want = Decimal(len(mu)).ln() + sum(x * x.ln() for x in lam)
        assert abs(Decimal(s_p) - want) <= 2 * Decimal(np.spacing(float(want)))

    def test_infeasible_at_top(self, chsh_op):
        with pytest.raises(Infeasible):
            min_relent_purity_for_value(chsh_op, TSIRELSON)

    def test_target_needing_a_large_beta_is_met(self):
        # reaching 1e-11 below mu1 across a 1e-9 top gap needs beta near 5e9
        mu = np.array([1.0, 1.0 - 1e-9, 0.0, -1.0])
        _, beta, state = min_relent_purity_for_value(np.diag(mu), 1.0 - 1e-11)
        assert beta > 1e9
        assert abs(np.trace(state.matrix @ np.diag(mu)).real - (1.0 - 1e-11)) <= _tol(mu)

    def test_tiny_operator_gets_the_answer_at_scale_one(self):
        mu = np.array([2.0, 0.5, -0.3, -1.2])
        target = _target(mu, 0.9)
        s_p, beta, _ = min_relent_purity_for_value(np.diag(mu), target)
        tiny = min_relent_purity_for_value(np.diag(mu * 2.0**-30), target * 2.0**-30)
        assert tiny[:2] == (s_p, beta * 2.0**30)

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


def _spectrum(seed: int, d: int, kind: str) -> np.ndarray:
    """Descending spectrum: random, with a repeated top level, or a top gap of 1e-7 |mu1|."""
    mu = np.sort(np.random.default_rng(seed).normal(size=d) * 3)[::-1]
    if kind == "degenerate":
        mu[1] = mu[0]
    elif kind == "near-degenerate":
        mu[1] = mu[0] - 1e-7 * abs(mu[0])
    return mu


def _target(mu: np.ndarray, frac: float) -> float:
    """The point frac of the way from Tr(I)/d to mu1."""
    mean = mu.mean()
    return float(min(mean + frac * (mu[0] - mean), mu[0]))


_SPECTRA = st.builds(
    _spectrum,
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(["random", "degenerate", "near-degenerate"]),
)
# fractions of the range [Tr(I)/d, mu1]; the ends and the points just below mu1
# (the last two within the Bell-value tolerance of it) are drawn often
_FRACS = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-13, 1.0])
)


def _relent(mu: np.ndarray, target: float):
    """(S_P, beta) of the diagonal operator mu, or None where the target is Infeasible."""
    try:
        return min_relent_purity_for_value(np.diag(mu), target)[:2]
    except Infeasible:
        return None


@st.composite
def _spectrum_rows(draw):
    """Rows of d = 2-16 descending levels, each random, with a two-fold or
    nearly two-fold top level, or flat, and one target for all of them: a
    fraction from _FRACS of the way from the first row's mean to its mu1, or
    just above its mean."""
    d, n = draw(st.integers(2, 16)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = np.sort(rng.normal(size=(n, d)) * 3, axis=1)[:, ::-1].copy()
    kinds = st.sampled_from(["random", "degenerate", "near-degenerate", "flat"])
    for row, kind in zip(mu, draw(st.lists(kinds, min_size=n, max_size=n))):
        if kind == "degenerate":
            row[1] = row[0]
        elif kind == "near-degenerate":
            row[1] = row[0] - 1e-7 * abs(row[0])
        elif kind == "flat":
            row[:] = row[0]
    frac = draw(st.one_of(_FRACS, st.sampled_from([1e-15, 1e-12, 1e-6])))
    return mu, _target(mu[0], frac)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


_BAD_ROWS = [
    (MU4, 1.0, "rows of levels"),
    (np.array([[1.0, np.nan, 0.0]]), 0.0, "finite and descending"),
    (np.array([[0.0, 1.0, 2.0]]), 1.0, "finite and descending"),
    (np.array([MU4]), np.nan, "target must be finite"),
]
_BAD_ROW_IDS = ["one-row-as-1d", "nan-level", "ascending", "nan-target"]


class TestRelentForSpectra:
    @settings(max_examples=200)
    @given(_spectrum_rows())
    def test_batch_rows_equal_one_row_calls(self, rows):
        # every row in one lockstep bisection ends on the bits it reaches alone
        mu, target = rows
        s_p, beta, weights = _relent_purity_rows(mu, target)
        for k in range(len(mu)):
            one = _relent_purity_rows(mu[k : k + 1], target)
            assert _bits(one[0]) == _bits(s_p[k]) and _bits(one[1]) == _bits(beta[k])
            assert np.array_equal(_bits(one[2][0]), _bits(weights[k]))
            # the single-operator call is a one-row call on the spectrum of diag(mu_k),
            # which eig_hermitian returns exactly
            try:
                want = min_relent_purity_for_value(np.diag(mu[k]), target)[:2]
            except Infeasible:
                want = (np.nan, np.nan)
            assert _bits(s_p[k]) == _bits(want[0]) and _bits(beta[k]) == _bits(want[1])

    def test_flat_spectrum_at_its_rounded_mean_is_maximally_mixed(self):
        # the mean of seven levels 5.55 rounds below them, so the target is admitted;
        # the normalisation by mu1 - mu_d = 0 used to divide by zero
        mu = np.full(7, 5.55)
        assert mu.mean() < mu[0]
        s_p, beta, state = min_relent_purity_for_value(np.diag(mu), mu.mean())
        assert beta == 0.0 and s_p == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(state.matrix, np.eye(7) / 7, atol=1e-15)
        rows = _relent_purity_rows(mu[None], mu.mean())
        assert rows[1][0] == 0.0 and rows[0][0] == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(rows[2][0], np.full(7, 1.0 / 7))

    def test_unreachable_rows_are_nan(self):
        mu = np.array([MU4, MU4 - 3.0, [1.0, 1.0, 1.0, 1.0]])
        s_p, beta, weights = _relent_purity_rows(mu, 2.0)
        assert np.isfinite(s_p[0]) and np.isfinite(beta[0]) and np.isfinite(weights[0]).all()
        assert np.isnan(s_p[1:]).all() and np.isnan(beta[1:]).all() and np.isnan(weights[1:]).all()

    @pytest.mark.parametrize("mu, target, match", _BAD_ROWS, ids=_BAD_ROW_IDS)
    def test_bad_input_is_out_of_range(self, mu, target, match):
        with pytest.raises(OutOfRange, match=match):
            _relent_purity_rows(mu, target)


class TestRenyi2ForSpectra:
    @settings(max_examples=200)
    @given(_spectrum_rows())
    def test_batch_rows_equal_one_row_calls(self, rows):
        # every row of one rank scan ends on the bits it reaches alone, which are
        # min_renyi2_for_value's; the rows where S_P is NaN are NaN
        mu, target = rows
        p2 = _renyi2_rows(mu, target)
        assert np.array_equal(np.isnan(p2), np.isnan(_relent_purity_rows(mu, target)[0]))
        for k in range(len(mu)):
            assert _bits(_renyi2_rows(mu[k : k + 1], target)[0]) == _bits(p2[k])
            if np.isfinite(p2[k]):
                want = min_renyi2_for_value(mu[k], target, mu.shape[1]).resource
                assert _bits(p2[k]) == _bits(want)

    def test_flat_spectrum_at_its_rounded_mean_is_maximally_mixed(self):
        # the target rounds below the seven equal levels: the top space, all of them
        mu = np.full(7, 5.55)
        p2 = _renyi2_rows(np.array([mu, mu - 1.0]), mu.mean())
        assert _bits(p2[0]) == _bits(min_renyi2_for_value(mu, mu.mean(), 7).resource)
        assert p2[0] == pytest.approx(0.0, abs=1e-15) and np.isnan(p2[1])

    @pytest.mark.parametrize("mu, target, match", _BAD_ROWS, ids=_BAD_ROW_IDS)
    def test_bad_input_is_out_of_range(self, mu, target, match):
        with pytest.raises(OutOfRange, match=match):
            _renyi2_rows(mu, target)

    def test_rows_without_levels_are_out_of_range(self):
        with pytest.raises(OutOfRange, match="dimension must be at least 1"):
            _renyi2_rows(np.empty((3, 0)), 1.0)


@st.composite
def _hierarchy_cases(draw):
    """d = 2-8 levels from _SPECTRA, half the time with a two-fold pair below
    the top as well, and a target a fraction from _FRACS of the way to mu1."""
    mu = draw(_SPECTRA)
    if len(mu) > 3 and draw(st.booleans()):
        k = draw(st.integers(1, len(mu) - 2))
        mu[k + 1] = mu[k]
    return mu, _target(mu, draw(_FRACS))


# the three measures are O(log2 d) <= 3 bits, each computed to a few ulps (4.4e-16)
# of that, and they meet at the ends: all 0 at Tr(I)/d and all log2(d/n) at an n-fold mu1
_HIERARCHY_SLACK = 1e-12


class TestPurityHierarchy:
    """S_P = D(rho||I/d), P2 = D_2(rho||I/d) and log2(1 + P_R) = D_max(rho||I/d):
    Renyi divergences from the maximally mixed state grow with their order, and
    so do their least values at one Bell value.  S_P is in nats, so it is
    compared in bits."""

    @settings(max_examples=200)
    @given(_hierarchy_cases())
    def test_relent_renyi2_max_order(self, case):
        mu, target = case
        d = len(mu)
        p2 = min_renyi2_for_value(mu, target, d).resource
        assert p2 <= np.log2(1.0 + min_lambda1_for_value(mu, target, d).resource) + _HIERARCHY_SLACK
        try:
            s_p = min_relent_purity_for_value(np.diag(mu), target)[0]
        except Infeasible:
            return  # at mu1, up to _tol: no Gibbs state reaches it
        assert s_p / np.log(2.0) <= p2 + _HIERARCHY_SLACK


@st.composite
def _oracle_spectra(draw):
    """d = 2-10 descending levels, random, with a two-fold top or with a two-fold
    pair below it, and a target 2-98% of the way from Tr(I)/d to mu1."""
    d = draw(st.integers(2, 10))
    mu = np.sort(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=d) * 3)[::-1]
    kind = draw(st.sampled_from(["random", "degenerate top", "degenerate pair"]))
    if kind == "degenerate top":
        assume(d > 2)  # two equal levels leave no target below mu1
        mu[1] = mu[0]
    elif kind == "degenerate pair" and d > 2:
        k = draw(st.integers(1, d - 2))
        mu[k + 1] = mu[k]
    return mu, _target(mu, draw(st.floats(0.02, 0.98)))


def _least_purity_over_supports(mu, target) -> float:
    """The least exact purity over every support of the levels."""
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(len(mu)), r) for r in range(1, len(mu) + 1)
    )
    purities = [_exact_purity_on_support(mu, target, list(idx)) for idx in supports]
    return min(p for p in purities if p is not None)


class TestExactOracles:
    """The spectrum bounds against exact programs that make no use of the rank ansatz."""

    @settings(max_examples=100)
    @given(_oracle_spectra())
    # on mu and t themselves HiGHS lost 1.24e-12 here; on mu - mu1 it is off by 3.3e-15
    @example((np.array([6.975804162396977, 5.746473644695451, 3.441503987864617,
                        3.3256814897026183, 3.026060862608804, 2.751068427662286,
                        0.834384595687859, 0.8335289427150605, -1.441315658368365,
                        -2.232190185647964]), 6.6851976539304))
    def test_lambda1_is_the_lp_optimum(self, case):
        # min s s.t. 0 <= lam_k <= s, sum lam = 1, lam . (mu - mu1) = t - mu1 over
        # (lam, s): the same slice as lam . mu = t, as sum lam = 1
        from scipy.optimize import linprog

        mu, target = case
        d = len(mu)
        res = linprog(
            np.append(np.zeros(d), 1.0),
            A_ub=np.hstack([np.eye(d), -np.ones((d, 1))]),
            b_ub=np.zeros(d),
            A_eq=np.vstack([np.append(np.ones(d), 0.0), np.append(mu - mu[0], 0.0)]),
            b_eq=[1.0, target - mu[0]],
            bounds=[(0.0, None)] * (d + 1),
            method="highs",
        )
        assert res.status == 0
        lam1 = min_lambda1_for_value(mu, target, d).lambdas[0]
        assert lam1 == pytest.approx(res.x[-1], abs=1e-12)

    @settings(max_examples=100)
    @given(_oracle_spectra())
    def test_renyi2_is_the_least_purity_over_every_support(self, case):
        # the convex QP's optimum is the least purity among the supports whose
        # stationary point is nonnegative, so every support is tried
        mu, target = case
        lam = min_renyi2_for_value(mu, target, len(mu)).lambdas
        assert (lam**2).sum() == pytest.approx(_least_purity_over_supports(mu, target), abs=1e-12)

    def test_support_enumeration_keeps_its_digits_under_an_offset(self):
        # solved on the raw levels, the normal equations lost 2.07e-12 to the offset
        mu = np.array([4.35154888, 4.27433627, 4.27433627])
        target = 4.33868011411967
        want = _exact(mu, target)[1]  # 0.7083333809875346
        assert _least_purity_over_supports(mu, target) == pytest.approx(
            want, abs=4 * np.spacing(want)
        )


class TestScaleRules:
    """Properties of the closed forms under the Bell-value tolerance 1e-12 (mu1 - mu_d)."""

    @given(_SPECTRA, _FRACS, st.integers(-40, 40))
    def test_power_of_two_scaling_is_bit_identical(self, mu, frac, k):
        # scaling by 2^k is exact in binary, so this tests the rules, not the rounding
        d, target = len(mu), _target(mu, frac)
        for solve in (min_lambda1_for_value, min_renyi2_for_value):
            sol = solve(mu, target, d)
            scaled = solve(mu * 2.0**k, target * 2.0**k, d)
            assert scaled.resource == sol.resource
            assert np.array_equal(scaled.lambdas, sol.lambdas)
        ref, scaled = _relent(mu, target), _relent(mu * 2.0**k, target * 2.0**k)
        assert (ref is None) == (scaled is None)
        if ref is not None:
            assert scaled[0] == ref[0]
            # beta = b/(mu1 - mu_d) is exact unless b is subnormal, as at Tr(I)/d
            assert scaled[1] * 2.0**k == pytest.approx(ref[1], rel=1e-15, abs=1e-300)

    @given(_SPECTRA, _FRACS, st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
    def test_affine_map_agrees(self, mu, frac, a, c):
        # Rounding a (mu + c) moves each level by up to eps max|mu + c| in units of a,
        # and the exact answer by about d times that over the smallest nonzero gap: on
        # a 1e-7 gap with c = 1e3 that is 1e-5.  This is the problem's conditioning, not
        # a defect, so the answers are held to 1e-8 only where each nonzero adjacent gap
        # exceeds 1e-5 of max|mu + c|.  The shift b = a c is drawn in units of the scale:
        # with a = 1e-3 and b = -611 the exact answers on the rounded levels of a
        # well-separated spectrum already differ by 3e-8.
        gaps = -np.diff(mu)
        assume(np.all((gaps == 0) | (gaps > 1e-5 * np.abs(mu + c).max())))
        mapped = a * (mu + c)
        d = len(mu)
        for solve in (min_lambda1_for_value, min_renyi2_for_value):
            sol = solve(mu, _target(mu, frac), d)
            moved = solve(mapped, _target(mapped, frac), d)
            assert moved.resource == pytest.approx(sol.resource, abs=1e-8)
        # within _tol of mu1 relent is Infeasible, and the rounded target may fall either side
        ref, moved = _relent(mu, _target(mu, frac)), _relent(mapped, _target(mapped, frac))
        if ref is not None and moved is not None:
            assert moved[0] == pytest.approx(ref[0], abs=1e-8)
            # beta ~ log 1/(mu1 - t): closer to mu1 than 1e-6 of the range, the rounding
            # of the mapped target moves it by more than 1e-6 of itself
            if frac <= 1.0 - 1e-6:
                assert moved[1] * a == pytest.approx(ref[1], rel=1e-6, abs=1e-9 / (mu[0] - mu[-1]))

    @given(_SPECTRA, _FRACS)
    def test_round_trips(self, mu, frac):
        d, target = len(mu), _target(mu, frac)
        sol = min_lambda1_for_value(mu, target, d)
        fwd = max_value_given_probustness(mu, sol.resource, d)
        assert fwd.value == pytest.approx(sol.value, abs=1e-10 * (mu[0] - mu[-1]), rel=1e-14)
        # P2 is flat in t at Tr(I)/d, where the t that max_value_given_renyi2 returns
        # moves by about sqrt(eps) of the spread; the round trip closes in P2
        sol = min_renyi2_for_value(mu, target, d)
        fwd = max_value_given_renyi2(mu, sol.resource, d)
        assert min_renyi2_for_value(mu, fwd.value, d).resource == pytest.approx(
            sol.resource, abs=1e-10
        )

    @given(_SPECTRA, _FRACS)
    def test_weights_are_a_probability_vector_on_the_target(self, mu, frac):
        d, target = len(mu), _target(mu, frac)
        for solve in (min_lambda1_for_value, min_renyi2_for_value):
            lam = solve(mu, target, d).lambdas
            assert lam.min() >= 0.0
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert mu[: len(lam)] @ lam == pytest.approx(
                target, abs=1e-10 * (mu[0] - mu[-1]), rel=1e-14
            )


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
        assert np.linalg.eigvalsh(rho.matrix)[-1] == pytest.approx(2.2 / TSIRELSON, abs=1e-10)

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


@pytest.mark.parametrize(
    "solve",
    [
        max_value_given_probustness,
        min_lambda1_for_value,
        max_value_given_renyi2,
        min_renyi2_for_value,
    ],
)
def test_spectrum_length_must_match_d(solve):
    with pytest.raises(OutOfRange, match="expected 3 eigenvalues, got 4"):
        solve(MU4, 0.5, 3)


# d = 0 with no levels passed the length check and ran into an IndexError
@pytest.mark.parametrize(
    "solve, arg",
    [
        (max_value_given_probustness, 0.0),
        (min_lambda1_for_value, 1.0),
        (max_value_given_renyi2, 0.0),
        (min_renyi2_for_value, 1.0),
    ],
    ids=["max-probustness", "min-lambda1", "max-renyi2", "min-renyi2"],
)
@pytest.mark.parametrize("d", [0, -1])
def test_dimension_below_1_is_out_of_range(solve, arg, d):
    with pytest.raises(OutOfRange, match="dimension must be at least 1"):
        solve(np.empty(0), arg, d)


def test_relent_rows_without_levels_are_out_of_range():
    with pytest.raises(OutOfRange, match="dimension must be at least 1"):
        _relent_purity_rows(np.empty((3, 0)), 1.0)


@pytest.mark.parametrize(
    "mu",
    [[1.0, np.nan, 0.0, -1.0], [np.inf, 0.0, 0.0, -1.0], [-1.0, 0.0, 0.5, 1.0]],
    ids=["nan", "inf", "ascending"],
)
@pytest.mark.parametrize(
    "solve, arg",
    [
        (max_value_given_probustness, 1.0),
        (min_lambda1_for_value, 0.5),
        (max_value_given_renyi2, 0.5),
        (min_renyi2_for_value, 0.5),
    ],
    ids=["max-probustness", "min-lambda1", "max-renyi2", "min-renyi2"],
)
def test_spectrum_must_be_finite_and_descending(solve, arg, mu):
    with pytest.raises(OutOfRange, match="finite and descending"):
        solve(np.array(mu), arg, 4)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "solve",
    [
        lambda mu, t: min_lambda1_for_value(mu, t, 4),
        lambda mu, t: min_renyi2_for_value(mu, t, 4),
        lambda mu, t: min_relent_purity_for_value(np.diag(mu), t),
    ],
    ids=["probustness", "renyi2", "relent"],
)
def test_non_finite_target_is_out_of_range(solve, target):
    with pytest.raises(OutOfRange, match="target must be finite"):
        solve(MU4, target)


def test_i3322_probustness_value(i3322_scenario):
    op = bell.build_bell_operator(i3322_scenario)
    mu = eig_hermitian(op).values
    sol = min_lambda1_for_value(mu, 4.001, 4)
    assert abs(sol.resource - 2.6756) <= 5e-4
