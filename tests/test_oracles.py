"""Tests for the brute-force verifiers: samplers, optimizers, stationarity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from bellres import oracles
from bellres.bounds import (
    RankSolution,
    max_value_given_probustness,
    min_lambda1_for_value,
    min_renyi2_for_value,
)
from bellres.errors import DimMismatch, Infeasible, InfeasibleConstraint, NotHermitian, OutOfRange
from bellres.oracles import (
    DEFAULT_SEED,
    SamplerConfig,
    default_rng,
    min_purity_nelder_mead,
    resolve_seed,
    sample_max_expectation,
    sample_spectra,
    stationarity_check,
)
from bellres.twoqubit import chsh_max_value, c_max

RT2 = np.sqrt(2.0)


def nelder_mead_max(f, x0s):
    """Best-of-restarts Nelder-Mead maximization of f; deterministic given x0s."""
    best_x, best_v = None, -np.inf
    for x0 in np.atleast_2d(np.asarray(x0s, dtype=float)):
        res = minimize(
            lambda x: -f(x),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": 20000},
        )
        if -res.fun > best_v:
            best_v = float(-res.fun)
            best_x = res.x
    return best_x, best_v


class TestSeeding:
    def test_default(self):
        assert resolve_seed() == DEFAULT_SEED == 0xB311

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BRB_SEED", "0x1234")
        assert resolve_seed() == 0x1234

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("BRB_SEED", "7")
        assert resolve_seed(99) == 99

    def test_default_config_reads_env(self, monkeypatch):
        monkeypatch.setenv("BRB_SEED", "7")
        draw = lambda **seed: sample_spectra(
            SamplerConfig(count=3, constraint="fixed-lambda1", value=0.5, **seed), 4
        )
        assert np.array_equal(draw(), draw(seed=7))
        assert not np.array_equal(draw(), draw(seed=DEFAULT_SEED))

    def test_identical_streams(self):
        cfg = SamplerConfig(seed=5, count=50, constraint="fixed-lambda1", value=0.5)
        a = sample_spectra(cfg, 4)
        b = sample_spectra(cfg, 4)
        assert np.array_equal(a, b)


class TestSamplers:
    def test_fixed_lambda1_pure(self):
        cfg = SamplerConfig(seed=1, count=20, constraint="fixed-lambda1", value=1.0)
        spectra = sample_spectra(cfg, 3)
        assert np.array_equal(spectra, np.tile([1.0, 0.0, 0.0], (20, 1)))

    def test_fixed_lambda1_constraint_holds(self):
        cfg = SamplerConfig(seed=2, count=200, constraint="fixed-lambda1", value=0.6)
        spectra = sample_spectra(cfg, 4)
        assert np.abs(spectra[:, 0] - 0.6).max() <= 1e-12
        assert spectra.max(axis=1).max() <= 0.6 + 1e-9
        assert spectra.min() >= -1e-12
        assert np.abs(spectra.sum(axis=1) - 1.0).max() <= 1e-9

    def test_fixed_lambda1_near_uniform(self):
        # nearly every draw lands above the cap here and is pulled onto it;
        # the spectra must still be valid
        d = 8
        lam1 = 1.0 / d + 0.01
        cfg = SamplerConfig(seed=3, count=5000, constraint="fixed-lambda1", value=lam1)
        spectra = sample_spectra(cfg, d)
        assert np.abs(spectra[:, 0] - lam1).max() <= 1e-12
        assert spectra.max(axis=1).max() <= lam1 + 1e-9
        assert np.abs(spectra.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("d, lam1", [(8, 1.0 / 8 + 0.01), (4, 0.4375), (4, 0.6)])
    def test_one_dirichlet_draw_per_sample(self, d, lam1):
        count = 2000
        rng, ref = default_rng(4), default_rng(4)
        sample_spectra(SamplerConfig(4, count, "fixed-lambda1", lam1), d, rng)
        ref.dirichlet(np.ones(d - 1), size=count)
        # the state dict holds arrays; its repr prints every word exactly
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    def test_states_are_valid(self):
        cfg = SamplerConfig(seed=6, count=50, constraint="none")
        spectra = sample_spectra(cfg, 3)
        assert spectra.shape == (50, 3)
        assert np.abs(spectra.sum(axis=1) - 1.0).max() <= 1e-10
        assert spectra.min() >= 0.0

    def test_infeasible_constraints(self):
        with pytest.raises(InfeasibleConstraint):
            sample_spectra(SamplerConfig(1, 5, "fixed-lambda1", 0.1), 4)
        with pytest.raises(InfeasibleConstraint):
            sample_spectra(SamplerConfig(1, 5, "bogus", 0.5), 4)


# both samplers, sample_spectra under each constraint; sample_max_expectation's
# cases keep the bare count as their id
_SAMPLERS = [
    ("", lambda op, n: sample_max_expectation(op, SamplerConfig(1, n, "fixed-lambda1", 0.6))),
    ("sample_spectra-none-", lambda op, n: sample_spectra(SamplerConfig(1, n, "none"), 4)),
    ("sample_spectra-fixed-lambda1-",
     lambda op, n: sample_spectra(SamplerConfig(1, n, "fixed-lambda1", 0.6), 4)),
]


def _count_cases(*counts):
    return [
        pytest.param(sample, n, id=f"{prefix}{n}") for prefix, sample in _SAMPLERS for n in counts
    ]


def _full_qr_max(op, cfg):
    """The sampler's direct formula: full QR and u_j^dag I u_j for every column, on its stream."""
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    rng = default_rng(cfg.seed)
    best = -np.inf
    remaining = cfg.count
    while remaining > 0:
        n = min(20000, remaining)
        spectra = sample_spectra(SamplerConfig(cfg.seed, n, cfg.constraint, cfg.value), d, rng)
        gauss = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        units = np.linalg.qr(gauss)[0]
        diag = np.einsum("naj,ab,nbj->nj", units.conj(), op, units).real
        best = max(best, float(np.einsum("nj,nj->n", spectra, diag).max()))
        remaining -= n
    return best


class TestDomination:
    def test_chsh_lambda1_06(self, chsh_op):
        cfg = SamplerConfig(seed=9, count=20000, constraint="fixed-lambda1", value=0.6)
        bound = 0.6 * 2 * RT2  # top two eigenvalues are 2*sqrt(2) and 0
        assert sample_max_expectation(chsh_op, cfg) <= bound + 1e-9

    @given(st.integers(2, 8), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_repeated_levels_stay_under_the_closed_form(self, d, frac, seed):
        # at most d - 1 distinct levels, so at least one repeats: random operators never do
        rng = default_rng(seed)
        levels = rng.normal(size=int(rng.integers(1, d)))
        mu = np.sort(rng.choice(levels, size=d))[::-1]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(g)[0]
        op = (u * mu) @ u.conj().T
        op = (op + op.conj().T) / 2
        lam1 = 1.0 / d + frac * (1.0 - 1.0 / d)
        cfg = SamplerConfig(int(rng.integers(2**32)), 2000, "fixed-lambda1", lam1)
        bound = max_value_given_probustness(mu, d * lam1 - 1.0, d).value
        assert sample_max_expectation(op, cfg) <= bound + 1e-9 * (1.0 + np.abs(mu).max())


class TestSampleMaxExpectation:
    @pytest.mark.parametrize("constraint", ["none", "fixed-lambda1"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_full_qr_formula(self, d, constraint):
        rng = default_rng(0x5A3 + d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        op = g + g.conj().T
        # 20,001 samples cross the 20,000-sample chunk boundary
        lam1 = 1.0 / d + 0.3 * (1.0 - 1.0 / d)
        cfg = SamplerConfig(int(rng.integers(2**32)), 20_001, constraint, lam1)
        want = _full_qr_max(op, cfg)
        assert abs(sample_max_expectation(op, cfg) - want) <= 1e-13 * (1.0 + abs(want))

    @pytest.mark.parametrize("constraint", ["none", "fixed-lambda1"])
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_block_size_leaves_every_maximum_unchanged(self, monkeypatch, d, constraint):
        # the blocks only split the imaginary parts' draw and the QR, so any block
        # size gives the same samples; 997 cuts blocks across the chunk boundary
        rng = default_rng(0x5A3 + d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        op = g + g.conj().T
        lam1 = 1.0 / d + 0.3 * (1.0 - 1.0 / d)
        cfg = SamplerConfig(int(rng.integers(2**32)), 20_001, constraint, lam1)
        small = SamplerConfig(cfg.seed, 50, constraint, lam1)
        want, want_small = sample_max_expectation(op, cfg), sample_max_expectation(op, small)
        for block in (997, 20_001):
            monkeypatch.setattr(oracles, "_BLOCK", block)
            assert sample_max_expectation(op, cfg) == want
        monkeypatch.setattr(oracles, "_BLOCK", 1)
        assert sample_max_expectation(op, small) == want_small

    @pytest.mark.parametrize("d", range(2, 9))
    def test_each_sample_matches_householder_qr(self, d):
        count = 20_000
        rng = default_rng(0x6B1 + d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        vh = np.linalg.eigh(g + g.conj().T)[1].conj().T
        real = rng.standard_normal((count, d, d))[..., :-1]
        state = rng.bit_generator.state
        got = oracles._eigenbasis_weights(rng, real, vh)
        rng.bit_generator.state = state
        gauss = real + 1j * rng.standard_normal((count, d, d))[..., :-1]
        w = vh @ np.linalg.qr(gauss)[0]
        want = (w.real**2 + w.imag**2).transpose(1, 2, 0)
        assert np.abs(got - want).max() <= 1e-12
        w = oracles._gram_schmidt(np.ascontiguousarray((vh @ gauss).transpose(1, 2, 0)))
        gram = np.einsum("ajn,akn->njk", w.conj(), w)
        assert np.abs(gram - np.eye(d - 1)).max() <= 1e-12

    @pytest.mark.parametrize("d", range(2, 10))
    def test_each_sample_is_the_same_in_any_block(self, d):
        # the maxima alone could hide a sample that moved below the top one
        count = 2_000
        rng = default_rng(0x7C2 + d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        vh = np.linalg.eigh(g + g.conj().T)[1].conj().T
        real = rng.standard_normal((count, d, d))[..., :-1]
        state = rng.bit_generator.state
        whole = oracles._eigenbasis_weights(rng, real, vh)
        for block in (1, 997):
            rng.bit_generator.state = state
            parts = [
                oracles._eigenbasis_weights(rng, real[lo : lo + block], vh)
                for lo in range(0, count, block)
            ]
            assert np.array_equal(np.concatenate(parts, axis=-1), whole)

    def test_one_chunk_peak_memory(self):
        # one d = 8 chunk of 20,000 samples: about 63 MiB of numpy arrays when the
        # whole chunk is orthonormalised at once, about 18.5 MiB in blocks of 2,048
        rng = default_rng(0x3E3)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        cfg = SamplerConfig(7, 20_000, "fixed-lambda1", 0.4)
        tracemalloc.start()
        try:
            sample_max_expectation(g + g.conj().T, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    @pytest.mark.parametrize("sample, count", _count_cases(0, -5))
    def test_count_below_one_raises(self, chsh_op, sample, count):
        with pytest.raises(InfeasibleConstraint, match="count"):
            sample(chsh_op, count)

    # NaN passed `count < 1` and ran no chunk, returning -inf; the others
    # reached numpy and raised its TypeError.  In sample_spectra, 0 gave an
    # empty array, -5 numpy's ValueError, and True one sample under "none"
    @pytest.mark.parametrize(
        "sample, count", _count_cases(float("nan"), 2.5, 1000.0, True, np.float64(3.0), "3")
    )
    def test_count_not_an_integer_raises(self, chsh_op, sample, count):
        with pytest.raises(InfeasibleConstraint, match="count"):
            sample(chsh_op, count)

    @pytest.mark.parametrize("constraint", ["none", "fixed-lambda1"])
    @pytest.mark.parametrize("d", [0, -1, 2.5, True])
    def test_dimension_not_a_positive_integer_raises(self, d, constraint):
        with pytest.raises(DimMismatch, match="d must be"):
            sample_spectra(SamplerConfig(1, 3, constraint, 0.6), d)

    def test_numpy_integer_count_is_a_count(self, chsh_op):
        cfg = SamplerConfig(1, 50, "fixed-lambda1", 0.6)
        want = sample_max_expectation(chsh_op, cfg)
        assert sample_max_expectation(chsh_op, SamplerConfig(1, np.int64(50), "fixed-lambda1", 0.6)) == want

    def test_non_finite_op_raises(self, chsh_op):
        op = chsh_op.copy()
        op[1, 2] = op[2, 1] = np.nan
        with pytest.raises(NotHermitian, match="non-finite"):
            sample_max_expectation(op, SamplerConfig(1, 100, "fixed-lambda1", 0.6))

    def test_empty_op_raises(self):
        with pytest.raises(DimMismatch, match="size at least 1"):
            sample_max_expectation(np.zeros((0, 0)), SamplerConfig(1, 100, "fixed-lambda1", 0.6))

    def test_non_hermitian_op_raises(self, chsh_op):
        op = chsh_op.copy()
        op[0, 3] += 0.5
        with pytest.raises(NotHermitian, match="asymmetry"):
            sample_max_expectation(op, SamplerConfig(1, 100, "fixed-lambda1", 0.6))


class TestNelderMeadMax:
    def test_concave_toy(self):
        x, v = nelder_mead_max(lambda z: -(z[0] - 0.5) ** 2, [[0.1], [0.9]])
        assert x[0] == pytest.approx(0.5, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_c_max_cross_check(self):
        lam1 = 0.75

        def f(z):
            c = min(max(z[0], 0.0), 4.0)
            return chsh_max_value(lam1, c)

        x, v = nelder_mead_max(f, [[1.0], [2.5], [3.9]])
        assert x[0] == pytest.approx(c_max(lam1), abs=1e-6)

    def test_rank_ansatz_cross_check(self):
        mu = np.array([4.0, 2.0, 1.0, -1.0])
        lam1 = 0.4
        closed = max_value_given_probustness(mu, 4 * lam1 - 1, 4).value

        def f(z):
            # remaining weight split by a softmax, penalized above lam1
            w = np.exp(z - z.max())
            rest = (1.0 - lam1) * w / w.sum()
            lam = np.concatenate([[lam1], rest])
            over = np.maximum(lam - lam1, 0.0)
            return float(lam @ mu) - 1e6 * float(over @ over)

        rng = default_rng(12)
        starts = rng.normal(size=(8, 3))
        _, v = nelder_mead_max(f, starts)
        # the quadratic penalty admits an overshoot of (mu_2 - mu_1)^2 / (4
        # * 1e6) = 2.5e-7 above the constrained optimum
        assert closed - 1e-8 <= v <= closed + 5e-7


class TestStationarity:
    def test_qubit_example(self):
        sol = min_renyi2_for_value([1.0, -1.0], 0.5, 2)
        assert stationarity_check(sol, [1.0, -1.0]) <= 1e-12

    def test_maximally_mixed_full_rank(self):
        mu = np.array([4.0, 2.0, 1.0, -1.0])
        sol = min_renyi2_for_value(mu, float(mu.mean()), 4)
        assert stationarity_check(sol, mu) <= 1e-12

    def test_probustness_spectra_not_stationary(self):
        mu = np.array([4.0, 2.0, 1.0, -1.0])
        sol = max_value_given_probustness(mu, 4 * 0.4 - 1, 4)
        assert stationarity_check(sol, mu) > 1e-3

    @pytest.mark.parametrize(
        "mu, weight",
        [([np.nan, 1.0, 0.0, -2.0], None), ([3.0, 1.0, -np.inf, -2.0], None),
         ([3.0, 1.0, 0.0, -2.0], np.nan)],
        ids=["nan-level", "inf-level", "nan-weight"],
    )
    def test_non_finite_input_is_out_of_range(self, capfd, mu, weight):
        sol = min_renyi2_for_value([3.0, 1.0, 0.0, -2.0], 1.8, 4)
        if weight is not None:
            sol = RankSolution(np.append(sol.lambdas[:-1], weight), sol.value, sol.resource)
        with pytest.raises(OutOfRange):
            stationarity_check(sol, mu)
        assert capfd.readouterr().err == ""  # refused before LAPACK sees it


class TestPurityOracle:
    def test_matches_closed_form(self):
        mu = np.array([3.0, 1.0, 0.0, -2.0])
        target = 1.8
        closed = float((min_renyi2_for_value(mu, target, 4).lambdas ** 2).sum())
        assert abs(min_purity_nelder_mead(mu, target, seed=17) - closed) <= 1e-6

    def test_respects_lambda1_route(self, chsh_op):
        # at the CHSH v = 0.2 point the minimal-purity state is rank 2
        from bellres.linalg import eig_hermitian

        mu = eig_hermitian(chsh_op).values
        sol = min_renyi2_for_value(mu, 2.2, 4)
        closed = float((sol.lambdas**2).sum())
        assert abs(min_purity_nelder_mead(mu, 2.2, seed=18) - closed) <= 1e-6

    def test_rank_cut_does_not_depend_on_the_scale(self):
        # with an absolute cut on the singular values, the Bell row of levels 1e-13
        # fell below it and the search ran over all states, returning 1/d
        mu = np.array([1.3, 0.4, -0.2, -0.9])
        want = min_purity_nelder_mead(mu, 0.8, seed=20)
        assert min_purity_nelder_mead(1e-13 * mu, 1e-13 * 0.8, seed=20) == pytest.approx(
            want, rel=1e-9
        )
        assert want == pytest.approx(float((min_renyi2_for_value(mu, 0.8, 4).lambdas ** 2).sum()))

    @pytest.mark.parametrize(
        "mu, target, want", [([2.0, 1.0], 2.0, 1.0), ([2.0, 1.0], 1.5, 0.5), ([1.0], 1.0, 1.0)]
    )
    def test_single_point_slice_is_its_own_minimum(self, mu, target, want):
        # with no null space the search ran on an empty simplex and numpy raised
        assert min_purity_nelder_mead(mu, target, seed=21) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "mu, target",
        [([3.0, 2.0, 1.0], 5.0), ([3.0, 2.0, 1.0], 0.0), ([2.0, 1.0], 2.0 + 1e-9), ([1.0], 1.5)],
    )
    def test_target_outside_the_levels_is_infeasible(self, mu, target):
        # the penalised search returned its penalty (8000005.64 for the first) as a purity
        with pytest.raises(Infeasible, match="outside"):
            min_purity_nelder_mead(mu, target, seed=22)

    def test_target_within_rounding_of_a_level_is_feasible(self):
        mu = [3.0, 2.0, 1.0]
        assert min_purity_nelder_mead(mu, 3.0 + 1e-13, seed=23) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "mu, target",
        [
            ([3.0, 1.0, 0.0, -2.0], np.nan),
            ([3.0, np.nan, 0.0, -2.0], 1.8),
            ([np.inf, 1.0, 0.0, -2.0], 1.8),
            ([], 0.0),
            ([[3.0, 1.0], [0.0, -2.0]], 1.8),
            (1.8, 1.8),
        ],
        ids=["nan-target", "nan-level", "inf-level", "no-levels", "2-d-levels", "0-d-levels"],
    )
    def test_non_finite_input_is_out_of_range(self, capfd, mu, target):
        with pytest.raises(OutOfRange):
            min_purity_nelder_mead(np.array(mu), target, seed=19)
        assert capfd.readouterr().err == ""  # refused before LAPACK sees it
