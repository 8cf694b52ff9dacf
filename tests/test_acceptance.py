"""Nine end-to-end acceptance checks.

Each test prints a single pass/fail line to the real stdout (bypassing pytest
capture) so the run log always shows one line per criterion, then asserts.
"""

import contextlib
import io
import sys
import time

import numpy as np
import pytest

from bellres import bell, bounds, cli, twoqubit
from bellres.bell import observable_from_bloch, steering_operator_f2
from bellres.linalg import commutator_norm, density_state, eig_hermitian
from bellres.oracles import (
    SamplerConfig,
    default_rng,
    min_purity_nelder_mead,
    resolve_seed,
    sample_max_expectation,
    stationarity_check,
)

TSIRELSON = 2.0 * np.sqrt(2.0)


def random_bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _live_report(request):
    # pytest captures at the file-descriptor level, so even sys.__stdout__
    # is swallowed; the capture manager can suspend it for the report line
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num: int, desc: str, ok: bool, elapsed: float) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({elapsed:.2f} s)"
    ctx = _CAPMAN.global_and_fixture_disabled() if _CAPMAN else contextlib.nullcontext()
    with ctx:
        sys.__stdout__.write("\n" + line + "\n")
        sys.__stdout__.flush()


def _random_hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def test_criterion_1_tsirelson_endpoint(chsh_op):
    t0 = time.monotonic()
    value = twoqubit.chsh_max_value(1.0, 4.0)
    mu = eig_hermitian(chsh_op).values
    sol = bounds.min_lambda1_for_value(mu, TSIRELSON, 4)
    elapsed = time.monotonic() - t0
    ok = abs(value - TSIRELSON) <= 1e-12 and abs(sol.lambdas[0] - 1.0) <= 1e-12
    ok = ok and elapsed < 1e-3
    _report(1, "Tsirelson endpoint: chsh_max_value(1,4) = 2*sqrt(2), lambda1 = 1", ok, elapsed)
    assert abs(value - TSIRELSON) <= 1e-12
    assert abs(sol.lambdas[0] - 1.0) <= 1e-12
    assert elapsed < 1e-3


def test_criterion_2_i3322_reproduction(i3322_scenario):
    t0 = time.monotonic()
    op = bell.build_bell_operator(i3322_scenario)
    target = 4.001
    mu = eig_hermitian(op).values
    p_r = float(bounds.min_lambda1_for_value(mu, target, 4).resource)
    e_r, _ = twoqubit.er_min_for_value(op, target)
    c_r, _ = twoqubit.cr_min_over_product_bases(
        None, restarts=32, seed=resolve_seed(), target_op=op, target=target
    )
    elapsed = time.monotonic() - t0
    p_ok = abs(p_r - 2.6756) <= 5e-4
    e_ok = abs(e_r - 0.8291) <= 1e-3
    c_ok = abs(c_r - 0.8418) <= 1e-2  # best-effort: reported, not a hard failure
    ok = p_ok and e_ok and elapsed < 60.0
    _report(
        2,
        f"three-setting reproduction: P_R={p_r:.5f} E_R={e_r:.5f} "
        f"C_R={c_r:.5f} (C_R within 1e-2: {c_ok})",
        ok,
        elapsed,
    )
    assert p_ok, f"P_R {p_r} vs 2.6756"
    assert e_ok, f"E_R {e_r} vs 0.8291"
    assert elapsed < 60.0


def test_criterion_3_probustness_domination():
    t0 = time.monotonic()
    rng = default_rng(0xD0517)
    worst_excess = -np.inf
    worst_attain = 0.0
    for k in range(20):
        d = int(rng.integers(3, 9))
        op = _random_hermitian(rng, d)
        spec = eig_hermitian(op)
        mu = spec.values
        for lam1 in np.linspace(1.0 / d + 0.02, 0.98, 5):
            sol = bounds.max_value_given_probustness(mu, d * lam1 - 1.0, d)
            cfg = SamplerConfig(
                seed=int(rng.integers(0, 2**32)),
                count=10**5,
                constraint="fixed-lambda1",
                value=float(lam1),
            )
            sampled = sample_max_expectation(op, cfg)
            worst_excess = max(worst_excess, sampled - sol.value)
            rho = bounds.construct_optimal_state(sol, spec)
            attained = float(np.trace(rho.matrix @ op).real)
            worst_attain = max(worst_attain, abs(attained - sol.value))
    elapsed = time.monotonic() - t0
    ok = worst_excess <= 1e-9 and worst_attain <= 1e-10 and elapsed < 300.0
    _report(
        3,
        f"closed-form purity-robustness bound dominates 100 cells x 1e5 samples: "
        f"max excess {worst_excess:.2e}, attainment gap {worst_attain:.2e}",
        ok,
        elapsed,
    )
    assert worst_excess <= 1e-9
    assert worst_attain <= 1e-10
    assert elapsed < 300.0


def test_criterion_4_renyi2_oracle_equivalence():
    t0 = time.monotonic()
    rng = default_rng(0x7E02)
    worst_dev = 0.0
    worst_stat = 0.0
    for k in range(20):
        d = int(rng.integers(3, 9))
        mu = eig_hermitian(_random_hermitian(rng, d)).values
        mean = float(mu.mean())
        target = mean + rng.uniform(0.1, 0.9) * (mu[0] - mean)
        sol = bounds.min_renyi2_for_value(mu, target, d)
        closed = float((sol.lambdas**2).sum())
        brute = min_purity_nelder_mead(mu, target, seed=int(rng.integers(0, 2**32)))
        worst_dev = max(worst_dev, abs(closed - brute))
        worst_stat = max(worst_stat, stationarity_check(sol, mu))
    elapsed = time.monotonic() - t0
    ok = worst_dev <= 1e-6 and worst_stat <= 1e-9 and elapsed < 120.0
    _report(
        4,
        f"Renyi-2 closed form matches Nelder-Mead on 20 instances: "
        f"max purity dev {worst_dev:.2e}, stationarity {worst_stat:.2e}",
        ok,
        elapsed,
    )
    assert worst_dev <= 1e-6
    assert worst_stat <= 1e-9
    assert elapsed < 120.0


def test_criterion_5_er_non_monotonicity():
    t0 = time.monotonic()
    low, high = twoqubit.min_er_vs_c_curve(0.001, [0.5, 4.0])
    elapsed = time.monotonic() - t0
    ok = (
        low.feasible
        and high.feasible
        and low.e_r < 0.05
        and high.e_r > 0.40
        and abs(low.e_r - 0.0396) <= 1e-3
        and abs(high.e_r - 0.4146) <= 1e-3
        and elapsed < 1.0
    )
    _report(
        5,
        f"non-monotone E_R dip at v=0.001: E_R(C=0.5)={low.e_r:.5f} < 0.05, "
        f"E_R(C=4)={high.e_r:.5f} > 0.40",
        ok,
        elapsed,
    )
    assert low.feasible and high.feasible
    assert low.e_r < 0.05 and abs(low.e_r - 0.0396) <= 1e-3
    assert high.e_r > 0.40 and abs(high.e_r - 0.4146) <= 1e-3
    assert elapsed < 1.0


def test_criterion_6_bds_solver_agreement(bds_matrix):
    t0 = time.monotonic()
    rng = default_rng(0xBD5)
    worst = 0.0
    for _ in range(200):
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        perm = tuple(int(i) for i in rng.permutation(4))
        rho = bds_matrix(lam, perm)
        e_r = twoqubit.er_ppt_solver(density_state(rho, (2, 2)))
        worst = max(worst, abs(e_r - max(0.0, 2.0 * lam[0] - 1.0)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(6, f"PPT solver vs 2*lambda1-1 on 200 random BDS: max dev {worst:.2e}", ok, elapsed)
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_criterion_7_local_bounds(i3322_scenario):
    t0 = time.monotonic()
    chsh_bound = bell.local_bound(bell.chsh_scenario())
    i3322_bound = bell.local_bound(i3322_scenario)
    elapsed = time.monotonic() - t0
    ok = chsh_bound == 2.0 and i3322_bound == 4.0 and elapsed < 1.0
    _report(7, f"local bounds: CHSH={chsh_bound}, three-setting={i3322_bound}", ok, elapsed)
    assert chsh_bound == 2.0
    assert i3322_bound == 4.0
    assert elapsed < 1.0


def test_criterion_8_steering_analog():
    t0 = time.monotonic()
    rng = default_rng(0x57EE)
    worst = 0.0
    for _ in range(500):
        a1 = observable_from_bloch(random_bloch(rng))
        a2 = observable_from_bloch(random_bloch(rng))
        c_a = commutator_norm(a1, a2)
        predicted = twoqubit.steering_eigenvalues(min(c_a, 2.0))
        actual = eig_hermitian(steering_operator_f2(a1, a2)).values
        worst = max(worst, float(np.abs(predicted - actual).max()))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["relent-compare", "--v", "0.2", "--c-grid", "1:4:31"])
    rows = [line.split(",") for line in buf.getvalue().strip().splitlines()[1:]]
    s_p = [float(r[3]) for r in rows if r[4] == "true"]
    decreasing = all(b < a for a, b in zip(s_p, s_p[1:]))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and code == 0 and len(s_p) >= 20 and decreasing and elapsed < 30.0
    _report(
        8,
        f"steering spectrum on 500 random settings (max dev {worst:.2e}); "
        f"relative-entropy column strictly decreasing: {decreasing}",
        ok,
        elapsed,
    )
    assert worst <= 1e-9
    assert code == 0 and len(s_p) >= 20
    assert decreasing
    assert elapsed < 30.0


def test_criterion_9_hierarchy_invariant(chsh_op, emitted_reports):
    t0 = time.monotonic()
    # emit a fresh sweep of reports, then audit everything logged so far
    for v in np.linspace(0.001, TSIRELSON - 2.0, 25):
        twoqubit.min_resources_for_value(chsh_op, 2.0, float(v))
    reports = emitted_reports
    bad = [
        r
        for r in reports
        if not (r.p_r >= r.c_r - 1e-9 and r.c_r >= r.d_r - 1e-9 and r.d_r >= r.e_r - 1e-9)
    ]
    elapsed = time.monotonic() - t0
    ok = len(reports) >= 25 and not bad
    _report(
        9,
        f"hierarchy P_R >= C_R >= D_R >= E_R - 1e-9 on {len(reports)} emitted reports",
        ok,
        elapsed,
    )
    assert len(reports) >= 25
    assert not bad
