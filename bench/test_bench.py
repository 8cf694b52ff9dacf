"""Tests of the benchmark itself: checks count failures, tracing is reversible.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import inspect
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from bellres import barrier, cli, linalg, twoqubit  # noqa: E402
from bellres.errors import SolverFailure  # noqa: E402
from machine import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bellres_functions() -> dict:
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "bellres" or name.startswith("bellres.")
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def _sdp_verify(program: str, n: int) -> workloads.SdpVerify:
    wl = workloads.SdpVerify(seed=3)
    wl.calls = [c for c in wl.calls if c[0] == program][:n]
    return wl


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_names_the_workloads_that_exist():
    assert [name for name, _ in spec.WORKLOADS] == list(workloads.WORKLOADS)


def test_bounds_metrics_cover_every_public_bounds_function():
    from bellres import bounds
    from tracer import public_functions

    assert sorted(public_functions(bounds)) == sorted(spec.BOUNDS_FUNCTIONS)


def test_tracer_rebinds_every_namespace_and_restores_it():
    before = _bellres_functions()
    original_evaluate = barrier.ConeConstraint.evaluate
    with Tracer():
        assert twoqubit.eig_hermitian is cli.eig_hermitian is linalg.eig_hermitian
        assert twoqubit.eig_hermitian.__wrapped__ is before[("bellres.linalg", "eig_hermitian")]
        assert barrier.ConeConstraint.evaluate is not original_evaluate
    assert _bellres_functions() == before
    assert barrier.ConeConstraint.evaluate is original_evaluate


def test_spans_nest_and_self_time_excludes_children():
    rho = workloads.bds_matrix(np.array([0.7, 0.3]), (0, 1))
    with Tracer() as tracer:
        tracer.item = 7
        twoqubit.cr_fixed_basis(rho, np.eye(4))
    names = [s[0] for s in tracer.spans]
    outer = names.index("twoqubit.cr_fixed_basis")
    solve = tracer.spans[names.index("barrier.solve_sdp")]
    assert solve[3] == outer and solve[4] == 7
    table = tracer.table()
    assert table["barrier.solve_sdp"]["calls"] == 1
    assert table["twoqubit.cr_fixed_basis"]["busy_s"] < table["twoqubit.cr_fixed_basis"]["total_s"]
    assert tracer.counts["barrier.cone_evals"] > 0
    assert tracer.table(by_gap=True)["barrier.solve_sdp@gap=1e-09"]["calls"] == 1


def test_untraced_passes_install_no_wrappers():
    wl = workloads.ClosedForm(seed=1)
    wl.requests, wl.operators = wl.requests[:2], wl.operators[:2]
    before = _bellres_functions()
    passes, tracer, _ = run.run_passes(wl, 0.0, trace=False)
    assert tracer is None and len(passes) == run.MIN_PASSES
    assert _bellres_functions() == before
    assert not any(hasattr(f, "__wrapped__") for f in before.values())


def test_traced_run_reports_every_per_layer_metric():
    wl = _sdp_verify("cr_fixed_basis", 1)
    passes, tracer, _ = run.run_passes(wl, 0.0, trace=True)
    untraced = [p for t, p, _ in passes if not t]
    traced = [p for t, p, _ in passes if t]
    assert len(untraced) == len(traced) == 1
    m = run.per_layer(untraced, traced, tracer, run.kind_stats(untraced))
    assert list(m) == [name for name, *_ in spec.PER_LAYER]
    assert m["barrier.solve_sdp.calls"] == 1
    assert m["twoqubit.cr_fixed_basis.p50_ms"] > 0
    assert m["barrier.cone_evals_per_solve"] > 0
    assert m["twoqubit.search.objective_evals"] == 0


def test_end_to_end_takes_each_item_at_its_median():
    passes = []
    for times in ((0.3, 2.0), (0.1, 4.0), (0.2, 9.0)):
        p = workloads.Pass()
        for kind, seconds in zip(("a", "b"), times):
            p.items.append({"kind": kind, "host_s": seconds, "count": 1, "failed": 0, "notes": []})
        passes.append(p)
    m = run.end_to_end(passes, setup=[1.0, 3.0, 2.0])
    assert m["wall_s"] == pytest.approx(4.2)
    assert m["items_per_s"] == pytest.approx(2 / 4.2)
    assert m["item_p50_ms"] == pytest.approx(200.0) and m["item_p90_ms"] == pytest.approx(4000.0)
    assert m["setup_s"] == 2.0
    passes[1].items.pop()
    with pytest.raises(RuntimeError):
        run.median_items(passes)


def test_host_speed_scales_by_nearby_readings_and_drops_their_time():
    h = HostSpeed()
    ref = h.REFERENCE_S
    # one reading inside [0.5, 1.5] at half the reference speed; the others are too far
    h.readings = [(0.0, 2 * ref), (1.0, 1.0 + 2 * ref), (5.0, 5.0 + ref)]
    assert h.seconds(0.5, 1.5) == pytest.approx((1.0 - 2 * ref) / 2)
    with pytest.raises(RuntimeError):
        h.seconds(2.0, 3.0)


def test_host_speed_timer_reads_and_is_removed():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as h:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(h.readings) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_perturbed_reference_fails_every_item(monkeypatch):
    real = reference.bds_er
    monkeypatch.setattr(reference, "bds_er", lambda lam: real(lam) + 1e-3)
    p = workloads.Pass()
    _sdp_verify("er_ppt_solver", 3).run_pass(p)
    assert [i["failed"] for i in p.items] == [1, 1, 1]
    assert "closed form" in p.items[0]["notes"][0]


def test_solver_failure_counts_as_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise SolverFailure("forced")

    monkeypatch.setattr(barrier, "solve_sdp", fail)
    p = workloads.Pass()
    _sdp_verify("cr_fixed_basis", 2).run_pass(p)
    assert [i["failed"] for i in p.items] == [1, 1]
    assert p.items[0]["notes"][0].startswith("SolverFailure")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # Nelder-Mead on an all-inf simplex
def test_inf_from_the_search_counts_as_failure(monkeypatch):
    monkeypatch.setattr(twoqubit, "cr_min_for_value",
                        lambda *a, **k: (_ for _ in ()).throw(SolverFailure("forced")))
    wl = workloads.I3322Search(seed=1)
    p = workloads.Pass()
    wl.run_pass(p)
    search = next(i for i in p.items if i["kind"] == "twoqubit.cr_min_over_product_bases")
    assert search["failed"] == 1 and "inf" in search["notes"][0]


def test_wrong_exit_code_and_wrong_csv_row_are_counted(monkeypatch):
    wl = workloads.ClosedForm(seed=1)
    checks = {kind: (argv, count, check) for kind, argv, count, check in wl.requests}
    argv, count, check = checks["cli.chsh-curve"]
    code, text = workloads._run_cli(argv)
    assert check(code, text) == (0, "")
    lines = text.splitlines()
    fields = lines[200].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[200] = ",".join(fields)
    assert check(code, "\n".join(lines))[0] == 1
    assert check(1, text)[0] == count

    monkeypatch.setattr(cli, "main", lambda argv: 0)
    wl.requests = [r for r in wl.requests if r[0] in (
        "cli.chsh-curve.negative_v", "cli.bound.infeasible")]
    wl.operators = []
    p = workloads.Pass()
    wl.run_pass(p)
    assert [i["failed"] for i in p.items] == [1, 1]


def test_references_agree_with_textbook_cases():
    mu = reference.chsh_spectrum(4.0)
    assert reference.min_lambda1(mu, 2.2) == pytest.approx(2.2 / np.sqrt(8.0), abs=1e-14)
    # uniform target: the maximally mixed state
    assert reference.min_linear_purity(np.array([1.0, 0.0, -1.0]), 0.0) == pytest.approx(1 / 3)
    s_p, beta = reference.relent_purity(np.diag([1.0, -1.0]), 0.0)
    assert s_p == pytest.approx(0.0, abs=1e-12) and beta == pytest.approx(0.0, abs=1e-12)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
