"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 bench/run.py --write-spec``; a test keeps the two equal.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("closed_form",
     "README CLI set in-process and 120 bound calls on random operators: linalg, bounds, "
     "curves and CSV emission, with zero SDP solves"),
    ("sdp_verify",
     "one-shot PPT and coherence SDPs on varied cold problems, each against a closed form; "
     "no basis search"),
    ("i3322_search",
     "three-setting reproduction: E_R and the C_R product-basis search, hundreds of same-shape "
     "solves at gaps 1e-6 and 1e-8"),
    ("oracle_sampling",
     "fixed-lambda1 sampling cells and brute-force purity: the only workload that runs oracles"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

BOUNDS_FUNCTIONS = [
    "max_value_given_probustness",
    "min_lambda1_for_value",
    "max_value_given_renyi2",
    "min_renyi2_for_value",
    "min_relent_purity_for_value",
    "construct_optimal_state",
]

# (name, unit, better)
PER_LAYER = [
    ("barrier.solve_sdp.calls", "count", "lower"),
    ("barrier.solve_sdp.busy_s", "s", "lower"),
    ("barrier.solve_sdp.p50_ms", "ms", "lower"),
    ("barrier.solve_sdp.p95_ms", "ms", "lower"),
    ("barrier.cone_evals", "count", "lower"),
    ("barrier.cone_evals_per_solve", "count", "lower"),
    ("barrier.failures", "count", "lower"),
    ("barrier.eliminate_equalities.busy_s", "s", "lower"),
    ("twoqubit.programs.busy_s", "s", "lower"),
    ("twoqubit.er_ppt_solver.p50_ms", "ms", "lower"),
    ("twoqubit.cr_fixed_basis.p50_ms", "ms", "lower"),
    ("twoqubit.er_min_for_value.p50_ms", "ms", "lower"),
    ("twoqubit.cr_min_for_value.gap_1e-6.p50_ms", "ms", "lower"),
    ("twoqubit.cr_min_for_value.gap_1e-8.p50_ms", "ms", "lower"),
    ("twoqubit.search.objective_evals", "count", "lower"),
    ("twoqubit.search.inf_frac", "ratio", "lower"),
    ("twoqubit.search.busy_s", "s", "lower"),
    ("twoqubit.curves.busy_s", "s", "lower"),
    ("twoqubit.report_log_len", "count", "lower"),
    ("linalg.eig_hermitian.calls", "count", "lower"),
    ("linalg.eig_hermitian.busy_s", "s", "lower"),
    *[(f"bounds.{fn}.{key}", unit, "lower")
      for fn in BOUNDS_FUNCTIONS for key, unit in (("calls", "count"), ("busy_s", "s"))],
    ("cli.main.busy_s", "s", "lower"),
    ("oracles.sample_max_expectation.busy_s", "s", "lower"),
    ("oracles.sample_spectra.busy_s", "s", "lower"),
    ("oracles.samples_per_s", "1/s", "higher"),
    ("oracles.min_purity_nelder_mead.busy_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("cr_excess", "1", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
