#!/usr/bin/env python3
"""bellres benchmark.

One workload, as the harness runs it (prints one JSON object as the last line):

    python3 bench/run.py --workload sdp_verify --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, each in a fresh process; prints every
metric with its unit and workload, writes the combined result, and exits 1 if
any output check failed (known defects included):

    python3 bench/run.py --seed 1 --out bench/results/BENCH_1.json

Regenerate BENCHMARK.json from bench/spec.py:

    python3 bench/run.py --write-spec

The library is imported from ``src/`` of the checkout this file sits in and
is driven only through its public functions.  Times are reported at a
reference host speed (``machine.HostSpeed``).  Per-run details (machine
facts, raw and normalised pass times, per-kind latencies, failures, the
per-function table and the spans of a traced run) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 2  # every item is read at least twice; a traced run has one pass of each kind

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (needs no library)

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import bellres, bellres.cli
import workloads
workloads.WORKLOADS[{name!r}]({seed})
print(time.perf_counter() - t0)
"""


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other bellres."""
    if not (SRC / "bellres" / "__init__.py").is_file():
        sys.exit(f"error: no bellres sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellres

    if Path(bellres.__file__).resolve().parent != (SRC / "bellres").resolve():
        sys.exit(f"error: bellres imported from {bellres.__file__}, not from {SRC}")


# -- measurement ---------------------------------------------------------------

def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Import bellres and bellres.cli and build the inputs, in fresh interpreters.

    Returns the raw seconds of each sample and the same at the reference host
    speed, read in this process just before and just after the sample (the
    timer stays off: this process only waits while a sample runs).
    """
    from machine import HostSpeed

    code = _SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    speed = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.burst()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        t1 = time.perf_counter()
        speed.burst()
        samples.append((float(proc.stdout.strip().splitlines()[-1]), t0, t1))
    raw = [r for r, _, _ in samples]
    return raw, [r * speed.REFERENCE_S / speed.near(t0, t1)[1] for r, t0, t1 in samples]


def run_passes(wl, seconds: float, trace: bool):
    """Run passes until the next would end after ``seconds``, but at least ``MIN_PASSES``.

    With ``trace`` the passes alternate untraced and traced, starting untraced.
    Each item gets ``host_s``, its time at the reference host speed.
    """
    from machine import HostSpeed
    from tracer import Tracer
    from workloads import Pass

    tracer = Tracer() if trace else None
    passes = []  # (traced, Pass, seconds including checks)
    start = time.perf_counter()
    with HostSpeed() as speed:
        while True:
            traced = trace and len(passes) % 2 == 1
            p = Pass(tracer if traced else None, number=len(passes))
            t0 = time.perf_counter()
            if traced:
                with tracer:
                    wl.run_pass(p)
            else:
                wl.run_pass(p)
            passes.append((traced, p, time.perf_counter() - t0))
            if len(passes) < MIN_PASSES:
                continue
            next_traced = trace and len(passes) % 2 == 1
            estimate = statistics.median(d for t, _, d in passes if t == next_traced)
            if time.perf_counter() - start + estimate > seconds:
                break
        speed.burst()  # readings after the last item
    for _, p, _ in passes:
        for item in p.items:
            item["host_s"] = speed.seconds(item["start"], item["end"])
    return passes, tracer, speed


def weighted_quantile(items: list[dict], q: float) -> float:
    """Quantile of per-unit latency, each item weighted by the units it stands for."""
    pairs = sorted((i["host_s"] / i["count"], i["count"]) for i in items)
    total = sum(w for _, w in pairs)
    acc = 0
    for latency, weight in pairs:
        acc += weight
        if acc >= q * total:
            return latency
    return pairs[-1][0]


def kind_stats(passes) -> dict:
    """Per-kind call count, items, failures and per-call latency percentiles."""
    import numpy as np

    by_kind: dict[str, list[dict]] = {}
    for p in passes:
        for item in p.items:
            by_kind.setdefault(item["kind"], []).append(item)
    out = {}
    for kind, items in sorted(by_kind.items()):
        ms = np.array([i["seconds"] for i in items]) * 1e3
        out[kind] = {"calls": len(items), "items": sum(i["count"] for i in items),
                     "failed": sum(i["failed"] for i in items),
                     "p50_ms": float(np.percentile(ms, 50)), "p90_ms": float(np.percentile(ms, 90)),
                     "max_ms": float(ms.max()), "total_s": float(ms.sum() / 1e3)}
    return out


def median_items(passes) -> list[dict]:
    """The items of a pass, each with its median ``host_s`` over ``passes``.

    Every pass replays the same calls, so item k of one pass is item k of
    every other.
    """
    first = [(i["kind"], i["count"]) for i in passes[0].items]
    for p in passes[1:]:
        if [(i["kind"], i["count"]) for i in p.items] != first:
            raise RuntimeError("passes of one run made different calls")
    return [{**item, "host_s": statistics.median(p.items[k]["host_s"] for p in passes)}
            for k, item in enumerate(passes[0].items)]


def host_wall(p) -> float:
    return sum(i["host_s"] for i in p.items)


def end_to_end(untraced, setup: list[float]) -> dict:
    """One pass of per-item median times; set-up as the median of fresh interpreters.

    Times are at the reference host speed (``machine.HostSpeed``).
    """
    items = median_items(untraced)
    wall = sum(i["host_s"] for i in items)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": sum(i["count"] for i in items) / wall,
        "item_p50_ms": 1e3 * weighted_quantile(items, 0.5),
        "item_p90_ms": 1e3 * weighted_quantile(items, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, tracer, kinds: dict) -> dict:
    from reference import CR_I3322_BEST
    from bellres import twoqubit

    n = len(traced)
    table = tracer.table()
    by_gap = tracer.table(by_gap=True)

    def get(fn, key="busy_s", tab=table):
        return tab.get(fn, {}).get(key, 0.0)

    def busy(*fns):
        return sum(get(f) for f in fns) / n

    m = {}
    sdp = "barrier.solve_sdp"
    m[f"{sdp}.calls"] = get(sdp, "calls") / n
    m[f"{sdp}.busy_s"] = busy(sdp)
    m[f"{sdp}.p50_ms"] = get(sdp, "p50_ms")
    m[f"{sdp}.p95_ms"] = get(sdp, "p95_ms")
    m["barrier.cone_evals"] = tracer.counts["barrier.cone_evals"] / n
    m["barrier.cone_evals_per_solve"] = (tracer.counts["barrier.cone_evals"] / get(sdp, "calls")
                                        if get(sdp, "calls") else 0.0)
    m["barrier.failures"] = get(sdp, "errors") / n
    m["barrier.eliminate_equalities.busy_s"] = busy("barrier.eliminate_equalities",
                                                    "barrier.affine_subspace")
    programs = ["twoqubit.er_ppt_solver", "twoqubit.er_min_for_value",
                "twoqubit.cr_fixed_basis", "twoqubit.cr_min_for_value"]
    m["twoqubit.programs.busy_s"] = busy(*programs)
    for fn in programs[:3]:
        m[f"{fn}.p50_ms"] = get(fn, "p50_ms")
    for gap in ("1e-06", "1e-08"):
        m[f"twoqubit.cr_min_for_value.gap_{gap.replace('e-0', 'e-')}.p50_ms"] = get(
            f"twoqubit.cr_min_for_value@gap={gap}", "p50_ms", by_gap)
    evals, infs = tracer.children("twoqubit.cr_min_over_product_bases", programs)
    m["twoqubit.search.objective_evals"] = evals / n
    m["twoqubit.search.inf_frac"] = infs / evals if evals else 0.0
    m["twoqubit.search.busy_s"] = busy("twoqubit.cr_min_over_product_bases")
    m["twoqubit.curves.busy_s"] = busy(
        "twoqubit.min_er_vs_c_curve", "twoqubit.min_er_vs_ca_curve", "twoqubit.lambda1_heatmap",
        "twoqubit.chsh_eigenvalues", "twoqubit.steering_eigenvalues", "twoqubit.heatmap_eigenvalues")
    reports = getattr(twoqubit, "emitted_reports", None)
    m["twoqubit.report_log_len"] = float(len(reports())) if reports else 0.0
    m["linalg.eig_hermitian.calls"] = get("linalg.eig_hermitian", "calls") / n
    m["linalg.eig_hermitian.busy_s"] = busy("linalg.eig_hermitian")
    for fn in spec.BOUNDS_FUNCTIONS:
        m[f"bounds.{fn}.calls"] = get(f"bounds.{fn}", "calls") / n
        m[f"bounds.{fn}.busy_s"] = busy(f"bounds.{fn}")
    m["cli.main.busy_s"] = busy("cli.main")
    m["oracles.sample_max_expectation.busy_s"] = busy("oracles.sample_max_expectation")
    m["oracles.sample_spectra.busy_s"] = busy("oracles.sample_spectra")
    cells = [k for k in kinds if k.startswith("oracles.sample_max_expectation")]
    m["oracles.samples_per_s"] = (sum(kinds[k]["items"] for k in cells)
                                  / sum(kinds[k]["total_s"] for k in cells)) if cells else 0.0
    m["oracles.min_purity_nelder_mead.busy_s"] = busy("oracles.min_purity_nelder_mead")
    m["trace.overhead_frac"] = (statistics.median(host_wall(p) for p in traced)
                                / statistics.median(host_wall(p) for p in untraced) - 1.0)
    everything = [i for p in untraced + traced for i in p.items]
    m["fail_frac"] = sum(i["failed"] for i in everything) / sum(i["count"] for i in everything)
    found = [c for p in untraced + traced for c in p.extra.get("c_r", [])]
    m["cr_excess"] = statistics.median(found) - CR_I3322_BEST if found else 0.0
    names = [name for name, *_ in spec.PER_LAYER]
    if set(m) != set(names):
        raise RuntimeError(f"per-layer metrics out of step with spec.PER_LAYER: {set(m) ^ set(names)}")
    return {name: m[name] for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_before = os.getloadavg()
    import_library()
    from machine import machine_facts
    from workloads import KNOWN_DEFECTS, WORKLOADS

    wl = WORKLOADS[name](seed)
    setup_raw, setup = ([], []) if trace else setup_seconds(name, seed)
    passes, tracer, speed = run_passes(wl, seconds, trace)
    untraced = [p for t, p, _ in passes if not t]
    traced = [p for t, p, _ in passes if t]
    everything = untraced + traced
    kinds = kind_stats(untraced)
    if trace:
        values = per_layer(untraced, traced, tracer, kinds)
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        values = end_to_end(untraced, setup)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    failures = [{"kind": i["kind"], "failed": i["failed"], "notes": i["notes"][:3]}
                for p in everything for i in p.items if i["failed"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": all(f["kind"] in KNOWN_DEFECTS for f in failures),
        "attempted": sum(i["count"] for p in everything for i in p.items),
        "failed": sum(f["failed"] for f in failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "items_per_pass": sum(i["count"] for i in untraced[0].items),
        "pass_wall_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in traced]},
        "pass_host_s": {"untraced": [host_wall(p) for p in untraced],
                        "traced": [host_wall(p) for p in traced]},
        "setup_samples_s": {"raw": setup_raw, "host": setup},
        "calibration_ms": {"reference": 1e3 * speed.REFERENCE_S, "readings": len(speed.readings),
                           **dict(zip(("p10", "p50", "p90"), (
                               1e3 * q for q in statistics.quantiles(
                                   [r1 - r0 for r0, r1 in speed.readings], n=10)[::4])))},
        "kinds": kinds,
        "failures": failures[:50],
        "known_defects": {k: v for k, v in KNOWN_DEFECTS.items()
                          if any(f["kind"] == k for f in failures)},
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "machine": machine_facts(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        record["functions"] = tracer.table()
        record["functions_by_gap"] = tracer.table(by_gap=True)
        record["spans_file"] = f"{stem}-spans.jsonl.gz"
        tracer.write_spans(OUT / record["spans_file"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def print_metrics(record: dict) -> None:
    name = record["workload"]
    print(f"# {name}: seed {record['seed']}, {record['passes']['untraced']} untraced and "
          f"{record['passes']['traced']} traced passes of {record['items_per_pass']} items, "
          f"{record['failed']} of {record['attempted']} items failed")
    if record["items_per_pass"] < 100:
        print(f"#   item_p90_ms rests on {record['items_per_pass']} items per pass, "
              "fewer than 100: under ten items lie beyond it")
    by_kind: dict[str, list[dict]] = {}
    for f in record["failures"]:
        by_kind.setdefault(f["kind"], []).append(f)
    for kind, fs in by_kind.items():
        print(f"#   FAILED {kind}: {sum(f['failed'] for f in fs)} items in {len(fs)} calls: "
              f"{'; '.join(fs[0]['notes'])}")
    for metric, v in record["metrics"].items():
        print(f"{name:16s} {metric:45s} {v['value']:>16.6g} {v['unit']}")


def main_workload(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# -- every workload ------------------------------------------------------------

REANCHOR_MS = {  # ROADMAP item 1, measured at the re-anchor
    "cr_min_for_value gap 1e-6": 19.0,
    "cr_min_for_value gap 1e-8": 89.0,
    "er_min_for_value": 426.0,
    "er_ppt_solver": 17.0,
    "cr_fixed_basis": 8.0,
}


def reanchor_comparison(results: dict) -> dict:
    """Per-call p50s of the SDP programs beside ROADMAP item 1's figures."""
    verify = results["sdp_verify"]["untraced"]["kinds"]
    search = results["i3322_search"]
    by_gap = search["traced"]["functions_by_gap"]
    measured = {
        "cr_min_for_value gap 1e-6": (by_gap.get("twoqubit.cr_min_for_value@gap=1e-06", {}),
                                      "i3322_search traced, restart stage of the C_R search"),
        "cr_min_for_value gap 1e-8": (by_gap.get("twoqubit.cr_min_for_value@gap=1e-08", {}),
                                      "i3322_search traced, polish stage of the C_R search"),
        "er_min_for_value": (search["untraced"]["kinds"].get("twoqubit.er_min_for_value.i3322", {}),
                             "i3322_search untraced, three-setting fixture at 4.001"),
        "er_ppt_solver": (verify.get("twoqubit.er_ppt_solver", {}),
                          "sdp_verify untraced, 50 entangled + 50 separable Bell-diagonal states"),
        "cr_fixed_basis": (verify.get("twoqubit.cr_fixed_basis", {}),
                           "sdp_verify untraced, rank-2 states in the named product bases"),
    }
    out = {}
    for key, (row, source) in measured.items():
        ms = row.get("p50_ms")
        ratio = ms / REANCHOR_MS[key] if ms else None
        out[key] = {"roadmap_ms": REANCHOR_MS[key], "measured_p50_ms": ms, "ratio": ratio,
                    "source": source,
                    "agrees_within_25pct": None if ratio is None else abs(ratio - 1.0) <= 0.25}
    return out


def main_all(args) -> int:
    results, ok = {}, True
    for name, _ in spec.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"# {name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
                ok = False
                continue
            record = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            results[name]["traced" if trace else "untraced"] = record
            print_metrics(record)
            ok = ok and record["failed"] == 0
    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": results}
    if all(len(r) == 2 for r in results.values()):
        combined["reanchor_comparison"] = reanchor_comparison(results)
        print("# per-call p50 vs ROADMAP item 1")
        for key, row in combined["reanchor_comparison"].items():
            ms = row["measured_p50_ms"]
            print(f"#   {key:28s} roadmap {row['roadmap_ms']:7.1f} ms  measured "
                  f"{ms if ms is None else round(ms, 1)} ms  ({row['source']})")
    out = Path(args.out) if args.out else OUT / f"all-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"# wrote {out}; {'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="combined result file when running every workload")
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload:
        return main_workload(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())
