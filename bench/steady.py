#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics.

Runs every workload untraced once per seed, each in a fresh process, and
prints for each metric the interquartile range of its values as a share of
their median, beside the metric's bound.  With ``--compare`` it also reports
how far each median moved from an earlier run of this script.

    python3 bench/steady.py --seeds 1-10 --out bench/out/steady-a.json
    python3 bench/steady.py --seeds 11-20 --compare bench/out/steady-a.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spec  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="*", default=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--out", type=Path, default=HERE / "out" / "steady.json")
    ap.add_argument("--compare", type=Path, help="earlier --out file to compare medians with")
    args = ap.parse_args()

    bounds = {name: bound for name, _, better, bound in spec.END_TO_END}
    better = {name: b for name, _, b, _ in spec.END_TO_END}
    values: dict[str, dict[str, list[float]]] = {}
    for name in args.workloads:
        values[name] = {m: [] for m in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed", flush=True)
            for m in bounds:
                values[name][m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.5g}" for m in bounds), flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    worst_ok = True
    print(f"{'workload':16s} {'metric':12s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}"
          + ("  shift" if earlier else ""))
    for name, metrics in values.items():
        for m, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = f"{name:16s} {m:12s} {med:12.6g} {spread:8.4f} {bounds[m]:6.2f}"
            flag = "" if m == "setup_s" or spread <= bounds[m] / 3 else "  SPREAD"
            if earlier and name in earlier:
                old = statistics.median(earlier[name][m])
                worse = (med - old) / old if better[m] == "lower" else (old - med) / old
                line += f"  {worse:+.4f}"
                if worse > bounds[m]:
                    flag += "  WORSE"
            worst_ok = worst_ok and not flag
            print(line + flag)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(values, indent=1))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
