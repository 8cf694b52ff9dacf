"""Command-line interface: scenario ingestion, bound computation, and
figure-data emission (CSV/JSON on stdout, diagnostics on stderr).

Exit codes: 0 success, 1 input error, 2 infeasible target, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bell, bounds, twoqubit
from .errors import BellresError, Infeasible, SolverFailure
from .linalg import eig_hermitian
from .oracles import resolve_seed

I3322_REF_TARGET = 4.001
I3322_REF_PR = 2.6756
I3322_REF_CR = 0.8418
I3322_REF_ER = 0.8291


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _emit_csv(header: list[str], columns) -> None:
    """Print one CSV row per entry of the equal-length columns.

    Numbers print with 12 significant digits and non-finite ones as nan;
    booleans print as true/false.
    """
    print(",".join(header))
    cols = [np.asarray(col).ravel() for col in columns]
    row_format = ",".join("%s" if col.dtype == bool else "%.12g" for col in cols)
    values = [
        _BOOL_TEXT[col.astype(np.intp)] if col.dtype == bool
        else np.where(np.isfinite(col), col, np.nan)
        for col in cols
    ]
    for row in zip(*(col.tolist() for col in values)):
        print(row_format % row)


def _curve_columns(curve: np.recarray) -> list[np.ndarray]:
    return [curve[name] for name in curve.dtype.names]


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, steps = spec.split(":")
        return np.linspace(float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:steps, got {spec!r}") from exc


def _parse_matrix(flat, dim: int, where: str) -> np.ndarray:
    arr = np.asarray(flat, dtype=float)
    if arr.shape != (dim * dim, 2):
        raise ValueError(f"{where}: expected {dim * dim} [re, im] pairs, got shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim)


def load_scenario(path: str):
    """Parse a scenario JSON file; returns (operator, local_bound)."""
    with open(path) as fh:
        doc = json.load(fh)
    if ("measurements" in doc) == ("correlation" in doc):
        raise ValueError("exactly one of 'measurements' or 'correlation' must be present")
    if "correlation" in doc:
        corr = doc["correlation"]
        s = bell.CorrelationScenario(
            g=corr["g"], bloch_a=corr["bloch_a"], bloch_b=corr["bloch_b"]
        )
        scenario = bell.scenario_from_observables(
            [bell.observable_from_bloch(a) for a in s.bloch_a],
            [bell.observable_from_bloch(b) for b in s.bloch_b],
            s.g,
        )
    else:
        da, db = int(doc["dims"][0]), int(doc["dims"][1])
        meas = doc["measurements"]
        alice = [[_parse_matrix(m, da, f"alice setting {x}") for m in setting]
                 for x, setting in enumerate(meas["alice"])]
        bob = [[_parse_matrix(m, db, f"bob setting {y}") for m in setting]
               for y, setting in enumerate(meas["bob"])]
        coeffs = {}
        for entry in doc["coefficients"]:
            key = (int(entry["a"]), int(entry["b"]), int(entry["x"]), int(entry["y"]))
            coeffs[key] = coeffs.get(key, 0.0) + float(entry["c"])
        scenario = bell.BellScenario(alice=alice, bob=bob, coefficients=coeffs)
    return bell.build_bell_operator(scenario), bell.local_bound(scenario)


def _builtin(name: str):
    if name == "steering-f2":
        return bell.steering_f2_scenario()
    if name in ("chsh-c4", "i3322"):
        s = bell.chsh_scenario() if name == "chsh-c4" else bell.i3322_fixture()
        return bell.build_bell_operator(s), bell.local_bound(s)
    raise ValueError(f"unknown builtin {name!r}")


def _resolve_operator(args):
    if args.builtin:
        return _builtin(args.builtin)
    if args.scenario:
        return load_scenario(args.scenario)
    raise ValueError("one of --scenario or --builtin is required")


def cmd_bound(args) -> int:
    op, local = _resolve_operator(args)
    d = op.shape[0]
    spec = eig_hermitian(op)
    mu = spec.values
    target = local + args.value if args.value is not None else args.target
    report = {
        "local_bound": local,
        "spectrum": [float(x) for x in mu],
        "target": float(target),
        "measure": args.measure,
    }
    try:
        if args.measure == "probustness":
            sol = bounds.min_lambda1_for_value(mu, target, d)
            report.update(rank=sol.rank, lambdas=[float(x) for x in sol.lambdas],
                          resource_value=float(sol.resource))
        elif args.measure == "renyi2":
            sol = bounds.min_renyi2_for_value(mu, target, d)
            report.update(rank=sol.rank, lambdas=[float(x) for x in sol.lambdas],
                          resource_value=float(sol.resource))
        else:
            s_p, beta, state = bounds.min_relent_purity_for_value(op, target)
            lam = np.linalg.eigvalsh(state.matrix)[::-1]
            report.update(rank=d, lambdas=[float(x) for x in lam],
                          resource_value=float(s_p), beta=float(beta))
    except Infeasible as exc:
        report.update(feasible=False, reason=str(exc))
        print(json.dumps(report, indent=2))
        return 2
    report["feasible"] = True
    print(json.dumps(report, indent=2))
    return 0


def cmd_chsh_curve(args) -> int:
    curve = twoqubit.min_er_vs_c_curve(args.v, _parse_grid(args.c_grid))
    _emit_csv(["C", "lambda1", "E_R", "P_R", "feasible"], _curve_columns(curve))
    return 0


def cmd_steering_curve(args) -> int:
    curve = twoqubit.min_er_vs_ca_curve(args.v, _parse_grid(args.ca_grid))
    _emit_csv(["C_A", "lambda1", "E_R", "P_R", "feasible"], _curve_columns(curve))
    return 0


def cmd_heatmap(args) -> int:
    ca = _parse_grid(args.ca_grid)
    grid = twoqubit.lambda1_heatmap(args.v, ca, _parse_grid(args.cb_grid))
    _emit_csv(
        ["C_A", "C_B", "lambda1", "E_R", "P_R", "feasible"],
        [np.repeat(ca, grid.shape[1]), *_curve_columns(grid)],
    )
    return 0


def cmd_min_resources(args) -> int:
    op = bell.build_bell_operator(bell.chsh_scenario())
    rows = []
    for v in _parse_grid(args.v_grid):
        if v <= 0:
            continue
        try:
            rep = twoqubit.min_resources_for_value(op, 2.0, float(v))
        except Infeasible:
            rows.append((v, np.nan, np.nan, np.nan, np.nan, False))
            continue
        rows.append((v, rep.p_r, rep.c_r, rep.d_r, rep.e_r, True))
    _emit_csv(["v", "P_R", "C_R", "D_R", "E_R", "feasible"], list(zip(*rows)))
    return 0


def cmd_relent_compare(args) -> int:
    c = _parse_grid(args.c_grid)
    curve = twoqubit.min_er_vs_c_curve(args.v, c)
    mu = twoqubit.chsh_eigenvalues(c)
    target = 2.0 + args.v
    # the Gibbs state reaches the target only strictly below mu1
    feasible = target <= mu[:, 0] - 1e-12
    log_rob = np.where(feasible, np.log2(1.0 + curve.p_r), np.nan)
    p2 = np.full(len(c), np.nan)
    s_p = np.full(len(c), np.nan)
    for k in np.flatnonzero(feasible):
        p2[k] = bounds.min_renyi2_for_value(mu[k], target, 4).resource
        s_p[k], _, _ = bounds.min_relent_purity_for_value(np.diag(mu[k]), target)
    _emit_csv(
        ["C", "log_robustness", "renyi2_purity", "relent_purity", "feasible"],
        [c, log_rob, p2, s_p, feasible],
    )
    return 0


def cmd_i3322_check(args) -> int:
    scenario = bell.i3322_fixture()
    op = bell.build_bell_operator(scenario)
    local = bell.local_bound(scenario)
    spec = eig_hermitian(op)
    target = I3322_REF_TARGET
    sol = bounds.min_lambda1_for_value(spec.values, target, 4)
    p_r = float(sol.resource)
    e_r, _ = twoqubit.er_min_for_value(op, target)
    report = {
        "local_bound": local,
        "target": target,
        "P_R": p_r,
        "P_R_reference": I3322_REF_PR,
        "P_R_delta": abs(p_r - I3322_REF_PR),
        "E_R": float(e_r),
        "E_R_reference": I3322_REF_ER,
        "E_R_delta": abs(e_r - I3322_REF_ER),
    }
    ok = report["P_R_delta"] <= 5e-4 and report["E_R_delta"] <= 1e-3
    if not args.skip_cr:
        c_r, _ = twoqubit.cr_min_over_product_bases(
            None,
            restarts=args.restarts,
            seed=resolve_seed(),
            target_op=op,
            target=target,
        )
        report.update(
            C_R=float(c_r),
            C_R_reference=I3322_REF_CR,
            C_R_delta=abs(c_r - I3322_REF_CR),
            C_R_within_tolerance=bool(abs(c_r - I3322_REF_CR) <= 1e-2),
        )
        report["hierarchy_ok"] = bool(p_r > c_r > e_r)
    report["pass"] = bool(ok)
    print(json.dumps(report, indent=2))
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellres",
        description="Minimal state resources required for a given Bell violation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_operator_args(p):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument(
            "--builtin", choices=["chsh-c4", "i3322", "steering-f2"], help="built-in fixture"
        )

    p = sub.add_parser("bound", help="minimal resource for a Bell value")
    add_operator_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--value", type=float, help="violation v (target = L + v)")
    group.add_argument("--target", type=float, help="Bell expectation value target")
    p.add_argument(
        "--measure",
        choices=["probustness", "renyi2", "relent"],
        default="probustness",
    )
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("chsh-curve", help="minimal E_R vs incompatibility C")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--c-grid", default="0:4:401")
    p.set_defaults(func=cmd_chsh_curve)

    p = sub.add_parser("steering-curve", help="steering analogue: E_R vs C_A")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--ca-grid", default="0:2:201")
    p.set_defaults(func=cmd_steering_curve)

    p = sub.add_parser("heatmap", help="necessary lambda1 over a (C_A, C_B) grid")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--ca-grid", default="0:2:81")
    p.add_argument("--cb-grid", default="0:2:81")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("min-resources", help="P_R, C_R, D_R, E_R vs Bell value (CHSH C=4)")
    p.add_argument("--v-grid", default="0.001:0.8284:100")
    p.set_defaults(func=cmd_min_resources)

    p = sub.add_parser("relent-compare", help="log-robustness / Renyi-2 / rel. entropy vs C")
    p.add_argument("--v", type=float, default=0.2)
    p.add_argument("--c-grid", default="0:4:101")
    p.set_defaults(func=cmd_relent_compare)

    p = sub.add_parser("i3322-check", help="reproduce the three-setting experiment numbers")
    p.add_argument("--skip-cr", action="store_true", help="skip the stochastic C_R search")
    p.add_argument("--restarts", type=int, default=32)
    p.set_defaults(func=cmd_i3322_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (BellresError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
