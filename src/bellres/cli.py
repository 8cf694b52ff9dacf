"""Command-line interface: scenario ingestion, bound computation, and
figure-data emission (CSV/JSON on stdout, diagnostics on stderr).

Exit codes: 0 success (also when the reader closes stdout early), 1 input
error, 2 infeasible target, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bell, bounds, twoqubit
from .errors import BellresError, Infeasible, SolverFailure
from .linalg import eig_hermitian

I3322_REF_TARGET = 4.001
I3322_REF_PR = 2.6756
I3322_REF_CR = 0.8418
I3322_REF_ER = 0.8291


# most rows a table command prints; a larger grid is refused before it is built.
# In a fresh interpreter on a 2-core x86 host, start-up included, chsh-curve
# over a million distinct C peaks at 161 MiB and takes 0.9-1.0 s; a 1000 x 1000
# heatmap at 273 MiB and 0.8-0.9 s
MAX_TABLE_ROWS = 10**6

# rows formatted and written at a time, so a large table's text never exists all at once
_ROWS_PER_WRITE = 1 << 16
# rows _csv_text lays out at a time, so that the arrays of each block stay in cache
_ROWS_PER_BLOCK = 1 << 13

_BOOL_TEXT = np.array([b"false", b"true"]).view(np.uint8).reshape(2, -1)
_FLOAT_WIDTH = len("-1.23456789012e-308")  # the longest "%.12g" text
_NAN_TEXT = np.frombuffer(b"nan", np.uint8)
# entry t + 1000 j: the first j of the three ASCII digits of t (0 <= t < 1000), then NULs
_DIGIT_TRIPLES = (
    (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0"))
    * (np.arange(3) < np.arange(4)[:, None, None])
).astype(np.uint8).reshape(4000, 3).view("V3")[:, 0]
# the digits of t (0 < t < 1000) up to its last nonzero one; -9 for t = 0
_LAST_DIGIT = np.where(
    np.arange(1000) == 0, -9, 3 - (np.arange(1000)[:, None] % [10, 100] == 0).sum(axis=1)
)
# 1000 times the digits of each triple that a text of k digits keeps
_KEPT_TRIPLE = 1000 * np.clip(np.arange(13)[:, None] - [0, 3, 6, 9], 0, 3)
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**0 .. 10**22, each exact in binary64


def _csv_text(columns, end: str = "\n") -> str:
    """The CSV text of each row of the equal-length columns, each row followed by end.

    Numbers print as "%.12g" % x does, and non-finite ones as nan; booleans
    print as true/false.  Every field is laid out NUL-padded in one uint8
    block of the rows, beside its commas and end, and the NULs, which no
    text contains, are dropped by one mask.  A longer table is laid out
    _ROWS_PER_BLOCK rows at a time.

    The numbers of all the columns are formatted together.  Those whose text
    is in fixed notation (decimal exponent e in [-4, 11]) take array
    arithmetic: y = |x| 10**(11 - e) is one rounding of an exact power, which
    moves it by at most 6.1e-5 below 10**12, so rint(y) gives %'s 12 digits
    unless y's fractional part lies within 1e-3 of 1/2.  Those near-ties,
    zeros and exponent notation go to % itself.
    """
    n = len(columns[0])
    if n > _ROWS_PER_BLOCK:
        return "".join(_csv_text([col[start:start + _ROWS_PER_BLOCK] for col in columns], end)
                       for start in range(0, n, _ROWS_PER_BLOCK))
    numeric = [col for col in columns if col.dtype != bool]
    x = np.array(numeric, dtype=float).ravel()
    a = np.abs(x)
    usable = (a >= 1e-5) & (a < 1e12)
    a = np.where(usable, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10.take(11 - e, mode="clip")
    off = np.flatnonzero((y < 1e11) | (y >= 1e12))  # log10 can be one off near a power of 10
    e[off] += (y[off] >= 1e12).astype(np.intp) - (y[off] < 1e11)
    y[off] = a[off] * _POW10.take(11 - e[off], mode="clip")
    digits = np.rint(y)
    fixed = usable & (y >= 1e11) & (y < 1e12) & (np.abs(np.abs(y - digits) - 0.5) >= 1e-3)
    carry = digits == 1e12
    e += carry
    fixed &= (e >= -4) & (e <= 11)
    rows = np.flatnonzero(fixed)
    e, digits = e[rows], np.where(carry, 1e11, digits)[rows].astype(np.int64)
    triples = digits[:, None] // [10**9, 10**6, 1000, 1] % 1000
    # % keeps the digits up to the last nonzero one or the units, whichever is later
    kept = e + 1
    for k in range(4):
        kept = np.maximum(kept, 3 * k + _LAST_DIGIT.take(triples[:, k]))
    digits = _DIGIT_TRIPLES.take(triples + _KEPT_TRIPLE.take(kept, 0))
    digits = digits.view(np.uint8).reshape(len(rows), 12)
    text = np.zeros((len(x), _FLOAT_WIDTH), np.uint8)
    # one layout per exponent and sign: "-" if negative, then "0." and -e - 1 zeros
    # before the digits if e < 0, or the digits with the point after the units one
    key = 2 * (e + 4) + (x[rows] < 0)
    for k in np.flatnonzero(np.bincount(key)):
        exp, neg = k // 2 - 4, k % 2
        at = np.flatnonzero(key == k)
        part = digits.take(at, 0)
        if exp < 0:
            lead = np.frombuffer(b"-0.000"[1 - neg:2 - exp], np.uint8)
            part = np.concatenate([np.broadcast_to(lead, (len(at), len(lead))), part], axis=1)
        else:
            point = np.where(kept.take(at) > exp + 1, ord("."), 0).astype(np.uint8)[:, None]
            sign = np.full((len(at), neg), ord("-"), np.uint8)
            part = np.concatenate([sign, part[:, :exp + 1], point, part[:, exp + 1:]], axis=1)
        text[rows.take(at), :part.shape[1]] = part
    text[~np.isfinite(x), :len(_NAN_TEXT)] = _NAN_TEXT
    rest = np.flatnonzero(np.isfinite(x) & ~fixed)
    text[rest] = np.array(["%.12g" % v for v in x[rest].tolist()], dtype=f"S{_FLOAT_WIDTH}"
                          ).view(np.uint8).reshape(len(rest), _FLOAT_WIDTH)

    numbers = iter(text.reshape(len(numeric), n, _FLOAT_WIDTH))
    fields = [_BOOL_TEXT[col.astype(np.intp)] if col.dtype == bool else next(numbers)
              for col in columns]
    block = np.empty((n, sum(f.shape[1] + 1 for f in fields) - 1 + len(end)), np.uint8)
    pos = 0
    for field in fields:
        if pos:
            block[:, pos] = ord(",")
            pos += 1
        block[:, pos:pos + field.shape[1]] = field
        pos += field.shape[1]
    block[:, pos:] = np.frombuffer(end.encode("ascii"), np.uint8)
    return str(block[block != 0], "ascii")


def _emit_csv(header: list[str], columns) -> None:
    """Write the header and one CSV row per entry of the equal-length columns,
    formatted by _csv_text _ROWS_PER_WRITE rows at a time."""
    cols = [np.asarray(col).ravel() for col in columns]
    sys.stdout.write(",".join(header) + "\n")
    for start in range(0, len(cols[0]), _ROWS_PER_WRITE):
        sys.stdout.write(_csv_text([col[start:start + _ROWS_PER_WRITE] for col in cols]))


def _curve_columns(curve: np.recarray) -> list[np.ndarray]:
    return [curve[name] for name in curve.dtype.names]


def _parse_grids(*specs: str) -> list[np.ndarray]:
    """The grids start:stop:steps, one per spec.

    Each needs finite ends and at least one step, and the product of the
    step counts, the rows of the table, may not pass MAX_TABLE_ROWS; all of
    this is checked before any grid is built.
    """
    ends, counts = [], []
    for spec in specs:
        try:
            start, stop, steps = spec.split(":")
            ends.append(np.array([float(start), float(stop)]))
            counts.append(int(steps))
        except ValueError:
            raise ValueError(f"grid must be start:stop:steps, got {spec!r}") from None
        if not (np.isfinite(ends[-1]).all() and counts[-1] >= 1):
            raise ValueError(
                f"grid needs finite start and stop and at least one step, got {spec!r}"
            )
    rows = math.prod(counts)
    if rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"grid {' x '.join(map(repr, specs))} has {rows} rows, "
            f"more than the {MAX_TABLE_ROWS} a table may have"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # ends near the float limit
        grids = [np.linspace(*e, n) for e, n in zip(ends, counts)]
    if not all(np.isfinite(grid).all() for grid in grids):
        raise ValueError(f"grid {' x '.join(map(repr, specs))} has points beyond float range")
    return grids


def _array(value, what: str) -> np.ndarray:
    """value as a float array, or ValueError unless it is nested lists of numbers in float range."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what}: expected numbers in float range") from None


def _parse_matrix(flat, dim: int, where: str) -> np.ndarray:
    arr = _array(flat, where)
    if arr.shape != (dim * dim, 2):
        raise ValueError(f"{where}: expected {dim * dim} [re, im] pairs, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, refused as non-finite later
        return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim)


def _number(value, what: str, *, integer: bool = False):
    """A JSON number, or ValueError: true, null and "1" are not numbers.

    With integer=True it must also be integral: 1 and 1.0 give the int 1,
    and 0.7 is refused rather than truncated.  Otherwise it comes back as a
    float.
    """
    if integer and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{what} must be {kind}, got {json.dumps(value)}")
    return value if integer else float(_array(value, what))


def _lists(value, what: str) -> list:
    """value, or ValueError unless it is a list of lists."""
    if not (isinstance(value, list) and all(isinstance(v, list) for v in value)):
        raise ValueError(f"{what} must be a list of lists")
    return value


def load_scenario(path: str):
    """Parse a scenario JSON file; returns (operator, local_bound).

    The document's shape is checked before anything is converted: each form
    is an object; dims must be two positive integers, coefficients a list of
    objects, each index an integer, each c a number, each party's settings a
    list of lists and every vector or matrix nested lists of numbers.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a scenario file must hold a JSON object")
    if ("measurements" in doc) == ("correlation" in doc):
        raise ValueError("exactly one of 'measurements' or 'correlation' must be present")
    form = doc.get("correlation", doc.get("measurements"))
    if not isinstance(form, dict):
        raise ValueError("'measurements' or 'correlation' must be an object")
    if "correlation" in doc:
        bloch_a, bloch_b = (_lists(form[k], k) for k in ("bloch_a", "bloch_b"))
        scenario = bell.scenario_from_observables(
            [bell.observable_from_bloch(_array(a, "bloch_a")) for a in bloch_a],
            [bell.observable_from_bloch(_array(b, "bloch_b")) for b in bloch_b],
            _array(form["g"], "g"),
        )
    else:
        dims, entries = doc["dims"], doc["coefficients"]
        if not (isinstance(dims, list) and len(dims) == 2):
            raise ValueError(f"dims must be two positive integers, got {json.dumps(dims)}")
        da, db = (_number(n, "dims entry", integer=True) for n in dims)
        if min(da, db) < 1:
            raise ValueError(f"dims must be two positive integers, got {json.dumps(dims)}")
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError("coefficients must be a list of objects")
        keys = [tuple(_number(e[k], f"index {k}", integer=True) for k in "abxy") for e in entries]
        values = [_number(e["c"], "coefficient c") for e in entries]
        settings_a, settings_b = _lists(form["alice"], "alice"), _lists(form["bob"], "bob")
        alice = [[_parse_matrix(m, da, f"alice setting {x}") for m in setting]
                 for x, setting in enumerate(settings_a)]
        bob = [[_parse_matrix(m, db, f"bob setting {y}") for m in setting]
               for y, setting in enumerate(settings_b)]
        coeffs = {}
        for key, c in zip(keys, values):
            coeffs[key] = coeffs.get(key, 0.0) + c
        scenario = bell.BellScenario(alice=alice, bob=bob, coefficients=coeffs)
    return bell.build_bell_operator(scenario), bell.local_bound(scenario)


def _builtin(name: str):
    """(operator, local bound) of a built-in; --builtin's choices admit only these three."""
    if name == "steering-f2":
        return bell.steering_f2_scenario()
    s = bell.chsh_scenario() if name == "chsh-c4" else bell.i3322_fixture()
    return bell.build_bell_operator(s), bell.local_bound(s)


def cmd_bound(args) -> int:
    op, local = _builtin(args.builtin) if args.builtin else load_scenario(args.scenario)
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
        if args.measure == "relent":
            s_p, beta, state = bounds.min_relent_purity_for_value(op, target)
            lam = np.linalg.eigvalsh(state.matrix)[::-1]
            report.update(rank=d, lambdas=[float(x) for x in lam],
                          resource_value=float(s_p), beta=float(beta))
        else:
            solve = (bounds.min_lambda1_for_value if args.measure == "probustness"
                     else bounds.min_renyi2_for_value)
            sol = solve(mu, target, d)
            report.update(rank=sol.rank, lambdas=[float(x) for x in sol.lambdas],
                          resource_value=float(sol.resource))
    except Infeasible as exc:
        report.update(feasible=False, reason=str(exc))
        print(json.dumps(report, indent=2))
        return 2
    report["feasible"] = True
    print(json.dumps(report, indent=2))
    return 0


def cmd_chsh_curve(args) -> int:
    curve = twoqubit.min_er_vs_c_curve(args.v, *_parse_grids(args.c_grid))
    _emit_csv(["C", "lambda1", "E_R", "P_R", "feasible"], _curve_columns(curve))
    return 0


def cmd_steering_curve(args) -> int:
    curve = twoqubit.min_er_vs_ca_curve(args.v, *_parse_grids(args.ca_grid))
    _emit_csv(["C_A", "lambda1", "E_R", "P_R", "feasible"], _curve_columns(curve))
    return 0


def cmd_heatmap(args) -> int:
    """The lambda1_heatmap table, one row per (C_A, C_B), C_B varying fastest.

    Its bytes are those of _emit_csv on the flattened columns, but built from
    the table's structure: C_A and C_B are formatted once per grid value,
    and lambda1, E_R, P_R and feasible, which depend only on C = C_A * C_B,
    are computed and formatted once per distinct C, as one row tail each, by
    one _csv_text call.  Each row is then three of these texts, placed in one
    (n_A, n_B, 3) object array (the tail gathered by the index of its C) and
    written by a single join.
    """
    ca, cb = _parse_grids(args.ca_grid, args.cb_grid)
    c, row_c = np.unique(twoqubit._c_product(ca, cb), return_inverse=True)
    curve = twoqubit.min_er_vs_c_curve(args.v, c)
    tails = np.array(_csv_text(_curve_columns(curve)[1:]).splitlines(True), dtype=object)
    rows = np.empty((len(ca), len(cb), 3), dtype=object)
    # each grid value's text and its comma: lines ending ",\n", split off their newlines
    rows[:, :, 0] = np.array(_csv_text([ca], ",\n").splitlines(), dtype=object)[:, None]
    rows[:, :, 1] = _csv_text([cb], ",\n").splitlines()
    rows[:, :, 2] = tails[row_c.reshape(len(ca), len(cb))]
    sys.stdout.write("C_A,C_B,lambda1,E_R,P_R,feasible\n")
    sys.stdout.write("".join(rows.ravel().tolist()))
    return 0


def cmd_min_resources(args) -> int:
    (v,) = _parse_grids(args.v_grid)
    curve = twoqubit.min_er_vs_c_curve(v, 4.0)  # C_R = D_R = E_R for Bell-diagonal operators
    _emit_csv(
        ["v", "P_R", "C_R", "D_R", "E_R", "feasible"],
        [v, curve.p_r, curve.e_r, curve.e_r, curve.e_r, curve.feasible],
    )
    return 0


def cmd_relent_compare(args) -> int:
    """log2(1 + P_R) and the Renyi-2 purity, in bits, and the relative entropy
    of purity S_P, in nats, per C, with nan and false where the Gibbs state
    cannot reach the target, that is at and above mu1.  S_P comes from one
    bisection over all the grid's spectra, and the Renyi-2 purity from one
    rank scan over them, each row equal to min_renyi2_for_value's to the bit."""
    (c,) = _parse_grids(args.c_grid)
    curve = twoqubit.min_er_vs_c_curve(args.v, c)
    mu = twoqubit.chsh_eigenvalues(c)
    target = 2.0 + args.v
    s_p, _, _ = bounds._relent_purity_rows(mu, target)
    feasible = np.isfinite(s_p)
    p2 = bounds._renyi2_rows(mu, target)
    log_rob = np.where(feasible, np.log2(1.0 + curve.p_r), np.nan)
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
    checks = [report["P_R_delta"] <= 5e-4, report["E_R_delta"] <= 1e-3]
    if not args.skip_cr:
        c_r, _ = twoqubit.cr_min_over_product_bases(
            None, restarts=args.restarts, target_op=op, target=target
        )
        report.update(
            C_R=float(c_r),
            C_R_reference=I3322_REF_CR,
            C_R_delta=abs(c_r - I3322_REF_CR),
            C_R_within_tolerance=bool(abs(c_r - I3322_REF_CR) <= 1e-2),
        )
        report["hierarchy_ok"] = bool(p_r > c_r > e_r)
        checks += [report["C_R_within_tolerance"], report["hierarchy_ok"]]
    report["pass"] = bool(all(checks))
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 2


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error, so it exits 1 like any input error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellres",
        description="Minimal state resources required for a given Bell violation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="minimal resource for a Bell value")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help="scenario JSON file")
    group.add_argument(
        "--builtin", choices=["chsh-c4", "i3322", "steering-f2"], help="built-in fixture"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--value", type=float, help="violation v (target = L + v)")
    group.add_argument("--target", type=float, help="Bell expectation value target")
    p.add_argument(
        "--measure",
        choices=["probustness", "renyi2", "relent"],
        default="probustness",
        help="P_R, the Renyi-2 purity in bits, or the relative entropy of purity S_P in nats",
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

    p = sub.add_parser(
        "relent-compare", help="log-robustness / Renyi-2 (bits) / rel. entropy S_P (nats) vs C"
    )
    p.add_argument("--v", type=float, default=0.2)
    p.add_argument("--c-grid", default="0:4:101")
    p.set_defaults(func=cmd_relent_compare)

    p = sub.add_parser("i3322-check", help="reproduce the three-setting experiment numbers")
    p.add_argument("--skip-cr", action="store_true", help="skip the stochastic C_R search")
    p.add_argument("--restarts", type=int, default=4)
    p.set_defaults(func=cmd_i3322_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call to main and then reused:
    parse_args keeps nothing from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point stdout at devnull so the
        # interpreter's last flush of what is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (BellresError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
