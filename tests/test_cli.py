"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellres import barrier, bell, bounds, cli, twoqubit
from bellres.errors import Infeasible, SolverFailure
from bellres.linalg import _tol

RT2 = np.sqrt(2.0)
TSIRELSON = 2 * RT2


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _diagonal_scenario(tmp_path, diag) -> str:
    """Measurement-form scenario with Bell operator diag(diag).

    One projective setting per party; coefficient c on (a, b, 0, 0) places c at
    diagonal entry 2a + b.
    """
    proj0 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]  # |0><0| as [re, im]
    proj1 = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    doc = {
        "dims": [2, 2],
        "measurements": {"alice": [[proj0, proj1]], "bob": [[proj0, proj1]]},
        "coefficients": [
            {"a": k // 2, "b": k % 2, "x": 0, "y": 0, "c": c} for k, c in enumerate(diag)
        ],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBound:
    def test_chsh_probustness(self, capsys):
        code, out, _ = run(capsys, ["bound", "--builtin", "chsh-c4", "--value", "0.2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["local_bound"] == pytest.approx(2.0)
        assert doc["rank"] == 2
        assert doc["resource_value"] == pytest.approx(4 * 2.2 / TSIRELSON - 1, abs=1e-10)

    def test_i3322_target(self, capsys):
        code, out, _ = run(capsys, ["bound", "--builtin", "i3322", "--target", "4.001"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["resource_value"] - 2.6756) <= 5e-4
        assert doc["local_bound"] == pytest.approx(4.0)

    def test_maximally_mixed_target(self, capsys):
        code, out, _ = run(capsys, ["bound", "--builtin", "chsh-c4", "--target", "0.0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["resource_value"] == pytest.approx(0.0, abs=1e-10)

    def test_renyi2_measure(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--builtin", "chsh-c4", "--value", "0.2", "--measure", "renyi2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["resource_value"] > 0.0

    def test_relent_measure(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--builtin", "chsh-c4", "--value", "0.2", "--measure", "relent"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["resource_value"] > 0.0
        assert doc["beta"] > 0.0

    @pytest.mark.parametrize("measure", ["probustness", "renyi2", "relent"])
    @pytest.mark.parametrize("flag", ["--target=nan", "--value=inf", "--target=-inf"])
    def test_non_finite_target_exits_1(self, capsys, flag, measure):
        code, out, err = run(capsys, ["bound", "--builtin", "chsh-c4", flag, "--measure", measure])
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and "target must be finite" in err

    def test_infeasible_exits_2(self, capsys):
        code, out, _ = run(capsys, ["bound", "--builtin", "chsh-c4", "--target", "3.0"])
        assert code == 2
        assert json.loads(out)["feasible"] is False

    def test_renyi2_near_degenerate_top_pair(self, capsys, tmp_path):
        path = _diagonal_scenario(tmp_path, [1.0, 1.0 - 1e-7, 0.0, -1.0])
        argv = ["bound", "--scenario", path, "--target", "0.999999999", "--measure", "renyi2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 2
        assert doc["resource_value"] == pytest.approx(1.9711480526610, abs=1e-9)

    def test_relent_needing_a_large_beta_exits_0(self, capsys, tmp_path):
        # 1e-11 below mu1 across a 1e-9 top gap needs beta near 5e9
        path = _diagonal_scenario(tmp_path, [1.0, 1.0 - 1e-9, 0.0, -1.0])
        argv = ["bound", "--scenario", path, "--target", "0.99999999999", "--measure", "relent"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] > 1e9
        mu = np.array(doc["spectrum"])
        assert abs(np.array(doc["lambdas"]) @ mu - doc["target"]) <= _tol(mu)

    def test_steering_builtin(self, capsys):
        code, out, _ = run(capsys, ["bound", "--builtin", "steering-f2", "--value", "0.1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["local_bound"] == pytest.approx(RT2)
        assert doc["spectrum"][0] == pytest.approx(2.0, abs=1e-12)


class TestScenarioFiles:
    def test_correlation_form(self, capsys, tmp_path):
        doc = {
            "correlation": {
                "g": [[1, 1], [1, -1]],
                "bloch_a": [[0, 0, 1], [1, 0, 0]],
                "bloch_b": [[1 / RT2, 0, 1 / RT2], [-1 / RT2, 0, 1 / RT2]],
            }
        }
        path = tmp_path / "chsh.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["bound", "--scenario", str(path), "--value", "0.2"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["local_bound"] == pytest.approx(2.0)
        assert parsed["spectrum"][0] == pytest.approx(TSIRELSON, abs=1e-10)

    def test_measurement_form(self, capsys, tmp_path):
        eye_half = [[1, 0], [0, 0]]
        proj0 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]  # |0><0| as [re,im]
        proj1 = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        doc = {
            "dims": [2, 2],
            "measurements": {"alice": [[proj0, proj1]], "bob": [[proj0, proj1]]},
            "coefficients": [
                {"a": 0, "b": 0, "x": 0, "y": 0, "c": 1.0},
                {"a": 1, "b": 1, "x": 0, "y": 0, "c": 1.0},
                {"a": 0, "b": 1, "x": 0, "y": 0, "c": -1.0},
                {"a": 1, "b": 0, "x": 0, "y": 0, "c": -1.0},
            ],
        }
        path = tmp_path / "zz.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["bound", "--scenario", str(path), "--target", "1.0"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["local_bound"] == pytest.approx(1.0)  # sigma_z x sigma_z correlator
        assert parsed["spectrum"][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [[[1, 1, 1], [1, -1, 1]], [[1]]])
    def test_correlation_g_shape_mismatch_exits_1(self, capsys, tmp_path, g):
        doc = {
            "correlation": {
                "g": g,
                "bloch_a": [[0, 0, 1], [1, 0, 0]],
                "bloch_b": [[0, 0, 1], [1, 0, 0]],
            }
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["bound", "--scenario", str(path), "--value", "0.2"])
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(correlation=5), "'correlation' must be an object"),
            (
                lambda doc: doc["correlation"].update(bloch_a=None),
                "bloch_a must be a list of lists",
            ),
            (lambda doc: doc["correlation"].update(g={}), "g: expected numbers in float range"),
            (lambda doc: doc["correlation"].update(g=[[]], bloch_b=[]), "bob has no settings"),
            (
                lambda doc: doc["correlation"].update(bloch_a=[[float("nan"), 0, 0]]),
                "not a unit 3-vector",
            ),
        ],
        ids=["correlation-number", "bloch-null", "g-object", "bob-empty", "bloch-nan"],
    )
    def test_malformed_correlation_form_exits_1(self, capsys, tmp_path, edit, message):
        doc = {"correlation": {"g": [[1]], "bloch_a": [[0, 0, 1]], "bloch_b": [[0, 0, 1]]}}
        edit(doc)
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["bound", "--scenario", str(path), "--value", "0.2"])
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["coefficients"][0].update(a=2), "(2, 0, 0, 0) names no outcome"),
            (lambda doc: doc["coefficients"][0].update(x=1), "(0, 0, 1, 0) names no outcome"),
            (lambda doc: doc["coefficients"][0].update(a=-1), "(-1, 0, 0, 0) names no outcome"),
            (lambda doc: doc["coefficients"][0].update(c=float("nan")), "is nan, not finite"),
            (
                lambda doc: doc["measurements"]["alice"][0][0][0].__setitem__(0, float("nan")),
                "POVM elements must be finite",
            ),
            (
                lambda doc: doc["measurements"]["alice"][0].__setitem__(0, [[1.0, 0.0]] * 3),
                "alice setting 0: expected 4 [re, im] pairs, got shape (3, 2)",
            ),
            (
                lambda doc: doc["coefficients"][0].update(a=0.7),
                "index a must be an integer, got 0.7",
            ),
            (
                lambda doc: doc["coefficients"][0].update(a=1.7),
                "index a must be an integer, got 1.7",
            ),
            (
                lambda doc: doc["coefficients"][0].update(a=True),
                "index a must be an integer, got true",
            ),
            (
                lambda doc: doc["coefficients"][0].update(a=None),
                "index a must be an integer, got null",
            ),
            (lambda doc: doc["coefficients"][0].update(c=None), "coefficient c must be a number"),
            (lambda doc: doc.update(dims=[2]), "dims must be two positive integers, got [2]"),
            (lambda doc: doc.update(dims=None), "dims must be two positive integers, got null"),
            (lambda doc: doc.update(dims=[2, 0]), "dims must be two positive integers"),
            (lambda doc: doc.update(coefficients=5), "coefficients must be a list of objects"),
            (lambda doc: doc["coefficients"][0].update(c=10**400), "c: expected numbers in float"),
            (lambda doc: doc.update(measurements=5), "'correlation' must be an object"),
            (lambda doc: doc["measurements"].update(alice=5), "alice must be a list of lists"),
            (
                lambda doc: doc["measurements"]["alice"][0].__setitem__(0, {"re": 1.0}),
                "alice setting 0: expected numbers in float range",
            ),
            (lambda doc: doc["measurements"].update(alice=[]), "alice has no settings"),
            (lambda doc: doc["measurements"].update(alice=[[]]), "alice setting 0 has no elements"),
        ],
        ids=[
            "a-too-large", "x-too-large", "a-negative", "c-nan", "povm-nan", "povm-shape",
            "a-fraction", "a-above-one", "a-true", "a-null", "c-null", "dims-one", "dims-null",
            "dims-zero", "coefficients-number", "c-beyond-float", "measurements-number",
            "alice-number", "povm-object", "alice-empty", "alice-setting-empty",
        ],
    )
    def test_malformed_measurement_form_exits_1(self, capsys, tmp_path, edit, message):
        path = Path(_diagonal_scenario(tmp_path, [1.0, 0.0, 0.0, -1.0]))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["bound", "--scenario", str(path), "--target", "0.5"])
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and message in err

    def test_integral_float_index_is_an_index(self, capsys, tmp_path):
        path = Path(_diagonal_scenario(tmp_path, [1.0, 0.0, 0.0, -1.0]))
        doc = json.loads(path.read_text())
        doc["coefficients"][3].update(a=1.0, b=1.0)
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["bound", "--scenario", str(path), "--target", "0.5"])
        assert code == 0
        assert json.loads(out)["spectrum"] == [1.0, 0.0, 0.0, -1.0]

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["bound", "--scenario", str(path), "--value", "0.1"])
        assert code == 1
        assert "input error" in err

    def test_both_forms_exits_1(self, capsys, tmp_path):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"measurements": {}, "correlation": {}}))
        code, _, _ = run(capsys, ["bound", "--scenario", str(path), "--value", "0.1"])
        assert code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run(capsys, ["bound", "--scenario", "/nonexistent.json", "--value", "0.1"])
        assert code == 1

    def test_no_operator_source_exits_1(self, capsys):
        code, _, _ = run(capsys, ["bound", "--value", "0.1"])
        assert code == 1

    def test_both_operator_sources_exit_1(self, capsys, tmp_path):
        path = _diagonal_scenario(tmp_path, [1.0, 0.0, 0.0, 0.0])
        argv = ["bound", "--scenario", path, "--builtin", "chsh-c4", "--value", "0.1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and "not allowed with" in err


class TestCurveCommands:
    def test_chsh_curve_values_and_determinism(self, capsys):
        argv = ["chsh-curve", "--v", "0.001", "--c-grid", "0:4:9"]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        code, out2, _ = run(capsys, argv)
        assert out1 == out2  # byte-identical across runs
        header, rows = parse_csv(out1)
        assert header == ["C", "lambda1", "E_R", "P_R", "feasible"]
        assert rows[0][4] == "false"  # C = 0 infeasible for any v > 0
        last = rows[-1]
        assert float(last[0]) == 4.0
        assert float(last[2]) == pytest.approx(2 * 2.001 / np.sqrt(8.0) - 1, abs=1e-10)

    def test_steering_curve(self, capsys):
        code, out, _ = run(capsys, ["steering-curve", "--v", "0.01", "--ca-grid", "0:2:5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "C_A"
        assert rows[0][4] == "false"
        assert rows[-1][4] == "true"

    def test_heatmap_corner(self, capsys):
        code, out, _ = run(
            capsys, ["heatmap", "--v", "0.001", "--ca-grid", "0:2:3", "--cb-grid", "0:2:3"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        cells = {(float(r[0]), float(r[1])): r for r in rows}
        assert cells[(2.0, 0.0)][5] == "false"
        assert cells[(2.0, 2.0)][5] == "true"

    @pytest.mark.parametrize(
        "ca_grid, cb_grid",
        [("0:3:2", "2:3:2"), ("0:2.5:2", "0:0.5:2")],  # C_A C_B = 1.25 lies inside [0, 4]
    )
    def test_heatmap_out_of_domain_exits_1(self, capsys, ca_grid, cb_grid):
        argv = ["heatmap", "--v", "0.001", "--ca-grid", ca_grid, "--cb-grid", cb_grid]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert "true" not in out
        assert err.startswith("input error:")

    def test_bad_grid_exits_1(self, capsys):
        code, _, err = run(capsys, ["chsh-curve", "--v", "0.001", "--c-grid", "nope"])
        assert code == 1
        assert "grid" in err

    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:4:3", "nan:4:3"])
    def test_non_finite_grid_end_exits_1(self, capsys, grid):
        code, out, err = run(capsys, ["chsh-curve", "--v", "0.001", f"--c-grid={grid}"])
        assert code == 1
        assert out == ""
        assert err.startswith("input error:") and grid in err

    # no steps, or more rows than a table may have; np.linspace is disabled,
    # so a grid built before the refusal fails the test instead of allocating
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh-curve", "--c-grid", "0:4:0"],
            ["chsh-curve", "--c-grid=0:4:-3"],
            ["chsh-curve", "--c-grid", "0:4:400000000"],
            ["steering-curve", "--ca-grid", "0:2:0"],
            ["heatmap", "--ca-grid", "0:2:0", "--cb-grid", "0:2:3"],
            ["heatmap", "--ca-grid", "0:2:20000", "--cb-grid", "0:2:20000"],
            ["min-resources", "--v-grid", "0.001:0.5:0"],
            ["relent-compare", "--c-grid", "0:4:0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_refused_grid_exits_1(self, capsys, monkeypatch, argv):
        def no_grid(*args, **kwargs):
            raise AssertionError("a refused grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        if argv[0] != "min-resources":
            argv = [*argv, "--v", "0.001"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("input error:") and "grid" in err

    def test_heatmap_rows_are_the_product_of_the_steps(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 9)
        argv = ["heatmap", "--v", "0.001", "--ca-grid", "0:2:3"]
        code, out, _ = run(capsys, [*argv, "--cb-grid", "0:2:3"])
        assert code == 0 and len(parse_csv(out)[1]) == 9
        code, out, err = run(capsys, [*argv, "--cb-grid", "0:2:4"])
        assert code == 1 and out == ""
        assert "12 rows" in err

    def test_heatmap_formats_no_full_column(self, capsys, monkeypatch):
        # C_A and C_B are formatted per grid value and the other columns per
        # distinct C_A * C_B, so all formatting calls together cover fewer rows
        # than the table; the one np.unique over all rows is of that product
        rows = 401 * 401
        formatted, deduplicated = [], []
        csv_text, unique = cli._csv_text, np.unique

        def spy_csv_text(columns, *args):
            formatted.append(len(columns[0]))
            return csv_text(columns, *args)

        def spy_unique(ar, *args, **kwargs):
            deduplicated.append(np.size(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(cli, "_csv_text", spy_csv_text)
        monkeypatch.setattr(np, "unique", spy_unique)
        argv = ["heatmap", "--v", "0.001", "--ca-grid", "0:2:401", "--cb-grid", "0:2:401"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.count("\n") == rows + 1
        assert formatted and sum(formatted) < rows
        assert deduplicated.count(rows) == 1

    def test_closed_stdout_exits_0_quietly(self):
        # the table is far larger than a pipe's buffer, so the writer is still
        # writing when the reader goes away after the first line
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["heatmap", "--v", "0.001", "--ca-grid", "0:2:401", "--cb-grid", "0:2:401"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellres.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"C_A,C_B,lambda1,E_R,P_R,feasible\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_largest_heatmap_stays_within_its_memory(self):
        # the largest table, MAX_TABLE_ROWS rows, in a fresh interpreter that reports
        # its own peak RSS (KiB on Linux) once the table is written; its lines are
        # counted as they stream.  It peaked at 273 MiB, and this allows a tenth more
        argv = ["heatmap", "--v", "0.001", "--ca-grid", "0:2:1000", "--cb-grid", "0:2:1000"]
        child = ("import resource, sys; from bellres import cli; code = cli.main(sys.argv[1:]); "
                 "sys.stdout.flush(); "
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
                 "sys.exit(code)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-c", child, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: proc.stdout.read(1 << 20), b""))
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert 1000 * 1000 == cli.MAX_TABLE_ROWS and lines == cli.MAX_TABLE_ROWS + 1
        assert int(err) < 1.1 * 273 * 1024

    # each table command with one bad v: v <= 0, NaN or inf
    @pytest.mark.parametrize("v", ["0", "-0.1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh-curve", "--c-grid", "0:4:5"],
            ["steering-curve", "--ca-grid", "0:2:5"],
            ["heatmap", "--ca-grid", "0:2:3", "--cb-grid", "0:2:3"],
            ["min-resources"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_violation_exits_1(self, capsys, argv, v):
        if argv[0] == "min-resources":  # the sweep's first point is v
            argv = [*argv, f"--v-grid={v}:0.5:3"]
        else:
            argv = [*argv, f"--v={v}"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    # a two-fold top level mu1 = mu2 with t within _tol of it: lam1 = 1/2, E_R = 0, P_R = 1
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh-curve", "--c-grid", "0:4:3"],
            ["steering-curve", "--ca-grid", "0:2:3"],
            ["heatmap", "--ca-grid", "0:2:3", "--cb-grid", "0:2:3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_two_fold_top_level(self, capsys, argv):
        code, out, _ = run(capsys, [*argv, "--v", "1e-13"])
        assert code == 0
        _, rows = parse_csv(out)
        top = [r for r in rows if "0" in r[:-4]]  # C = 0, C_A = 0 or C_B = 0
        assert top and all(r[-4:] == ["0.5", "0", "1", "true"] for r in top)

    # argparse's own usage errors exit 1 like every other input error, not 2
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh-curve", "--v", "-inf"],
            ["chsh-curve", "--v", "0.001", "--c-grid", "-inf:4:3"],
            ["min-resources", "--v-grid", "-0.5:0.5:3"],
            ["chsh-curve"],
            ["chsh-curve", "--v", "0.001", "--no-such-flag"],
            [],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chsh-curve", "--help"])
        assert exc.value.code == 0
        assert "--c-grid" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        # the README digests of heatmap and chsh-curve, around a usage error
        calls = [
            (["heatmap", "--v", "0.001"],
             "1d6e15f6f11bb640b3337bb786a4087c8466cd9bab95ce82865462b29efcbd1e"),
            (["chsh-curve", "--v", "0.001", "--no-such-flag"], None),
            (["chsh-curve", "--v", "0.001", "--c-grid", "0:4:401"],
             "61d4f15379e227598d185c101cca0edda10d6ae2e3751037475493c5902779ac"),
        ]
        for argv, digest in calls:
            code, out, err = run(capsys, argv)
            if digest is None:
                assert code == 1 and out == "" and err.startswith("input error:")
            else:
                assert code == 0 and err == ""
                assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert builds == [1]


class TestGoldenOutputs:
    # sha256 of the README commands' stdout, recorded from the per-point loop
    # implementation; the array code must print the same bytes.  relent-compare
    # was re-recorded when relent came to bisect on the normalised levels.  The
    # heatmap digests were recorded from the per-row % emitter
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["chsh-curve", "--v", "0.001", "--c-grid", "0:4:401"],
                "61d4f15379e227598d185c101cca0edda10d6ae2e3751037475493c5902779ac",
            ),
            (
                ["steering-curve", "--v", "0.001", "--ca-grid", "0:2:201"],
                "488812e5d695b9b7d7266c50f8c22e778083be90dd1d93a3c425a66832405141",
            ),
            (
                ["min-resources", "--v-grid", "0.001:0.8284:100"],
                "f06aed5be00fcaaba5d8b854c8a6ccea5ef2a892e7ee14b4fd1576f2c7b771d6",
            ),
            (
                ["relent-compare", "--v", "0.2", "--c-grid", "0:4:101"],
                "7248bc32791e7bd76931350b9c2f14688f21d72dd24c9b4882dadf0cb0a8c7bc",
            ),
            (
                ["heatmap", "--v", "0.001"],
                "1d6e15f6f11bb640b3337bb786a4087c8466cd9bab95ce82865462b29efcbd1e",
            ),
            (
                ["heatmap", "--v", "0.001", "--ca-grid", "0:2:401", "--cb-grid", "0:2:401"],
                "9a832f4aee5437343766faefe525b3c5f7108ae6e48e9d9c5f6666606a35b533",
            ),
            (  # 1,293 of its 1,881 rows are infeasible: nan and false
                ["heatmap", "--v", "0.3", "--ca-grid", "0:2:57", "--cb-grid", "0:2:33"],
                "813990e84fc3464fdb0fd6e26d1bf6d7505dc0e29deff805127ef64450357b5b",
            ),
        ],
        ids=["chsh-curve", "steering-curve", "min-resources", "relent-compare",
             "heatmap", "heatmap-401", "heatmap-infeasible"],
    )
    def test_readme_csv_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reference_csv(header, columns) -> str:
    """The per-row emitter that formatted each value of each row with %."""
    lines = [",".join(header)]
    cols = [np.asarray(col).ravel() for col in columns]
    row_format = ",".join("%s" if col.dtype == bool else "%.12g" for col in cols)
    values = [
        np.array(["false", "true"], dtype=object)[col.astype(np.intp)] if col.dtype == bool
        else np.where(np.isfinite(col), col, np.nan)
        for col in cols
    ]
    for row in zip(*(col.tolist() for col in values)):
        lines.append(row_format % row)
    return "".join(line + "\n" for line in lines)


# 0.0 and -0.0; quiet NaNs of both signs, one with a payload, and a signalling
# one; +-inf; the smallest positive and the largest negative subnormal
_SPECIAL_FLOATS = np.array(
    [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000ABC,
     0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x800FFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)


@st.composite
def _csv_tables(draw):
    """A header and equal-length columns, each bool or drawn with repeats from a
    small pool of special and arbitrary floats."""
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows))))
            continue
        pool = np.concatenate([
            _SPECIAL_FLOATS,
            draw(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=6)),
        ])
        index = st.integers(0, len(pool) - 1)
        columns.append(pool[draw(st.lists(index, min_size=rows, max_size=rows))])
    return [f"col{k}" for k in range(len(columns))], columns


@given(table=_csv_tables())
@example(table=(["x", "ok"], [np.array([]), np.array([], dtype=bool)]))
@example(table=(["x"], [np.array([-0.0, 0.0, -0.0, np.nan, 5e-324])]))
def test_emit_csv_matches_the_per_row_formatter(table):
    header, columns = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_csv(header, columns)
    assert out.getvalue() == _reference_csv(header, columns)


def test_emit_csv_writes_in_blocks_of_rows(monkeypatch):
    # blocks of 7 rows: a full block, a short last one, and one row alone
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 7)
    for rows in (14, 17, 1):
        columns = [np.linspace(-1.0, 1.0, rows), np.arange(rows) % 3 == 0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_csv(["x", "ok"], columns)
        assert out.getvalue() == _reference_csv(["x", "ok"], columns)


# each power of ten from 1e-6 to 1e13 with its neighbours one ulp away, both signs:
# the edges of fixed notation (1e-4, 1e11) and of each decimal exponent
_POWERS_OF_TEN = np.concatenate([
    sign * np.nextafter(10.0 ** np.arange(-6, 14), toward)
    for sign in (-1.0, 1.0) for toward in (0.0, np.inf)
] + [10.0 ** np.arange(-6, 14), -(10.0 ** np.arange(-6, 14))])
_FORMATTED_FLOATS = st.one_of(
    st.floats(allow_subnormal=True),  # with nan, +-inf and +-0
    # (k + 1/2) 10**-j, near the ties of the twelfth digit
    st.builds(lambda k, j, sign: sign * (k + 0.5) / 10.0**j,
              st.integers(0, 10**12), st.integers(0, 16), st.sampled_from([-1.0, 1.0])),
    st.sampled_from(_POWERS_OF_TEN.tolist()),
    # 12 nines and more, which round up to the next power of ten
    st.builds(lambda k, frac: (10**12 - 1 + frac) / 10.0**k, st.integers(0, 16),
              st.floats(0.4, 1.0, exclude_max=True)),
)


@given(values=st.lists(_FORMATTED_FLOATS, min_size=1, max_size=40))
@example(values=[1e-4, 9.99999999999995e-5, 1e11, 99999999999.5, 999999999999.5, 5e-324, -0.0])
def test_csv_text_formats_as_percent(values):
    # the array formatter against % itself, value by value
    want = "".join(("%.12g" % v if np.isfinite(v) else "nan") + "\n" for v in values)
    assert cli._csv_text([np.array(values)]) == want


@st.composite
def _heatmap_grid(draw):
    """A heatmap grid spec and its points: 1-25 steps between ends in [0, 2]."""
    start, stop = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    steps = draw(st.integers(1, 25))
    return f"{start!r}:{stop!r}:{steps}", np.linspace(start, stop, steps)


# v = 1e-13 reaches the two-fold top level at C = 0; at v = 2 no row is feasible
@settings(max_examples=50)
@given(
    ca=_heatmap_grid(),
    cb=_heatmap_grid(),
    v=st.sampled_from([1e-13, 0.001, 0.3, 0.8, 2.0]),
)
@example(ca=("1.5:1.5:4", np.full(4, 1.5)), cb=("2:0:5", np.linspace(2, 0, 5)), v=0.001)
def test_heatmap_matches_the_per_row_formatter(ca, cb, v):
    (ca_spec, ca), (cb_spec, cb) = ca, cb
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["heatmap", f"--v={v!r}", f"--ca-grid={ca_spec}", f"--cb-grid={cb_spec}"])
    assert code == 0
    curve = twoqubit.min_er_vs_c_curve(v, (ca[:, None] * cb).ravel())
    columns = [np.repeat(ca, len(cb)), np.tile(cb, len(ca)),
               curve.lambda1, curve.e_r, curve.p_r, curve.feasible]
    header = ["C_A", "C_B", "lambda1", "E_R", "P_R", "feasible"]
    assert out.getvalue() == _reference_csv(header, columns)


@st.composite
def _relent_grid(draw):
    """A relent-compare grid spec and its points: 1-60 steps between ends in [0, 4],
    with 0 and 4, where a level is two-fold, drawn often."""
    ends = st.one_of(st.sampled_from([0.0, 4.0]), st.floats(0.0, 4.0))
    start, stop = draw(ends), draw(ends)
    steps = draw(st.integers(1, 60))
    return f"{start!r}:{stop!r}:{steps}", np.linspace(start, stop, steps)


def _relent_reference(v, c):
    """relent-compare's columns from one library call per row: nan and false where
    min_relent_purity_for_value raises Infeasible."""
    curve, mu, target = twoqubit.min_er_vs_c_curve(v, c), twoqubit.chsh_eigenvalues(c), 2.0 + v
    log_rob, p2, s_p = np.full((3, len(c)), np.nan)
    for k in range(len(c)):
        try:
            s_p[k] = bounds.min_relent_purity_for_value(np.diag(mu[k]), target)[0]
        except Infeasible:
            continue
        p2[k] = bounds.min_renyi2_for_value(mu[k], target, 4).resource
        log_rob[k] = np.log2(1.0 + curve.p_r[k])
    return [c, log_rob, p2, s_p, np.isfinite(s_p)]


# at v = 1e-13 C = 0 reaches its two-fold top level; at v = 2 no row is feasible
@settings(max_examples=50)
@given(grid=_relent_grid(), v=st.sampled_from([1e-13, 0.001, 0.2, 0.8, 2.0]))
@example(grid=("0:4:101", np.linspace(0.0, 4.0, 101)), v=0.2)
@example(grid=("4:0:9", np.linspace(4.0, 0.0, 9)), v=1e-13)
@example(grid=("4:4:1", np.array([4.0])), v=0.001)
def test_relent_compare_matches_the_per_row_reference(grid, v):
    spec, c = grid
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["relent-compare", f"--v={v!r}", f"--c-grid={spec}"])
    assert code == 0
    header = ["C", "log_robustness", "renyi2_purity", "relent_purity", "feasible"]
    assert out.getvalue() == _reference_csv(header, _relent_reference(v, c))


class TestBoundGolden:
    # sha256 of the bound command's JSON stdout, recorded before the closed
    # forms were rewritten around shared helpers; the outputs must keep their bytes.
    # The relent rows were re-recorded when relent came to bisect on the normalised levels,
    # and again when S_P came to be read off the Gibbs weights (resource_value only).
    # The renyi2 rows were recorded before the rank scan came to run over rows.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["chsh-c4", "--value", "0.2", "--measure", "probustness"],
             "7e6de61a876e6aa3b88c1307fea7c30da01b60b1a23e39be35bf2912ee11c3cc"),
            (["chsh-c4", "--value", "0.2", "--measure", "relent"],
             "dd551a73027e174ed99857deaf7d6227e1c53831d17b4e39f4dccceb3237e23f"),
            (["chsh-c4", "--value", "0.2", "--measure", "renyi2"],
             "406a66c96d1c1538d5a992eaa278ad09294a6044b191a918c367979d06a74de0"),
            (["i3322", "--target", "4.001", "--measure", "probustness"],
             "cd690130399e142e8423277f386c8d456452c35129273d089ceb3210bd01e8de"),
            (["i3322", "--target", "4.001", "--measure", "relent"],
             "7866a2e2568fa09db170b2a73af2f60cc021af6ef9ff1b1735f4bd72b3ec2fc1"),
            (["i3322", "--target", "4.001", "--measure", "renyi2"],
             "b67db025fee20d66898dec91e542900b9a39743153bfae39f0cd2f6b00389d90"),
            (["steering-f2", "--value", "0.3", "--measure", "probustness"],
             "9ec668451382b5bd333503b5fcb2951e3ba036a79970a74230f5ddd922e234f0"),
            (["steering-f2", "--value", "0.3", "--measure", "relent"],
             "ef868a3a1f560812f2e45dd5dedd4ea120b62b88f43bcc98b440b22b154e466e"),
            (["steering-f2", "--value", "0.3", "--measure", "renyi2"],
             "7ab66b89cd860c64576e901e00fcc887179db55198b1d15af41275b598db6cbb"),
        ],
        ids=[f"{builtin}-{measure}" for builtin in ("chsh-c4", "i3322", "steering-f2")
             for measure in ("probustness", "relent", "renyi2")],
    )
    def test_bound_json_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, ["bound", "--builtin", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestMinResources:
    def test_endpoint_row_and_ordering(self, capsys):
        v_max = TSIRELSON - 2.0
        code, out, _ = run(capsys, ["min-resources", "--v-grid", f"0.001:{v_max}:20"])
        assert code == 0
        _, rows = parse_csv(out)
        feasible = [r for r in rows if r[5] == "true"]
        assert feasible
        last = feasible[-1]
        assert float(last[1]) == pytest.approx(3.0, abs=1e-9)
        assert float(last[2]) == pytest.approx(1.0, abs=1e-9)
        assert float(last[4]) == pytest.approx(1.0, abs=1e-9)
        for r in feasible:
            p_r, c_r, d_r, e_r = map(float, r[1:5])
            assert p_r >= c_r - 1e-9
            assert c_r == d_r == e_r


    def test_rows_match_min_resources_for_value(self, capsys, monkeypatch, chsh_op):
        # a seeded grid that runs past the Tsirelson violation 2 sqrt 2 - 2
        rng = np.random.default_rng(0x3E5)
        start, stop = rng.uniform(1e-3, 0.05), rng.uniform(0.9, 1.2)
        tables = []
        monkeypatch.setattr(cli, "_emit_csv", lambda header, cols: tables.append(cols))
        assert run(capsys, ["min-resources", "--v-grid", f"{start!r}:{stop!r}:61"])[0] == 0
        v, p_r, c_r, d_r, e_r, feasible = tables[0]
        assert not feasible.all() and feasible.any()
        for k, vk in enumerate(v):
            try:
                rep = twoqubit.min_resources_for_value(chsh_op, 2.0, float(vk))
            except Infeasible:
                assert not feasible[k] and np.isnan([p_r[k], c_r[k], d_r[k], e_r[k]]).all()
                continue
            assert feasible[k]
            assert abs(p_r[k] - rep.p_r) <= 1e-12
            for got in (c_r[k], d_r[k], e_r[k]):
                assert abs(got - rep.e_r) <= 1e-12


class TestRelentCompare:
    def test_renyi2_column_makes_no_per_row_call(self, capsys, monkeypatch):
        # the column is one rank scan over the rows, not a min_renyi2_for_value per row
        calls = []
        solve = bounds.min_renyi2_for_value

        def spy(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bounds, "min_renyi2_for_value", spy)
        code, out, _ = run(capsys, ["relent-compare", "--v", "0.2", "--c-grid", "0:4:101"])
        assert code == 0 and out.count("true") > 0
        assert calls == []

    # S_P/ln 2 <= P2 <= log2(1 + P_R), the order of the Renyi divergences from
    # I/d.  %.12g moves each printed value, at most 2 bits or 1.39 nats, by at
    # most 5e-12 of its size: a printed pair can lose 2e-11, and the closed
    # forms 1e-12 (TestPurityHierarchy), within the slack of 3e-11
    @settings(max_examples=25)
    @given(grid=_relent_grid(), v=st.sampled_from([1e-13, 0.001, 0.2, 0.5, 0.8]))
    @example(grid=("0:4:2001", np.linspace(0.0, 4.0, 2001)), v=0.001)
    @example(grid=("0:4:2001", np.linspace(0.0, 4.0, 2001)), v=0.8)
    def test_rows_keep_the_purity_hierarchy(self, grid, v):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["relent-compare", f"--v={v!r}", f"--c-grid={grid[0]}"]) == 0
        _, rows = parse_csv(out.getvalue())
        feasible = np.array([[float(x) for x in row[1:4]] for row in rows if row[4] == "true"])
        if not len(feasible):
            return
        log_rob, p2, s_p = feasible.T
        assert (s_p / np.log(2.0) <= p2 + 3e-11).all()
        assert (p2 <= log_rob + 3e-11).all()

    def test_columns(self, capsys):
        code, out, _ = run(capsys, ["relent-compare", "--v", "0.2", "--c-grid", "0:4:41"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["C", "log_robustness", "renyi2_purity", "relent_purity", "feasible"]
        feas = [r for r in rows if r[4] == "true"]
        infeas = [r for r in rows if r[4] == "false"]
        assert infeas and feas  # feasibility edge exists for v = 0.2
        s_p = [float(r[3]) for r in feas]
        assert all(b < a for a, b in zip(s_p, s_p[1:]))  # strictly decreasing
        # the other two columns dip: interior minimum below both endpoints
        for col in (1, 2):
            vals = [float(r[col]) for r in feas]
            assert min(vals) < vals[0] and min(vals) < vals[-1]


class TestI3322Check:
    def test_skip_cr(self, capsys):
        code, out, _ = run(capsys, ["i3322-check", "--skip-cr"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["P_R_delta"] <= 5e-4
        assert doc["E_R_delta"] <= 1e-3
        assert "C_R" not in doc

    def test_one_restart_reaches_the_reference_c_r(self, capsys):
        code, out, _ = run(capsys, ["i3322-check", "--restarts", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["C_R_within_tolerance"] is True and doc["hierarchy_ok"] is True
        assert doc["E_R"] < doc["C_R"] < doc["P_R"]

    def test_default_restarts_reach_the_reference_c_r(self, capsys):
        code, out, _ = run(capsys, ["i3322-check"])
        assert code == 0
        doc = json.loads(out)
        assert doc["C_R"] == pytest.approx(0.8419287612, abs=1e-9)
        assert doc["hierarchy_ok"] is True

    def test_default_search_stays_within_200_solves(self, capsys, monkeypatch):
        # 4 restarts from the default seed; the E_R program adds one solve
        monkeypatch.delenv("BRB_SEED", raising=False)
        calls = []
        solve = barrier.solve_sdp

        def counted_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(barrier, "solve_sdp", counted_solve)
        code, _, _ = run(capsys, ["i3322-check"])
        assert code == 0
        assert len(calls) <= 200

    def test_cr_search_failure_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverFailure("no solve")

        monkeypatch.setattr(twoqubit, "cr_min_for_value", fail)
        code, out, err = run(capsys, ["i3322-check", "--restarts", "1"])
        assert code == 3
        assert out == ""
        assert "solver failure" in err

    # a C_R within 1e-2 of the reference lies between E_R and P_R, so the
    # hierarchy cannot fail alone
    @pytest.mark.parametrize(
        "c_r, hierarchy_ok", [(1.5, True), (0.5, False)], ids=["off-reference", "below-E_R"]
    )
    def test_a_failed_c_r_check_fails_the_run(self, capsys, monkeypatch, c_r, hierarchy_ok):
        # pass is every check the report prints, not only P_R and E_R
        monkeypatch.setattr(
            twoqubit, "cr_min_over_product_bases", lambda *args, **kwargs: (c_r, np.eye(4))
        )
        code, out, _ = run(capsys, ["i3322-check", "--restarts", "1"])
        assert code == 2
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["P_R_delta"] <= 5e-4 and doc["E_R_delta"] <= 1e-3
        assert doc["C_R_within_tolerance"] is False and doc["hierarchy_ok"] is hierarchy_ok

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_no_restarts_is_an_input_error(self, capsys, restarts):
        code, out, err = run(capsys, ["i3322-check", "--restarts", restarts])
        assert code == 1
        assert out == ""
        assert "input error:" in err

    def test_uncertified_solve_exits_3(self, capsys, monkeypatch):
        # a solver that stops before its certificate must not print a number
        monkeypatch.setattr(barrier, "_MAX_ITERATIONS", 2)
        code, out, err = run(capsys, ["i3322-check", "--skip-cr"])
        assert code == 3
        assert out == ""
        assert "no certificate" in err


def test_import_leaves_scipy_unloaded():
    probe = "import sys, bellres.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    # nor does a run of the C_R search load scipy.optimize
    probe = (
        "import sys; from bellres import cli; code = cli.main(['i3322-check', '--restarts', '1']); "
        "print(code, 'scipy.optimize' in sys.modules, file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True
    assert done.stderr.split() == ["0", "False"]


def test_import_of_bounds_loads_only_what_bounds_imports():
    # the package namespace re-exports nothing, so no sibling module comes along
    probe = (
        "import sys, bellres.bounds; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'bellres'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    loaded = ["bellres", "bellres.bounds", "bellres.errors", "bellres.linalg"]
    assert done.stdout.strip() == str(loaded)


# any float, +-inf and NaN included, or one in the range the commands accept
_NUMBERS = st.one_of(st.floats(), st.floats(-1.0, 5.0))
# the command line's numbers, as repr prints them and argparse's float() reads them back
_NUMBER_TEXT = _NUMBERS.map(repr)


def _grid_text(max_steps: int):
    """start:stop:steps with any ends and -1 to max_steps steps."""
    return st.builds("{}:{}:{}".format, _NUMBER_TEXT, _NUMBER_TEXT, st.integers(-1, max_steps))


def _unit_vectors():
    def vector(theta, phi):
        return [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]

    return st.builds(vector, st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))


def _qubit_setting(n):
    """The projectors (1 -+ n.sigma)/2 of a Bloch vector n, each as 4 [re, im] pairs."""
    sigma_n = bell.observable_from_bloch(n)
    return [[[x.real, x.imag] for x in ((np.eye(2) + sign * sigma_n) / 2).ravel()]
            for sign in (-1.0, 1.0)]


@st.composite
def _scenario_docs(draw):
    """Scenario documents of either form.  Vectors are unit or any three floats;
    measurement settings are qubit projectors or any four [re, im] pairs per
    element; coefficients, g and the dims are drawn freely."""
    numbers = st.lists(_NUMBERS, min_size=3, max_size=3)
    if draw(st.booleans()):
        vectors = st.lists(st.one_of(_unit_vectors(), numbers), max_size=3)
        rows = st.lists(_NUMBERS, min_size=1, max_size=3)
        return {"correlation": {"bloch_a": draw(vectors), "bloch_b": draw(vectors),
                                "g": draw(st.lists(rows, max_size=3))}}
    pairs = st.lists(st.tuples(_NUMBERS, _NUMBERS).map(list), min_size=4, max_size=4)
    setting = st.one_of(_unit_vectors().map(_qubit_setting), st.lists(pairs, max_size=3))
    index = st.integers(-1, 2)
    coefficient = st.fixed_dictionaries({"a": index, "b": index, "x": index, "y": index,
                                         "c": _NUMBERS})
    return {
        "dims": draw(st.sampled_from([[2, 2], [2, 2], [1, 2], [0, 2], [2]])),
        "measurements": {"alice": draw(st.lists(setting, max_size=2)),
                         "bob": draw(st.lists(setting, max_size=2))},
        "coefficients": draw(st.lists(coefficient, max_size=8)),
    }


@st.composite
def _argvs(draw):
    """argv for every command but i3322-check, with the scenario document that a
    bound --scenario call reads (or None); tables have at most 2,500 rows."""
    command = draw(st.sampled_from(
        ["bound", "chsh-curve", "steering-curve", "heatmap", "min-resources", "relent-compare"]
    ))
    if command == "bound":
        doc = draw(st.one_of(st.none(), _scenario_docs()))
        source = (["--builtin", draw(st.sampled_from(["chsh-c4", "i3322", "steering-f2"]))]
                  if doc is None else ["--scenario", "SCENARIO"])
        value = f"--{draw(st.sampled_from(['value', 'target']))}={draw(_NUMBER_TEXT)}"
        measure = f"--measure={draw(st.sampled_from(['probustness', 'renyi2', 'relent']))}"
        return [command, *source, value, measure], doc
    if command == "heatmap":
        grids = [f"--ca-grid={draw(_grid_text(50))}", f"--cb-grid={draw(_grid_text(50))}"]
    else:
        option = {"chsh-curve": "c-grid", "steering-curve": "ca-grid",
                  "min-resources": "v-grid", "relent-compare": "c-grid"}[command]
        grids = [f"--{option}={draw(_grid_text(2500))}"]
    v = [] if command == "min-resources" else [f"--v={draw(_NUMBER_TEXT)}"]
    return [command, *v, *grids], None


@settings(max_examples=300)
@given(case=_argvs())
# a Bloch vector whose squared norm overflows
@example(case=(["bound", "--scenario", "SCENARIO", "--value=0.2"],
               {"correlation": {"bloch_a": [[0.0, 0.0, 1.0]], "bloch_b": [[0.0, 0.0, 1.4e154]],
                                "g": [[1.0]]}}))
# a POVM entry 1j * inf
@example(case=(["bound", "--scenario", "SCENARIO", "--value=0.0"],
               {"dims": [2, 2], "measurements": {
                   "alice": [], "bob": [[[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, np.inf]]]]},
                "coefficients": []}))
# grid points past the float range
@example(case=(["chsh-curve", "--v=0.0", "--c-grid=0.0:1.7976931348623157e+308:220"], None))
# a violation whose rank-2 step overflows
@example(case=(["chsh-curve", "--v=6.940900166934938e+304", "--c-grid=0.0:1.0:1296"], None))
def test_main_returns_an_exit_code_and_prints_nothing_on_input_errors(case):
    argv, doc = case
    with tempfile.TemporaryDirectory() as scratch:
        if doc is not None:
            path = os.path.join(scratch, "scenario.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = [path if arg == "SCENARIO" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.getvalue() == ""
