"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellres import barrier, cli, twoqubit
from bellres.errors import SolverFailure

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

    def test_infeasible_exits_2(self, capsys):
        code, out, _ = run(capsys, ["bound", "--builtin", "chsh-c4", "--target", "3.0"])
        assert code == 2
        assert json.loads(out)["feasible"] is False

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


class TestGoldenOutputs:
    # sha256 of the README commands' stdout, recorded from the per-point loop
    # implementation; the array code must print the same bytes
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
                "73e322aa51faa6622a3cc3cf9ea8b05666f479c46abfbb29461c88531eecf150",
            ),
        ],
        ids=["chsh-curve", "steering-curve", "min-resources", "relent-compare"],
    )
    def test_readme_csv_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBoundGolden:
    # sha256 of the bound command's JSON stdout, recorded before the closed
    # forms were rewritten around shared helpers; the outputs must keep their bytes
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["chsh-c4", "--value", "0.2", "--measure", "probustness"],
             "7e6de61a876e6aa3b88c1307fea7c30da01b60b1a23e39be35bf2912ee11c3cc"),
            (["chsh-c4", "--value", "0.2", "--measure", "relent"],
             "dae1b4bf74d899583f3c1687043cb5574e0be164385e767302aaf8a66cb80e4d"),
            (["i3322", "--target", "4.001", "--measure", "probustness"],
             "cd690130399e142e8423277f386c8d456452c35129273d089ceb3210bd01e8de"),
            (["i3322", "--target", "4.001", "--measure", "relent"],
             "01603537524f5a9d6066dbab858d85370516db768e67a487002f07e9923d98ee"),
            (["steering-f2", "--value", "0.3", "--measure", "probustness"],
             "9ec668451382b5bd333503b5fcb2951e3ba036a79970a74230f5ddd922e234f0"),
            (["steering-f2", "--value", "0.3", "--measure", "relent"],
             "91bea30c11f8897221ac1090011a61e9ec235cfb96eaa2d1d4172b35790b9a8d"),
        ],
        ids=[f"{builtin}-{measure}" for builtin in ("chsh-c4", "i3322", "steering-f2")
             for measure in ("probustness", "relent")],
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


class TestRelentCompare:
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

    def test_cr_search_failure_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverFailure("no solve")

        monkeypatch.setattr(twoqubit, "cr_min_for_value", fail)
        code, out, err = run(capsys, ["i3322-check", "--restarts", "1"])
        assert code == 3
        assert out == ""
        assert "solver failure" in err

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
