"""CLI surface: subcommands, formats, exit codes."""

import json

import numpy as np
import pytest

from fracdim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_points(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--points", "9", "--d", "1",
                           "--seed", "7", "--drift", "zero")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "t,b_1,f_1"
    assert len(lines) == 10  # header + 9 samples
    assert lines[1] == "0,0,0"


def test_simulate_levy(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--levy-depth", "3", "--d", "1", "--seed", "7")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 10
    assert lines[1].startswith("0,0,")


def test_simulate_staircase_drift_values(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--drift", "psi_n:16",
                           "--points", "65", "--seed", "1")
    assert code == 0
    drift_col = {line.split(",")[2] for line in out.strip().splitlines()[1:]}
    assert drift_col == {"0.25", "0.375"}


def test_simulate_bad_drift_names_token(capsys):
    code, _, err = run_cli(capsys, "simulate", "--drift", "wiggle:2")
    assert code == 2
    assert "wiggle" in err


def test_simulate_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--points", "33", "--seed", "5", "--out", str(f1)]) == 0
    assert main(["simulate", "--points", "33", "--seed", "5", "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_dims_constant_input_graph_slope_one(capsys, tmp_path):
    csv = tmp_path / "const.csv"
    ts = np.linspace(0, 1, 2**10 + 1)
    csv.write_text("t,b_1,f_1\n" + "".join(f"{t:.17g},0.5,0\n" for t in ts))
    code, out, _ = run_cli(capsys, "dims", "--input", str(csv), "--object", "graph",
                           "--method", "box", "--scales", "2:6")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert abs(payload["estimate"]["ls_slope"] - 1.0) < 0.1
    assert payload["config"]["scales"] == [2, 6]


def test_dims_single_point_slope_zero(capsys, tmp_path):
    csv = tmp_path / "pt.csv"
    csv.write_text("t,b_1,f_1\n0.3,0.7,0\n")
    code, out, _ = run_cli(capsys, "dims", "--input", str(csv), "--object", "image",
                           "--method", "box", "--scales", "2:6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,epsilon,value,kind"
    series_vals = {line.split(",")[2] for line in lines[1:6]}
    assert series_vals == {"1"}
    payload = json.loads(lines[-1])
    assert payload["estimate"]["ls_slope"] == 0.0


def test_dims_bm_graph_window(capsys):
    code, out, _ = run_cli(capsys, "dims", "--points", str(2**18 + 1), "--seed", "2",
                           "--object", "graph", "--method", "box", "--scales", "5:11")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert 1.40 <= payload["estimate"]["ls_slope"] <= 1.60


def test_dims_incompatible_method(capsys, tmp_path):
    csv = tmp_path / "p4.csv"
    csv.write_text("t,b_1,b_2,b_3,b_4,f_1,f_2,f_3,f_4\n" +
                   "0,0,0,0,0,0,0,0,0\n0.5,1,1,1,1,0,0,0,0\n1,2,2,2,2,0,0,0,0\n")
    code, _, err = run_cli(capsys, "dims", "--input", str(csv), "--object", "image",
                           "--method", "sausage", "--scales", "2:6")
    assert code == 2
    assert "dimension-unsupported" in err


def test_dims_writes_files(capsys, tmp_path):
    prefix = tmp_path / "run"
    code, _, _ = run_cli(capsys, "dims", "--points", "1025", "--seed", "3",
                         "--object", "graph", "--method", "box", "--scales", "2:6",
                         "--out", str(prefix))
    assert code == 0
    assert (tmp_path / "run.csv").exists() and (tmp_path / "run.json").exists()
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["config"]["seed"] == 3


def test_bounds_formulas(capsys):
    code, out, _ = run_cli(capsys, "bounds", "image", "--alpha", "0.5", "--d", "1")
    assert code == 0
    assert abs(json.loads(out)["value"] - 2 / 3) < 1e-12
    code, out, _ = run_cli(capsys, "bounds", "holder", "--L", "1", "--gamma", "0.5",
                           "--beta", "1", "--eps", "0.01")
    assert json.loads(out)["value"] == 65
    code, out, _ = run_cli(capsys, "bounds", "psi-count", "--n", "256")
    assert json.loads(out)["value"] == 1024.0
    code, out, _ = run_cli(capsys, "bounds", "tail", "--schedule", "desk",
                           "--truncation", "3")
    assert abs(json.loads(out)["value"] - 4.0**-1.5 / (1 - 4.0**-0.25)) < 1e-12


def test_bounds_out_of_domain(capsys):
    code, _, err = run_cli(capsys, "bounds", "image", "--alpha", "1.5", "--d", "1")
    assert code == 2 and "alpha" in err


def test_experiment_unknown_claim_lists_ids(capsys):
    code, _, err = run_cli(capsys, "experiment", "--name", "bogus")
    assert code == 2
    for cid in ("constancy", "thm13-image", "thm15-graph", "thm16-equality",
                "cor14-bound", "example-53", "example-74-directional"):
        assert cid in err


def _tiny_config(tmp_path, target):
    cfg = {
        "tolerances": {
            "constancy_iqr": 0.05, "inequality_slack": 0.10, "equality_tol": 0.10,
            "corollary_below": 0.10, "corollary_above": 0.15,
            "example74_min_gap": 0.03,
        },
        "experiments": {
            "example-53": {
                "schedule": "custom(16,64)", "truncation": 2, "points": 2**11 + 1,
                "scales": [3, 8], "seeds": [1, 2, 3, 4, 5, 6, 7, 8],
                "target": target,
            },
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_runs_and_exit_codes(capsys, tmp_path):
    # measured graph dimension of the tiny staircase sum, frozen by this test
    import fracdim as fd
    from fracdim.metrics import PointCloud

    breaks, values = fd.lacunary_steps((16, 64))
    ts = np.linspace(0, 1, 2**11 + 1)
    idx = np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, values.size - 1)
    cloud = PointCloud.from_points(np.column_stack([ts, values[idx]]))
    est = fd.estimate_dimension(fd.scale_sweep(cloud, "box", 3, 8))

    good = _tiny_config(tmp_path, [round(est.ls_slope, 4), 0.15])
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "experiment", "--name", "example-53",
                           "--config", str(good), "--out", str(out_file))
    assert code == 0, err
    report = json.loads(out_file.read_text())
    assert report["verdicts"][0]["pass"] is True
    assert report["config"]["seeds"] == [1, 2, 3, 4, 5, 6, 7, 8]

    bad = _tiny_config(tmp_path, [9.9, 0.0001])
    code, _, _ = run_cli(capsys, "experiment", "--name", "example-53",
                         "--config", str(bad))
    assert code == 1


def test_experiment_reports_are_reproducible(capsys, tmp_path):
    cfg = _tiny_config(tmp_path, [1.0, 5.0])
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["experiment", "--name", "example-53", "--config", str(cfg),
                 "--out", str(f1)]) == 0
    assert main(["experiment", "--name", "example-53", "--config", str(cfg),
                 "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("claim", ["constancy", "example-53"])
def test_experiment_domain_error_exits_2_and_names_code_claim_seed(capsys, tmp_path, claim):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    cfg["experiments"]["constancy"] = {"drift": "zero", "points": 20000000,
                                       "scales": [3, 8], "seeds": [5, 6]}
    cfg["experiments"]["example-53"].update(points=20000000, seeds=[5, 6])
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", claim, "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: grid-too-large: claim '{claim}': seed 5: ")
