"""CLI surface: subcommands, formats, exit codes."""

import argparse
import hashlib
import io
import json
import os

import numpy as np
import pytest

from fracdim import cli, experiments
from fracdim.cli import main
from fracdim.metrics import METHOD_KINDS


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


@pytest.mark.parametrize("argv, word", [
    (["--drift", "lacunary:custom(16,64):5"], "truncation=5"),
    (["--drift", "linear:nan"], "finite"),
    (["--drift", "linear:1,-inf", "--d", "2"], "finite"),
    (["--set", "dyadic:4"], "dyadic:4"),
    (["--set", "power:nan"], "positive finite beta"),
    (["--set", "power:0"], "positive finite beta"),
    (["--d", str(10**12)], "grid-too-large"),
    (["--d", "0"], "d=0"),
])
def test_simulate_refuses_invalid_generation_flags(capsys, argv, word):
    code, out, err = run_cli(capsys, "simulate", "--points", "65", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and word in err


@pytest.mark.parametrize("beta", ["nan", "0", "-1"])
def test_dims_refuses_the_beta_that_the_config_refuses(capsys, beta):
    code, out, err = run_cli(capsys, "dims", "--points", "65", "--set", f"power:{beta}")
    assert code == 2 and out == ""
    assert err == f"error: bad set 'power:{beta}'; power:<beta> needs a positive finite beta\n"


def test_simulate_bad_drift_names_token(capsys):
    code, _, err = run_cli(capsys, "simulate", "--drift", "wiggle:2")
    assert code == 2
    assert "wiggle" in err


def _drift_table(path, rows):
    """Write ``rows`` of ``t,v_1..v_d`` to ``path`` and return ``table:<path>``."""
    path.write_text("".join(",".join(str(x) for x in row) + "\n" for row in rows))
    return f"table:{path}"


def _drift_columns(out, d):
    """The ``f_1..f_d`` columns of a sample-path CSV, as lists."""
    rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    return [rows[:, 1 + d + a].tolist() for a in range(d)]


def test_simulate_table_drift_holds_its_right_continuous_steps(capsys, tmp_path):
    drift = _drift_table(tmp_path / "t.csv", [(0, 1.5), (0.25, -2), (0.5, 0.75)])
    code, out, _ = run_cli(capsys, "simulate", "--points", "9", "--drift", drift)
    assert code == 0
    # at t = k/8; each jump time takes the step that starts there
    assert _drift_columns(out, 1) == [[1.5, 1.5, -2, -2, 0.75, 0.75, 0.75, 0.75, 0.75]]


def test_simulate_table_drift_in_two_dimensions(capsys, tmp_path):
    drift = _drift_table(tmp_path / "t.csv", [(0, 1, -1), (0.5, 2, 3)])
    code, out, _ = run_cli(capsys, "simulate", "--points", "5", "--d", "2", "--drift", drift)
    assert code == 0
    assert _drift_columns(out, 2) == [[1, 1, 2, 2, 2], [-1, -1, 3, 3, 3]]


def test_simulate_table_drift_from_a_path_with_colons(capsys, tmp_path):
    (tmp_path / "a:b").mkdir()
    drift = _drift_table(tmp_path / "a:b" / "t:1.csv", [(0, 0.5), (0.5, 1)])
    code, out, err = run_cli(capsys, "simulate", "--points", "3", "--drift", drift)
    assert code == 0, err
    assert _drift_columns(out, 1) == [[0.5, 1, 1]]


@pytest.mark.parametrize("rows, word", [
    (None, "t.csv"),  # no file
    ([(0.25, 1), (0.5, 2)], "t=0"),
])
def test_simulate_refuses_a_table_drift_it_cannot_use(capsys, tmp_path, rows, word):
    path = tmp_path / "t.csv"
    drift = _drift_table(path, rows) if rows else f"table:{path}"
    code, out, err = run_cli(capsys, "simulate", "--points", "9", "--drift", drift)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err


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


@pytest.mark.parametrize("argv, message", [
    # premises that no scale breaks are refused before the first scale
    (["dims", "--object", "graph", "--d", "3", "--points", "65", "--method", "sausage",
      "--scales", "2:4"], "dimension-unsupported: sausage volumes computed for m <= 3 only"),
    (["dims", "--points", "64", "--scales", "2:4", "--method", "oscillation"],
     "not-dyadic-grid: need 2^J+1 samples, got 64"),
    # a scale past the samples' level is that scale's fault
    (["dims", "--points", "65", "--scales", "2:9", "--method", "oscillation"],
     "not-dyadic-grid: j = 7: column level 7 exceeds sample level 6"),
    (["experiment", "--name", "nope"],
     "unknown claim 'nope'; valid ids: constancy, thm13-image, thm15-graph, thm16-equality, "
     "cor14-bound, example-53, example-74-directional"),
    # one refine text for the flag and the config entry alike
    (["dims", "--points", "65", "--method", "sausage", "--scales", "2:4", "--refine", "1"],
     "refine=1; need refine >= 2"),
    (["dims", "--points", "65", "--scales", "4:5", "--out", "w2"],
     "window-too-small: need at least 3 scales inside the window"),
    # integers past the doubles: float(n) overflows from n = 2^1024 - 2^970,
    # which rounds up to 2^1024, the count n^(5/4) from about 2^819, and
    # r / refine for a refine of 10**400
    *((["bounds", "psi-count", "--n", str(n)], "frequency-too-large: n is too large for a double")
      for n in (2**1024 - 2**970, 2**1024 - 1, 2**1024)),
    (["bounds", "psi-count", "--n", str(2**820)],
     f"count-too-large: the count at eps = {2.0**-615!r} overflows"),
    (["dims", "--points", "65", "--method", "sausage", "--scales", "2:4", "--refine",
      str(10**400)], "sausage-too-fine: refine over 65536"),
])
def test_a_refusal_prints_its_message_alone(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_oscillation_count_past_int64_is_refused(capsys, tmp_path):
    # two columns of 1.2e19 at j = 2 once wrapped to INT64_MIN each and
    # cancelled out: the sweep printed a count of 2 and exited 0
    csv = tmp_path / "wrap.csv"
    csv.write_text("t,b_1,f_1\n0,0,0\n0.125,3e18,0\n0.25,0,0\n0.375,3e18,0\n0.5,0,0\n"
                   "0.625,0,0\n0.75,0,0\n0.875,0,0\n1,0,0\n")
    code, out, err = run_cli(capsys, "dims", "--input", str(csv), "--object", "graph",
                             "--method", "oscillation", "--scales", "0:2")
    assert (code, out, err) == (
        2, "", "error: cell-grid-too-large: j = 2: a column oscillation count of 2^63 or more\n")


def test_dims_offers_exactly_the_methods_of_metrics():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["dims"]._actions if a.dest == "method")
    assert method.choices == list(METHOD_KINDS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, word", [
    ("t,x,y\n0,1,2\n", "header 't,x,y'"),
    ("t,b_1,b_2,f_1\n0,1,2,3\n", "header 't,b_1,b_2,f_1'"),
    ("t\n0\n", "header 't'"),
    ("", "header ''"),
    ("t,b_1,f_1\n0,1,2,3,4\n0.5,1,2,3,4\n", "rows have 5 values"),
    ("t,b_1,f_1\n0\n0.5\n", "rows have 1 values"),
    ("t,b_1,f_1\n", "no rows"),
    ("t,b_1,f_1\n\n", "no rows"),
    # a one-row grid skips the increasing check, and NaN passed both range
    # comparisons, so this once printed a series
    ("t,b_1,f_1\nnan,0.25,0\n", "grid times must lie in [0, 1]"),
])
def test_dims_refuses_a_malformed_path_csv(capsys, tmp_path, text, word):
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    code, out, err = run_cli(capsys, "dims", "--input", str(csv), "--scales", "2:4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err


@pytest.mark.parametrize("argv", [
    ["dims", "--input", "missing.csv"],
    ["simulate", "--points", "9", "--out", "nodir/x.csv"],
    ["dims", "--points", "65", "--scales", "2:4", "--out", "nodir/x"],
    ["experiment", "--name", "cor14-bound", "--config", "missing.json"],
])
def test_a_file_that_cannot_be_opened_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and "No such file or directory" in last
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "nodir/p.csv"],
    ["dims", "--out", "nodir/x"],
    ["dims", "--scales", "4"],
    ["dims", "--scales", "9:3"],
    ["dims", "--scales=-2000:3"],
    # whatever the method; the sausage once built the path first
    *(["dims", "--points", "65", "--method", method, "--scales", "2:4", "--refine", "1",
       "--out", "rf"] for method in METHOD_KINDS),
    ["dims", "--refine", "0"],
    ["experiment", "--name", "all", "--out", "nodir/all.json"],
    # a window of two scales, which no estimate takes
    ["dims", "--points", "65", "--scales", "4:5", "--out", "w2"],
])
def test_a_bad_out_or_scales_exits_2_before_any_work(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "generate_bm", lambda *args: calls.append("generate_bm"))
    monkeypatch.setattr(cli, "run_claims", lambda *args: calls.append("run_claims"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_an_out_path_that_is_a_directory_is_refused(capsys, tmp_path):
    with pytest.raises(OSError, match="Is a directory$"):
        with cli._output(str(tmp_path)):
            pass
    code, out, err = run_cli(capsys, "simulate", "--points", "9", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {str(tmp_path)!r}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--drift", "wiggle:2", "--out", "kept"],
    ["dims", "--input", "missing.csv", "--out", "kept"],
    ["dims", "--points", "65", "--method", "oscillation", "--set", "power:1", "--out", "kept"],
    ["experiment", "--name", "cor14-bound", "--config", "missing.json", "--out", "kept"],
])
def test_a_failed_run_leaves_an_existing_out_file_as_it_was(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    kept = {name: f"old {name}\n".encode() for name in ("kept", "kept.csv", "kept.json")}
    for name, data in kept.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.splitlines()[-1].startswith("error: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == kept


def test_out_files_get_the_mode_open_would_give_them(capsys, tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    target = tmp_path / "p.csv"
    assert main(["simulate", "--points", "9", "--out", str(target)]) == 0
    capsys.readouterr()
    assert os.stat(target).st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


def test_dims_input_echoes_null_for_what_the_csv_does_not_record(capsys, tmp_path):
    csv = tmp_path / "p.csv"
    assert main(["simulate", "--levy-depth", "6", "--seed", "3", "--drift", "lacunary:desk:3",
                 "--out", str(csv)]) == 0
    # a generation flag at its default value is no conflict
    code, out, _ = run_cli(capsys, "dims", "--input", str(csv), "--scales", "2:4", "--seed", "0")
    config = json.loads(out.splitlines()[-1])["config"]
    assert code == 0
    assert (config["seed"], config["drift"], config["set"]) == (None, None, None)
    assert (config["d"], config["points"]) == (1, 65)


@pytest.mark.parametrize("flags, named", [
    (["--drift", "psi_n:64", "--set", "power:2"], "--drift, --set"),
    (["--seed", "3"], "--seed"),
    (["--points", "65"], "--points"),
    (["--levy-depth", "4"], "--levy-depth"),
    (["--d", "2"], "--d"),
])
def test_dims_input_refuses_generation_flags_it_would_ignore(capsys, tmp_path, monkeypatch,
                                                               flags, named):
    csv = tmp_path / "p.csv"
    csv.write_text("t,b_1,f_1\n0,0,0\n1,1,0\n")
    monkeypatch.setattr(cli, "read_path_csv", lambda fh: pytest.fail("read the CSV"))
    code, out, err = run_cli(capsys, "dims", "--input", str(csv), *flags)
    assert (code, out) == (2, "")
    assert err == f"error: --input reads the path from its CSV; drop {named}\n"


@pytest.mark.parametrize("command", [["simulate"], ["dims", "--scales", "2:4"]])
@pytest.mark.parametrize("flags, named", [
    (["--set", "power:2", "--points", "9999"], "--points, --set"),
    (["--set", "power:2"], "--set"),
    (["--points", "65"], "--points"),
])
def test_levy_depth_refuses_the_grid_flags_it_would_ignore(capsys, tmp_path, monkeypatch,
                                                           command, flags, named):
    for name in ("levy_construct", "generate_bm"):
        monkeypatch.setattr(cli, name, lambda *a: pytest.fail("built a path"))
    out_file = tmp_path / "p"
    code, out, err = run_cli(capsys, *command, "--levy-depth", "4", *flags,
                             "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == f"error: --levy-depth builds its own dyadic grid; drop {named}\n"
    assert list(tmp_path.iterdir()) == []


def test_levy_depth_takes_the_grid_flags_at_their_defaults(capsys):
    code, out, err = run_cli(capsys, "simulate", "--levy-depth", "4", "--points", "1025",
                             "--set", "uniform")
    assert code == 0 and len(out.splitlines()) == 18
    assert json.loads(err)["config"]["points"] == 17


def test_dims_writes_files(capsys, tmp_path):
    prefix = tmp_path / "run"
    code, _, _ = run_cli(capsys, "dims", "--points", "1025", "--seed", "3",
                         "--object", "graph", "--method", "box", "--scales", "2:6",
                         "--out", str(prefix))
    assert code == 0
    assert (tmp_path / "run.csv").exists() and (tmp_path / "run.json").exists()
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["config"]["seed"] == 3


@pytest.mark.parametrize("argv, digest", [
    (["--points", "1025", "--seed", "3", "--object", "graph", "--method", "box",
      "--scales", "2:6"], "a082d6b7a3b05e61233460c7e35d2f548adac54369c474f740eb161068cbc3bf"),
    (["--points", "257", "--d", "2", "--seed", "2", "--object", "image", "--method", "sausage",
      "--scales", "2:5"], "cd8c87c7f6b854a804feb3f3041663f22e3cc70e8e1358c0c17fa27ab7d52c2c"),
])
def test_dims_json_keeps_its_bytes(capsys, tmp_path, argv, digest):
    # json writes the estimate's tuples as the arrays a list gives
    assert main(["dims", *argv, "--out", str(tmp_path / "k")]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "k.json").read_bytes()).hexdigest() == digest


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
    code, _, err = run_cli(capsys, "bounds", "tail", "--schedule", "custom(16,64)",
                           "--truncation", "5")
    assert code == 2 and "truncation=5" in err
    holder = {"--L": "1", "--gamma": "0.5", "--beta": "1", "--eps": "0.01"}
    for flag, value, named in (("--L", "inf", "L must"), ("--L", "nan", "L must"),
                               ("--beta", "nan", "beta"), ("--beta", "inf", "beta"),
                               ("--eps", "inf", "epsilon"), ("--eps", "nan", "epsilon"),
                               ("--L", "1e308", "overflows")):
        argv = [x for key, v in {**holder, flag: value}.items() for x in (key, v)]
        code, out, err = run_cli(capsys, "bounds", "holder", *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and named in err


def test_bounds_psi_count_below_the_jump_size(capsys):
    # eps = 0.001 < 256^-3/4: the count is sqrt(n) / eps
    code, out, _ = run_cli(capsys, "bounds", "psi-count", "--n", "256", "--eps", "0.001")
    assert code == 0 and json.loads(out)["value"] == 16000.0


def test_oversized_integers_give_their_finite_answers(capsys):
    # eps**2 underflows to 0 from about n = 2^716; the count n^(5/4) at
    # eps = n^(-3/4) is exact here
    code, out, _ = run_cli(capsys, "bounds", "psi-count", "--n", str(2**720))
    assert code == 0 and json.loads(out)["value"] == 2.0**900
    # K + 2 is no double; the tail's terms are far below the smallest one
    code, out, _ = run_cli(capsys, "bounds", "tail", "--schedule", "desk",
                           "--truncation", str(10**400))
    assert code == 0 and json.loads(out)["value"] == 0.0


def test_an_oversized_sausage_refine_in_a_config_exits_2(capsys, tmp_path):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    cfg["experiments"]["constancy"] = {"points": 2**9 + 1, "scales": [3, 7],
                                       "seeds": list(range(1, 9)), "methods": ["sausage"],
                                       "refine": 10**400}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "constancy", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: sausage-too-fine: claim 'constancy': refine over 65536\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bounds_psi_count_refuses_n_below_one(capsys, n):
    code, out, err = run_cli(capsys, "bounds", "psi-count", "--n", n)
    assert (code, out, err) == (2, "", "error: n must be >= 1\n")


@pytest.mark.parametrize("scales", ["4", "4:x", "4:5:6", "", "4.0:9"])
def test_dims_refuses_malformed_scales(capsys, scales):
    code, out, err = run_cli(capsys, "dims", "--points", "65", "--scales", scales)
    assert (code, out) == (2, "")
    assert err == f"error: --scales must be jmin:jmax with two integers, got {scales!r}\n"


def test_dims_takes_a_negative_jmin_after_an_equals_sign(capsys):
    # a separate "-2:3" would read as a flag; "--scales=-2:3" is one argument
    code, out, _ = run_cli(capsys, "dims", "--points", "65", "--scales=-2:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,epsilon,value,kind"
    assert lines[1].split(",")[:2] == ["-2", "4"]


@pytest.mark.parametrize("eps", ["abc", "", "0.1x"])
def test_bounds_psi_count_refuses_malformed_eps(capsys, eps):
    code, out, err = run_cli(capsys, "bounds", "psi-count", "--n", "16", "--eps", eps)
    assert (code, out) == (2, "")
    assert err == f"error: --eps must be auto | <float>, got {eps!r}\n"


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

    # a failed verdict still writes its report
    bad = _tiny_config(tmp_path, [9.9, 0.0001])
    code, _, _ = run_cli(capsys, "experiment", "--name", "example-53",
                         "--config", str(bad), "--out", str(out_file))
    assert code == 1
    assert json.loads(out_file.read_text())["verdicts"][0]["pass"] is False


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
                                       "scales": [3, 8], "seeds": list(range(5, 13))}
    cfg["experiments"]["example-53"].update(points=20000000, seeds=[5, 6])
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", claim, "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: grid-too-large: claim '{claim}': seed 5: ")


def test_experiment_power_grid_over_the_point_cap_exits_2(capsys, tmp_path):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    cfg["experiments"]["thm13-image"] = {
        "drift": {"kind": "staircase_table", "n": 16, "d": 2}, "set": "power:1", "d": 2,
        "points": 20000000, "scales": [3, 7], "seeds": [5]}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "thm13-image", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: grid-too-large: claim 'thm13-image': ")


def test_experiment_refine_below_two_exits_2(capsys, tmp_path):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    cfg["experiments"]["constancy"] = {"drift": "zero", "points": 2**9 + 1, "scales": [3, 7],
                                       "seeds": [1], "methods": ["sausage"], "refine": 1}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "constancy", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "refine" in err


@pytest.mark.parametrize("fields, word", [
    ({"scales": [5]}, "scales"),
    ({"scales": 5}, "scales"),
    ({"scales": [3, "7"]}, "scales"),
    ({"scales": [-2000, 7]}, "scales"),
    ({"scales": [3, 10**12]}, "scales"),
    ({"d": 0}, "d=0"),
    ({"d": 0, "drift": {"kind": "staircase_table", "n": 16}}, "d=0"),
    ({"set": "power:-1"}, "beta"),
    ({"set": "power:nan"}, "beta"),
    ({"set": "dyadic:-1"}, "dyadic:-1"),
    ({"d": 1.5}, "d must be an integer"),
    ({"d": True}, "d must be an integer"),
    ({"points": 4097.9}, "points must be an integer"),
    ({"seeds": [1.7]}, "seed must be an integer"),
    ({"refine": 2.5}, "refine must be an integer"),
    ({"seeds": 5}, "seeds must be a non-empty list"),
    ({"methods": []}, "methods must be a non-empty list"),
    ({"target": [1.0]}, "target must be two numbers"),
    ({"drift": ["psi_n", 16]}, "unknown drift config"),
    ({"drift": {"kind": "staircase_table", "n": 16.0}}, "staircase_table n"),
    ({"beta": 1.0}, "'beta'"),
    ({"method": ["box"]}, "'method'"),
    # with a schedule the entry is an example entry, which has its own keys
    ({"schedule": "desk", "truncation": 2.5}, "truncation must be an integer"),
    ({"schedule": "desk", "truncation": 3, "method": ["box"]}, "'method'"),
    ({"schedule": "desk", "truncation": 3, "drift": "zero"}, "'drift'"),
    ({"schedule": "custom(16,64)", "truncation": 5}, "truncation=5"),
    ({"drift": "lacunary:custom(16,64):5"}, "truncation=5"),
    ({"drift": "linear:nan"}, "linear:nan"),
    ({"drift": "linear:inf"}, "linear:inf"),
    ({"set": "dyadic:6", "points": 4097}, "dyadic:6"),
    # resource guards, before anything of that size is allocated
    ({"d": 10**12}, "grid-too-large"),
    ({"drift": {"kind": "staircase_table", "n": 2**40}}, "grid-too-large"),
    ({"drift": {"kind": "staircase_table", "n": 0}}, "positive perfect-square"),
    ({"drift": {"kind": "staircase_table", "n": 16, "d": 2}}, "d=2 in a d=1 experiment"),
    ({"target": [1.1, True]}, "target must be two numbers"),
    ({"target": [float("nan"), 0.1]}, "target must be two numbers"),
    ({"target": [1.1, float("inf")]}, "target must be two numbers"),
    ({"seeds": [1] * 8}, "seeds must not repeat"),
])
def test_experiment_invalid_config_field_exits_2_with_one_error_line(
        capsys, tmp_path, fields, word):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    cfg["experiments"]["constancy"] = {"points": 2**9 + 1, "scales": [3, 7], "seeds": [1, 2],
                                       **fields}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "constancy", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err
    assert "claim 'constancy': " in err


@pytest.mark.parametrize("claim, entry, word", [
    # 4096 points are not a 2^J + 1 grid, so oscillation measures nothing
    ("constancy", {"points": 4096, "seeds": list(range(1, 9))}, "any object by oscillation"),
    # oscillation measures graphs only, never the images the check compares
    ("thm13-image", {"points": 2**9 + 1, "seeds": [1], "drift": "psi_n:16"},
     "image_sum by oscillation"),
    # the sausage measures nothing past 3-D, and the graph of a 3-D path is 4-D
    ("thm15-graph", {"points": 2**9 + 1, "seeds": [1], "d": 3, "drift": "linear:1,2,3",
                     "methods": ["sausage"]}, "graph_sum by sausage"),
])
def test_experiment_check_without_its_estimates_exits_2(capsys, tmp_path, claim, entry, word):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    cfg["experiments"][claim] = {"scales": [3, 7], "methods": ["oscillation"], **entry}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", claim, "--config", str(path))
    assert code == 2 and out == ""
    assert err == f"error: not-measured: claim '{claim}': {word}\n"


def test_experiment_missing_tolerance_exits_2_naming_claim_and_key(capsys, tmp_path):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    del cfg["tolerances"]["corollary_below"]
    cfg["experiments"]["cor14-bound"] = {"set": "power:1", "points": 2**9 + 1,
                                         "scales": [3, 7], "seeds": [1]}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "cor14-bound", "--config", str(path))
    assert code == 2 and out == ""
    assert err == "error: claim 'cor14-bound': missing tolerance 'corollary_below'\n"


def test_experiment_all_names_the_failing_claim_and_seed(capsys, tmp_path):
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    small = {"points": 2**9 + 1, "scales": [3, 7], "seeds": [5, 6, 7, 8, 9, 10, 11, 12]}
    cfg["experiments"].update({
        "constancy": dict(small, drift="psi_n:16"),
        "thm13-image": dict(small, drift={"kind": "staircase_table", "n": 16, "d": 2},
                            set="power:1", d=2),
        "thm15-graph": dict(small, drift="psi_n:16"),
        "thm16-equality": dict(small, drift="linear:5.0", points=20000000),
        "cor14-bound": dict(small, drift="zero", set="power:1"),
    })
    cfg["experiments"]["example-74-directional"] = cfg["experiments"]["example-53"]
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "all", "--config", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        "error: grid-too-large: claim 'thm16-equality': seed 5: ")


@pytest.mark.parametrize("claim, fields, start", [
    ("constancy", {"seeds": [1, 2]}, "insufficient-seeds: claim 'constancy': "),
    ("thm16-equality", {"drift": "psi_n:16"}, "drift-not-continuous: claim 'thm16-equality': "),
    ("thm16-equality", {"set": "power:1"}, "equality-needs-uniform-d1: claim 'thm16-equality': "),
    ("cor14-bound", {"set": "uniform"}, "not-power-grid: claim 'cor14-bound': "),
    ("cor14-bound", {"d": 2}, "corollary-needs-d1: claim 'cor14-bound': "),
    ("example-53", {"target": None}, "claim 'example-53': missing target [value, tolerance]"),
    # the entry's sweep rules: a window too small to estimate, and refine < 2
    ("constancy", {"scales": [6, 7]},
     "window-too-small: claim 'constancy': need at least 3 scales inside the window"),
    ("thm15-graph", {"refine": 1}, "claim 'thm15-graph': refine=1; need refine >= 2"),
    # and a sausage refine too fine at every scale
    ("thm15-graph", {"methods": ["box", "sausage"], "refine": 2**16 + 1},
     "sausage-too-fine: claim 'thm15-graph': refine over 65536"),
])
def test_experiment_all_refuses_a_claim_it_cannot_judge_before_any_seed_runs(
        capsys, tmp_path, monkeypatch, claim, fields, start):
    calls = []
    for name in ("seed_estimates", "build_grid", "_estimates", "scale_sweep"):
        monkeypatch.setattr(experiments, name, lambda *args, name=name: calls.append(name))
    path = _tiny_config(tmp_path, [1.0, 5.0])
    cfg = json.loads(path.read_text())
    small = {"points": 2**9 + 1, "scales": [3, 7], "seeds": [5, 6, 7, 8, 9, 10, 11, 12]}
    cfg["experiments"].update({
        "constancy": dict(small, drift="psi_n:16"),
        "thm13-image": dict(small, drift={"kind": "staircase_table", "n": 16, "d": 2},
                            set="power:1", d=2),
        "thm15-graph": dict(small, drift="psi_n:16"),
        "thm16-equality": dict(small, drift="linear:5.0"),
        "cor14-bound": dict(small, drift="zero", set="power:1"),
        "example-74-directional": dict(cfg["experiments"]["example-53"]),
    })
    cfg["experiments"][claim].update(fields)
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--name", "all", "--config", str(path))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: " + start) and err.count("\n") == 1  # and no PASS line


TINY_ENTRY = {"set": "power:1", "points": 2**9 + 1, "scales": [3, 7], "seeds": [1]}


@pytest.mark.parametrize("config, message", [
    *[(top, f"must hold a JSON object, got {top!r}") for top in ([], 5, "x", None)],
    *[({"experiments": value}, f"config key 'experiments' must be an object, got {value!r}")
      for value in (None, [], 5, "x")],
    *[({"tolerances": value, "experiments": {"cor14-bound": TINY_ENTRY}},
       f"config key 'tolerances' must be an object, got {value!r}")
      for value in (None, [], 5, "x")],
    ({"experiments": {"constancy": TINY_ENTRY}},
     "claim 'cor14-bound': no entry under config key 'experiments'"),
])
def test_experiment_config_of_the_wrong_shape_exits_2_with_one_error_line(
        capsys, tmp_path, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "experiment", "--name", "cor14-bound", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
