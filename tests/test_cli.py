import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from sigma2lab.cli import main
from sigma2lab.core_ops import Grid, ScalarField
from sigma2lab.candidates import Quadratic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured


# ---------------------------------------------------------------------------
# exit codes


def test_verify_solution_exits_zero(capsys):
    code, doc, _ = run(capsys, "verify", "--candidate", "counterexample", "--points", "500")
    assert code == 0
    assert doc["pass"] is True
    assert doc["subcommand"] == "verify"
    (chk,) = doc["checks"]
    assert chk["name"] == "max_abs_residual"
    assert chk["value"] <= 1e-12


def test_verify_off_solution_exits_one(capsys):
    code, doc, _ = run(
        capsys, "verify", "--candidate", "counterexample", "--kappa", "0.9", "--points", "200"
    )
    assert code == 1
    assert doc["pass"] is False
    assert doc["checks"][0]["value"] > 0.1


def test_config_error_exits_two(capsys):
    code, doc, captured = run(
        capsys, "verify", "--candidate", "quadratic", "--A", "1,0,0;0,1,0;0,0,1"
    )
    assert code == 2
    assert doc is None
    assert "configuration error" in captured.err


def test_solver_error_exits_three(capsys):
    code, doc, captured = run(
        capsys,
        "solve",
        "--candidate",
        "counterexample",
        "--grid",
        "3,-1..1,9",
        "--max-iter",
        "1",
    )
    assert code == 3
    assert "solver failure: MaxIterExceeded" in captured.err
    # the partial report rides along on stderr
    partial = json.loads(captured.err.split("\n", 1)[1])
    assert partial["converged"] is False


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# report envelope


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ("verify", "--candidate", "counterexample", "--points", "300", "--seed", "11")
    _, _, first = run(capsys, *argv)
    _, _, second = run(capsys, *argv)
    assert first.out == second.out


def test_envelope_schema(capsys):
    code, doc, _ = run(capsys, "verify", "--candidate", "quadratic", "--points", "100")
    assert code == 0
    for key in ("subcommand", "tool", "config", "seed", "checks", "pass"):
        assert key in doc
    assert doc["tool"]["name"] == "sigma2lab"
    for chk in doc["checks"]:
        assert set(chk) == {"name", "value", "tolerance", "pass"}
        assert isinstance(chk["pass"], bool)


def test_out_directory_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, doc, _ = run(
        capsys,
        "verify",
        "--candidate",
        "counterexample",
        "--points",
        "50",
        "--out",
        str(out),
    )
    assert code == 0
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == doc
    with open(out / "residuals.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "x2", "residual"]
    assert len(rows) == 51


# ---------------------------------------------------------------------------
# the individual subcommands, happy paths


def test_curvature_raw_and_rescaled(capsys):
    code, doc, _ = run(capsys, "curvature", "--candidate", "counterexample", "--sample", "200")
    assert code == 0
    assert doc["det_target"] == pytest.approx(1 / 16)
    probe = doc["probes"][0]
    assert probe["riemann_norm_sq"] <= 1e-10
    assert probe["ricci_max_abs"] <= 1e-10

    code, doc, _ = run(
        capsys, "curvature", "--candidate", "counterexample", "--sample", "200", "--rescaled"
    )
    assert code == 0
    assert doc["det_target"] == pytest.approx(1.0)


def test_solve_writes_loadable_solution(tmp_path, capsys):
    out = tmp_path / "sol"
    code, doc, _ = run(
        capsys,
        "solve",
        "--candidate",
        "quadratic",
        "--grid",
        "3,-1..1,9",
        "--out",
        str(out),
    )
    assert code == 0
    assert doc["pass"] is True
    back = ScalarField.load(out / "solution")
    exact = ScalarField.sample(back.grid, Quadratic.standard(3))
    assert np.abs(back.values - exact.values).max() <= 1e-9


def test_solve_accepts_per_axis_grid(capsys):
    # '=' keeps argparse from reading the leading '-1' as an option
    code, doc, _ = run(
        capsys, "solve", "--candidate", "quadratic", "--grid=-1..1:7,-1..1:5,0..2:5"
    )
    assert code == 0
    assert doc["config"]["grid"] == "-1..1:7,-1..1:5,0..2:5"
    assert doc["solve_report"]["converged"] is True


def test_rigidity_command(tmp_path, capsys):
    out = tmp_path / "rig"
    code, doc, _ = run(
        capsys,
        "rigidity",
        "--candidate",
        "quadratic",
        "--eps",
        "0.1",
        "--sizes",
        "1,2",
        "--h",
        "0.25",
        "--out",
        str(out),
    )
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "all_rows_converged" in names and "osc_u11_non_increasing" in names
    assert all(c["pass"] for c in doc["checks"])
    with open(out / "rigidity.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + two box sizes


def test_barrier_command(capsys):
    code, doc, _ = run(capsys, "barrier", "--candidate", "quadratic", "--level", "1.0")
    assert code == 0
    assert doc["checks"][0]["name"] == "barrier_inequality"
    assert doc["barrier"]["value"] == pytest.approx(0.25, abs=1e-8)


def test_legendre_command_round_trip(capsys):
    code, doc, _ = run(capsys, "legendre", "--candidate", "quadratic")
    assert code == 0
    assert doc["round_trip_max"] <= 1e-10


def test_classify_command_verdicts(capsys):
    code, doc, _ = run(capsys, "classify", "--candidate", "quadratic")
    assert code == 0 and doc["verdict"] == "He-form"
    code, doc, _ = run(capsys, "classify", "--candidate", "counterexample")
    assert code == 0 and doc["verdict"] == "NOT-He-form"


def test_convergence_command(capsys):
    code, doc, _ = run(
        capsys,
        "convergence",
        "--candidate",
        "counterexample",
        "--h-list",
        "0.25,0.125",
        "--ratio-lo",
        "3",
        "--ratio-hi",
        "5",
    )
    assert code == 0
    assert len(doc["rows"]) == 2
    assert doc["rows"][1]["interior_max_error"] < doc["rows"][0]["interior_max_error"]


def test_field_round_trip_through_cli(tmp_path, capsys):
    g = Grid(((-1.0, 1.0),) * 3, (17, 17, 17))
    ScalarField.sample(g, Quadratic.standard(3)).save(tmp_path / "q")
    code, doc, _ = run(capsys, "classify", "--field", str(tmp_path / "q"))
    assert code == 0
    assert doc["verdict"] == "He-form"
    code, doc, _ = run(capsys, "legendre", "--field", str(tmp_path / "q"))
    assert code == 0
    assert "round_trip_max" not in doc  # no exact inverse available for fields


def test_inline_json_candidate(capsys):
    spec = json.dumps({"variant": "counterexample", "kappa": 0.25})
    code, doc, _ = run(capsys, "verify", "--candidate", spec, "--points", "100")
    assert code == 0 and doc["pass"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sigma2lab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sigma2lab" in proc.stdout


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "sigma2lab.cli", *argv], capture_output=True, text=True
    )


def test_verify_with_zero_points_is_a_config_error():
    proc = _run_module("verify", "--candidate", "counterexample", "--points", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("configuration error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_overflowing_boundary_data_fails_with_a_message():
    proc = _run_module(
        "solve", "--candidate", "counterexample", "--grid", "3,-1..1,9", "--kappa", "1e300"
    )
    assert proc.returncode in (2, 3)
    assert proc.stderr.startswith(("configuration error:", "solver failure:"))
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _assert_config_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("configuration error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_field_with_missing_payload_is_a_config_error(tmp_path):
    g = Grid(((-1.0, 1.0),) * 3, (5, 5, 5))
    ScalarField.sample(g, Quadratic.standard(3)).save(tmp_path / "q")
    (tmp_path / "q.fld.bin").unlink()
    _assert_config_error(_run_module("classify", "--field", str(tmp_path / "q")))


def test_non_numeric_probe_point_is_a_config_error():
    _assert_config_error(
        _run_module("curvature", "--candidate", "counterexample", "--points", "0,0,x,0")
    )


@pytest.mark.parametrize("shape", ["a,3", "0,3", "9"])
def test_bad_legendre_shape_is_a_config_error(shape):
    _assert_config_error(
        _run_module("legendre", "--candidate", "counterexample", "--shape", shape)
    )


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; no state may carry between calls
    calls = [
        ["verify", "--candidate", "counterexample", "--points", "300", "--out", str(tmp_path / "v")],
        ["curvature", "--candidate", "counterexample", "--sample", "50",
         "--points", "0,0,1,0;0.2,0.1,-0.3,0.5", "--rescaled"],
        ["verify", "--candidate", "counterexample", "--kappa", "0.9", "--points", "20"],
        ["curvature", "--candidate", "counterexample", "--sample", "40"],
        ["legendre", "--candidate", "quadratic", "--shape", "5,5", "--z-count", "9",
         "--out", str(tmp_path / "l")],
        ["verify", "--candidate", "counterexample"],
        ["barrier", "--candidate", "quadratic", "--level", "0.5", "--seed", "3"],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    for argv, (code, out) in zip(calls, in_process):
        proc = _run_module(*argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv
