import argparse
import ast
import contextlib
import csv
import importlib
import importlib.util
import io
import json
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sigma2lab
from sigma2lab.analysis import _ROOT_BLOCK
from sigma2lab import cli
from sigma2lab.cli import _parser, _write_grid_csv, main
from sigma2lab.core_ops import Grid, ScalarField
from sigma2lab.candidates import HarmonicPoly, Quadratic, make_he_form


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


@pytest.mark.parametrize(
    "kappa, level, tol",
    [("100", "13x13x13", 1e-10 * 11**1.5), ("1000", "7x7x7", 1e-10 * 5**1.5)],
    ids=["kappa100", "kappa1000"],
)
def test_auto_start_failure_names_the_ladder_level_of_its_report(kappa, level, tol):
    # at 25^3 these solves stop inside the auto start, on a coarser level than
    # the one asked for; the partial report, with that level's tol, is the level's
    code, out, err = _main_in_process(
        "solve", "--candidate", "counterexample", "--kappa", kappa, "--grid", "3,-1..1,25"
    )
    assert (code, out) == (3, "")
    head, body = err.split("\n", 1)
    assert head == f"solver failure: MaxIterExceeded: auto start, level {level}: " + (
        "line search exhausted 30 halvings at iteration 2"
    )
    assert json.loads(body)["tol"] == pytest.approx(tol, rel=1e-15)


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


def test_rigidity_at_h_one_fourteenth_exits_zero():
    # its L = 1 row once ended in EllipticityLost: the calibrated start kept
    # u_tt > 0 but not sigma2 > 0
    argv = ["rigidity", "--candidate", "quadratic", "--eps", "0.1", "--sizes", "1,2,4",
            "--h", "0.0714285714285714"]
    proc = subprocess.run([sys.executable, "-m", "sigma2lab.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    checks = {c["name"]: c["pass"] for c in json.loads(proc.stdout)["checks"]}
    assert checks["all_rows_converged"] and checks["osc_u11_non_increasing"]


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


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


@pytest.mark.parametrize(
    "fn",
    [lambda t, x, y: t + x**2 + y**2, lambda t, x, y: -(t**2) + x**2 + y**2],
    ids=["u_tt_zero", "u_tt_negative"],
)
def test_classify_field_with_constant_nonpositive_u_tt_is_not_he_form(fn, tmp_path, capsys):
    # He's form a t^2 + t b + g needs a > 0; a constant u_tt <= 0 is not it
    g = Grid(((-1.0, 1.0),) * 3, (9, 9, 9))
    oracles.field_from_callable(g, fn).save(tmp_path / "u")
    code = main(["classify", "--field", str(tmp_path / "u")])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    assert doc["verdict"] == "NOT-He-form"
    assert doc["a"] is None and doc["poisson_residual_max"] is None


def test_classify_concave_quadratic_is_not_he_form():
    # sigma2~(A) = (-1)(-1) = 1, but u_tt = -1: a solution, not of He's form
    spec = json.dumps({"variant": "quadratic", "A": [[-1, 0, 0], [0, -0.5, 0], [0, 0, -0.5]]})
    proc = _run_module("classify", "--candidate", spec)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert doc["verdict"] == "NOT-He-form"
    assert doc["a"] is None and doc["osc_u11"] == 0.0 and doc["u11_min"] == -1.0


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


def test_console_script_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["sigma2lab"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exit_info:
        entry(["--version"])
    assert exit_info.value.code == 0


_ENCODED = """{
  "checks": [
    {
      "name": "c",
      "pass": true,
      "tolerance": null,
      "value": 0.25
    }
  ],
  "complex": {
    "im": -2.0,
    "re": 1.5
  },
  "complex_array": [
    [
      {
        "im": 2.0,
        "re": 1.0
      },
      {
        "im": -0.5,
        "re": -0.0
      }
    ]
  ],
  "config": {
    "flag": true,
    "out": null,
    "seed": 4,
    "spans": [
      0.5,
      -1
    ]
  },
  "inf": [
    Infinity,
    -Infinity
  ],
  "nan": NaN,
  "neg_zero": -0.0,
  "nested": [
    [
      1,
      2.5
    ],
    [
      3,
      [
        null,
        "s"
      ]
    ]
  ],
  "none": null,
  "np_bool": true,
  "np_float32": 0.10000000149011612,
  "np_float64": 0.3333333333333333,
  "np_int64": -7,
  "pass": true,
  "seed": 4,
  "subcommand": "encode",
  "tool": {
    "name": "sigma2lab",
    "version": "%s"
  }
}
"""


def test_report_encoder_writes_every_type_it_meets(capsys):
    payload = {
        "nan": float("nan"),
        "inf": [float("inf"), -float("inf")],
        "neg_zero": -0.0,
        "np_bool": np.bool_(True),
        "np_int64": np.int64(-7),
        "np_float32": np.float32(0.1),
        "np_float64": np.float64(1.0) / 3.0,
        "complex": 1.5 - 2j,
        "complex_array": np.array([[1 + 2j, -0.5j]]),
        "nested": ((1, 2.5), (np.int64(3), (None, "s"))),
        "none": None,
    }
    args = argparse.Namespace(seed=np.int64(4), out=None, func=print, flag=True, spans=(0.5, -1))
    check = cli._check("c", np.float64(0.25), None, np.bool_(True))
    assert cli._emit(args, "encode", [check], payload) == 0
    assert capsys.readouterr().out == _ENCODED % sigma2lab.__version__


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


_SOLVE_9 = ["solve", "--candidate", "counterexample", "--grid", "3,-1..1,9"]
_HE_FORM_BAD_KEY = {"variant": "he_form", "a": 0.5, "nvars": 2, "b": {"x": 1.0}, "g": {}}


@pytest.mark.parametrize(
    "argv",
    [
        ["rigidity", "--candidate", "quadratic", "--sizes", "a"],
        ["rigidity", "--candidate", "quadratic", "--sizes", "1"],
        ["rigidity", "--candidate", "quadratic", "--h", "0"],
        ["rigidity", "--candidate", "quadratic", "--h", "nan"],
        ["convergence", "--candidate", "counterexample", "--h-list", "a"],
        ["convergence", "--candidate", "counterexample", "--h-list", "0.5,0"],
        ["verify", "--candidate", '{"variant": "quadratic"}'],
        ["verify", "--candidate", '{"variant": "he_form"}'],
        ["verify", "--candidate", '{"variant": "quadratic", "A": "x"}'],
        ["verify", "--candidate", json.dumps(_HE_FORM_BAD_KEY)],
        ["barrier", "--candidate", "quadratic", "--samples", "0"],
        [*_SOLVE_9, "--tol", "nan"],
        [*_SOLVE_9, "--tol=-1"],
        [*_SOLVE_9, "--tol", "0"],
        [*_SOLVE_9, "--tol", "inf"],
        ["rigidity", "--candidate", "quadratic", "--tol", "nan"],
        ["convergence", "--candidate", "counterexample", "--h-list", "0.5", "--tol=-1"],
        ["legendre", "--candidate", "counterexample", "--z-count=-3"],
        ["legendre", "--candidate", "counterexample", "--z-count", "0"],
        ["legendre", "--candidate", "counterexample", "--z-count", "4"],
        ["verify", "--candidate", "counterexample", "--tol", "nan"],
        ["curvature", "--candidate", "counterexample", "--tol=-1e-3"],
        ["legendre", "--candidate", "counterexample", "--tol", "inf"],
        ["classify", "--candidate", "quadratic", "--tol", "nan"],
        ["classify", "--candidate", "counterexample", "--tol", "nan"],
        ["classify", "--candidate", "counterexample", "--tol=-inf"],
        [*_SOLVE_9, "--max-iter=-1"],
        # NaN or inf ratio bounds once reached report.json, which then was not valid JSON
        ["convergence", "--candidate", "quadratic", "--ratio-lo", "nan"],
        ["convergence", "--candidate", "quadratic", "--ratio-hi", "inf"],
        ["convergence", "--candidate", "quadratic", "--ratio-lo=-1"],
        ["convergence", "--candidate", "quadratic", "--ratio-lo", "5", "--ratio-hi", "3"],
        # numpy overflow warnings must not reach stderr ahead of the message:
        # the eps bump overflows the auto start's Laplacian and sine transforms,
        ["rigidity", "--candidate", "quadratic", "--sizes", "1,2", "--eps=-1e308"],
        # the sweep's convexity probe spans the largest box, so an infinite
        # size once printed RuntimeWarnings ahead of an axis-bounds message
        ["rigidity", "--candidate", "quadratic", "--sizes", "1,inf"],
        ["rigidity", "--candidate", "quadratic", "--sizes", "1,2", "--eps", "nan"],
        # sigma2_tilde(A) overflows to inf, or to inf - inf = NaN, which once passed
        ["solve", "--candidate", "quadratic", "--A", "1e200,0,0;0,1e200,0;0,0,1e200", "--grid", "3,-1..1,9"],
        ["solve", "--candidate", "quadratic", "--A", "1e200,1e200,0;1e200,1e200,0;0,0,1e200", "--grid", "3,-1..1,9"],
        # a NaN box bound once wrote a bare NaN into report.json; an infinite
        # t-span printed RuntimeWarnings ahead of the message
        ["verify", "--candidate", "quadratic", "--box=nan..1,0..1,0..1"],
        ["verify", "--candidate", "quadratic", "--box=1..-1,0..1,0..1"],
        ["legendre", "--candidate", "quadratic", "--t-span=-inf..1"],
        # a NaN or infinite level once reached the crossing search, which blamed the set
        ["barrier", "--candidate", "quadratic", "--level=nan"],
        ["barrier", "--candidate", "quadratic", "--level=inf"],
        # a theta grid spacing whose square overflows once raised OverflowError
        # from the second differences: along z from the attained range of u_t,
        # along x from the requested span
        ["legendre", "--candidate", "counterexample", "--kappa", "1e300", "--shape", "5,5", "--z-count", "5"],
        ["legendre", "--candidate", "quadratic", "--x-spans=-1e160..1e160,-1..1", "--shape", "5,5", "--z-count", "5"],
        # the double-double split of kappa, and e^t at t = 710, once left the
        # double range and wrote NaN or Infinity into report.json
        ["verify", "--candidate", "counterexample", "--kappa", "1e308"],
        ["curvature", "--candidate", "counterexample", "--points", "710,0,1,0"],
        # e^t is finite here, but the products of the metric data are not
        ["curvature", "--candidate", "counterexample", "--points", "0,0,1,0;400,0,1,0"],
        # g00 g11 and |g01|^2 cancel to det g = 1/16 and leave rounding
        # noise, which was once reported as det_g = 0.125 with exit 0
        ["curvature", "--candidate", "counterexample", "--points", "18,0,1,0"],
        # a malformed --b-coeffs map once ended in a ValueError, AttributeError
        # or TypeError traceback from the coefficient parser
        ["verify", "--candidate", "heform", "--b-coeffs", '{"x": 1}'],
        ["verify", "--candidate", "heform", "--b-coeffs", "[1]"],
        ["verify", "--candidate", "heform", "--b-coeffs", '{"1,0": "a"}'],
        ["verify", "--candidate", "heform", "--b-coeffs", '{"1,0": null}'],
        # non-finite coefficients were once accepted: a NaN b passed classify,
        # a NaN c was blamed on the sublevel set, an infinite b passed verify
        ["classify", "--candidate", "quadratic", "--A", "1,0;0,1", "--b", "nan,0"],
        ["barrier", "--candidate", "quadratic", "--A", "1,0;0,1", "--c", "nan"],
        ["verify", "--candidate", "quadratic", "--A", "1,0;0,1", "--b", "inf,0"],
        ["verify", "--candidate", "heform", "--b-coeffs", '{"1,0": 1e400}'],
        # found by test_cli_ends_every_call_in_an_exit_code: a negative seed
        # ended in a ValueError traceback from numpy; u_tt = 2a = inf wrote a
        # bare NaN oscillation; a z or x spacing whose square underflows
        # divided by zero; a gradient whose norm overflows printed a
        # RuntimeWarning ahead of the message; a subnormal a (u_tt at the
        # origin, a He-form only by the huge tol) wrote an infinite Poisson residual
        ["verify", "--candidate", "counterexample", "--seed=-1"],
        ["classify", "--candidate", "heform", "--a=1e308", "--b-coeffs={}"],
        ["legendre", "--candidate", "heform", "--a=1e-300", "--b-coeffs={}", "--dim=2"],
        ["solve", "--candidate", "quadratic", "--grid=3,0..1e-160,9"],
        ["barrier", "--candidate", "counterexample", "--kappa=1e300"],
        ["classify", "--candidate", "counterexample", "--tol=1e216", "--kappa=1e-320"],
        # an infinite variable count once raised OverflowError from int()
        ["verify", "--candidate", '{"variant": "he_form", "a": 1, "nvars": -Infinity, "b": {}, "g": {}}'],
    ],
    ids=[
        "sizes-a", "sizes-one", "h-0", "h-nan", "h-list-a", "h-list-zero",
        "json-no-A", "json-no-nvars", "json-A-text", "json-b-key-x", "samples-0",
        "solve-tol-nan", "solve-tol-negative", "solve-tol-0", "solve-tol-inf",
        "rigidity-tol-nan", "convergence-tol-negative",
        "z-count-negative", "z-count-0", "z-count-4",
        "verify-tol-nan", "curvature-tol-negative", "legendre-tol-inf",
        "classify-quadratic-tol-nan", "classify-exponential-tol-nan", "classify-tol-minus-inf",
        "solve-max-iter-negative",
        "ratio-lo-nan", "ratio-hi-inf", "ratio-lo-negative", "ratio-lo-above-hi",
        "rigidity-eps-huge", "rigidity-sizes-inf", "rigidity-eps-nan", "quadratic-A-overflow", "quadratic-A-nan",
        "box-nan", "box-reversed", "t-span-inf", "level-nan", "level-inf",
        "legendre-z-spacing-overflow", "legendre-x-spacing-overflow",
        "verify-kappa-split-overflow", "curvature-exp-overflow", "curvature-metric-overflow",
        "curvature-det-lost-to-rounding",
        "b-coeffs-key-x", "b-coeffs-list", "b-coeffs-text", "b-coeffs-null",
        "quadratic-b-nan", "quadratic-c-nan", "quadratic-b-inf", "b-coeffs-inf",
        "seed-negative", "heform-a-huge", "legendre-z-spacing-underflow", "grid-spacing-underflow",
        "barrier-gradient-overflow", "classify-poisson-overflow", "json-nvars-inf",
    ],
)
def test_malformed_input_is_a_config_error(argv):
    _assert_config_error(_run_module(*argv))


@pytest.mark.parametrize(
    "argv, field",
    [
        (["classify", "--candidate", "quadratic", "--A", "1,0;0,1", "--b", "nan,0"], "linear part b"),
        (["barrier", "--candidate", "quadratic", "--A", "1,0;0,1", "--c", "nan"], "constant term c"),
        (["verify", "--candidate", "quadratic", "--A", "1,0;0,1", "--b", "inf,0"], "linear part b"),
        (["verify", "--candidate", "heform", "--b-coeffs", '{"1,0": 1e400}'], "coefficient of (1, 0)"),
    ],
    ids=["quadratic-b-nan", "quadratic-c-nan", "quadratic-b-inf", "b-coeffs-inf"],
)
def test_non_finite_coefficient_is_refused_by_name(argv, field):
    code, out, err = _main_in_process(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error:") and f"{field} must be finite" in err


def test_zero_max_iter_stays_a_solver_failure():
    # a negative --max-iter is a config error (see above); zero is a valid limit
    proc = _run_module(*_SOLVE_9, "--max-iter", "0")
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver failure: MaxIterExceeded: no convergence after 0 Newton iterations")


def test_unbounded_quadratic_sublevel_set_is_a_config_error():
    # a valid quadratic solution, flat along axis 2: K_1 has no crossing there
    _assert_config_error(
        _run_module("barrier", "--candidate", "quadratic", "--A", "1,0,0;0,1,0;0,0,0", "--level", "1")
    )


def test_classify_records_a_theta_grid_that_overflows():
    # u_t spans about 7e300 on the probe box, too wide for a 33-node z axis;
    # the verdict does not need theta, so the failure goes into theta_note
    proc = _run_module("classify", "--candidate", "counterexample", "--kappa", "1e300")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert doc["verdict"] == "NOT-He-form"
    assert doc["theta_harmonicity"] is None
    assert doc["theta_note"].startswith("ZOutOfRange:")


@pytest.mark.parametrize("t_nodes", [5, 6])
def test_classify_field_with_few_t_nodes_records_why_theta_is_missing(t_nodes, tmp_path, capsys):
    # theta's z axis has one node per interior t-node, fewer than a grid's 5;
    # the verdict does not need theta, so the reason goes into theta_note
    g = Grid(((-1.0, 1.0),) * 3, (t_nodes, 9, 9))
    ScalarField.sample(g, Quadratic.standard(3)).save(tmp_path / "q")
    code, doc, captured = run(capsys, "classify", "--field", str(tmp_path / "q"))
    assert code == 0, captured.err
    assert doc["verdict"] == "He-form"
    assert doc["theta_harmonicity"] is None
    assert doc["theta_note"] == (
        f"ZOutOfRange: theta needs at least 7 t-nodes (5 z nodes) unless z_count is given, "
        f"the field has {t_nodes}"
    )


@pytest.mark.parametrize("t_nodes", [5, 6])
def test_legendre_field_with_few_t_nodes_names_the_fields_t_nodes(t_nodes, tmp_path):
    # the default z axis has one node per interior t-node: the message is
    # about the field the user gave, not about theta's grid
    g = Grid(((-1.0, 1.0),) * 3, (t_nodes, 9, 9))
    ScalarField.sample(g, Quadratic.standard(3)).save(tmp_path / "q")
    proc = _run_module("legendre", "--field", str(tmp_path / "q"))
    _assert_config_error(proc)
    assert f"the field has {t_nodes}" in proc.stderr
    # an explicit z count needs only the three interior t-nodes
    assert _run_module("legendre", "--field", str(tmp_path / "q"), "--z-count", "5").returncode == 0


def _barrier_exits(b: str, c: str, exponents) -> list[int]:
    """Exit codes of ``barrier`` on diag(1, 0.5, 0.5) with linear term ``b``
    and constant ``c`` at the levels 10^-k; each run either certifies the
    intercepts sqrt(2 h / A_kk) to 1e-6 relative or is refused with one line."""
    diag = np.array([1.0, 0.5, 0.5])
    codes = []
    for k in exponents:
        level = 10.0 ** -k
        code, out, err = _main_in_process(
            "barrier", "--candidate", "quadratic", "--A", "1,0,0;0,0.5,0;0,0,0.5",
            f"--b={b}", f"--c={c}", f"--level={level!r}",
        )
        if code == 0:
            want = np.sqrt(2.0 * level / diag)
            np.testing.assert_allclose(json.loads(out)["intercepts"], want, rtol=1e-6, err_msg=f"level {level}")
        else:
            assert code == 2 and out == "", (level, code, err)
            assert err.startswith("configuration error:") and err.count("\n") == 1
        codes.append(code)
    return codes


def test_shifted_quadratic_is_refused_below_its_rounding_floor():
    # u - min u carries noise of about eps |min u| = 2e-16 here, which once
    # moved the intercepts at h = 1e-20 to about 35 times sqrt(2 h / A_kk)
    _barrier_exits("0.3,-0.2,0.1", "1", range(4, 31))


def test_rounding_floor_covers_the_terms_eval_many_sums():
    # min u = 0 here, but eval_many sums c = 5000, b . x = -1e4 and
    # x A x / 2 = 5000 near x* = (-100, 0, 0): with a floor of eps |min u| = 0
    # the intercepts were 3.1e-3 off at h = 1e-10 and 2.6e-5 off at 1e-8
    codes = _barrier_exits("100,0,0", "5000", range(1, 13))
    assert codes[:3] == [0, 0, 0]


def _main_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_he_form_with_affine_b_certifies_its_ellipsoid_within_1e_12_of_h():
    # b = 0.8 x makes the Hessian constant but not diagonal: its ellipsoid,
    # once certified on sampled boundary points only, left K_1 by 0.38%
    code, out, err = _main_in_process(
        "barrier", "--candidate", "heform", "--a", "1", "--b-coeffs", '{"1,0": 0.8}', "--level", "1"
    )
    assert code == 0, err
    Minv = np.linalg.inv(json.loads(out)["ellipsoid_matrix"])
    H = make_he_form(1.0, HarmonicPoly(2, {(1, 0): 0.8})).hessian_many(np.zeros((1, 3)))[0]
    assert abs(np.linalg.eigvalsh(Minv @ H @ Minv).max() / 2.0 - 1.0) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.integers(-150, 150), st.integers(-320, -160), st.integers(160, 308)).map(
        lambda k: float(f"1e{k}")
    )
)
@example(0.003)
@example(1e-40)
@example(1e60)
@example(1e-300)
def test_barrier_chain_is_scale_free(level):
    # the round quadratic t^2/2 + |x|^2/4 is the equality case at every level;
    # a level whose bound 1/(4 h^2) is not a finite normal float is refused
    code, out, err = _main_in_process("barrier", "--candidate", "quadratic", f"--level={level!r}")
    if 1e-150 <= level <= 1e150:
        assert code == 0, err
        doc = json.loads(out)
        want = np.sqrt(2.0 * level / np.array([1.0, 0.5, 0.5]))
        np.testing.assert_allclose(doc["intercepts"], want, rtol=1e-12)
        assert abs(doc["barrier"]["value"] / doc["barrier"]["bound"] - 1.0) <= 1e-12
    else:
        assert code == 2 and out == ""
        assert err.startswith("configuration error:") and err.count("\n") == 1


# malformed and extreme values for the --opt=value form; every size stays
# small (at most 9 nodes per axis, at most 2000 points) so no example allocates much
_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-320", "1e-300", "1e300", "1e308", "1e400", "0.5"]),
    st.floats().map(repr),
)
_GARBAGE = st.text(alphabet="0123456789.,;:-+eE naif{}[]\"", max_size=12)


def _joined(part, sep, lo, hi):
    return st.lists(part, min_size=lo, max_size=hi).map(sep.join)


_SPAN = st.one_of(st.tuples(_NUMBER, _NUMBER).map("..".join), _GARBAGE)
_SPANS = st.one_of(_joined(st.tuples(_NUMBER, _NUMBER).map("..".join), ",", 1, 4), _GARBAGE)
_VECTOR = st.one_of(_joined(_NUMBER, ",", 1, 4), _GARBAGE)
_MATRIX = st.one_of(
    _joined(_joined(_NUMBER, ",", 1, 4), ";", 1, 4), st.sampled_from(["1,0;0,1", "1,0,0;0,0.5,0;0,0,0.5"])
)
_NODES = st.integers(-1, 9).map(str)
_GRID = st.one_of(
    st.tuples(st.integers(0, 4).map(str), _SPAN, _NODES).map(",".join),
    _joined(st.tuples(_SPAN, _NODES).map(":".join), ",", 1, 4),
    _GARBAGE,
)
_JSON_VALUE = st.one_of(st.floats(), st.sampled_from(["a", "nan", None, [1], {}]))
_COEFF_MAP = st.dictionaries(
    st.sampled_from(["0,0", "1,0", "0,1", "2,0", "0,2", "1,1", "3,0", "9,0", "1,0,0", "-1,0", "x", "1"]),
    _JSON_VALUE,
    max_size=3,
)
_B_COEFFS = st.one_of(
    _COEFF_MAP.map(json.dumps), st.sampled_from(["[1]", "1", "null", '"x"', "{", "{}"]), _GARBAGE
)
# inline JSON descriptions, with any field missing or malformed
_CANDIDATE_JSON = st.fixed_dictionaries(
    {"variant": st.sampled_from(["quadratic", "counterexample", "he_form", "x"])},
    optional={
        "A": st.one_of(st.lists(st.lists(_JSON_VALUE, max_size=3), max_size=3), _JSON_VALUE),
        "b": st.one_of(st.lists(_JSON_VALUE, max_size=3), _COEFF_MAP, _JSON_VALUE),
        "g": st.one_of(_COEFF_MAP, _JSON_VALUE),
        "nvars": st.one_of(st.sampled_from([1, 2, 3, "2"]), _JSON_VALUE),
        "c": _JSON_VALUE, "kappa": _JSON_VALUE, "a": _JSON_VALUE,
    },
).map(json.dumps)
_CANDIDATE_OPTIONS = {
    "counterexample": {"kappa": _NUMBER},
    "quadratic": {"A": _MATRIX, "b": _VECTOR, "c": _NUMBER, "dim": st.sampled_from("23")},
    "heform": {"a": _NUMBER, "b-coeffs": _B_COEFFS, "dim": st.sampled_from("23")},
}
_SIZE = st.integers(-2, 2000).map(str)
# relative spacings of rigidity and convergence: at most 9 nodes on a span of
# length 2 (h >= 0.25), or invalid; never one that would allocate a large grid
_SPACING = st.one_of(
    st.floats(min_value=0.25, max_value=0.6).map(repr),
    st.floats(min_value=0.25, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "-0.25", "-1", "nan", "inf", "-inf"]),
)
_SPACINGS = st.one_of(_joined(_SPACING, ",", 1, 4), st.sampled_from(["", "a", "0.5;0.25", "0.5,,0.25"]))
# convergence boxes no longer than 2, or invalid
_SHORT_SPAN = st.sampled_from(["-1..1", "0..1", "-0.5..0.5", "0..2", "1..-1", "0..0", "nan..1", "-inf..1", "a"])
_COMMAND_OPTIONS = {
    "verify": {"box": _SPANS, "points": _SIZE, "tol": _NUMBER},
    "curvature": {"points": _joined(_VECTOR, ";", 1, 3), "sample": _SIZE, "tol": _NUMBER},
    "barrier": {"level": _NUMBER, "samples": _SIZE},
    "legendre": {
        "t-span": _SPAN, "x-spans": _SPANS, "shape": _joined(_NODES, ",", 1, 3), "z-span": _SPAN,
        "z-count": _NODES, "tol": _NUMBER,
    },
    "classify": {"tol": _NUMBER},
    "solve": {"tol": _NUMBER, "max-iter": st.integers(-2, 60).map(str)},
    "rigidity": {
        "eps": _NUMBER, "sizes": st.one_of(st.sampled_from(["1,2", "0.5,1,4", "2,1"]), _VECTOR), "tol": _NUMBER,
    },
    "convergence": {"box": _SHORT_SPAN, "tol": _NUMBER, "ratio-lo": _NUMBER, "ratio-hi": _NUMBER},
}
# drawn on every call: the defaults would solve on 17^3 to 41^3 grids
_SPACING_OPTIONS = {"rigidity": ("h", _SPACING), "convergence": ("h-list", _SPACINGS)}


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    tag = draw(st.sampled_from([*sorted(_CANDIDATE_OPTIONS), "json"]))
    options = {**_COMMAND_OPTIONS[command], **_CANDIDATE_OPTIONS.get(tag, {})}
    options["seed"] = st.integers(-3, 2**40).map(str)
    argv = [command, f"--candidate={draw(_CANDIDATE_JSON) if tag == 'json' else tag}"]
    if command == "solve":
        argv.append(f"--grid={draw(_GRID)}")
    if command in _SPACING_OPTIONS:
        name, spacing = _SPACING_OPTIONS[command]
        argv.append(f"--{name}={draw(spacing)}")
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=4)):
        argv.append(f"--{name}={draw(options[name])}")
    if command == "curvature" and draw(st.booleans()):
        argv.append("--rescaled")
    return argv


@settings(deadline=None, max_examples=500, derandomize=True)
@given(_cli_calls())
@example(["verify", "--candidate=heform", '--b-coeffs={"x": 1}'])
# calls that reach the auto start: a passing and a failing check, a solver failure
@example(["rigidity", "--candidate=quadratic", "--h=0.25"])
@example(["rigidity", "--candidate=quadratic", "--h=0.25", "--eps=1e3"])
@example(["convergence", "--candidate=counterexample", "--kappa=1000", "--h-list=0.5,0.25"])
def test_cli_ends_every_call_in_an_exit_code(argv):
    # in process, so an escaping exception (a RuntimeWarning included) fails
    # the test rather than ending in exit 1; exit 1 means a check failed
    code, out, _ = _main_in_process(*argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        doc = json.loads(out, parse_constant=_reject_constant)  # no bare NaN or Infinity
        assert doc["pass"] is (code == 0)


def test_unread_non_finite_option_is_echoed_as_text():
    # the round quadratic reads neither --kappa nor --a; their values once
    # reached report.json as bare NaN and Infinity
    code, out, err = _main_in_process("barrier", "--candidate", "quadratic", "--kappa=nan", "--a=-inf")
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert (doc["config"]["kappa"], doc["config"]["a"]) == ("nan", "-inf")


def test_round_quadratic_tag_reads_b_and_c():
    # without --A the tag once dropped --b and --c and verified the round quadratic
    cand = cli._load_candidate(_parser().parse_args(
        ["verify", "--candidate", "quadratic", "--b", "1,2,3", "--c", "0.5"]
    ))
    assert cand.to_dict() == Quadratic(np.diag([1.0, 0.5, 0.5]), [1.0, 2.0, 3.0], 0.5).to_dict()
    code, out, err = _main_in_process("barrier", "--candidate", "quadratic", "--b", "1,2,3", "--level", "0.7")
    assert code == 0, err
    assert json.loads(out)["minimizer"] == [-1.0, -4.0, -6.0]  # -A^-1 b


def test_round_quadratic_tag_refuses_non_finite_c():
    code, out, err = _main_in_process("barrier", "--candidate", "quadratic", "--c=nan")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["configuration error: constant term c must be finite, got nan"]


def test_closed_form_subcommands_never_load_scipy():
    script = """
import contextlib, io, sys
from sigma2lab.cli import main
calls = [
    ["verify", "--candidate", "counterexample", "--points", "200"],
    ["curvature", "--candidate", "counterexample", "--sample", "20"],
    ["barrier", "--candidate", "quadratic", "--level", "0.7"],
    ["barrier", "--candidate", "heform", "--b-coeffs", '{"1,0": 0.3}', "--level", "0.7"],
    ["legendre", "--candidate", "counterexample", "--x-spans", "1..1.5,1..1.5", "--shape", "5,5"],
    ["classify", "--candidate", "counterexample"],
    ["classify", "--candidate", "quadratic"],
]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    # a name deleted from a module must leave its __all__ too
    modules = [info.name for info in pkgutil.iter_modules(sigma2lab.__path__)]
    missing = [name for name in sigma2lab.__all__ if name not in modules + ["__version__"]]
    for name in modules:
        module = importlib.import_module(f"sigma2lab.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                    if not hasattr(module, attr)]
    assert missing == []


def test_no_module_imports_scipy_interpolate():
    # static, so an import inside a function that no test reaches shows too
    imported = []
    for path in Path(sigma2lab.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
    assert [(f, m) for f, m in imported if m.startswith("scipy.interpolate")] == []


def test_solve_never_loads_scipy_interpolate():
    # 21^3 exponential data has no elliptic calibrated root: the auto start
    # runs the whole coarse-to-fine ladder 6-11-21, cubic prolongation
    # included; the linear solves end in a dense coarsest inverse and the
    # calibration's sine transforms run on numpy's FFT
    script = """
import contextlib, io, sys
from sigma2lab import solver
from sigma2lab.cli import main
calls = []
resample = solver._resample
solver._resample = lambda vals, shape: calls.append((vals.shape[0], shape[0])) or resample(vals, shape)
unused = ["scipy.interpolate", "scipy.sparse.linalg", "scipy.linalg", "scipy.fft"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--candidate", "counterexample", "--grid", "3,-1..1,21"]) == 0
print(calls, [m for m in unused if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["rigidity", "--candidate", "quadratic", "--sizes", "1,2"]) == 0
print([m for m in unused if m in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the boundary data of 6^3 and 11^3, then the two prolongations
    assert proc.stdout == "[(21, 6), (21, 11), (6, 11), (11, 21)] []\n[]\n"


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


def _full_suite_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_full_suite.py"
    spec = importlib.util.spec_from_file_location("run_full_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_full_suite_roster_parses_and_covers_every_subcommand(quick):
    parser = _parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    roster = _full_suite_script().roster(quick)
    for name, argv in roster:
        args = parser.parse_args(argv)  # a bad entry exits 2 here
        assert args.subcommand == argv[0], name
    assert {argv[0] for _, argv in roster} == set(subparsers.choices)


_BAD_FIELD_HEADERS = {
    "no-bounds": {"dim": 3, "resolution": [5, 5, 5], "byte_order": "little"},
    "json-list": [[-1.0, 1.0], [5, 5, 5]],
    "resolution-text": {"dim": 2, "bounds": [[-1.0, 1.0], [-1.0, 1.0]], "resolution": [5, "x"],
                        "byte_order": "little"},
}


@pytest.mark.parametrize("header", list(_BAD_FIELD_HEADERS))
@pytest.mark.parametrize(
    "argv",
    [["classify"], ["legendre"], ["solve", "--grid", "3,-1..1,5"]],
    ids=["classify", "legendre", "solve"],
)
def test_malformed_field_header_is_a_config_error(tmp_path, header, argv):
    (tmp_path / "q.fld.json").write_text(json.dumps(_BAD_FIELD_HEADERS[header]))
    (tmp_path / "q.fld.bin").write_bytes(np.zeros(125).tobytes())
    _assert_config_error(_run_module(*argv, "--field", str(tmp_path / "q")))


def _csv_writer_bytes(path, header, axes, columns):
    """The reference rendering: csv.writer over whole-grid point rows."""
    mesh = np.meshgrid(*axes, indexing="ij")
    rows = np.column_stack([m.ravel() for m in mesh] + [np.ravel(c) for c in columns])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows.tolist())
    return path.read_bytes()


@pytest.mark.parametrize("dim", [3, 2, 1])
def test_grid_csv_matches_csv_writer(tmp_path, dim):
    rng = np.random.default_rng(dim)
    axes = [
        np.array([-2.5, -0.0, 1e-5, 0.1 + 0.2]),
        np.array([-1.0, -1.0 / 3.0, 0.0, 7.0, 1e16]),
        np.array([-0.0, -3.25e-300]),
    ][:dim]
    shape = tuple(a.size for a in axes)
    theta = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    theta.flat[0] = -0.0
    other = -np.abs(rng.standard_normal(shape))
    header = [f"x{i}" for i in range(dim)] + ["theta", "other"]
    args = argparse.Namespace(out=str(tmp_path / "out"))
    _write_grid_csv(args, "grid.csv", header, axes, [theta, other])
    want = _csv_writer_bytes(tmp_path / "ref.csv", header, axes, [theta, other])
    assert (tmp_path / "out" / "grid.csv").read_bytes() == want


def test_grid_csv_header_is_quoted_like_csv_writer(tmp_path):
    axes = [np.array([0.0, 1.5]), np.array([-1.0, 2.0, 3.0])]
    theta = np.arange(6.0).reshape(2, 3)
    header = ["x0", "x 1", 'theta, "rad"']
    args = argparse.Namespace(out=str(tmp_path / "out"))
    _write_grid_csv(args, "grid.csv", header, axes, [theta])
    want = _csv_writer_bytes(tmp_path / "ref.csv", header, axes, [theta])
    assert (tmp_path / "out" / "grid.csv").read_bytes() == want


def test_legendre_round_trip_matches_whole_grid_evaluation(tmp_path, capsys):
    cand = Quadratic(np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), b=[1.0, 0.0, -2.0])
    spec = json.dumps(cand.to_dict())
    code, doc, _ = run(
        capsys, "legendre", "--candidate", spec, "--x-spans=-0.2..0.2,-0.5..0.5",
        "--shape", "9,7", "--z-count", "11", "--out", str(tmp_path),
    )
    assert code == 0
    theta = ScalarField.load(tmp_path / "theta")
    pts = theta.grid.points()
    z_back = cand.eval_many(np.column_stack([theta.values.ravel(), pts[:, 1:]]), (1, 0, 0))
    assert doc["round_trip_max"] == float(np.abs(z_back - pts[:, 0]).max())


def test_legendre_memory_is_bounded_by_its_blocks(capsys):
    m = 65
    argv = ["legendre", "--candidate", "counterexample", "--t-span=-1..2",
            "--x-spans=1.0..1.5,1.0..1.5", "--shape", f"{m},{m}", "--z-span=5.0..6.0",
            "--z-count", str(m)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    # theta itself, then the larger of the root blocks' working arrays (about
    # 20 of _ROOT_BLOCK floats) and the discrete Laplacian's few interior-size
    # temporaries, plus 1 MB for the transverse mesh, the report and the parser
    nodes = m**3
    bound = 8 * (nodes + max(24 * _ROOT_BLOCK, 4 * nodes)) + 1_000_000
    assert peak <= bound
