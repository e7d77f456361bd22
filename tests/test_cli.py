import argparse
import csv
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sigma2lab.analysis import _ROOT_BLOCK
from sigma2lab.cli import _parser, _write_grid_csv, main
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
    ScalarField.from_callable(g, fn).save(tmp_path / "u")
    code = main(["classify", "--field", str(tmp_path / "u")])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    assert doc["verdict"] == "NOT-He-form"
    assert doc["a"] is None and doc["poisson_residual_max"] is None


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
    ],
    ids=[
        "sizes-a", "sizes-one", "h-0", "h-nan", "h-list-a", "h-list-zero",
        "json-no-A", "json-no-nvars", "json-A-text", "json-b-key-x", "samples-0",
        "solve-tol-nan", "solve-tol-negative", "solve-tol-0", "solve-tol-inf",
        "rigidity-tol-nan", "convergence-tol-negative",
        "z-count-negative", "z-count-0", "z-count-4",
    ],
)
def test_malformed_input_is_a_config_error(argv):
    _assert_config_error(_run_module(*argv))


def test_unbounded_quadratic_sublevel_set_is_a_config_error():
    # a valid quadratic solution, flat along axis 2: K_1 has no crossing there
    _assert_config_error(
        _run_module("barrier", "--candidate", "quadratic", "--A", "1,0,0;0,1,0;0,0,0", "--level", "1")
    )


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
prolong = solver._prolong
solver._prolong = lambda *args: calls.append(1) or prolong(*args)
unused = ["scipy.interpolate", "scipy.sparse.linalg", "scipy.linalg", "scipy.fft"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--candidate", "counterexample", "--grid", "3,-1..1,21"]) == 0
print(len(calls), [m for m in unused if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["rigidity", "--candidate", "quadratic", "--sizes", "1,2"]) == 0
print([m for m in unused if m in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 []\n[]\n"


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
