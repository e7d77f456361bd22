"""Command-line driver: every experiment behind one entry point.

Each subcommand emits a single JSON report on stdout (and, with --out, writes
it to DIR/report.json next to any field/CSV artifacts).  Reports are
deterministic for a fixed config and seed: no timestamps, sorted keys, and
all sampling goes through seeded generators.

Exit codes: 0 all checks passed, 1 a check failed (named in the report),
2 configuration error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, kahler
from .candidates import (
    CandidateSolution,
    Counterexample,
    HarmonicPoly,
    Quadratic,
    candidate_from_json,
    make_he_form,
)
from .core_ops import Grid, ScalarField
from .errors import ConfigError, SolverError


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_span(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(".."))
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}, expected 'lo..hi'") from exc
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigError(f"bad range {text!r}, expected finite bounds lo < hi")
    return lo, hi


def _parse_grid(spec: str) -> Grid:
    """Either '3,-1..1,21' (dim, span, nodes broadcast) or per-axis
    '-1..1:21,-2..2:33,...'."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) == 3 and ".." in parts[1] and ":" not in spec:
        try:
            dim = int(parts[0])
            nodes = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {spec!r}") from exc
        span = _parse_span(parts[1])
        return Grid((span,) * dim, (nodes,) * dim)
    bounds = []
    shape = []
    for p in parts:
        if ":" not in p:
            raise ConfigError(f"bad grid axis {p!r}, expected 'lo..hi:m'")
        span_text, m_text = p.rsplit(":", 1)
        bounds.append(_parse_span(span_text))
        try:
            shape.append(int(m_text))
        except ValueError as exc:
            raise ConfigError(f"bad node count {m_text!r} in grid spec") from exc
    return Grid(tuple(bounds), tuple(shape))


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        return np.array(rows, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad matrix {text!r}, expected 'a,b;c,d'") from exc


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}") from exc


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _check_tol(tol: float, flag: str = "--tol") -> None:
    """A check's --tol (or other bound ``flag``): finite and non-negative, so
    the verdict and the JSON report stay meaningful."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"{flag} must be finite and non-negative, got {tol}")


def _load_candidate(args) -> CandidateSolution:
    spec = args.candidate
    if spec is None:
        raise ConfigError("this subcommand needs --candidate (or --field where supported)")
    if spec.startswith("{"):
        return candidate_from_json(spec)
    if spec.startswith("@") or spec.endswith(".json"):
        path = Path(spec[1:] if spec.startswith("@") else spec)
        try:
            return candidate_from_json(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read candidate file {path}: {exc}") from exc
    tag = spec.lower()
    dim = args.dim
    if tag == "counterexample":
        return Counterexample(args.kappa)
    if tag == "quadratic":
        A = Quadratic.standard(dim).A if args.A is None else _parse_matrix(args.A)
        b = _parse_vector(args.b) if args.b else np.zeros(A.shape[0])
        return Quadratic(A, b, args.c)
    if tag == "heform":
        if args.b_coeffs is None:
            raise ConfigError("heform tag needs --b-coeffs (harmonic polynomial JSON)")
        try:
            coeffs = json.loads(args.b_coeffs)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--b-coeffs is not valid JSON: {exc}") from exc
        b = HarmonicPoly.from_dict(dim - 1, coeffs)
        return make_he_form(args.a, b)
    raise ConfigError(
        f"unknown candidate {spec!r}; use counterexample | quadratic | heform, "
        "inline JSON, or a .json file path"
    )


def _load_source(args):
    """Candidate or ScalarField, depending on which flag was given."""
    if getattr(args, "field", None):
        return ScalarField.load(args.field)
    return _load_candidate(args)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _json_default(obj):
    """The types json cannot encode: numpy arrays and scalars, complex as {"re", "im"}, else str()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):  # before np.integer
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return str(obj)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _check(name: str, value, tolerance, ok: bool) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(ok)}


def _emit(args, subcommand: str, checks: list[dict], payload: dict) -> int:
    report = {
        "subcommand": subcommand,
        "tool": {"name": "sigma2lab", "version": __version__},
        # an option the subcommand does not read goes unchecked, and JSON has
        # no NaN or Infinity: such a value is echoed as its text
        "config": {
            k: str(v) if isinstance(v, float) and not np.isfinite(v) else v
            for k, v in vars(args).items() if k != "func"
        },
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    report.update(payload)
    text = _dumps(report)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text)
    return 0 if report["pass"] else 1


def _write_csv(args, name: str, header: list[str], rows) -> None:
    """Write DIR/name with --out; ``rows`` is a zero-argument callable, called only then."""
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows())


# rows per block when a large array is written as CSV: the Python floats of
# one block are made at a time, not of the whole array
_CSV_BLOCK = 8192


def _array_rows(*columns: np.ndarray):
    """The rows of ``np.column_stack(columns)`` as lists of floats, made one
    block of ``_CSV_BLOCK`` rows at a time."""
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        yield from np.column_stack([c[start:start + _CSV_BLOCK] for c in columns]).tolist()


def _write_grid_csv(args, name: str, header: list[str], axes, columns) -> None:
    """Write DIR/name with --out: one row per node of the tensor grid on
    ``axes`` in C order, its coordinates and then the node's entry of each of
    ``columns`` (arrays of the grid's shape).

    The bytes are those csv.writer writes for these rows: the header goes
    through csv.writer, and a float row needs no quoting, so it is the reprs
    joined by commas with a \\r\\n line end.  Each axis coordinate is
    formatted once, and each leading-axis slab is one string made by map and
    str.join over the slab's ",x1,x2," tails, with no Python-level loop per
    row.
    """
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lead, *rest = ([repr(v) for v in np.asarray(ax, dtype=float).tolist()] for ax in axes)
    # ",x1,x2," for every node of a slab, in C order
    tails = ["".join("," + c for c in node) + "," for node in itertools.product(*rest)]
    values = [np.asarray(c, dtype=float).reshape(len(lead), len(tails)) for c in columns]
    with open(out / name, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for i, coord in enumerate(lead):
            first, *more = (map(repr, v[i].tolist()) for v in values)
            rows = map(str.__add__, tails, first)
            for cells in more:
                rows = map(str.__add__, rows, map(",".__add__, cells))
            fh.write(coord + ("\r\n" + coord).join(rows) + "\r\n")


def _sample_box(rng, box, count: int) -> np.ndarray:
    if count < 1:
        raise ConfigError(f"need at least one sample point, got {count}")
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((count, len(box)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    cand = _load_candidate(args)
    dim = cand.dim
    box = (
        [_parse_span(s) for s in args.box.split(",")]
        if args.box
        else [(-3.0, 3.0)] + [(-2.0, 2.0)] * (dim - 1)
    )
    if len(box) != dim:
        raise ConfigError(f"--box has {len(box)} spans but the candidate has dim {dim}")
    rng = _rng(args.seed)
    pts = _sample_box(rng, box, args.points)
    res = cand.residual_many(pts)
    worst = float(np.abs(res).max())
    checks = [_check("max_abs_residual", worst, args.tol, worst <= args.tol)]
    payload = {
        "box": box,
        "points": args.points,
        "residual_mean_abs": float(np.abs(res).mean()),
    }
    _write_csv(
        args,
        "residuals.csv",
        [f"x{i}" for i in range(dim)] + ["residual"],
        lambda: _array_rows(pts, res),
    )
    return _emit(args, "verify", checks, payload)


def cmd_curvature(args) -> int:
    _check_tol(args.tol)
    cand = _load_candidate(args)
    rng = _rng(args.seed)
    box = [(-1.0, 1.0)] * 4
    sample = _sample_box(rng, box, args.sample)
    batch = kahler.metric_batch(cand, sample)
    dets = np.linalg.det(batch["g"])
    target = 1.0 if args.rescaled else 1.0 / 16.0
    if args.rescaled:
        dets = dets * 16.0
    spread = float(np.abs(dets - target).max())
    probes = (
        [_parse_vector(p) for p in args.points.split(";")]
        if args.points
        else [np.array([0.0, 0.0, 1.0, 0.0])]
    )
    if any(p.shape != (4,) for p in probes):
        raise ConfigError("each probe point needs 4 coordinates t,s,x,y")
    curv = kahler.curvature(cand, np.array(probes))
    details = [
        {
            "point": p.tolist(),
            "g": g,
            "det_g": float(det),
            "ricci": ric,
            "ricci_max_abs": float(np.abs(ric).max()),
            "riemann_norm_sq": float(rnorm),
        }
        for p, g, det, ric, rnorm in zip(
            probes, curv["g"], curv["det_g"], curv["ricci"], curv["riemann_norm_sq"]
        )
    ]
    checks = [_check("det_constancy", spread, args.tol, spread <= args.tol)]
    payload = {
        "convention": "rescaled" if args.rescaled else "raw",
        "det_target": target,
        "sampled_points": args.sample,
        "probes": details,
    }
    return _emit(args, "curvature", checks, payload)


def cmd_solve(args) -> int:
    from .solver import DirichletProblem, newton_solve

    if args.grid is None:
        raise ConfigError("solve needs --grid")
    grid = _parse_grid(args.grid)
    source = _load_source(args)
    boundary = source if isinstance(source, ScalarField) else ScalarField.sample(grid, source)
    rep = newton_solve(DirichletProblem(grid, boundary), tol=args.tol, max_iter=args.max_iter)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        rep.solution.save(str(Path(args.out) / "solution"))
    checks = [
        _check("converged", rep.converged, None, rep.converged),
        _check("residual_norm", rep.residual_norm, rep.tol, rep.residual_norm <= rep.tol),
        _check("min_u11_positive", rep.min_u11, 0.0, rep.min_u11 > 0.0),
    ]
    return _emit(args, "solve", checks, {"solve_report": rep.to_dict()})


def cmd_rigidity(args) -> int:
    from .solver import rigidity_sweep

    sizes = _parse_vector(args.sizes)
    if sizes.size < 2:
        raise ConfigError(f"rigidity needs at least two box sizes for its trend check, got {args.sizes!r}")
    cand = _load_candidate(args)
    rows = rigidity_sweep(cand, eps=args.eps, sizes=sizes, h=args.h, tol=args.tol)
    converged = [r for r in rows if r["converged"]]
    oscs = [r["osc_u11_inner"] for r in converged]
    non_increasing = all(b <= a * (1 + 1e-12) for a, b in zip(oscs, oscs[1:]))
    checks = [
        _check("all_rows_converged", len(converged), len(rows), len(converged) == len(rows)),
        _check("osc_u11_non_increasing", oscs, None, non_increasing and len(oscs) >= 2),
    ]
    header = ["L", "h", "converged", "iterations", "osc_u11_inner", "max_u1_axis", "error"]
    _write_csv(args, "rigidity.csv", header, lambda: [[r[k] for k in header] for r in rows])
    return _emit(args, "rigidity", checks, {"rows": rows})


def cmd_barrier(args) -> int:
    cand = _load_candidate(args)
    K = analysis.SublevelSet.from_candidate(cand, args.level)
    E = analysis.inscribe_ellipsoid(K, samples=args.samples)
    rep = analysis.barrier_check(E, args.level)
    checks = [
        _check("barrier_inequality", rep["value"], rep["bound"], rep["pass"]),
    ]
    payload = {
        "level": args.level,
        "intercepts": K.intercepts,
        "minimizer": K.minimizer,
        "ellipsoid_matrix": E.M,
        "barrier": rep,
    }
    _write_csv(
        args,
        "ellipsoid_boundary.csv",
        [f"x{i}" for i in range(E.dim)],
        lambda: E.boundary_points(256).tolist(),
    )
    return _emit(args, "barrier", checks, payload)


def cmd_legendre(args) -> int:
    _check_tol(args.tol)
    source = _load_source(args)
    kwargs = {}
    if args.t_span:
        kwargs["t_span"] = _parse_span(args.t_span)
    if args.x_spans:
        kwargs["x_spans"] = tuple(_parse_span(s) for s in args.x_spans.split(","))
    if args.shape:
        try:
            kwargs["shape"] = tuple(int(v) for v in args.shape.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --shape {args.shape!r}, expected node counts 'm2,m3'") from exc
    if args.z_span:
        kwargs["z_span"] = _parse_span(args.z_span)
    if args.z_count is not None:
        kwargs["z_count"] = args.z_count
    theta = analysis.partial_legendre(source, **kwargs)
    harm = analysis.harmonicity_test(theta)
    checks = []
    payload = {
        "z_span": list(theta.grid.bounds[0]),
        "shape": list(theta.grid.shape),
        "max_discrete_laplacian": harm,
    }
    if not isinstance(source, ScalarField):
        rt = analysis.legendre_round_trip(source, theta)
        checks.append(_check("round_trip_max", rt, args.tol, rt <= args.tol))
        payload["round_trip_max"] = rt
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        theta.save(str(Path(args.out) / "theta"))
        _write_grid_csv(
            args,
            "theta.csv",
            [f"x{i}" for i in range(theta.grid.dim)] + ["theta"],
            theta.grid.axes(),
            [theta.values],
        )
    return _emit(args, "legendre", checks, payload)


def cmd_classify(args) -> int:
    _check_tol(args.tol)
    source = _load_source(args)
    rep = analysis.he_reduction_report(source, tol=args.tol)
    b_vals = rep.pop("b_values", None)
    g_vals = rep.pop("g_values", None)
    x_axes = rep.pop("x_axes", None)
    if b_vals is not None:
        _write_grid_csv(
            args,
            "extracted_b_g.csv",
            [f"x{i+1}" for i in range(len(x_axes))] + ["b", "g"],
            x_axes,
            [b_vals, g_vals],
        )
    rep["verdict"] = "He-form" if rep["is_he_form"] else "NOT-He-form"
    return _emit(args, "classify", [], rep)


def cmd_convergence(args) -> int:
    from .solver import DirichletProblem, newton_solve

    cand = _load_candidate(args)
    dim = cand.dim
    span = _parse_span(args.box) if args.box else (-1.0, 1.0)
    h_values = _parse_vector(args.h_list)
    if not np.all(np.isfinite(h_values) & (h_values > 0.0)):
        raise ConfigError(f"--h-list spacings must be finite and positive, got {args.h_list!r}")
    if any(b >= a for a, b in zip(h_values, h_values[1:])):
        raise ConfigError("--h-list must be strictly decreasing")
    _check_tol(args.ratio_lo, "--ratio-lo")
    _check_tol(args.ratio_hi, "--ratio-hi")
    if args.ratio_lo > args.ratio_hi:
        raise ConfigError(f"--ratio-lo {args.ratio_lo} exceeds --ratio-hi {args.ratio_hi}")
    rows = []
    for h in h_values:
        m = int(round((span[1] - span[0]) / h)) + 1
        grid = Grid((span,) * dim, (m,) * dim)
        problem = DirichletProblem.from_candidate(grid, cand)
        rep = newton_solve(problem, tol=args.tol)
        interior = tuple(slice(1, -1) for _ in range(dim))
        # the boundary field holds the closed form at every node
        err = float(np.abs(rep.solution.values - problem.boundary.values)[interior].max())
        rows.append(
            {
                "h": h,
                "nodes_per_axis": m,
                "iterations": rep.iterations,
                "residual_norm": rep.residual_norm,
                "interior_max_error": err,
            }
        )
    ratios = [
        rows[i]["interior_max_error"] / rows[i + 1]["interior_max_error"]
        for i in range(len(rows) - 1)
    ]
    in_window = all(args.ratio_lo <= r <= args.ratio_hi for r in ratios)
    checks = [
        _check(
            "refinement_ratio_window",
            ratios,
            [args.ratio_lo, args.ratio_hi],
            in_window and len(ratios) >= 1,
        )
    ]
    header = ["h", "nodes_per_axis", "iterations", "residual_norm", "interior_max_error"]
    _write_csv(args, "convergence.csv", header, lambda: [[r[k] for k in header] for r in rows])
    return _emit(args, "convergence", checks, {"rows": rows, "ratios": ratios})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_candidate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--candidate", help="tag (counterexample|quadratic|heform), inline JSON, or .json path")
    p.add_argument("--kappa", type=float, default=0.25, help="counterexample coefficient of e^{-t}")
    p.add_argument("--A", help="quadratic Hessian rows 'a,b,c;d,e,f;g,h,i'")
    p.add_argument("--b", help="quadratic linear term 'b1,b2,b3'")
    p.add_argument("--c", type=float, default=0.0, help="quadratic constant term")
    p.add_argument("--a", type=float, default=0.5, help="heform t^2 coefficient (times 2)")
    p.add_argument("--b-coeffs", help="heform harmonic polynomial coefficients JSON, e.g. '{\"2,0\": 1, \"0,2\": -1}'")
    p.add_argument("--dim", type=int, default=3, choices=(2, 3), help="ambient dimension for tags without explicit data")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for all sampling in this run")
    p.add_argument("--out", help="directory for report.json and data artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma2lab",
        description="Numerical experiments for the equation u_tt*Lap_x(u) - |grad_x u_t|^2 = 1",
    )
    parser.add_argument("--version", action="version", version=f"sigma2lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="pointwise residual sweep for a candidate solution")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--box", help="per-axis spans 'lo..hi,lo..hi,...' (default -3..3, -2..2 transverse)")
    p.add_argument("--points", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curvature", help="induced-metric report: g, det, Ricci, Riemann norm")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--points", help="probe points 't,s,x,y;t,s,x,y;...' (default 0,0,1,0)")
    p.add_argument("--sample", type=int, default=1000, help="random points for the det-constancy check")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--rescaled", action="store_true", help="report det of the rescaled potential (target 1)")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("solve", help="Newton solve of the Dirichlet problem on a box grid")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--grid", help="'dim,lo..hi,m' or per-axis 'lo..hi:m,...'")
    p.add_argument("--field", help="boundary data from a stored field (base path of .fld pair)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=50)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rigidity", help="growing-box sweep with perturbed convex data")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--sizes", default="1,2,4")
    p.add_argument("--h", type=float, default=0.125, help="grid spacing relative to the box size")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("barrier", help="inscribed-ellipsoid bound on a sublevel set")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--level", type=float, default=1.0, help="sublevel value h")
    p.add_argument("--samples", type=int, default=1000, help="boundary samples for containment (candidates with a non-constant Hessian)")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser("legendre", help="partial Legendre transform theta(z, x)")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--field", help="source field instead of a candidate")
    p.add_argument("--t-span", help="'lo..hi' (candidates only)")
    p.add_argument("--x-spans", help="'lo..hi,lo..hi' transverse spans")
    p.add_argument("--shape", help="transverse node counts 'm2,m3'")
    p.add_argument("--z-span", help="'lo..hi' output range")
    p.add_argument("--z-count", type=int)
    p.add_argument("--tol", type=float, default=1e-10, help="round-trip tolerance")
    p.set_defaults(func=cmd_legendre)

    p = sub.add_parser("classify", help="is u of the form a*t^2 + t*b(x) + g(x)?")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--field", help="source field instead of a candidate")
    p.add_argument("--tol", type=float, default=1e-8, help="u_tt oscillation tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("convergence", help="h-refinement error study against a closed form")
    _add_candidate_flags(p)
    _add_common_flags(p)
    p.add_argument("--box", help="'lo..hi' broadcast to all axes (default -1..1)")
    p.add_argument("--h-list", default="0.1,0.05")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--ratio-lo", type=float, default=3.5)
    p.add_argument("--ratio-hi", type=float, default=4.5)
    p.set_defaults(func=cmd_convergence)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {type(exc).__name__}: {exc}\n")
        if exc.report is not None:
            sys.stderr.write(_dumps(exc.report.to_dict()))
        return 3


if __name__ == "__main__":
    sys.exit(main())
