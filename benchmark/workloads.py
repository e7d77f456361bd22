"""The three workloads: their inputs, made from the seed, and their output checks.

A workload is a list of operations run in order; one round of the benchmark
runs every operation once.  An operation is one command line for
``sigma2lab.cli.main`` plus the exit code it must return and a check of its
report (and of any files it wrote) against ``reference``.  A check returns
the list of its problems; an empty list means the answer is right.  The
checks of one round share a ``state`` dict, so a check can compare an answer
with the one of an earlier operation (refinement ratios).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

KAPPA = 0.25
# relative rigidity spacing h = 1/12 gives 25 nodes per axis on every box
RIGIDITY_H = 1.0 / 12.0
RIGIDITY_SIZES = (1.0, 2.0, 4.0)
# the solve grids; the refinement-ratio check needs two
SOLVE_NODES = (21, 25)
# the two Legendre resolutions halve every spacing
LEGENDRE_NODES = (33, 65)


@dataclass
class Operation:
    label: str
    argv: list[str]
    expect: int
    check: Callable[[dict | None, dict], list[str]]
    # a fault of the program this operation shows every time; its failure is
    # counted but does not make the run incorrect
    known_fault: str | None = None


def build(workload: str, seed: int, out: Path) -> list[Operation]:
    by_name = {
        "dirichlet_exp": _dirichlet_exp,
        "rigidity_convex": _rigidity_convex,
        "closed_form": _closed_form,
    }
    if workload not in by_name:
        raise SystemExit(f"unknown workload {workload!r}; choose one of {sorted(by_name)}")
    return by_name[workload](seed, out)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _complex(obj):
    """Undo the report's {"re", "im"} encoding of complex numbers."""
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        return complex(obj["re"], obj["im"])
    if isinstance(obj, list):
        return [_complex(v) for v in obj]
    return obj


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _fmt_matrix(A: np.ndarray) -> str:
    return ";".join(_fmt(row) for row in A)


# ---------------------------------------------------------------------------
# dirichlet_exp: Newton solves of the exponential solution's Dirichlet problem
# ---------------------------------------------------------------------------


def check_solve(m: int, out: Path, report: dict, state: dict) -> list[str]:
    """Solution file against the closed form and the benchmark's own stencil."""
    u = np.fromfile(out / "solution.fld.bin", dtype="<f8")
    if u.size != m**3:
        return [f"solution has {u.size} values, expected {m**3}"]
    u = u.reshape(m, m, m)
    h = 2.0 / (m - 1)
    exact = reference.exponential(*reference.cube_axes(-1.0, 1.0, m), KAPPA)
    problems = []
    ring = np.abs(u - exact)
    ring[1:-1, 1:-1, 1:-1] = 0.0
    if ring.max() > 1e-12 * np.abs(exact).max():
        problems.append(f"boundary values differ from the data by {ring.max():.3e}")
    err = float(np.abs(u - exact)[1:-1, 1:-1, 1:-1].max())
    res, utt = reference.stencil_residual(u, h)
    norm = float(np.linalg.norm(res))
    tol = report["solve_report"]["tol"]
    contract = 1e-10 * math.sqrt((m - 2) ** 3)
    if not tol <= contract * (1 + 1e-12):
        problems.append(f"reported tolerance {tol:.3e} is looser than 1e-10 sqrt(n) = {contract:.3e}")
    if not norm <= tol:
        problems.append(f"recomputed residual norm {norm:.3e} exceeds the tolerance {tol:.3e}")
    if not utt.min() > 0.0:
        problems.append(f"recomputed min u_tt = {utt.min():.3e} is not positive")
    state.setdefault("solve_errors", []).append((h, err))
    pairs = state["solve_errors"]
    if len(pairs) == 2:
        (h1, e1), (h2, e2) = pairs
        want = (h1 / h2) ** 2
        if not abs(e1 / e2 - want) <= 0.1 * want:
            problems.append(f"error ratio {e1 / e2:.4f} is not within 10% of (h1/h2)^2 = {want:.4f}")
    return problems


def _dirichlet_exp(seed: int, out: Path) -> list[Operation]:
    ops = []
    for m in SOLVE_NODES:
        where = out / f"solve{m}"
        ops.append(
            Operation(
                label=f"solve {m}^3",
                argv=["solve", "--candidate", "counterexample", "--grid", f"3,-1..1,{m}",
                      "--seed", str(seed), "--out", str(where)],
                expect=0,
                check=lambda rep, st, m=m, where=where: check_solve(m, where, rep, st),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# rigidity_convex: growing-box sweep with perturbed convex data
# ---------------------------------------------------------------------------


def check_rigidity(report: dict, state: dict) -> list[str]:
    rows = report["rows"]
    problems = []
    if [r["L"] for r in rows] != list(RIGIDITY_SIZES):
        return [f"rows for L = {[r['L'] for r in rows]}, expected {list(RIGIDITY_SIZES)}"]
    m = int(round(2.0 / RIGIDITY_H)) + 1
    contract = 1e-10 * math.sqrt((m - 2) ** 3)
    for r in rows:
        if not r["converged"]:
            problems.append(f"row L={r['L']} did not converge: {r['error']}")
        elif not r["residual_norm"] <= contract:
            problems.append(f"row L={r['L']} residual {r['residual_norm']:.3e} > {contract:.3e}")
        if r["nodes_per_axis"] != m:
            problems.append(f"row L={r['L']} has {r['nodes_per_axis']} nodes per axis, expected {m}")
    oscs = [r["osc_u11_inner"] for r in rows if r["converged"]]
    if len(oscs) == len(rows) and any(b > a for a, b in zip(oscs, oscs[1:])):
        problems.append(f"osc u_tt increases with L: {oscs}")
    return problems


def _rigidity_convex(seed: int, out: Path) -> list[Operation]:
    return [
        Operation(
            label="rigidity sweep",
            argv=["rigidity", "--candidate", "quadratic", "--eps", "0.1",
                  "--sizes", _fmt(RIGIDITY_SIZES), f"--h={RIGIDITY_H!r}", "--seed", str(seed)],
            expect=0,
            check=check_rigidity,
        )
    ]


# ---------------------------------------------------------------------------
# closed_form: short calls on the exact families, no linear solve
# ---------------------------------------------------------------------------


def _harmonic_b(rng) -> dict[str, float]:
    """Random harmonic b = c0 + c1 x + c2 y + c3 (x^2 - y^2) + c4 x y."""
    c = rng.uniform(-0.3, 0.3, 5)
    return {"0,0": c[0], "1,0": c[1], "0,1": c[2], "2,0": c[3], "0,2": -c[3], "1,1": c[4]}


def _kappa_off(rng) -> float:
    """A kappa at least 0.01 away from 1/4, so the exit code is always 1."""
    return float(rng.choice([rng.uniform(0.05, 0.24), rng.uniform(0.26, 2.0)]))


def _he_argv(a: float, b: dict) -> list[str]:
    return ["--candidate", "heform", f"--a={a!r}", "--b-coeffs=" + json.dumps(b), "--dim", "3"]


def check_verify_exponential(kappa: float, report: dict, state: dict) -> list[str]:
    want = abs(4.0 * kappa - 1.0)
    tol = 1e-14 * (1.0 + 4.0 * kappa)
    problems = []
    got = report["checks"][0]["value"]
    if abs(got - want) > tol:
        problems.append(f"max residual {got!r}, expected |4 kappa - 1| = {want!r}")
    if abs(report["residual_mean_abs"] - want) > tol:
        problems.append(f"mean residual {report['residual_mean_abs']!r}, expected {want!r}")
    return problems


def check_verify_he(report: dict, state: dict) -> list[str]:
    got = report["checks"][0]["value"]
    return [] if got <= 1e-13 else [f"He-form residual {got:.3e}, expected 0"]


def check_curvature(kappa: float, probes: np.ndarray, report: dict, state: dict) -> list[str]:
    details = report["probes"]
    if len(details) != len(probes):
        return [f"{len(details)} probes reported, {len(probes)} asked"]
    want_g = reference.exponential_metric(probes, kappa)
    problems = []
    for p, d, g_ref in zip(probes, details, want_g):
        g = np.array(_complex(d["g"]), dtype=complex)
        if np.abs(g - g_ref).max() > 1e-13 * np.abs(g_ref).max():
            problems.append(f"g at {p.tolist()} differs from the pull-back by {np.abs(g - g_ref).max():.3e}")
        if _rel(d["det_g"], kappa / 4.0) > 1e-12:
            problems.append(f"det g = {d['det_g']!r} at {p.tolist()}, expected kappa/4 = {kappa / 4.0!r}")
    return problems


def check_barrier(H, lin, level, rng_seed, round_set, report, state) -> list[str]:
    """sigma2(M^2) >= 1/(4h^2) with the ellipsoid inside K_h = {q <= h}."""
    M = np.array(report["ellipsoid_matrix"], dtype=float)
    center = np.array(report["minimizer"], dtype=float)
    xstar = np.linalg.solve(H, -lin)
    problems = []
    if np.linalg.norm(center - xstar) > 1e-8 * (1.0 + np.linalg.norm(xstar)):
        problems.append(f"minimizer {center.tolist()} is not the closed-form {xstar.tolist()}")
    value = reference.sigma2(M @ M)
    bound = 1.0 / (4.0 * level * level)
    if _rel(report["barrier"]["value"], value) > 1e-12:
        problems.append(f"reported sigma2(M^2) {report['barrier']['value']!r}, recomputed {value!r}")
    if value < bound * (1.0 - 1e-12):
        problems.append(f"sigma2(M^2) = {value!r} < 1/(4h^2) = {bound!r}")
    if round_set and _rel(value, bound) > 1e-12:
        problems.append(f"round sublevel set: sigma2(M^2) = {value!r} is not 1/(4h^2) = {bound!r}")
    excess = reference.containment_excess(M, center, H, xstar, level, np.random.default_rng(rng_seed))
    if excess > 1e-9:
        problems.append(f"ellipsoid leaves K_h: max q / h - 1 = {excess:.3e} on its boundary")
    return problems


def check_legendre(m, span, z_span, kappa, out, report, state) -> list[str]:
    (a, b), w = span
    z = np.linspace(z_span[0], z_span[1], m)
    x = np.linspace(a, a + w, m)
    y = np.linspace(b, b + w, m)
    Z, X, Y = np.meshgrid(z, x, y, indexing="ij")
    exact = reference.legendre_theta(Z, X, Y, kappa)
    problems = []
    if out is not None:
        theta = np.fromfile(out / "theta.fld.bin", dtype="<f8")
        if theta.size != m**3:
            return [f"theta has {theta.size} values, expected {m**3}"]
        gap = float(np.abs(theta.reshape(m, m, m) - exact).max())
        if gap > 1e-10:
            problems.append(f"theta differs from its closed form by {gap:.3e}")
    own = float(np.abs(reference.laplacian(exact, (z[1] - z[0], x[1] - x[0], y[1] - y[0]))).max())
    got = report["max_discrete_laplacian"]
    # theta's rounding error, amplified by 1/h^2, is ~1e-6 of the Laplacian at 65^3
    if _rel(got, own) > 1e-4:
        problems.append(f"max discrete Laplacian {got!r}, closed form gives {own!r}")
    state.setdefault("harmonicity", []).append(got)
    levels = state["harmonicity"]
    if len(levels) == 2 and not 3.5 <= levels[0] / levels[1] <= 4.5:
        problems.append(f"harmonicity ratio {levels[0] / levels[1]:.4f} is outside [3.5, 4.5]")
    return problems


def check_classify_exponential(kappa: float, report: dict, state: dict) -> list[str]:
    box = report["probe_box"]
    if box != [[-2.0, 2.0]] * 3:
        return [f"probe box {box}, expected [-2, 2]^3"]
    r2max = 8.0
    # u_tt = r^2 e^t + kappa e^{-t}: least at r = 0, t = 2; largest at a corner
    lo = kappa * math.exp(-2.0)
    hi = max(r2max * math.exp(2.0) + kappa * math.exp(-2.0), r2max * math.exp(-2.0) + kappa * math.exp(2.0))
    problems = []
    for key, want in (("u11_min", lo), ("u11_max", hi), ("osc_u11", hi - lo)):
        if _rel(report[key], want) > 1e-12:
            problems.append(f"{key} = {report[key]!r}, formula gives {want!r}")
    if report["verdict"] != "NOT-He-form":
        problems.append(f"verdict {report['verdict']!r} for the exponential solution")
    return problems


def check_classify_he(a: float, report: dict, state: dict) -> list[str]:
    problems = []
    if report["verdict"] != "He-form" or report["osc_u11"] != 0.0:
        problems.append(f"verdict {report['verdict']!r}, osc u_tt {report['osc_u11']!r}: u_tt = 2a is constant")
    if report["a"] is None or _rel(report["a"], a) > 1e-12:
        problems.append(f"extracted a = {report['a']!r}, expected {a!r}")
    # theta = (z - b(x)) / (2a) is harmonic because b is; a quadratic b makes
    # the discrete Laplacian exact up to rounding
    th = report["theta_harmonicity"]
    if th is None or th > 1e-9:
        problems.append(f"theta harmonicity {th!r}, expected rounding level")
    return problems


def _rotation(angles) -> np.ndarray:
    a, b, c = angles
    rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, math.cos(b), -math.sin(b)], [0, math.sin(b), math.cos(b)]])
    ry = np.array([[math.cos(c), 0, math.sin(c)], [0, 1, 0], [-math.sin(c), 0, math.cos(c)]])
    return rz @ rx @ ry


def _closed_form(seed: int, out: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    ops: list[Operation] = []
    s = str(seed)

    # verify: exponential family (residual 4 kappa - 1) and He-forms (residual 0)
    for i in range(12):
        kappa = KAPPA if i % 3 == 0 else _kappa_off(rng)
        points = (2000, 20000, 100000)[i % 3]
        ops.append(Operation(
            f"verify exponential kappa={kappa:.4g}",
            ["verify", "--candidate", "counterexample", f"--kappa={kappa!r}", "--points", str(points), "--seed", s],
            0 if kappa == KAPPA else 1,
            lambda rep, st, k=kappa: check_verify_exponential(k, rep, st),
        ))
    for i in range(12):
        a = float(rng.uniform(0.3, 2.0))
        ops.append(Operation(
            "verify He-form",
            ["verify", *_he_argv(a, _harmonic_b(rng)), "--points", str((2000, 20000)[i % 2]), "--seed", s],
            0,
            check_verify_he,
        ))

    # curvature: many probes per call; det g = kappa / 4 is 1/16 only at kappa = 1/4
    for i in range(16):
        kappa = KAPPA if i % 4 else _kappa_off(rng)
        probes = rng.uniform(-1.0, 1.0, (12, 4))
        ops.append(Operation(
            "curvature",
            ["curvature", "--candidate", "counterexample", f"--kappa={kappa!r}",
             "--points=" + ";".join(_fmt(p) for p in probes), "--sample", "500", "--seed", s],
            0 if kappa == KAPPA else 1,
            lambda rep, st, k=kappa, p=probes: check_curvature(k, p, rep, st),
        ))

    # barrier: axis-aligned quadratics and He-forms at random levels, plus the
    # round quadratic, whose sublevel set is exactly the seed ellipsoid
    for i in range(24):
        level = float(rng.uniform(0.2, 3.0))
        d1, d2 = rng.uniform(0.2, 3.0, 2)
        A = np.diag([1.0 / (d1 + d2), d1, d2])
        lin = rng.uniform(-1.0, 1.0, 3)
        ops.append(Operation(
            "barrier quadratic",
            ["barrier", "--candidate", "quadratic", "--A=" + _fmt_matrix(A), "--b=" + _fmt(lin),
             f"--c={float(rng.uniform(-1, 1))!r}", f"--level={level!r}", "--seed", s],
            0,
            lambda rep, st, A=A, lin=lin, h=level, r=int(rng.integers(2**31)):
                check_barrier(A, lin, h, r, False, rep, st),
        ))
    for i in range(12):
        level = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.3, 2.0))
        b0 = float(rng.uniform(-1.0, 1.0))
        H = np.diag([2.0 * a, 0.25 / a, 0.25 / a])
        ops.append(Operation(
            "barrier He-form",
            ["barrier", *_he_argv(a, {"0,0": b0}), f"--level={level!r}", "--seed", s],
            0,
            lambda rep, st, H=H, b0=b0, h=level, r=int(rng.integers(2**31)):
                check_barrier(H, np.array([b0, 0.0, 0.0]), h, r, False, rep, st),
        ))
    for i in range(3):
        level = float(rng.uniform(0.2, 3.0))
        ops.append(Operation(
            "barrier round quadratic",
            ["barrier", "--candidate", "quadratic", f"--level={level!r}", "--seed", s],
            0,
            lambda rep, st, h=level, r=int(rng.integers(2**31)):
                check_barrier(np.diag([1.0, 0.5, 0.5]), np.zeros(3), h, r, True, rep, st),
        ))
    # A fixed rotated quadratic: the inscribed ellipsoid is certified on 1000
    # sampled boundary points only and sticks out of K_h between them.
    R = _rotation((0.7, 0.4, 1.1))
    A = R @ np.diag([0.5, 1.0, 2.0]) @ R.T
    A = 0.5 * (A + A.T) / math.sqrt(reference.sigma2(A))
    ops.append(Operation(
        "barrier rotated quadratic",
        ["barrier", "--candidate", "quadratic", "--A=" + _fmt_matrix(A), "--level=1.0", "--seed", s],
        0,
        lambda rep, st, A=A: check_barrier(A, np.zeros(3), 1.0, 0, False, rep, st),
        known_fault="inscribe_ellipsoid certifies containment on sampled boundary points only",
    ))

    # legendre: one box, two resolutions; the coarse field is written and read back
    a, b = (float(v) for v in rng.uniform(0.75, 1.5, 2))
    w = 0.5
    r2min, r2max = a * a + b * b, (a + w) ** 2 + (b + w) ** 2
    attained = (r2max * math.exp(-1.0) - KAPPA * math.e, r2min * math.exp(2.0) - KAPPA * math.exp(-2.0))
    mid = 0.5 * (attained[0] + attained[1])
    z_span = (mid - 0.5, mid + 0.5)
    for m in LEGENDRE_NODES:
        where = out / f"legendre{m}" if m == LEGENDRE_NODES[0] else None
        argv = ["legendre", "--candidate", "counterexample", "--t-span=-1..2",
                f"--x-spans={a!r}..{a + w!r},{b!r}..{b + w!r}", "--shape", f"{m},{m}",
                f"--z-span={z_span[0]!r}..{z_span[1]!r}", "--z-count", str(m), "--seed", s]
        if where is not None:
            argv += ["--out", str(where)]
        ops.append(Operation(
            f"legendre {m}^3",
            argv,
            0,
            lambda rep, st, m=m, where=where, span=((a, b), w):
                check_legendre(m, span, z_span, KAPPA, where, rep, st),
        ))

    # classify: the exponential solution is not of He's form; He-forms are
    for _ in range(3):
        kappa = float(rng.uniform(0.1, 1.0))
        ops.append(Operation(
            "classify exponential",
            ["classify", "--candidate", "counterexample", f"--kappa={kappa!r}", "--seed", s],
            0,
            lambda rep, st, k=kappa: check_classify_exponential(k, rep, st),
        ))
    for _ in range(3):
        a = float(rng.uniform(1.0, 2.0))
        ops.append(Operation(
            "classify He-form",
            ["classify", *_he_argv(a, _harmonic_b(rng)), "--seed", s],
            0,
            lambda rep, st, a=a: check_classify_he(a, rep, st),
        ))
    return ops
