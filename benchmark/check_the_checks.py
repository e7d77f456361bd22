"""Show that every output check of the benchmark catches a wrong answer.

    python3 benchmark/check_the_checks.py [--workload NAME] [--seed N]

Runs each operation of the workloads once, requires its check to pass on the
program's real output (or to fail, for an operation marked as a known
fault), then corrupts the output in each of the ways listed below and
requires the check to report the matching problem.  Exits 1 on the first
check that misses a corruption.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference
import run
import workloads

OUT = run.OUT / "check-the-checks"


@contextlib.contextmanager
def _edited(path: Path, edit):
    """Temporarily replace a float64 file's values by edit(values)."""
    original = path.read_bytes()
    values = np.frombuffer(original, dtype="<f8").copy()
    path.write_bytes(np.ascontiguousarray(edit(values), dtype="<f8").tobytes())
    try:
        yield
    finally:
        path.write_bytes(original)


def _bump_interior(m: int, amount: float):
    def edit(v):
        u = v.reshape(m, m, m)
        u[m // 2, m // 2, m // 2] += amount
        return u

    return edit


def _concave_interior(m: int):
    def edit(v):
        u = v.reshape(m, m, m)
        t = np.linspace(-1.0, 1.0, m)[:, None, None]
        u[1:-1, 1:-1, 1:-1] += 50.0 * (1.0 - t[1:-1] ** 2)
        return u

    return edit


def _set(path: list, value_of):
    """Corruption of one report entry: report[path] = value_of(old value)."""

    def corrupt(report, state):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value_of(node[path[-1]])

    return corrupt


def _below_bound(report, state):
    """Grow the ellipsoid until sigma2(M^2) is half the bound 1/(4h^2)."""
    b = report["barrier"]
    s = (0.5 * b["bound"] / b["value"]) ** 0.25
    report["ellipsoid_matrix"] = (s * np.array(report["ellipsoid_matrix"])).tolist()
    b["value"] *= s**4


def corruptions(op):
    """(what is wrong, corruption of (report, state) or a file edit, problem text)."""
    kind = op.label.split()[0]
    if kind == "solve":
        m = int(op.argv[op.argv.index("--grid") + 1].split(",")[-1])
        path = Path(op.argv[op.argv.index("--out") + 1]) / "solution.fld.bin"
        found = [
            ("one interior value off by 1e-3", (path, _bump_interior(m, 1e-3)), "recomputed residual norm"),
            ("boundary ring shifted", (path, lambda v: v + 1e-6), "boundary values"),
            ("interior not convex in t", (path, _concave_interior(m)), "min u_tt"),
            ("tolerance loosened", _set(["solve_report", "tol"], lambda v: 100.0 * v), "looser than"),
        ]
        if m == workloads.SOLVE_NODES[1]:
            # halve the fine grid's error: the refinement ratio doubles
            def halve(v, m=m):
                exact = reference.exponential(
                    *reference.cube_axes(-1.0, 1.0, m), workloads.KAPPA)
                return exact + 0.5 * (v.reshape(m, m, m) - exact)

            found.append(("fine-grid error halved", (path, halve), "error ratio"))
        return found
    if kind == "rigidity":
        return [
            ("a row did not converge", _set(["rows", 0, "converged"], lambda v: False), "did not converge"),
            ("oscillation grows with L", _set(["rows", 2, "osc_u11_inner"], lambda v: 1.0), "increases with L"),
            ("wrong resolution", _set(["rows", 1, "nodes_per_axis"], lambda v: v + 2), "nodes per axis"),
            ("loose residual", _set(["rows", 1, "residual_norm"], lambda v: 1.0), "residual"),
        ]
    if op.label.startswith("verify exponential"):
        return [
            ("max residual off by 1e-12", _set(["checks", 0, "value"], lambda v: v + 1e-12), "max residual"),
            ("mean residual off by 1e-12", _set(["residual_mean_abs"], lambda v: v + 1e-12), "mean residual"),
        ]
    if op.label.startswith("verify He-form"):
        return [("residual 1e-10", _set(["checks", 0, "value"], lambda v: 1e-10), "He-form residual")]
    if kind == "curvature":
        def nudge_g(g):
            g[0][1]["im"] += 1e-9
            return g

        return [
            ("g off by 1e-9", _set(["probes", 3, "g"], nudge_g), "pull-back"),
            ("det g off by 1e-12", _set(["probes", 5, "det_g"], lambda v: v + 1e-12), "det g"),
        ]
    if kind == "barrier":
        scale = lambda s: (lambda M: (s * np.array(M)).tolist())  # noqa: E731
        found = [
            ("ellipsoid 0.1% too large", _set(["ellipsoid_matrix"], scale(0.999)), "leaves K_h"),
            ("ellipsoid large enough to break the bound", _below_bound, "< 1/(4h^2)"),
            ("barrier value misreported", _set(["barrier", "value"], lambda v: v * (1 + 1e-9)), "reported sigma2"),
            ("minimizer moved", _set(["minimizer"], lambda c: [c[0] + 1e-6, *c[1:]]), "minimizer"),
        ]
        if "round" in op.label:
            found.append(("round ellipsoid shrunk", _set(["ellipsoid_matrix"], scale(1.000001)), "round sublevel"))
        return found
    if kind == "legendre":
        found = [
            ("Laplacian misreported", _set(["max_discrete_laplacian"], lambda v: 1.01 * v), "max discrete Laplacian"),
        ]
        if "--out" in op.argv:
            path = Path(op.argv[op.argv.index("--out") + 1]) / "theta.fld.bin"
            m = int(op.argv[op.argv.index("--z-count") + 1])
            found.append(("theta off by 1e-8", (path, _bump_interior(m, 1e-8)), "closed form"))
        else:
            def wrong_ratio(report, state):
                state["harmonicity"] = [2.0 * report["max_discrete_laplacian"]]

            found.append(("harmonicity ratio 2", wrong_ratio, "harmonicity ratio"))
        return found
    if op.label.startswith("classify exponential"):
        return [
            ("oscillation off by 1e-6", _set(["osc_u11"], lambda v: v + 1e-6), "osc_u11"),
            ("u_tt minimum wrong", _set(["u11_min"], lambda v: 2.0 * v), "u11_min"),
            ("verdict flipped", _set(["verdict"], lambda v: "He-form"), "verdict"),
        ]
    if op.label.startswith("classify He-form"):
        return [
            ("u_tt not constant", _set(["osc_u11"], lambda v: 1e-3), "verdict"),
            ("a wrong", _set(["a"], lambda v: v * (1 + 1e-9)), "extracted a"),
            ("theta not harmonic", _set(["theta_harmonicity"], lambda v: 1e-3), "theta harmonicity"),
        ]
    raise SystemExit(f"no corruption defined for operation {op.label!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("dirichlet_exp", "rigidity_convex", "closed_form"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    names = [args.workload] if args.workload else ["dirichlet_exp", "rigidity_convex", "closed_form"]
    try:
        shown = sum(_show(name, args.seed) for name in names)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{shown} corruptions caught")
    return 0


def _show(name: str, seed: int) -> int:
    """Corruptions caught on one workload; exits on the first one missed."""
    shown = 0
    _, cli, ops = run.set_up(name, seed, OUT / name)
    state: dict = {}
    for op in ops:
        code, text, err, _ = run.invoke(cli, op.argv)
        if code != op.expect:
            raise SystemExit(f"{op.label}: exit {code}, expected {op.expect}: {err[-400:]}")
        report = json.loads(text)
        before = copy.deepcopy(state)
        problems = op.check(copy.deepcopy(report), state)
        if bool(problems) != bool(op.known_fault):
            raise SystemExit(f"{op.label}: check on the real output gives {problems or 'no problem'}")
        for what, corruption, expected in corruptions(op):
            bad, st = copy.deepcopy(report), copy.deepcopy(before)
            if isinstance(corruption, tuple):
                with _edited(*corruption):
                    problems = op.check(bad, st)
            else:
                corruption(bad, st)
                problems = op.check(bad, st)
            if not any(expected in p for p in problems):
                raise SystemExit(f"MISSED {op.label}: {what}: got {problems}")
            shown += 1
    print(f"{name}: {len(ops)} operations, every corruption caught")
    return shown


if __name__ == "__main__":
    sys.exit(main())
