"""Traced mode: spans and counts around the calls into each sigma2lab layer.

``install`` replaces every function listed in ``_TARGETS`` by a wrapper,
under each name the program looks it up by: the module attribute, and the
names ``cli`` and ``solver`` import with ``from ... import``.  A wrapper
records a span (name, start, end, parent) and updates the per-round
counters.  Nothing under ``src/`` changes, and a listed name that the
program no longer has is skipped, so its metrics read zero.

The factor ``scipy.sparse.linalg.splu`` returns is wrapped as well, so its
``solve`` calls are timed.  Its size is read from ``SuperLU.nnz``: reading
``.L`` or ``.U`` would build copies of the factors.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (metric prefix, owner, attribute): owner is "module" or "module:Class"
_TARGETS = [
    ("cli", "sigma2lab.cli", "main"),
    ("solver.newton_solve", "sigma2lab.solver", "newton_solve"),
    ("solver.newton_solve", "sigma2lab.cli", "newton_solve"),
    ("solver.assemble_jacobian", "sigma2lab.solver", "assemble_jacobian"),
    ("linsolve.splu", "scipy.sparse.linalg", "splu"),
    ("core_ops.sigma2_interior", "sigma2lab.core_ops", "sigma2_interior"),
    ("core_ops.sigma2_interior", "sigma2lab.solver", "sigma2_interior"),
    ("core_ops.second_diff", "sigma2lab.core_ops", "second_diff"),
    ("core_ops.second_diff", "sigma2lab.solver", "second_diff"),
    ("core_ops.second_diff", "sigma2lab.analysis", "second_diff"),
    ("candidates.eval_many", "sigma2lab.candidates:CandidateSolution", "eval_many"),
    ("candidates.residual_many", "sigma2lab.candidates:CandidateSolution", "residual_many"),
    ("kahler.metric_batch", "sigma2lab.kahler", "metric_batch"),
    ("analysis.inscribe_ellipsoid", "sigma2lab.analysis", "inscribe_ellipsoid"),
    ("analysis.boundary_points", "sigma2lab.analysis:EllipsoidMap", "boundary_points"),
    ("analysis.sublevel_set", "sigma2lab.analysis:SublevelSet", "from_candidate"),
    ("analysis.sublevel_set", "sigma2lab.analysis:SublevelSet", "from_field"),
    ("analysis.partial_legendre", "sigma2lab.analysis", "partial_legendre"),
    ("analysis.he_reduction_report", "sigma2lab.analysis", "he_reduction_report"),
]

# every per-layer metric, so a round that never reaches a layer reports zeros
METRICS = [
    "cli.calls", "cli.self_s",
    "solver.newton_solve.calls", "solver.newton_iterations", "solver.init_s",
    "solver.nested_solve_s", "solver.assemble_jacobian.calls", "solver.assemble_jacobian.s",
    "linsolve.factorizations", "linsolve.fine_factorizations", "linsolve.factor_s",
    "linsolve.triangular_solve_s", "linsolve.max_factor_nnz",
    "core_ops.sigma2_interior.calls", "core_ops.sigma2_interior.nodes", "core_ops.sigma2_interior.s",
    "core_ops.second_diff.calls", "core_ops.second_diff.s",
    "candidates.eval_many.calls", "candidates.eval_many.points", "candidates.eval_many.s",
    "candidates.residual_many.points", "candidates.residual_many.s",
    "kahler.metric_batch.calls", "kahler.metric_batch.points", "kahler.metric_batch.s",
    "analysis.inscribe_ellipsoid.calls", "analysis.inscribe_ellipsoid.s",
    "analysis.containment_tests", "analysis.sublevel_set.s",
    "analysis.partial_legendre.s", "analysis.he_reduction_report.s",
]


def _rows(args, kwargs) -> int:
    """Number of points passed to ``f(self, points, ...)``: an (N, k) array is N."""
    points = args[1] if len(args) > 1 else kwargs.get("points")
    shape = np.shape(points)  # a single point, or a ComplexPoint, counts once
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Spans kept in memory plus the counters of the current round."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, parent, child time, span index]
        self.round: dict[str, float] = defaultdict(float)
        self._solve = None  # outermost newton_solve: [start, fine shape, fine size, saw fine Jacobian]
        self._solve_depth = 0
        self._ellipsoid_depth = 0

    def new_round(self) -> None:
        self.round = defaultdict(float)

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> None:
        parent = self._stack[-1][4] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # filled when the span closes
        self._stack.append([name, time.perf_counter(), parent, 0.0, index])

    def _close(self) -> float:
        name, start, parent, child, index = self._stack.pop()
        end = time.perf_counter()
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        self.spans[index] = (self._name_index[name], start, end, parent)
        if self._stack:
            self._stack[-1][3] += end - start
        if name == "cli":
            self.round["cli.self_s"] += end - start - child
        return end - start

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[n, round(s, 7), round(e, 7), p] for n, s, e, p in self.spans]
        path.write_text(json.dumps({"names": self.names, "columns": ["name", "start", "end", "parent"],
                                    "spans": rows}))

    # -- per-layer hooks ---------------------------------------------------------
    def call(self, prefix: str, before, fn, args, kwargs):
        if before is not None:
            before(args)
        self._open(prefix)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._close()
            self._after(prefix, args, kwargs, elapsed)
        if prefix == "solver.newton_solve":
            self.round["solver.newton_iterations"] += result.iterations
        elif prefix == "linsolve.splu":
            return _Factor(self, result)
        return result

    def _before_solver_newton_solve(self, args) -> None:
        if self._solve_depth == 0:
            grid = args[0].grid
            self._solve = [time.perf_counter(), grid.shape, math.prod(m - 2 for m in grid.shape), False]
        self._solve_depth += 1

    def _before_solver_assemble_jacobian(self, args) -> None:
        solve = self._solve
        if self._solve_depth and not solve[3] and args[0].grid.shape == solve[1]:
            solve[3] = True
            self.round["solver.init_s"] += time.perf_counter() - solve[0]

    def _before_analysis_inscribe_ellipsoid(self, args) -> None:
        self._ellipsoid_depth += 1

    def _after(self, prefix: str, args, kwargs, elapsed: float) -> None:
        r = self.round
        if prefix == "solver.newton_solve":
            self._solve_depth -= 1
            if self._solve_depth == 1:
                r["solver.nested_solve_s"] += elapsed
            elif self._solve_depth == 0 and not self._solve[3]:
                r["solver.init_s"] += elapsed
        elif prefix == "linsolve.splu":
            r["linsolve.factorizations"] += 1
            r["linsolve.factor_s"] += elapsed
            if self._solve_depth and args[0].shape[0] == self._solve[2]:
                r["linsolve.fine_factorizations"] += 1
            return
        elif prefix == "core_ops.sigma2_interior":
            r["core_ops.sigma2_interior.nodes"] += math.prod(m - 2 for m in args[0].shape)
        elif prefix in ("candidates.eval_many", "candidates.residual_many"):
            r[prefix + ".points"] += _rows(args, kwargs)
        elif prefix == "kahler.metric_batch":
            r["kahler.metric_batch.points"] += _rows(args, kwargs)
        elif prefix == "analysis.inscribe_ellipsoid":
            self._ellipsoid_depth -= 1
        elif prefix == "analysis.boundary_points":
            if self._ellipsoid_depth:
                r["analysis.containment_tests"] += 1
            return
        if prefix == "cli":
            r["cli.calls"] += 1
            return
        r[prefix + ".calls"] += 1
        r[prefix + ".s"] += elapsed


class _Factor:
    """Stands in for a SuperLU factor: times ``solve``, forwards the rest."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu
        r = tracer.round
        r["linsolve.max_factor_nnz"] = max(r["linsolve.max_factor_nnz"], float(lu.nnz))

    def solve(self, *args, **kwargs):
        self._tracer._open("linsolve.solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.round["linsolve.triangular_solve_s"] += self._tracer._close()

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def install(tracer: Tracer) -> None:
    """Wrap every target the program still has."""
    wrapped: dict[int, object] = {}
    for prefix, owner, attr in _TARGETS:
        obj = _resolve(owner)
        if obj is None:
            continue
        raw = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        if raw is None:
            continue
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if id(fn) not in wrapped:
            wrapped[id(fn)] = _wrapper(tracer, prefix, fn)
        new = wrapped[id(fn)]
        setattr(obj, attr, classmethod(new) if is_classmethod else new)


def _wrapper(tracer: Tracer, prefix: str, fn):
    before = getattr(tracer, "_before_" + prefix.replace(".", "_"), None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(prefix, before, fn, args, kwargs)

    return traced
