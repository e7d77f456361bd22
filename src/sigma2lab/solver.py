"""Damped Newton solver for the Dirichlet problem sigma2_tilde(D^2 u) = 1.

The discrete residual at an interior node is sigma2_tilde of the central
second-difference Hessian minus 1.  Because the operator is quadratic in u,
Newton's method with exact Jacobian rows (from ``sigma2_linearization``
applied to the current discrete Hessian) converges quadratically once inside
the ellipticity cone u_tt > 0; a backtracking line search on ||F||_2 keeps
iterates there.  Boundary nodes are hard Dirichlet constraints eliminated
from the linear systems.

Each Newton correction solves J delta = -F by GMRES preconditioned with one
multigrid V-cycle (Briggs, Henson & McCormick, *A Multigrid Tutorial*).  The
levels are the dyadic ladder of ``_coarsen_levels``, the same one the auto
start refines along; coarse operators are the Galerkin products P^T J P with
P the trilinear prolongation of interior corrections (zero on the boundary),
every level but the coarsest smooths with damped Jacobi, and the coarsest
level alone is factorised by sparse LU.  A grid with no dyadic ladder (an
even node count, say) is the one-level case: its coarsest level is J itself.
Every solve must reach relative residual 1e-10 or raise LinearSolveFailure.

Initialization ("auto") solves one discrete Laplace problem with the given
boundary data plus one Poisson problem with unit load, then picks the
combination u_harmonic + c*w whose mean discrete operator value is 1 --
exact root of a scalar quadratic.  For quadratic boundary data this lands on
the discrete solution itself.  Both Dirichlet problems are diagonalised
exactly by the type-1 discrete sine transform (Buzbee, Golub & Nielson
1970), so the calibration costs a few FFTs instead of a factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from .core_ops import Grid, ScalarField, second_diff, sigma2_interior
from .errors import (
    ConfigError,
    EllipticityLost,
    LinearSolveFailure,
    MaxIterExceeded,
    NotConvex,
    SolverError,
)

__all__ = [
    "DirichletProblem",
    "SolveReport",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "rigidity_sweep",
]

_LINEAR_RELRES = 1e-10
# linear solve: GMRES(_GMRES_RESTART) for at most _GMRES_CYCLES restarts,
# preconditioned by a V(_SMOOTHING_SWEEPS, _SMOOTHING_SWEEPS) cycle whose
# Jacobi sweeps are damped by _JACOBI_WEIGHT
_GMRES_RESTART = 40
_GMRES_CYCLES = 5
_SMOOTHING_SWEEPS = 2
_JACOBI_WEIGHT = 0.8


@dataclass
class DirichletProblem:
    """Grid plus Dirichlet data; the right-hand side is the constant 1.

    ``boundary`` is a full-shape field of which only the boundary ring is
    ever read.
    """

    grid: Grid
    boundary: ScalarField

    def __post_init__(self):
        if self.boundary.grid != self.grid:
            raise ConfigError("boundary field must live on the problem grid")

    @classmethod
    def from_candidate(cls, grid: Grid, candidate) -> "DirichletProblem":
        return cls(grid, ScalarField.sample(grid, candidate))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "DirichletProblem":
        return cls(grid, ScalarField.from_callable(grid, fn))

    @classmethod
    def from_field(cls, boundary: ScalarField) -> "DirichletProblem":
        return cls(boundary.grid, boundary)

    def default_tol(self) -> float:
        n_int = int(np.prod(self.grid.interior_shape))
        return 1e-10 * np.sqrt(n_int)


@dataclass
class SolveReport:
    """Outcome of a Newton run; ``solution`` is None on failure reports."""

    converged: bool
    iterations: int
    residual_norm: float
    residual_max: float
    min_u11: float
    tol: float
    residual_history: list[float] = field(default_factory=list)
    solution: ScalarField | None = None

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "residual_max": self.residual_max,
            "min_u11": self.min_u11,
            "tol": self.tol,
            "residual_history": list(self.residual_history),
        }


def _hessian_parts(values: np.ndarray, spacing) -> tuple[np.ndarray, list, list]:
    """Discrete (u_tt, [u_ii], [u_ti]) over the interior box."""
    from .core_ops import cross_diff

    utt = second_diff(values, 0, spacing[0])
    diag = [second_diff(values, a, spacing[a]) for a in range(1, values.ndim)]
    cross = [cross_diff(values, 0, a, spacing[0], spacing[a]) for a in range(1, values.ndim)]
    return utt, diag, cross


def assemble_residual(u: ScalarField) -> np.ndarray:
    """F_p = sigma2_tilde(discrete Hessian at p) - 1, flattened C-order."""
    return (sigma2_interior(u.values, u.grid.spacing) - 1.0).ravel()


def _stencil_matrix(entries, interior_shape) -> sp.csr_matrix:
    """Sparse interior-to-interior matrix from (offset, coefficient array) pairs.

    Stencil legs that leave the interior box hit Dirichlet nodes and are
    dropped (their contribution belongs to the right-hand side).
    """
    n = int(np.prod(interior_shape))
    base = np.arange(n).reshape(interior_shape)
    rows, cols, vals = [], [], []
    for off, coeff in entries:
        src, tgt = [], []
        for o, m in zip(off, interior_shape):
            if o == 0:
                src.append(slice(None))
                tgt.append(slice(None))
            elif o == 1:
                src.append(slice(0, m - 1))
                tgt.append(slice(1, m))
            elif o == -1:
                src.append(slice(1, m))
                tgt.append(slice(0, m - 1))
            else:
                raise ConfigError("stencil offsets must be -1, 0, or 1")
        rows.append(base[tuple(src)].ravel())
        cols.append(base[tuple(tgt)].ravel())
        c = np.broadcast_to(coeff, interior_shape)[tuple(src)]
        vals.append(np.ascontiguousarray(c).ravel())
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return mat.tocsr()


def assemble_jacobian(u: ScalarField) -> sp.csr_matrix:
    """Exact Jacobian of ``assemble_residual`` at u (interior unknowns only)."""
    h = u.grid.spacing
    ndim = u.grid.dim
    utt, diag, cross = _hessian_parts(u.values, h)
    c00 = sum(diag)
    entries = []
    center = -2.0 * c00 / h[0] ** 2
    for a in range(1, ndim):
        center = center - 2.0 * utt / h[a] ** 2
    entries.append(((0,) * ndim, center))
    for s in (1, -1):
        off = [0] * ndim
        off[0] = s
        entries.append((tuple(off), c00 / h[0] ** 2))
    for a in range(1, ndim):
        for s in (1, -1):
            off = [0] * ndim
            off[a] = s
            entries.append((tuple(off), utt / h[a] ** 2))
        # mixed t-x legs: coefficient -u_ti enters with the 4-point stencil signs
        for s0 in (1, -1):
            for sa in (1, -1):
                off = [0] * ndim
                off[0] = s0
                off[a] = sa
                entries.append((tuple(off), -cross[a - 1] * (s0 * sa) / (2.0 * h[0] * h[a])))
    return _stencil_matrix(entries, u.grid.interior_shape)


def _boundary_only(problem: DirichletProblem) -> np.ndarray:
    vals = np.zeros(problem.grid.shape)
    mask = problem.grid.boundary_mask()
    vals[mask] = problem.boundary.values[mask]
    return vals


def _interior_embed(grid: Grid, boundary_vals: np.ndarray, interior: np.ndarray) -> np.ndarray:
    full = boundary_vals.copy()
    sl = tuple(slice(1, -1) for _ in range(grid.dim))
    full[sl] = interior.reshape(grid.interior_shape)
    return full


def _discrete_laplacian(values: np.ndarray, spacing) -> np.ndarray:
    out = second_diff(values, 0, spacing[0])
    for a in range(1, values.ndim):
        out = out + second_diff(values, a, spacing[a])
    return out


def _min_u11(values: np.ndarray, spacing) -> float:
    return float(second_diff(values, 0, spacing[0]).min())


def _prolongation_1d(fine: int, coarse: int) -> sp.csr_matrix:
    """Linear interpolation from the coarse to the fine interior nodes of one axis."""
    j = np.arange(coarse - 2)
    rows = np.concatenate([2 * j, 2 * j + 1, 2 * j + 2])
    cols = np.concatenate([j, j, j])
    vals = np.concatenate([np.full(j.size, 0.5), np.ones(j.size), np.full(j.size, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(fine - 2, coarse - 2))


@lru_cache(maxsize=8)
def _prolongations(shape: tuple[int, ...]) -> tuple[sp.csr_matrix, ...]:
    """Tensor-product prolongations up the ladder of ``_coarsen_levels``, coarse first."""
    levels = _coarsen_levels(shape)
    out = []
    for coarse, fine in zip(levels, levels[1:]):
        P = _prolongation_1d(fine[0], coarse[0])
        for f, c in zip(fine[1:], coarse[1:]):
            P = sp.kron(P, _prolongation_1d(f, c), format="csr")
        out.append(P)
    return tuple(out)


def _v_cycle(mat: sp.csr_matrix, shape: tuple[int, ...]):
    """One V-cycle on the Galerkin hierarchy of ``mat`` as a function of the residual."""
    prolongs = _prolongations(shape)
    ops = [mat]
    for P in reversed(prolongs):
        ops.insert(0, (P.T @ ops[0] @ P).tocsr())
    try:
        coarsest = spla.splu(ops[0].tocsc())
    except RuntimeError as exc:
        raise LinearSolveFailure(f"sparse factorization failed: {exc}") from exc
    weights = []
    for A in ops[1:]:
        diag = A.diagonal()
        if not np.all(np.isfinite(diag)) or np.any(diag == 0.0):
            raise LinearSolveFailure("Jacobi smoother needs a finite, nonzero diagonal")
        weights.append(_JACOBI_WEIGHT / diag)

    # a module-level function, not a recursive closure: a closure that calls
    # itself is a reference cycle, and would keep the whole hierarchy (the
    # fine Jacobian included) alive until the cyclic garbage collector runs
    return partial(_cycle, ops, weights, prolongs, coarsest, len(ops) - 1)


def _cycle(ops, weights, prolongs, coarsest, level: int, rhs: np.ndarray) -> np.ndarray:
    if level == 0:
        return coarsest.solve(rhs)
    A, w, P = ops[level], weights[level - 1], prolongs[level - 1]
    x = w * rhs  # first pre-smoothing sweep, from zero
    for _ in range(_SMOOTHING_SWEEPS - 1):
        x += w * (rhs - A @ x)
    x += P @ _cycle(ops, weights, prolongs, coarsest, level - 1, P.T @ (rhs - A @ x))
    for _ in range(_SMOOTHING_SWEEPS):
        x += w * (rhs - A @ x)
    return x


def _solve_sparse(mat: sp.csr_matrix, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve ``mat x = rhs`` for the interior unknowns of ``grid`` to relative residual 1e-10."""
    precond = spla.LinearOperator(mat.shape, matvec=_v_cycle(mat, grid.shape))
    x, _ = spla.gmres(
        mat, rhs, rtol=_LINEAR_RELRES, restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES, M=precond
    )
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("sparse solve produced non-finite values")
    denom = np.linalg.norm(rhs)
    if denom > 0.0:
        relres = np.linalg.norm(mat @ x - rhs) / denom
        if not relres <= _LINEAR_RELRES:  # NaN fails too
            raise LinearSolveFailure(
                f"inner linear solve reached relative residual {relres:.3e} > {_LINEAR_RELRES}"
            )
    return x


def _dirichlet_poisson(grid: Grid, load: np.ndarray) -> np.ndarray:
    """Interior solution of Lap_h v = load with zero Dirichlet data, by DST-I.

    The interior 5-point (7-point in 3D) Laplacian is diagonal in the sine
    basis, with eigenvalue sum_a -(4/h_a^2) sin^2(pi k_a / (2(n_a+1))),
    k_a = 1..n_a, on an axis with n_a interior nodes.
    """
    shape = grid.interior_shape
    eig = np.zeros(shape)
    for a, (n, h) in enumerate(zip(shape, grid.spacing)):
        k = np.arange(1, n + 1)
        lam = -(4.0 / h**2) * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2
        eig = eig + lam.reshape([-1 if b == a else 1 for b in range(len(shape))])
    return idstn(dstn(load, type=1) / eig, type=1)


def _laplace_family(problem: DirichletProblem):
    """The one-parameter family u_c = u_harm + c * w and its calibrated roots.

    Lap_h(u_harm) = 0 with the problem's boundary data and Lap_h(w) = 1 with
    zero data.  The mean discrete operator value of u_c is an exact quadratic
    in c; returns u_harm, w, the real roots of (mean value - 1) and the cone
    margin c -> min u_tt of u_c.
    """
    grid = problem.grid
    h = grid.spacing
    bvals = _boundary_only(problem)
    harm_int = _dirichlet_poisson(grid, -_discrete_laplacian(bvals, h))
    w_int = _dirichlet_poisson(grid, np.ones(grid.interior_shape))
    harm = _interior_embed(grid, bvals, harm_int)
    w = _interior_embed(grid, np.zeros(grid.shape), w_int)

    def mean_residual(c: float) -> float:
        return float(np.mean(sigma2_interior(harm + c * w, h)) - 1.0)

    def margin(c: float) -> float:
        return _min_u11(harm + c * w, h)

    with np.errstate(over="ignore", invalid="ignore"):
        f0, fp, fm = mean_residual(0.0), mean_residual(1.0), mean_residual(-1.0)
        a2 = 0.5 * (fp + fm - 2.0 * f0)  # exact: the operator is quadratic in u
        a1 = 0.5 * (fp - fm)
    if not np.all(np.isfinite([a2, a1, f0])):
        raise ConfigError(
            "boundary data too large: the discrete operator overflows in the auto start"
        )
    roots = [r.real for r in np.roots([a2, a1, f0]) if abs(r.imag) <= 1e-9 * (1 + abs(r.real))]
    if not roots:
        roots = [-a1 / (2.0 * a2)] if a2 != 0.0 else [0.0]
    return harm, w, roots, margin


def _elliptic_root(roots, margin) -> float | None:
    """The calibrated root with the largest u_tt margin, if any keeps u_tt > 0."""
    elliptic_roots = [c for c in roots if margin(c) > 0.0]
    return max(elliptic_roots, key=margin) if elliptic_roots else None


def _laplace_calibrated(problem: DirichletProblem) -> ScalarField | None:
    """The calibrated Laplace field u_c (see ``_laplace_family``) if a root is elliptic."""
    harm, w, roots, margin = _laplace_family(problem)
    c = _elliptic_root(roots, margin)
    return None if c is None else ScalarField(problem.grid, harm + c * w)


def _cone_entry(problem: DirichletProblem) -> ScalarField:
    """A member of the calibrated family with u_tt > 0: the elliptic root if
    there is one, else the result of ``_march_into_cone``."""
    harm, w, roots, margin = _laplace_family(problem)
    c = _elliptic_root(roots, margin)
    if c is None:
        c = _march_into_cone(roots, margin)
    return ScalarField(problem.grid, harm + c * w)


def _march_into_cone(roots, margin) -> float:
    """March c away from each root until min u_tt goes positive, then back off
    by bisection to a gentle margin; the entry closest to a root seeds the
    boundary-amplitude homotopy in newton_solve's auto path."""
    best_entry, best_dist = None, np.inf
    for r in sorted(roots):
        for sign in (1.0, -1.0):
            step = 1e-3 * (1.0 + abs(r))
            prev = r
            for _ in range(64):
                c = prev + sign * step
                if margin(c) > 0.0:
                    lo, hi = prev, c
                    target = 0.1 * margin(c)
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if margin(mid) >= target:
                            hi = mid
                        else:
                            lo = mid
                    if abs(hi - r) < best_dist:
                        best_entry, best_dist = hi, abs(hi - r)
                    break
                prev = c
                step *= 2.0
    if best_entry is None:
        raise EllipticityLost("auto initialization cannot reach u_tt > 0 for this data")
    return best_entry


def _coarsen_levels(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Dyadic shape ladder from coarse to fine; every level subsamples the last."""
    shapes = [shape]
    while all(m % 2 == 1 for m in shapes[0]) and all((m + 1) // 2 >= 5 for m in shapes[0]):
        shapes.insert(0, tuple((m + 1) // 2 for m in shapes[0]))
        if max(shapes[0]) <= 11:
            break
    return shapes


def _prolong(coarse: ScalarField, fine_grid: Grid) -> np.ndarray:
    # cubic, not linear: the fine-grid second differences of a piecewise-linear
    # interpolant vanish at inserted nodes, which would violate the u_tt > 0 guard
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(coarse.grid.axes(), coarse.values, method="cubic")
    return interp(fine_grid.points()).reshape(fine_grid.shape)


def _amplitude_homotopy(problem: DirichletProblem, entry: ScalarField) -> ScalarField:
    """Solve with boundary data scaled to lam*b for lam doubling up to 1.

    The operator is homogeneous of degree 2 in u, so scaling u by lam scales
    the operator by lam^2; starting from the elliptic entry field scaled to
    unit mean operator value, each amplitude level warm-starts from the last.
    """
    grid = problem.grid
    bvals = _boundary_only(problem)
    s = float(np.mean(sigma2_interior(entry.values, grid.spacing)))
    lam = 1.0 / np.sqrt(s) if s > 1.0 else 1.0
    u = entry.values * lam
    while True:
        data = ScalarField(grid, lam * bvals)
        rep = newton_solve(DirichletProblem(grid, data), init=ScalarField(grid, u), max_iter=80)
        if lam >= 1.0:
            return rep.solution
        lam_next = min(1.0, 2.0 * lam)
        u = rep.solution.values * (lam_next / lam)
        lam = lam_next


def _auto_init(problem: DirichletProblem) -> ScalarField:
    """Starting field for Newton: calibrated Laplace solve, with a coarse-grid
    amplitude homotopy plus dyadic refinement when the calibration cannot stay
    in the u_tt > 0 cone."""
    calibrated = _laplace_calibrated(problem)
    if calibrated is not None:
        return calibrated
    levels = _coarsen_levels(problem.grid.shape)
    fine_b = _boundary_only(problem)
    sub = tuple(
        slice(None, None, (f - 1) // (c - 1))
        for f, c in zip(problem.grid.shape, levels[0])
    )
    coarse_grid = Grid(problem.grid.bounds, levels[0])
    coarse_b = ScalarField(coarse_grid, fine_b[sub])
    coarse_prob = DirichletProblem(coarse_grid, coarse_b)
    u = _amplitude_homotopy(coarse_prob, _cone_entry(coarse_prob))
    for shape in levels[1:]:
        g = Grid(problem.grid.bounds, shape)
        stride = tuple((f - 1) // (c - 1) for f, c in zip(problem.grid.shape, shape))
        b = ScalarField(g, fine_b[tuple(slice(None, None, s) for s in stride)])
        vals = _prolong(u, g)
        mask = g.boundary_mask()
        vals[mask] = b.values[mask]
        level_prob = DirichletProblem(g, b)
        if _min_u11(vals, g.spacing) <= 0.0:
            # prolongation seam broke the cone: redo the homotopy at this level
            u = _amplitude_homotopy(level_prob, _cone_entry(level_prob))
            vals = u.values
        if shape == problem.grid.shape:
            return ScalarField(g, vals)
        rep = newton_solve(level_prob, init=ScalarField(g, vals), max_iter=80)
        u = rep.solution
    return u


def newton_solve(
    problem: DirichletProblem,
    init: ScalarField | str = "auto",
    tol: float | None = None,
    max_iter: int = 50,
    line_search_max: int = 30,
) -> SolveReport:
    """Damped Newton iteration; see the module docstring for the scheme.

    Raises MaxIterExceeded / EllipticityLost / LinearSolveFailure on failure
    (each carries the partial report where meaningful).
    """
    grid = problem.grid
    h = grid.spacing
    if tol is None:
        tol = problem.default_tol()
    if isinstance(init, str):
        if init != "auto":
            raise ConfigError(f"init must be a ScalarField or 'auto', got {init!r}")
        u = _auto_init(problem).values
    else:
        if init.grid != grid:
            raise ConfigError("init field must live on the problem grid")
        u = init.values.copy()
        mask = grid.boundary_mask()
        u[mask] = problem.boundary.values[mask]

    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    res = (sigma2_interior(u, h) - 1.0).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(res))
    if not np.isfinite(norm):
        raise ConfigError("boundary data too large: the residual norm of the first iterate overflows")
    history = [norm]
    if _min_u11(u, h) <= 0.0:
        raise EllipticityLost(
            f"initial iterate has min u_tt = {_min_u11(u, h):.6g} <= 0",
            SolveReport(False, 0, norm, float(np.abs(res).max()), _min_u11(u, h), tol, [norm]),
        )

    def report(converged: bool, iters: int, with_solution: bool) -> SolveReport:
        return SolveReport(
            converged=converged,
            iterations=iters,
            residual_norm=norm,
            residual_max=float(np.abs(res).max()),
            min_u11=_min_u11(u, h),
            tol=tol,
            residual_history=history.copy(),
            solution=ScalarField(grid, u.copy()) if with_solution else None,
        )

    iters = 0
    while norm > tol:
        if _min_u11(u, h) <= 0.0:
            raise EllipticityLost(
                f"iterate {iters} has min u_tt = {_min_u11(u, h):.6g} <= 0",
                report(False, iters, False),
            )
        if iters >= max_iter:
            raise MaxIterExceeded(
                f"no convergence after {max_iter} Newton iterations "
                f"(residual norm {norm:.3e}, tol {tol:.3e})",
                report(False, iters, False),
            )
        jac = assemble_jacobian(ScalarField(grid, u))
        delta = _solve_sparse(jac, -res, grid)
        step = np.zeros_like(u)
        accepted = False
        saw_elliptic_trial = False
        alpha = 1.0
        for _ in range(line_search_max + 1):
            step[interior] = (alpha * delta).reshape(grid.interior_shape)
            trial = u + step
            if _min_u11(trial, h) > 0.0:
                saw_elliptic_trial = True
                trial_res = (sigma2_interior(trial, h) - 1.0).ravel()
                trial_norm = float(np.linalg.norm(trial_res))
                if trial_norm < norm:
                    u, res, norm = trial, trial_res, trial_norm
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            if not saw_elliptic_trial:
                raise EllipticityLost(
                    f"no damped step at iteration {iters} keeps u_tt > 0",
                    report(False, iters, False),
                )
            raise MaxIterExceeded(
                f"line search exhausted {line_search_max} halvings at iteration {iters}",
                report(False, iters, False),
            )
        iters += 1
        history.append(norm)
    return report(True, iters, True)


_BUMP_CENTER = (1.0, 0.35, -0.2)
_BUMP_WIDTH = 0.35


def _bump(points: np.ndarray, box_size: float, dim: int) -> np.ndarray:
    xi = points / box_size
    center = np.array(_BUMP_CENTER[:dim])
    return np.exp(-np.sum(((xi - center) / _BUMP_WIDTH) ** 2, axis=1))


def rigidity_sweep(
    base,
    eps: float = 0.1,
    sizes=(1.0, 2.0, 4.0),
    h: float = 0.125,
    tol: float | None = None,
) -> list[dict]:
    """Solve on growing boxes [-L, L]^n with perturbed convex boundary data.

    ``h`` is the spacing relative to the box size (the grid step is h*L, so
    resolution is fixed across the sweep).  The boundary data is
    base(x) + eps * bump(x/L) with a fixed off-axis Gaussian bump in scaled
    coordinates.  Each row records the discrete u_tt oscillation over the
    inner half-box |x_k| <= L/2 and max |u_t| along the t-axis; solver
    failures mark the row instead of aborting the sweep.
    """
    sizes = [float(L) for L in sizes]
    if any(L <= 0 for L in sizes) or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("box sizes must be positive and strictly increasing")
    m = int(round(2.0 / h)) + 1
    if m < 5:
        raise ConfigError(f"relative spacing h={h} gives only {m} nodes per axis (need >= 5)")
    dim = base.dim
    lmax = max(sizes)
    probe_axes = [np.linspace(-lmax, lmax, 5)] * dim
    probe = np.stack([g.ravel() for g in np.meshgrid(*probe_axes, indexing="ij")], axis=-1)
    eigs = np.linalg.eigvalsh(base.hessian_many(probe))
    if eigs.min() < -1e-9:
        raise NotConvex(
            f"base candidate has Hessian eigenvalue {eigs.min():.3e} < 0 on the sweep box"
        )

    rows = []
    for L in sizes:
        grid = Grid(tuple((-L, L) for _ in range(dim)), (m,) * dim)
        pts = grid.points()
        vals = base.eval_many(pts) + eps * _bump(pts, L, dim)
        problem = DirichletProblem(grid, ScalarField(grid, vals.reshape(grid.shape)))
        row = {
            "L": L,
            "h": grid.spacing[0],
            "nodes_per_axis": m,
            "converged": False,
            "iterations": None,
            "residual_norm": None,
            "osc_u11_inner": None,
            "max_u1_axis": None,
            "error": None,
        }
        try:
            rep = newton_solve(problem, tol=tol)
        except SolverError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        u = rep.solution.values
        utt = second_diff(u, 0, grid.spacing[0])
        axes = grid.axes()
        masks = [np.abs(ax[1:-1]) <= L / 2 + 1e-12 for ax in axes]
        inner = utt[np.ix_(*masks)]
        center_idx = [int(np.argmin(np.abs(ax))) for ax in axes[1:]]
        line = u[(slice(None), *center_idx)]
        u1 = (line[2:] - line[:-2]) / (2.0 * grid.spacing[0])
        row.update(
            converged=True,
            iterations=rep.iterations,
            residual_norm=rep.residual_norm,
            osc_u11_inner=float(inner.max() - inner.min()),
            max_u1_axis=float(np.abs(u1).max()),
        )
        rows.append(row)
    return rows
