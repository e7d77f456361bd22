import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from sigma2lab import solver
from sigma2lab.candidates import Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.cli import main
from sigma2lab.core_ops import Grid, ScalarField, hessian_parts, second_diff, sigma2_interior
from sigma2lab.errors import (
    ConfigError,
    EllipticityLost,
    LinearSolveFailure,
    MaxIterExceeded,
    NotConvex,
)
from sigma2lab.solver import (
    DirichletProblem,
    assemble_jacobian,
    assemble_residual,
    newton_solve,
    rigidity_sweep,
)


def cube(lo, hi, m, dim=3):
    return Grid(tuple((lo, hi) for _ in range(dim)), (m,) * dim)


# ---------------------------------------------------------------------------
# residual and Jacobian assembly


def test_residual_exact_on_quadratic_solution():
    g = cube(-1.0, 1.0, 9)
    u = ScalarField.sample(g, Quadratic.standard(3))
    res = assemble_residual(u)
    assert res.shape == (7**3,)
    assert np.abs(res).max() <= 1e-12


def test_residual_of_zero_field():
    g = cube(-1.0, 1.0, 7)
    u = ScalarField(g, np.zeros(g.shape))
    np.testing.assert_allclose(assemble_residual(u), -1.0)


@pytest.mark.parametrize(
    "g",
    [
        cube(-1.0, 1.0, 7),
        Grid(((-1.0, 1.0), (0.0, 3.0)), (7, 9)),
        # unequal spans and node counts: a swapped spacing index shows
        Grid(((-1.0, 1.0), (0.0, 3.0), (-0.5, 0.25)), (7, 9, 6)),
    ],
    ids=["cube7", "plane7x9", "box7x9x6"],
)
def test_jacobian_is_the_exact_linearization(g):
    """The operator is quadratic in u, so for interior-supported v:

    F(u + v) - F(u) - J(u) v = sigma2(D^2 v)  with no remainder at all.
    """
    rng = np.random.default_rng(0)
    u = ScalarField(g, rng.normal(size=g.shape))
    v = rng.normal(size=g.shape)
    v[g.boundary_mask()] = 0.0
    J = assemble_jacobian(u)
    interior = tuple(slice(1, -1) for _ in range(g.dim))

    lhs = (
        assemble_residual(ScalarField(g, u.values + v))
        - assemble_residual(u)
        - J @ v[interior].ravel()
    )
    rhs = sigma2_interior(v, g.spacing).ravel()
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def _coo_stencil_matrix(entries, interior_shape):
    """Reference build from COO triplets: one (row, column, value) run per
    offset, concatenated, then converted to CSR by scipy."""
    n = int(np.prod(interior_shape))
    base = np.arange(n).reshape(interior_shape)
    rows, cols, vals = [], [], []
    legs = {0: (slice(None), slice(None)), 1: (slice(0, -1), slice(1, None)), -1: (slice(1, None), slice(0, -1))}
    for off, coeff in entries:
        src = tuple(legs[o][0] for o in off)
        tgt = tuple(legs[o][1] for o in off)
        rows.append(base[src].ravel())
        cols.append(base[tgt].ravel())
        vals.append(np.broadcast_to(coeff, interior_shape)[src].ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def test_cold_jacobian_assembly_memory_is_bounded():
    """A 41^3 assembly peaks at most 28 MB traced."""
    u = ScalarField.sample(cube(-1.0, 1.0, 41), Counterexample())
    tracemalloc.start()
    try:
        assemble_jacobian(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28e6, f"traced peak {peak / 1e6:.1f} MB"


def _literal_jacobian_entries(u):
    """The Jacobian's (offset, coefficient) list written out by hand, as it
    was before the stencil table: the reference for the derived one."""
    h = u.grid.spacing
    ndim = u.grid.dim
    utt, diag, cross = hessian_parts(u.values, h)
    c00 = sum(diag)
    center = -2.0 * c00 / h[0] ** 2
    for a in range(1, ndim):
        center = center - 2.0 * utt / h[a] ** 2
    entries = [((0,) * ndim, center)]
    for s in (1, -1):
        off = [0] * ndim
        off[0] = s
        entries.append((tuple(off), c00 / h[0] ** 2))
    for a in range(1, ndim):
        for s in (1, -1):
            off = [0] * ndim
            off[a] = s
            entries.append((tuple(off), utt / h[a] ** 2))
        for s0 in (1, -1):
            for sa in (1, -1):
                off = [0] * ndim
                off[0] = s0
                off[a] = sa
                entries.append((tuple(off), -cross[a - 1] * (s0 * sa) / (2.0 * h[0] * h[a])))
    return entries


def _assert_matches_literal_build(u):
    """The stored diagonals, as CSR, are the COO build of the literal entry
    list with its exact zeros dropped, and their matvec is the reference's
    bit for bit."""
    J = assemble_jacobian(u)
    ref = _coo_stencil_matrix(_literal_jacobian_entries(u), u.grid.interior_shape)
    v = np.random.default_rng(4).normal(size=J.shape[0])
    assert (J @ v).tobytes() == (ref @ v).tobytes()
    ref.eliminate_zeros()
    got = J.tocsr()
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(ref, attr).dtype
        np.testing.assert_array_equal(getattr(got, attr), getattr(ref, attr))


@pytest.mark.parametrize(
    "g",
    [
        Grid(((-1.0, 1.0), (0.0, 3.0)), (7, 9)),
        cube(-1.0, 1.0, 9),
        Grid(((-1.0, 1.0), (0.0, 3.0), (-0.5, 0.25)), (33, 17, 9)),
    ],
    ids=["plane7x9", "cube9", "box33x17x9"],
)
def test_cached_pattern_jacobian_is_bit_identical_to_coo_build(g):
    """Successive assemblies on one grid each match the COO build of their
    own entry list: nothing carried from one assembly leaks into the next."""
    rng = np.random.default_rng(4)
    for _ in range(2):
        _assert_matches_literal_build(ScalarField(g, rng.normal(size=g.shape)))


_TABLE_GRIDS = {
    "plane7x9": Grid(((-1.0, 1.0), (0.0, 3.0)), (7, 9)),
    "cube7": cube(-1.0, 1.0, 7),
    "box33x17x9": Grid(((-1.0, 1.0), (0.0, 3.0), (-0.5, 0.25)), (33, 17, 9)),
}
_TABLE_CASES = [(name, scale) for name in _TABLE_GRIDS for scale in (1.0, 1e-3, 1e5)]
_TABLE_CASES += [("cube21", "exp"), ("cube41", "exp")]


@pytest.mark.parametrize("name, scale", _TABLE_CASES, ids=[f"{n}-{s}" for n, s in _TABLE_CASES])
def test_table_jacobian_is_bit_identical_to_the_literal_entry_list(name, scale):
    """Random fields at three scales, and the exponential solution whose
    Newton systems the Dirichlet solves assemble."""
    if scale == "exp":
        g = cube(-1.0, 1.0, int(name.removeprefix("cube")))
        u = ScalarField.sample(g, Counterexample(0.25))
    else:
        g = _TABLE_GRIDS[name]
        u = ScalarField(g, scale * np.random.default_rng(6).normal(size=g.shape))
    _assert_matches_literal_build(u)


@pytest.mark.parametrize("shape", [(21, 21, 21), (33, 17, 9)], ids=["cube21", "box33x17x9"])
def test_cached_restriction_is_the_transposed_prolongation(shape):
    rng = np.random.default_rng(5)
    for P, R in solver._prolongations(shape):
        r = rng.normal(size=P.shape[0])
        np.testing.assert_array_equal(R @ r, P.T @ r)


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(1)
    g = cube(-1.0, 1.0, 7)
    u = ScalarField(g, rng.normal(size=g.shape))
    v = rng.normal(size=g.shape)
    v[g.boundary_mask()] = 0.0
    eps = 1e-6
    fd = (
        assemble_residual(ScalarField(g, u.values + eps * v))
        - assemble_residual(ScalarField(g, u.values - eps * v))
    ) / (2 * eps)
    Jv = assemble_jacobian(u) @ v[1:-1, 1:-1, 1:-1].ravel()
    np.testing.assert_allclose(Jv, fd, atol=1e-7)


# ---------------------------------------------------------------------------
# linear solves: multigrid-preconditioned GMRES and the sine-transform Poisson solve


def _relres(mat, x, rhs):
    return np.linalg.norm(mat @ x - rhs) / np.linalg.norm(rhs)


def _rigidity_problem(m):
    # rigidity_sweep's L = 1 box: the standard quadratic plus 0.1 times the bump
    g = cube(-1.0, 1.0, m)
    pts = g.points()
    vals = Quadratic.standard(3).eval_many(pts) + 0.1 * solver._bump(pts, 1.0, 3)
    return DirichletProblem(g, ScalarField(g, vals.reshape(g.shape)))


def _first_newton_system(m, data="exponential"):
    if data == "exponential":
        problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, m), Counterexample(0.25))
    else:
        problem = _rigidity_problem(m)
    u0 = solver._auto_init(problem)
    return problem.grid, assemble_jacobian(u0), -assemble_residual(u0)


def test_multigrid_solve_matches_direct_solve_on_newton_path():
    g, J, rhs = _first_newton_system(25)
    assert len(solver._prolongations(g.shape)) == 2  # three levels: 7^3, 13^3, 25^3
    x = solver._solve_sparse(J, rhs, g, solver._coarse_levels(J, g.shape))
    direct = spla.splu(J.tocsc()).solve(rhs)
    assert _relres(J, x, rhs) <= 1e-10
    assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)


def test_even_node_grid_solves_on_a_two_level_ladder():
    g = cube(-1.0, 1.0, 10)
    assert solver._coarsen_levels(g.shape) == [(5, 5, 5), (10, 10, 10)]
    assert len(solver._prolongations(g.shape)) == 1
    rng = np.random.default_rng(3)
    u = ScalarField.sample(g, Quadratic.standard(3))
    u.values += 0.01 * rng.normal(size=g.shape)
    J = assemble_jacobian(u)
    rhs = rng.normal(size=J.shape[0])
    x = solver._solve_sparse(J, rhs, g, solver._coarse_levels(J, g.shape))
    assert _relres(J, x, rhs) <= 1e-10


@pytest.mark.parametrize(
    "fine, coarse", [(21, 11), (25, 13), (13, 7), (41, 21), (32, 16), (24, 12), (10, 5), (17, 9), (5, 5)]
)
def test_prolongation_is_linear_interpolation_at_the_fine_nodes(fine, coarse):
    # reference: np.interp of the coarse values, zero on the boundary, at the
    # fine node positions; nested pairs keep weights exactly 1 and 1/2
    rng = np.random.default_rng(fine)
    c = np.zeros(coarse)
    c[1:-1] = rng.normal(size=coarse - 2)
    want = np.interp(np.linspace(0.0, 1.0, fine), np.linspace(0.0, 1.0, coarse), c)[1:-1]
    P = solver._prolongation_1d(fine, coarse)
    np.testing.assert_allclose(P @ c[1:-1], want, rtol=0.0, atol=1e-14)
    if fine == 2 * coarse - 1:
        np.testing.assert_array_equal(np.unique(P.data), [0.5, 1.0])


def _literal_prolongation_1d(fine, coarse):
    # linear weights 1 - theta and theta at the fine positions
    # i (coarse - 1) / (fine - 1), zero weights and legs onto the coarse
    # boundary dropped, built entry by entry
    pos = np.arange(1, fine - 1) * (coarse - 1) / (fine - 1)
    left = np.floor(pos).astype(np.intp)
    theta = pos - left
    rows = np.concatenate([np.arange(fine - 2)] * 2)
    cols = np.concatenate([left, left + 1]) - 1
    vals = np.concatenate([1.0 - theta, theta])
    keep = (vals != 0.0) & (cols >= 0) & (cols < coarse - 2)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(fine - 2, coarse - 2))


@pytest.mark.parametrize("fine, coarse", [(9, 5), (25, 13), (10, 5), (64, 32), (81, 41), (7, 5), (5, 5)])
def test_prolongation_is_bit_identical_to_the_literal_entry_list(fine, coarse):
    got, want = solver._prolongation_1d(fine, coarse), _literal_prolongation_1d(fine, coarse)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def test_spline_read_off_at_its_own_nodes_is_exactly_the_identity():
    # theta is 0 or 1 at every row, so the moment correction vanishes exactly
    for m in range(5, 41):
        S = solver._spline_eval(m, m)
        assert np.array_equal(S, np.eye(m)), m
        assert not np.signbit(S).any(), m  # no -0.0 either


@pytest.mark.parametrize("m", [10, 25])
def test_singular_jacobian_raises_linear_solve_failure(m):
    g = cube(-1.0, 1.0, m)
    J = assemble_jacobian(ScalarField(g, np.zeros(g.shape)))  # the zero matrix
    with pytest.raises(LinearSolveFailure):
        solver._solve_sparse(J, np.ones(J.shape[0]), g, solver._coarse_levels(J, g.shape))


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_off_diagonal_raises_linear_solve_failure_at_v_cycle_set_up(bad):
    # the diagonal stays finite and nonzero: only the Gershgorin bound of
    # D^-1 A sees the entry, before any Krylov iteration.  The coarse levels
    # come from the clean Jacobian, as a later Newton step carries them
    g = cube(-1.0, 1.0, 13)
    J = assemble_jacobian(ScalarField.sample(g, Quadratic.standard(3)))
    coarse = solver._coarse_levels(J, g.shape)
    J.data[J.offsets.tolist().index(1), 5] = bad  # entry (4, 5)
    assert np.isfinite(J.diagonal()).all() and (J.diagonal() != 0.0).all()
    with pytest.raises(LinearSolveFailure, match="Gershgorin"):
        solver._v_cycle(J, g.shape, coarse)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_off_diagonal_in_the_first_jacobian_raises_linear_solve_failure(bad):
    # a first Newton step builds the coarse levels from the corrupted Jacobian itself
    g = cube(-1.0, 1.0, 13)
    J = assemble_jacobian(ScalarField.sample(g, Quadratic.standard(3)))
    J.data[J.offsets.tolist().index(1), 5] = bad  # entry (4, 5)
    with pytest.raises(LinearSolveFailure):
        solver._v_cycle(J, g.shape, solver._coarse_levels(J, g.shape))


def test_gmres_that_stops_short_fails_without_fallback(monkeypatch):
    monkeypatch.setattr(solver, "_GMRES_RESTART", 2)
    monkeypatch.setattr(solver, "_GMRES_CYCLES", 1)
    g = cube(-1.0, 1.0, 25)
    J = assemble_jacobian(ScalarField.sample(g, Counterexample(0.25)))
    with pytest.raises(LinearSolveFailure, match="relative residual"):
        solver._solve_sparse(J, np.ones(J.shape[0]), g, solver._coarse_levels(J, g.shape))


def test_linear_solve_failure_names_krylov_iterations_and_restarts(monkeypatch):
    monkeypatch.setattr(solver, "_GMRES_RESTART", 3)
    monkeypatch.setattr(solver, "_GMRES_CYCLES", 2)
    g = cube(-1.0, 1.0, 13)
    J = assemble_jacobian(ScalarField.sample(g, Counterexample(0.25)))
    with pytest.raises(LinearSolveFailure, match=r"\(Krylov iterations 6, restarts 1\)$"):
        solver._solve_sparse(J, np.ones(J.shape[0]), g, solver._coarse_levels(J, g.shape))


def _identity(v):
    return v


def test_gmres_matches_dense_solve_with_identity_preconditioner():
    rng = np.random.default_rng(11)
    n = 30
    A = 3.0 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)  # non-symmetric
    rhs = rng.normal(size=n)
    x, iters, restarts = solver._gmres(A, rhs, _identity)
    assert iters <= n and restarts == 0
    assert _relres(A, x, rhs) <= 1e-10
    direct = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - direct) <= 1e-9 * np.linalg.norm(direct)


def test_gmres_krylov_exhaustion_is_a_clean_breakdown():
    # 27 unknowns < _GMRES_RESTART: the Krylov space of J runs out within one
    # cycle, and the step that exhausts it must end the solve, not divide by ~0
    g = cube(-1.0, 1.0, 5)
    J = assemble_jacobian(ScalarField.sample(g, Counterexample(0.25)))
    assert J.shape[0] < solver._GMRES_RESTART
    rhs = np.random.default_rng(5).normal(size=J.shape[0])
    x, iters, restarts = solver._gmres(J, rhs, _identity)
    assert iters <= J.shape[0] and restarts == 0
    assert _relres(J, x, rhs) <= 1e-10


def test_gmres_restart_path_agrees_with_splu(monkeypatch):
    monkeypatch.setattr(solver, "_GMRES_RESTART", 4)
    monkeypatch.setattr(solver, "_GMRES_CYCLES", 60)
    g, J, rhs = _first_newton_system(13)
    x, iters, restarts = solver._gmres(J, rhs, solver._v_cycle(J, g.shape, solver._coarse_levels(J, g.shape)))
    assert restarts >= 1 and iters > 4
    direct = spla.splu(J.tocsc()).solve(rhs)
    assert _relres(J, x, rhs) <= 1e-10
    assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)


@pytest.mark.parametrize("data, bound", [("exponential", 22), ("rigidity", 14)], ids=["exponential", "rigidity"])
def test_first_newton_system_at_25_cubed_takes_at_most_22_v_cycles(monkeypatch, data, bound):
    g, J, rhs = _first_newton_system(25, data)
    applied = []
    v_cycle = solver._v_cycle

    def counted(mat, shape, coarse):
        cycle = v_cycle(mat, shape, coarse)
        return lambda r: applied.append(1) or cycle(r)

    monkeypatch.setattr(solver, "_v_cycle", counted)
    x = solver._solve_sparse(J, rhs, g, solver._coarse_levels(J, g.shape))
    assert _relres(J, x, rhs) <= 1e-10
    assert len(applied) <= bound


def _first_system_v_cycles(m):
    g, J, rhs = _first_newton_system(m)
    cycle = solver._v_cycle(J, g.shape, solver._coarse_levels(J, g.shape))
    applied = []
    x, _, _ = solver._gmres(J, rhs, lambda r: applied.append(1) or cycle(r))
    assert _relres(J, x, rhs) <= 1e-10
    return len(applied)


@pytest.mark.parametrize(
    "even, odd",
    [(32, 33), (40, 41), pytest.param(64, 65, marks=pytest.mark.slow)],
    ids=["32-33", "40-41", "64-65"],
)
def test_even_grid_takes_about_as_many_v_cycles_as_the_next_odd_one(even, odd):
    # the even ladders are non-nested (8-16-32, 5-10-20-40, 8-16-32-64); their
    # levels smooth with the same Chebyshev-weighted Jacobi sweeps as nested ones
    assert _first_system_v_cycles(even) <= 1.25 * _first_system_v_cycles(odd)


def _record_newton_solves(monkeypatch):
    # (grid shape, Newton steps) of every newton_solve, nested ones included,
    # in the order they end
    solves = []
    real = solver.newton_solve

    def recorded(problem, *args, **kwargs):
        rep = real(problem, *args, **kwargs)
        solves.append((problem.grid.shape, rep.iterations))
        return rep

    monkeypatch.setattr(solver, "newton_solve", recorded)
    return solves


def test_newton_solve_builds_its_coarse_levels_once_whatever_its_step_count(monkeypatch):
    builds = []
    real_build = solver._coarse_levels
    monkeypatch.setattr(solver, "_coarse_levels", lambda mat, shape: builds.append(shape) or real_build(mat, shape))
    solves = _record_newton_solves(monkeypatch)
    for m in (21, 25):
        problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, m), Counterexample(0.25))
        assert solver.newton_solve(problem).converged
    # one build per Newton solve, at its first step: 6^3, 11^3, 21^3, 7^3, 13^3, 25^3
    assert builds == [shape for shape, _ in solves]
    multi = [(shape, steps) for shape, steps in solves if solver._prolongations(shape)]
    assert [shape[0] for shape, _ in multi] == [11, 21, 13, 25]
    # 4 builds for the 11 steps of these solves
    assert all(steps >= 2 for _, steps in multi)
    assert sum(steps for _, steps in multi) == 11


def _exponential_sweep(m):
    problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, m), Counterexample(0.25))
    return [solver.newton_solve(problem).iterations]


def _rigidity_row(eps):
    rows = rigidity_sweep(Quadratic.standard(3), eps=eps, sizes=(1.0,), h=1.0 / 12.0)
    return [row["iterations"] for row in rows]


def _newton_and_krylov_counts(monkeypatch, run, fresh):
    krylov = []
    real_gmres = solver._gmres

    def counted(mat, rhs, precond):
        x, iters, restarts = real_gmres(mat, rhs, precond)
        krylov.append(iters)
        return x, iters, restarts

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_gmres", counted)
        if fresh:  # the whole hierarchy rebuilt from every step's Jacobian
            real_solve, build = solver._solve_sparse, solver._coarse_levels
            mp.setattr(solver, "_solve_sparse", lambda mat, rhs, grid, coarse: real_solve(mat, rhs, grid, build(mat, grid.shape)))
        solves = _record_newton_solves(mp)
        outer = run()
    return solves, outer, krylov


@pytest.mark.parametrize(
    "run",
    [partial(_exponential_sweep, 21), partial(_exponential_sweep, 25), partial(_rigidity_row, 0.1), partial(_rigidity_row, 0.3)],
    ids=["exponential21", "exponential25", "rigidity-eps0.1", "rigidity-eps0.3"],
)
def test_coarse_levels_of_the_first_jacobian_keep_newton_and_krylov_counts(monkeypatch, run):
    reused = _newton_and_krylov_counts(monkeypatch, run, fresh=False)
    fresh = _newton_and_krylov_counts(monkeypatch, run, fresh=True)
    assert reused[:2] == fresh[:2]  # every Newton solve's step count, nested ones included
    assert len(reused[2]) == len(fresh[2])
    assert all(r <= f + 1 for r, f in zip(reused[2], fresh[2])), (reused[2], fresh[2])


def test_newton_step_carries_no_earlier_jacobian(monkeypatch):
    refs, alive = [], []
    real_assemble, real_solve = solver.assemble_jacobian, solver._solve_sparse

    def assemble(u):
        jac = real_assemble(u)
        refs.append(weakref.ref(jac))
        return jac

    def solve(mat, rhs, grid, coarse):
        alive.append(sum(ref() is not None for ref in refs[:-1]))
        return real_solve(mat, rhs, grid, coarse)

    monkeypatch.setattr(solver, "assemble_jacobian", assemble)
    monkeypatch.setattr(solver, "_solve_sparse", solve)
    problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, 25), Counterexample(0.25))
    assert solver.newton_solve(problem).converged
    assert len(alive) == 8  # 3 steps at 7^3, 3 at 13^3, 2 at 25^3
    assert alive == [0] * len(alive)


@pytest.mark.parametrize("where, precond_calls", [("rhs", 0), ("matrix", 1)])
def test_gmres_stops_at_once_on_nan(where, precond_calls):
    n = 12
    A = np.eye(n) + np.diag(np.full(n - 1, 0.5), 1)
    rhs = np.ones(n)
    if where == "rhs":
        rhs[3] = np.nan
    else:
        A[3, 4] = np.nan
    calls = []
    with pytest.raises(LinearSolveFailure, match="non-finite"):
        solver._gmres(A, rhs, lambda v: calls.append(1) or v)
    assert len(calls) == precond_calls


def test_nan_in_newton_rhs_raises_linear_solve_failure():
    g = cube(-1.0, 1.0, 13)
    J = assemble_jacobian(ScalarField.sample(g, Counterexample(0.25)))
    rhs = np.ones(J.shape[0])
    rhs[7] = np.nan
    with pytest.raises(LinearSolveFailure, match="non-finite after 0 Krylov iterations"):
        solver._solve_sparse(J, rhs, g, solver._coarse_levels(J, g.shape))


def test_gmres_zero_givens_pivot_raises_linear_solve_failure():
    # the shift matrix maps e_k to e_(k-1) and e_1 to 0: A x = e_n has no
    # solution, and Arnoldi meets an exactly zero pivot at its n-th step
    n = 6
    A = np.eye(n, k=1)
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    with pytest.raises(LinearSolveFailure, match=f"zero Givens pivot at Krylov iteration {n}"):
        solver._gmres(A, rhs, _identity)


def test_sine_transform_poisson_solve_on_anisotropic_grid():
    g = Grid(((-1.0, 2.0), (0.0, 0.5), (-3.0, 3.0)), (9, 12, 17))
    load = np.random.default_rng(4).normal(size=g.interior_shape)
    full = np.zeros(g.shape)
    full[1:-1, 1:-1, 1:-1] = solver._dirichlet_poisson(g, load)
    lap = sum(second_diff(full, a, g.spacing[a]) for a in range(3))
    assert np.linalg.norm(lap - load) <= 1e-12 * np.linalg.norm(load)


# ---------------------------------------------------------------------------
# auto start: cubic prolongation up the ladder


@pytest.mark.parametrize(
    "m, n",
    [(7, 13), (11, 21), (13, 25), (21, 41), (12, 24), (16, 32), (17, 32), (9, 5), (6, 6)],
    ids=["7", "11", "13", "21", "12-24", "16-32", "17-32", "9-5", "6-6"],
)
def test_cubic_prolongation_is_the_not_a_knot_spline(m, n):
    from scipy.interpolate import make_interp_spline

    coarse = np.linspace(-1.0, 2.0, m)
    fine = np.linspace(-1.0, 2.0, n)
    # column k: the not-a-knot spline through the k-th unit vector
    want = make_interp_spline(coarse, np.eye(m), k=3)(fine)
    np.testing.assert_allclose(solver._spline_eval(m, n), want, rtol=0.0, atol=1e-13)


def _tensor_cubic(t, x, y=0.0):
    return t**3 - 2.0 * t * x**2 + x * y**3 + t * x * y + 1.0


_BOX = ((-1.0, 1.0), (0.0, 2.0), (-3.0, 1.0))


@pytest.mark.parametrize(
    "bounds, shape, fine_shape",
    [
        (_BOX, (7, 5, 9), (13, 9, 17)),
        (((-1.0, 1.0), (0.5, 2.0)), (11, 5), (21, 9)),
        (_BOX, (7, 5, 9), (13, 9, 16)),
        (_BOX, (7, 5, 9), (7, 9, 17)),
    ],
    ids=["3d", "2d", "3d-13x9x16", "3d-7x9x17"],
)
def test_prolong_reproduces_a_tensor_cubic(bounds, shape, fine_shape):
    coarse = Grid(bounds, shape)
    fine = Grid(bounds, fine_shape)
    want = oracles.field_from_callable(fine, _tensor_cubic).values
    got = solver._resample(oracles.field_from_callable(coarse, _tensor_cubic).values, fine.shape)
    assert got.shape == fine.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_every_ladder_ends_at_most_8_nodes_per_axis(dim):
    # arithmetic on the shapes only: no grid of these sizes is allocated
    counts = [3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 513, 1000, 1024, 1025]
    rng = np.random.default_rng(dim)
    mixes = [tuple(int(v) for v in rng.choice(counts, dim)) for _ in range(200)]
    for shape in [(m,) * dim for m in counts] + mixes:
        levels = solver._coarsen_levels(shape)
        assert levels[-1] == shape
        assert max(levels[0]) <= 8 and math.prod(m - 2 for m in levels[0]) <= 6**dim
        for coarse, fine in zip(levels, levels[1:]):
            # every axis that can halve to >= 5 nodes does, the others keep theirs
            assert coarse == tuple((f + 1) // 2 if (f + 1) // 2 >= 5 else f for f in fine) != fine


# ---------------------------------------------------------------------------
# auto start: the calibrated family, the start test and the cone entry


def _in_full_cone(u, g):
    return solver._min_u11(u, g.spacing) > 0.0 and sigma2_interior(u, g.spacing).min() > 0.0


def _poisson_map(harm, u, g):
    # one step of the cone entry's fixed point, written from its definition:
    # Lap_h u_next = sqrt((u_tt - Lap_x u)^2 + 4 sum_i u_ti^2 + 4), u_next = harm on the boundary
    utt, diag, cross = hessian_parts(u, g.spacing)
    load = np.sqrt((utt - sum(diag)) ** 2 + 4.0 * sum(c**2 for c in cross) + 4.0)
    v = np.zeros(g.shape)
    v[1:-1, 1:-1, 1:-1] = solver._dirichlet_poisson(g, load)
    return harm + v


@pytest.mark.parametrize("m, iterations", [(7, 7), (11, 16)])
def test_cone_entry_of_exponential_levels_iterates_on_to_the_solution(m, iterations, monkeypatch):
    g = cube(-1.0, 1.0, m)
    problem = DirichletProblem.from_candidate(g, Counterexample(0.25))
    family = harm, w, roots = solver._calibrated_family(problem)
    assert not any(_in_full_cone(harm + c * w, g) for c in roots)  # the ladder runs
    entry = solver._cone_entry(g, harm, lambda: harm).values
    assert _in_full_cone(entry, g)
    # the first iterate inside the cone: one iteration fewer stops short
    monkeypatch.setattr(solver, "_CONE_ENTRY_ITERATIONS", iterations - 1)
    with pytest.raises(EllipticityLost, match=f"after {iterations - 1} fixed-point iterations"):
        solver._cone_entry(g, harm, lambda: harm)
    monkeypatch.setattr(solver, "_CONE_ENTRY_ITERATIONS", iterations)
    np.testing.assert_array_equal(solver._cone_entry(g, harm, lambda: harm).values, entry)
    # iterating on from the entry reaches Newton's discrete solution
    want, u = newton_solve(problem).solution.values, entry
    for _ in range(60):
        u = _poisson_map(harm, u, g)
    assert np.abs(u - want).max() <= 10 * problem.default_tol()


def test_start_test_rejects_a_calibrated_root_outside_the_sigma2_cone():
    # rigidity_sweep's L = 1 box at h = 1/12: the root keeps u_tt > 0, but
    # sigma2 <= 0 at 37 nodes leaves the linearisation indefinite there
    problem = _rigidity_problem(25)
    g = problem.grid
    family = harm, w, roots = solver._calibrated_family(problem)
    (c,) = [r for r in roots if solver._min_u11(harm + r * w, g.spacing) > 0.0]
    assert solver._min_u11(harm + c * w, g.spacing) > 0.0
    assert int((sigma2_interior(harm + c * w, g.spacing) <= 0.0).sum()) == 37
    assert solver._calibrated_start(g, family) is None
    # the cone entry lies in the full cone, u_tt > 0 and sigma2 > 0
    assert _in_full_cone(solver._cone_entry(g, harm, lambda: harm).values, g)


def test_cone_entry_past_its_cap_raises_ellipticity_lost(monkeypatch, capsys):
    # 11^3 climbs 6^3 -> 11^3, and the 6^3 entry needs 5 iterations
    monkeypatch.setattr(solver, "_CONE_ENTRY_ITERATIONS", 4)
    problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, 11), Counterexample(0.25))
    with pytest.raises(EllipticityLost, match=r"after 4 fixed-point iterations \(min sigma2_tilde = -"):
        newton_solve(problem)
    assert main(["solve", "--candidate", "counterexample", "--grid", "3,-1..1,11"]) == 3
    assert "solver failure: EllipticityLost" in capsys.readouterr().err


def test_seam_redo_restarts_from_the_cone_entry_and_still_converges(monkeypatch):
    # 25^3 climbs 7^3 -> 13^3 -> 25^3 and every level passes its seed through
    # the cone entry; a dent at one node of the 13^3 prolongation breaks u_tt
    # there, so the entry moves that seed, while the 25^3 seed comes back as it is
    g = cube(-1.0, 1.0, 25)
    problem = DirichletProblem.from_candidate(g, Counterexample(0.25))
    clean = newton_solve(problem)
    resample, cone_entry, newton = solver._resample, solver._cone_entry, solver.newton_solve
    dented, entries, solves, calls = [], [], [], []

    def dent(vals, shape):
        # the first read-off of a coarse solution; the coarse boundary data is
        # read off the fine grid
        calls.append((vals.shape, shape))
        out = resample(vals, shape)
        if vals.shape != g.shape and not dented:
            out[6, 6, 6] += 1.0
            dented.append(shape)
        return out

    def recorded_entry(grid, seed, harmonic):
        start = cone_entry(grid, seed, harmonic)
        entries.append((grid.shape, start.values is seed))
        return start

    def recorded_newton(*args, **kwargs):
        rep = newton(*args, **kwargs)
        solves.append(rep.iterations)
        return rep

    monkeypatch.setattr(solver, "_resample", dent)
    monkeypatch.setattr(solver, "_cone_entry", recorded_entry)
    monkeypatch.setattr(solver, "newton_solve", recorded_newton)
    rep = solver.newton_solve(problem)
    c7, c13, c25 = (7,) * 3, (13,) * 3, (25,) * 3
    assert dented == [c13] and entries == [(c7, False), (c13, False), (c25, True)]
    assert calls == [(c25, c7), (c25, c13), (c7, c13), (c13, c25)]
    assert rep.converged
    # no Newton call re-solves a converged level
    assert all(iters > 0 for iters in solves)
    gap = np.abs(rep.solution.values - clean.solution.values).max()
    assert gap <= 10 * problem.default_tol()


def test_every_auto_start_lies_in_the_full_cone_and_inside_seeds_are_kept(monkeypatch):
    # the rigidity L = 1 row at h = 1/12 climbs 7^3 -> 13^3 -> 25^3; its
    # prolonged 13^3 and 25^3 seeds keep u_tt > 0 but not sigma2 > 0, and the
    # cone entry moves them into the full cone before Newton sees them
    newton, auto_init, cone_entry = solver.newton_solve, solver._auto_init, solver._cone_entry
    starts, entries, calls = [], [], {"_calibrated_family": 0, "_dirichlet_poisson": 0}

    def recorded_newton(problem, init=None, **kwargs):
        if init is not None:
            starts.append(init)
        return newton(problem, init=init, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", recorded_newton)
    monkeypatch.setattr(solver, "_auto_init", lambda problem: starts.append(auto_init(problem)) or starts[-1])
    rows = solver.rigidity_sweep(Quadratic.standard(3), eps=0.1, sizes=(1,), h=1 / 12)
    assert rows[0]["converged"]
    assert [s.grid.shape for s in starts] == [(7,) * 3, (13,) * 3, (25,) * 3]
    assert all(_in_full_cone(s.values, s.grid) for s in starts)

    # every exponential seam is already inside: its start is the prolonged seed
    # itself, and the solve makes no more Laplace and Poisson solves than the
    # coarsest entry and the two calibrated families need
    def recorded_entry(grid, seed, harmonic):
        start = cone_entry(grid, seed, harmonic)
        entries.append((grid.shape[0], start.values is seed))
        return start

    def counted(name):
        func = getattr(solver, name)

        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        monkeypatch.setattr(solver, name, wrapper)

    counted("_calibrated_family")
    counted("_dirichlet_poisson")
    monkeypatch.setattr(solver, "_cone_entry", recorded_entry)
    problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, 41), Counterexample(0.25))
    assert solver.newton_solve(problem).converged
    assert entries == [(6, False), (11, True), (21, True), (41, True)]
    assert calls == {"_calibrated_family": 2, "_dirichlet_poisson": 9}


@pytest.mark.parametrize("dim, m", [(3, 21), (2, 33)], ids=["cube21", "plane33"])
def test_auto_start_solves_once_per_ladder_level(dim, m, monkeypatch):
    # nested iteration: the coarsest level starts from its cone entry, each
    # finer one from the prolonged coarser solution; in 2D the data is the
    # exponential solution's trace on the plane y = 0
    g = cube(-1.0, 1.0, m, dim)
    problem = DirichletProblem(
        g, oracles.field_from_callable(g, lambda t, *x: sum(v**2 for v in x) * np.exp(t) + np.exp(-t) / 4)
    )
    newton, solved = solver.newton_solve, []

    def recorded_newton(p, *args, **kwargs):
        rep = newton(p, *args, **kwargs)
        solved.append(p.grid.shape)  # on return: the fine solve, which calls the rest, comes last
        return rep

    monkeypatch.setattr(solver, "newton_solve", recorded_newton)
    assert solver._calibrated_start(problem.grid, solver._calibrated_family(problem)) is None
    assert solver.newton_solve(problem).converged
    assert solved == solver._coarsen_levels(problem.grid.shape)


# ---------------------------------------------------------------------------
# problem setup


def test_problem_constructors_agree():
    g = cube(-1.0, 1.0, 5)
    q = Quadratic.standard(3)
    a = DirichletProblem.from_candidate(g, q)
    b = DirichletProblem(g, oracles.field_from_callable(g, lambda t, x, y: 0.5 * (t**2) + 0.25 * (x**2 + y**2)))
    np.testing.assert_allclose(a.boundary.values, b.boundary.values, atol=1e-14)
    assert a.default_tol() == pytest.approx(1e-10 * np.sqrt(27))


def test_interior_values_of_boundary_field_are_ignored():
    g = cube(-1.0, 1.0, 7)
    q = Quadratic.standard(3)
    clean = ScalarField.sample(g, q)
    noisy = ScalarField(g, clean.values.copy())
    noisy.values[2:-2, 2:-2, 2:-2] += 37.0  # garbage strictly inside
    ra = newton_solve(DirichletProblem(g, clean))
    rb = newton_solve(DirichletProblem(g, noisy))
    np.testing.assert_allclose(ra.solution.values, rb.solution.values, atol=1e-12)


# ---------------------------------------------------------------------------
# Newton iteration on the exact families


def test_quadratic_data_converges_immediately():
    q = Quadratic(np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), b=[0.0, 1.0, 0.0])
    g = cube(-1.0, 1.0, 11)
    rep = newton_solve(DirichletProblem.from_candidate(g, q))
    assert rep.converged
    assert rep.iterations <= 3
    exact = ScalarField.sample(g, q)
    assert np.abs(rep.solution.values - exact.values).max() <= 1e-9


def test_truncation_error_is_second_order():
    ce = Counterexample()

    def solve_err(m):
        g = cube(-1.0, 1.0, m)
        rep = newton_solve(DirichletProblem.from_candidate(g, ce))
        assert rep.converged
        exact = ScalarField.sample(g, ce)
        return np.abs(rep.solution.values - exact.values).max()

    e_coarse = solve_err(9)
    e_fine = solve_err(17)
    assert 3.0 < e_coarse / e_fine < 5.0


def _harmonic_dual_error(m, dim, eps):
    # max node error of the Dirichlet solve of oracles.harmonic_dual_solution
    # on [-1, 1]^dim from the auto start
    g = cube(-1.0, 1.0, m, dim)
    exact = oracles.harmonic_dual_solution(g.points(), eps).reshape(g.shape)
    rep = newton_solve(DirichletProblem(g, ScalarField(g, exact)))
    assert rep.converged
    return float(np.abs(rep.solution.values - exact).max())


@pytest.mark.parametrize(
    "dim, sizes, lo, hi", [(2, (33, 65, 129), 3.9, 4.1), (3, (21, 41), 3.8, 4.2)], ids=["2d", "3d"]
)
def test_harmonic_dual_solution_error_is_second_order(dim, sizes, lo, hi):
    # an exact solution whose u_tt varies in t and x, from no package code
    errors = [_harmonic_dual_error(m, dim, 0.3) for m in sizes]
    for coarse, fine in zip(errors, errors[1:]):
        assert lo <= coarse / fine <= hi, errors


def test_large_amplitude_harmonic_dual_solves_through_nested_iteration(monkeypatch):
    # eps = 10: u_tt spans about [0.24, 0.94], and no calibrated root lies in
    # the ellipticity cone, so the start climbs the 7-13-25 ladder
    solves = _record_newton_solves(monkeypatch)
    assert _harmonic_dual_error(25, 3, 10.0) <= 1e-4
    assert [shape for shape, _ in solves] == [(7, 7, 7), (13, 13, 13)]


def test_harmonic_dual_at_eps_300_solves_from_the_fine_cone_entry():
    # eps = 300: both seams of the 7-13-25 ladder break u_tt > 0, so the 13^3
    # and the fine level start from their cone entries
    assert _harmonic_dual_error(25, 3, 300.0) <= 1e-4


def test_report_counts_the_fine_steps_after_a_broken_seam():
    # eps = 100 at 13^3: the 7^3 solution prolonged breaks u_tt > 0 on the fine
    # grid, and the fine steps from its cone entry are the report's own
    g = cube(-1.0, 1.0, 13)
    exact = oracles.harmonic_dual_solution(g.points(), 100.0).reshape(g.shape)
    rep = newton_solve(DirichletProblem(g, ScalarField(g, exact)))
    assert rep.converged and rep.iterations > 0
    assert len(rep.residual_history) == rep.iterations + 1


@pytest.mark.parametrize(
    "shape",
    [(24, 24, 24), (32, 32, 32), (5, 33, 33), (33, 5, 17)],
    ids=["24", "32", "5x33x33", "33x5x17"],
)
def test_exponential_data_solves_on_every_ladder(shape):
    # even counts climb non-nested ladders (6-12-24, 8-16-32), and an axis
    # of 5 nodes never coarsens; the start comes from the coarsest level, so
    # the fine level still takes Newton steps
    g = Grid(((-1.0, 1.0),) * 3, shape)
    problem = DirichletProblem.from_candidate(g, Counterexample(0.25))
    rep = newton_solve(problem)
    assert rep.converged and rep.iterations > 0
    assert rep.residual_norm <= problem.default_tol()


@pytest.mark.slow
def test_truncation_error_is_second_order_down_to_h_0025():
    """Interior max error at h = 0.05 (41^3) over h = 0.025 (81^3) is about 4."""
    ce = Counterexample(0.25)
    errors = []
    for m in (41, 81):
        g = cube(-1.0, 1.0, m)
        rep = newton_solve(DirichletProblem.from_candidate(g, ce))
        assert rep.converged
        gap = np.abs(rep.solution.values - ScalarField.sample(g, ce).values)
        errors.append(gap[1:-1, 1:-1, 1:-1].max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_he_form_keeps_constant_u11():
    he = make_he_form(0.5, HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0}))
    g = cube(-1.0, 1.0, 11)
    rep = newton_solve(DirichletProblem.from_candidate(g, he))
    assert rep.converged
    utt = second_diff(rep.solution.values, 0, g.spacing[0])
    np.testing.assert_allclose(utt, 2 * he.a, atol=0.05)


def test_solution_independent_of_initial_guess():
    ce = Counterexample()
    g = cube(-1.0, 1.0, 9)
    problem = DirichletProblem.from_candidate(g, ce)
    auto = newton_solve(problem)
    seeded = newton_solve(problem, init=ScalarField.sample(g, ce))
    assert auto.converged and seeded.converged
    gap = np.abs(auto.solution.values - seeded.solution.values).max()
    assert gap <= 10 * problem.default_tol()


def test_discrete_comparison_with_subsolution():
    """0.8 * quadratic + counterexample has sigma2(D^2 v) well above 1
    (superadditivity of sqrt(sigma2) on the elliptic cone), which makes it a
    subsolution: like a function with the larger Laplacian, it must lie
    *below* the solution with the same boundary values, up to O(h^2)."""
    ce = Counterexample()
    q = Quadratic.standard(3)
    g = cube(-1.0, 1.0, 11)
    pts = g.points()
    v = (0.8 * q.eval_many(pts) + ce.eval_many(pts)).reshape(g.shape)
    rep = newton_solve(DirichletProblem(g, ScalarField(g, v)))
    assert rep.converged
    gap = v - rep.solution.values
    h2 = g.spacing[0] ** 2
    assert gap.max() <= 10 * h2
    # and the inequality is not vacuous: the interior separation is genuine
    assert gap.min() < -0.1


def test_report_serialization():
    g = cube(-1.0, 1.0, 7)
    rep = newton_solve(DirichletProblem.from_candidate(g, Quadratic.standard(3)))
    d = rep.to_dict()
    assert d["converged"] is True
    assert "solution" not in d
    assert isinstance(d["residual_history"], list)
    assert d["min_u11"] > 0.0


# ---------------------------------------------------------------------------
# failure modes


def test_max_iter_exceeded_carries_partial_report():
    g = cube(-1.0, 1.0, 9)
    problem = DirichletProblem.from_candidate(g, Counterexample())
    with pytest.raises(MaxIterExceeded) as exc_info:
        newton_solve(problem, max_iter=1)
    rep = exc_info.value.report
    assert rep is not None and not rep.converged
    assert rep.iterations == 1


def test_ellipticity_guard_rejects_concave_start():
    g = cube(-1.0, 1.0, 7)
    problem = DirichletProblem.from_candidate(g, Quadratic.standard(3))
    bad = oracles.field_from_callable(g, lambda t, x, y: -(t**2))
    with pytest.raises(EllipticityLost, match="initial iterate has min u_tt") as info:
        newton_solve(problem, init=bad)
    # the report is that of the start, its boundary ring reset to the problem's data
    u = bad.values.copy()
    u[g.boundary_mask()] = problem.boundary.values[g.boundary_mask()]
    res = assemble_residual(ScalarField(g, u))
    norm = float(np.linalg.norm(res))
    assert info.value.report.to_dict() == {
        "converged": False,
        "iterations": 0,
        "residual_norm": norm,
        "residual_max": float(np.abs(res).max()),
        "min_u11": float(second_diff(u, 0, g.spacing[0]).min()),
        "tol": problem.default_tol(),
        "residual_history": [norm],
    }
    assert info.value.report.solution is None


def test_init_grid_mismatch_rejected():
    problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, 7), Quadratic.standard(3))
    other = ScalarField(cube(-1.0, 1.0, 9), np.zeros((9, 9, 9)))
    with pytest.raises(ConfigError):
        newton_solve(problem, init=other)


# ---------------------------------------------------------------------------
# rigidity sweep


def test_rigidity_sweep_unperturbed_data_is_rigid():
    rows = rigidity_sweep(Quadratic.standard(3), eps=0.0, sizes=(1.0, 2.0), h=0.25)
    assert [r["L"] for r in rows] == [1.0, 2.0]
    for row in rows:
        assert row["converged"] and row["error"] is None
        assert row["osc_u11_inner"] <= 1e-8


def test_rigidity_sweep_perturbation_decays():
    rows = rigidity_sweep(Quadratic.standard(3), eps=0.1, sizes=(1.0, 2.0), h=0.25)
    assert all(r["converged"] for r in rows)
    assert rows[1]["osc_u11_inner"] < rows[0]["osc_u11_inner"]
    # the comparison is fair because h/L is fixed: same node count each row
    assert rows[0]["nodes_per_axis"] == rows[1]["nodes_per_axis"]
    # the gradient along the axis keeps growing with the box, so the decay
    # of osc(u_tt) is not an artifact of the solution going flat
    assert rows[1]["max_u1_axis"] > rows[0]["max_u1_axis"]


@pytest.mark.parametrize("n", [14, 15, 16])
def test_rigidity_sweep_converges_every_row_at_fine_spacing(n):
    # the L = 1 calibrated root has sigma2 <= 0 at 68 nodes at h = 1/14 and
    # 109 at h = 1/16; started there, Newton left the u_tt cone
    rows = rigidity_sweep(Quadratic.standard(3), eps=0.1, sizes=(1, 2, 4), h=1.0 / n)
    assert [r["error"] for r in rows] == [None, None, None]
    assert all(r["converged"] for r in rows)


_ROTATED = Quadratic(np.array([[1.0, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.1, 0.35]]))


@pytest.mark.parametrize("base", [Quadratic.standard(3), _ROTATED], ids=["standard", "rotated"])
@pytest.mark.parametrize("eps", [0.4, 1.0])
def test_rigidity_sweep_converges_every_row_at_large_bumps(base, eps, monkeypatch):
    # at h = 1/12 the L = 1 row's seam into the fine level breaks u_tt > 0
    outer, real = [], solver.newton_solve

    def recorded(problem, init=None, **kwargs):
        rep = real(problem, init, **kwargs)
        if init is None:  # the sweep's own solves, not the ladder's
            outer.append((problem, rep))
        return rep

    monkeypatch.setattr(solver, "newton_solve", recorded)
    rows = rigidity_sweep(base, eps=eps, sizes=(1, 2, 4), h=1.0 / 12.0)
    assert [r["error"] for r in rows] == [None, None, None]
    assert all(r["converged"] for r in rows)
    # the L = 1 row is the solution Newton reaches from the sampled base quadratic
    problem, rep = outer[0]
    from_base = real(problem, init=ScalarField.sample(problem.grid, base))
    assert np.abs(rep.solution.values - from_base.solution.values).max() <= 1e-12


def test_rigidity_rows_obey_the_dyadic_scaling_law():
    # u_L(x) = L^2 u(x / L) takes the unit box at bump amplitude eps / L^2 to
    # the box [-L, L]^3 at eps, and keeps the standard quadratic.  At L = 2, 4
    # every scaling is exact in binary, so the rows agree bit for bit, the
    # spacing and u_t scaled by L
    base = Quadratic.standard(3)
    rows = rigidity_sweep(base, eps=0.1, sizes=(1, 2, 4), h=0.125)
    for row, L in zip(rows, (1.0, 2.0, 4.0)):
        (unit,) = rigidity_sweep(base, eps=0.1 / L**2, sizes=(1,), h=0.125)
        assert row == dict(unit, L=L, h=L * unit["h"], max_u1_axis=L * unit["max_u1_axis"])


def test_rigidity_sweep_validation():
    with pytest.raises(ConfigError):
        rigidity_sweep(Quadratic.standard(3), sizes=(2.0, 1.0))
    with pytest.raises(ConfigError):
        rigidity_sweep(Quadratic.standard(3), sizes=(1.0, 2.0), h=0.9)
    with pytest.raises(NotConvex):
        rigidity_sweep(Counterexample(), sizes=(1.0, 2.0), h=0.25)
