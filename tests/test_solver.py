import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sigma2lab import solver
from sigma2lab.candidates import Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.core_ops import Grid, ScalarField, second_diff, sigma2_interior
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


def test_jacobian_is_the_exact_linearization():
    """The operator is quadratic in u, so for interior-supported v:

    F(u + v) - F(u) - J(u) v = sigma2(D^2 v)  with no remainder at all.
    """
    rng = np.random.default_rng(0)
    g = cube(-1.0, 1.0, 7)
    u = ScalarField(g, rng.normal(size=g.shape))
    v = rng.normal(size=g.shape)
    v[g.boundary_mask()] = 0.0
    J = assemble_jacobian(u)

    lhs = (
        assemble_residual(ScalarField(g, u.values + v))
        - assemble_residual(u)
        - J @ v[1:-1, 1:-1, 1:-1].ravel()
    )
    rhs = sigma2_interior(v, g.spacing).ravel()
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


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


def test_multigrid_solve_matches_direct_solve_on_newton_path():
    g = cube(-1.0, 1.0, 25)
    assert len(solver._prolongations(g.shape)) == 2  # three levels: 7^3, 13^3, 25^3
    u0 = solver._auto_init(DirichletProblem.from_candidate(g, Counterexample(0.25)))
    J = assemble_jacobian(u0)
    rhs = -assemble_residual(u0)  # the first Newton system
    x = solver._solve_sparse(J, rhs, g)
    direct = spla.splu(J.tocsc()).solve(rhs)
    assert _relres(J, x, rhs) <= 1e-10
    assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)


def test_even_node_grid_solves_on_one_level():
    g = cube(-1.0, 1.0, 10)
    assert solver._prolongations(g.shape) == ()
    rng = np.random.default_rng(3)
    u = ScalarField.sample(g, Quadratic.standard(3))
    u.values += 0.01 * rng.normal(size=g.shape)
    J = assemble_jacobian(u)
    rhs = rng.normal(size=J.shape[0])
    x = solver._solve_sparse(J, rhs, g)
    assert _relres(J, x, rhs) <= 1e-10


@pytest.mark.parametrize("m", [10, 25])
def test_singular_jacobian_raises_linear_solve_failure(m):
    g = cube(-1.0, 1.0, m)
    J = assemble_jacobian(ScalarField(g, np.zeros(g.shape)))  # the zero matrix
    with pytest.raises(LinearSolveFailure):
        solver._solve_sparse(J, np.ones(J.shape[0]), g)


def test_gmres_that_stops_short_fails_without_fallback(monkeypatch):
    monkeypatch.setattr(solver, "_GMRES_RESTART", 2)
    monkeypatch.setattr(solver, "_GMRES_CYCLES", 1)
    g = cube(-1.0, 1.0, 25)
    J = assemble_jacobian(ScalarField.sample(g, Counterexample(0.25)))
    with pytest.raises(LinearSolveFailure, match="relative residual"):
        solver._solve_sparse(J, np.ones(J.shape[0]), g)


def test_sine_transform_poisson_solve_on_anisotropic_grid():
    g = Grid(((-1.0, 2.0), (0.0, 0.5), (-3.0, 3.0)), (9, 12, 17))
    load = np.random.default_rng(4).normal(size=g.interior_shape)
    full = np.zeros(g.shape)
    full[1:-1, 1:-1, 1:-1] = solver._dirichlet_poisson(g, load)
    lap = sum(second_diff(full, a, g.spacing[a]) for a in range(3))
    assert np.linalg.norm(lap - load) <= 1e-12 * np.linalg.norm(load)


# ---------------------------------------------------------------------------
# problem setup


def test_problem_constructors_agree():
    g = cube(-1.0, 1.0, 5)
    q = Quadratic.standard(3)
    a = DirichletProblem.from_candidate(g, q)
    b = DirichletProblem.from_callable(g, lambda t, x, y: 0.5 * (t**2) + 0.25 * (x**2 + y**2))
    np.testing.assert_allclose(a.boundary.values, b.boundary.values, atol=1e-14)
    assert a.default_tol() == pytest.approx(1e-10 * np.sqrt(27))


def test_interior_values_of_boundary_field_are_ignored():
    g = cube(-1.0, 1.0, 7)
    q = Quadratic.standard(3)
    clean = ScalarField.sample(g, q)
    noisy = clean.copy()
    noisy.values[2:-2, 2:-2, 2:-2] += 37.0  # garbage strictly inside
    ra = newton_solve(DirichletProblem.from_field(clean))
    rb = newton_solve(DirichletProblem.from_field(noisy))
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
    rep = newton_solve(DirichletProblem.from_field(ScalarField(g, v)))
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
    bad = ScalarField.from_callable(g, lambda t, x, y: -(t**2))
    with pytest.raises(EllipticityLost):
        newton_solve(problem, init=bad)


def test_init_grid_mismatch_rejected():
    problem = DirichletProblem.from_candidate(cube(-1.0, 1.0, 7), Quadratic.standard(3))
    other = ScalarField(cube(-1.0, 1.0, 9), np.zeros((9, 9, 9)))
    with pytest.raises(ConfigError):
        newton_solve(problem, init=other)
    with pytest.raises(ConfigError):
        newton_solve(problem, init="warm")


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


def test_rigidity_sweep_validation():
    with pytest.raises(ConfigError):
        rigidity_sweep(Quadratic.standard(3), sizes=(2.0, 1.0))
    with pytest.raises(ConfigError):
        rigidity_sweep(Quadratic.standard(3), sizes=(1.0, 2.0), h=0.9)
    with pytest.raises(NotConvex):
        rigidity_sweep(Counterexample(), sizes=(1.0, 2.0), h=0.25)
