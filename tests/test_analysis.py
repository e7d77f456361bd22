import numpy as np
import pytest

from sigma2lab.analysis import (
    EllipsoidMap,
    SublevelSet,
    barrier_check,
    harmonicity_test,
    he_reduction_report,
    inscribe_ellipsoid,
    partial_legendre,
)
from sigma2lab.candidates import Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.core_ops import Grid, ScalarField, SymMatrix, sigma2_tilde
from sigma2lab.errors import (
    ConfigError,
    NoInteriorPoint,
    NotConvex,
    NotMonotone,
    NotPositiveDefinite,
    ZOutOfRange,
)


# ---------------------------------------------------------------------------
# ellipsoid plumbing


def test_ellipsoid_boundary_points_lie_on_the_ellipsoid():
    M = SymMatrix.from_full(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]))
    E = EllipsoidMap(M, center=np.array([1.0, -2.0, 0.5]))
    pts = E.boundary_points(200)
    r = np.linalg.norm((M.full() @ (pts - E.center).T).T, axis=1)
    np.testing.assert_allclose(r, 1.0, atol=1e-12)
    # deterministic: same seed, same points
    np.testing.assert_array_equal(pts, E.boundary_points(200))


def test_ellipsoid_rejects_indefinite_matrix():
    with pytest.raises(NotPositiveDefinite):
        EllipsoidMap(SymMatrix.diag([1.0, -1.0, 1.0]), center=np.zeros(3))
    with pytest.raises(ConfigError):
        EllipsoidMap(SymMatrix.diag([1.0, 1.0]), center=np.zeros(3))


def test_ellipsoid_scaling_shrinks_or_inflates():
    E = EllipsoidMap(SymMatrix.diag([2.0, 2.0]), center=np.zeros(2))
    assert barrier_check(E.scaled(2.0), 1.0)["value"] == pytest.approx(16 * barrier_check(E, 1.0)["value"])


# ---------------------------------------------------------------------------
# sublevel sets of the exact solutions


def test_sublevel_set_pinned_quadratic():
    K = SublevelSet.from_candidate(Quadratic.standard(3), h=1.0)
    np.testing.assert_allclose(K.minimizer, 0.0, atol=1e-10)
    np.testing.assert_allclose(K.intercepts, [np.sqrt(2.0), 2.0, 2.0], atol=1e-9)


def test_sublevel_set_is_translation_invariant():
    """The tangent-plane normalization removes linear and constant parts, so
    a shifted copy of the same paraboloid has identical intercepts."""
    A = np.diag([1.0, 0.5, 0.5])
    base = SublevelSet.from_candidate(Quadratic(A), h=2.0)
    moved = SublevelSet.from_candidate(Quadratic(A, b=[0.7, -0.4, 1.1], c=3.0), h=2.0)
    np.testing.assert_allclose(moved.minimizer, -np.linalg.solve(A, [0.7, -0.4, 1.1]), atol=1e-8)
    np.testing.assert_allclose(moved.intercepts, base.intercepts, atol=1e-8)


def test_sublevel_set_rejections():
    with pytest.raises(NotConvex):
        SublevelSet.from_candidate(Counterexample(), h=1.0)
    with pytest.raises(NoInteriorPoint):
        SublevelSet.from_candidate(Quadratic.standard(3), h=0.0)
    with pytest.raises(NoInteriorPoint):
        SublevelSet.from_candidate(Quadratic.standard(3), h=-2.0)


def test_sublevel_set_from_field_matches_candidate():
    q = Quadratic.standard(3)
    g = Grid(((-2.0, 2.0),) * 3, (41, 41, 41))
    K = SublevelSet.from_field(ScalarField.sample(g, q), h=0.5)
    exact = SublevelSet.from_candidate(q, h=0.5)
    np.testing.assert_allclose(K.minimizer, exact.minimizer, atol=1e-8)
    np.testing.assert_allclose(K.intercepts, exact.intercepts, atol=5e-3)


def test_sublevel_set_from_field_needs_interior_minimum():
    g = Grid(((0.5, 2.0),) * 2, (9, 9))
    tilted = ScalarField.from_callable(g, lambda t, x: t + x)  # min at a corner
    with pytest.raises(NoInteriorPoint):
        SublevelSet.from_field(tilted, h=1.0)


# ---------------------------------------------------------------------------
# the barrier inequality


@pytest.mark.parametrize("h", [0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
def test_barrier_equality_for_the_round_solution(h):
    """For t^2/2 + |x|^2/4 the sublevel sets *are* ellipsoids, so the
    inscribed one attains the bound exactly: sigma2(M^2) * 4h^2 = 1."""
    K = SublevelSet.from_candidate(Quadratic.standard(3), h=h)
    E = inscribe_ellipsoid(K)
    chk = barrier_check(E, h)
    assert chk["pass"]
    assert chk["value"] * 4.0 * h * h == pytest.approx(1.0, abs=1e-8)
    if h == 1.0:
        np.testing.assert_allclose(E.M.full(), np.diag([1 / np.sqrt(2.0), 0.5, 0.5]), atol=1e-9)


def test_barrier_holds_for_random_solution_sublevels():
    rng = np.random.default_rng(12)
    count = 0
    while count < 50:
        raw = rng.normal(size=(3, 3))
        A0 = raw @ raw.T + 0.3 * np.eye(3)
        A = A0 / np.sqrt(sigma2_tilde(A0))
        q = Quadratic(A, b=rng.normal(size=3), c=float(rng.normal()))
        h = float(10.0 ** rng.uniform(-1.0, 2.0))
        chk = barrier_check(inscribe_ellipsoid(SublevelSet.from_candidate(q, h)), h)
        assert chk["pass"], f"failed at A={A.tolist()}, h={h}"
        count += 1


def test_barrier_holds_for_separated_solutions():
    rng = np.random.default_rng(13)
    for _ in range(10):
        beta = rng.uniform(-0.6, 0.6, size=2)  # |beta| < 1 keeps the form convex
        a = float(10.0 ** rng.uniform(-0.5, 0.5))
        he = make_he_form(a, HarmonicPoly(2, {(1, 0): beta[0], (0, 1): beta[1]}))
        h = float(10.0 ** rng.uniform(-1.0, 1.5))
        chk = barrier_check(inscribe_ellipsoid(SublevelSet.from_candidate(he, h)), h)
        assert chk["pass"]


def test_barrier_detects_an_inflated_ellipsoid():
    K = SublevelSet.from_candidate(Quadratic.standard(3), h=1.0)
    E = inscribe_ellipsoid(K)
    assert not barrier_check(E.scaled(0.95), 1.0)["pass"]
    assert barrier_check(E.scaled(1.05), 1.0)["pass"]


# ---------------------------------------------------------------------------
# partial Legendre transform


def test_legendre_quadratic_is_the_identity_in_z():
    theta = partial_legendre(Quadratic.standard(3))
    z = theta.grid.meshgrid()[0]
    np.testing.assert_allclose(theta.values, z, atol=1e-12)
    assert harmonicity_test(theta) <= 1e-10


def test_legendre_he_form_closed_form():
    he = make_he_form(0.5, HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0}))
    spans = ((-0.5, 0.5), (-0.5, 0.5))
    theta = partial_legendre(he, x_spans=spans)
    zg, xg, yg = theta.grid.meshgrid()
    # u_t = 2 a t + b(x), so t = (z - b) / (2a)
    expected = (zg - (xg**2 - yg**2)) / (2 * he.a)
    np.testing.assert_allclose(theta.values, expected, atol=1e-10)
    assert harmonicity_test(theta) <= 1e-9


def test_legendre_round_trip_counterexample():
    ce = Counterexample()
    spans = ((1.0, 2.0), (1.0, 2.0))
    theta = partial_legendre(ce, x_spans=spans, shape=(15, 15), z_count=31)
    pts = theta.grid.points()
    z_back = ce.eval_many(
        np.column_stack([theta.values.ravel(), pts[:, 1:]]), (1, 0, 0)
    )
    assert np.abs(z_back - pts[:, 0]).max() <= 1e-10


class _SteepTanh:
    """u_t = 5 tanh(5t) + t/100 on every x-line: nearly flat away from t = 0,
    so a plain Newton step from the midpoint of [-1, 2] lands far outside."""

    dim = 3
    calls = 0

    def eval_many(self, points, index):
        self.calls += 1
        t = np.asarray(points)[:, 0]
        if index == (1, 0, 0):
            return 5.0 * np.tanh(5.0 * t) + t / 100.0
        if index == (2, 0, 0):
            return 25.0 / np.cosh(5.0 * t) ** 2 + 1.0 / 100.0
        raise AssertionError(f"unexpected derivative {index}")


def test_legendre_safeguarded_newton_matches_bisection():
    stub = _SteepTanh()
    t_span = (-1.0, 2.0)
    mid = np.array([[0.5 * sum(t_span)]])
    newton = mid - stub.eval_many(mid, (1, 0, 0)) / stub.eval_many(mid, (2, 0, 0))
    assert newton[0, 0] < t_span[0]  # plain Newton for z = 0 leaves the bracket
    stub.calls = 0
    theta = partial_legendre(stub, t_span=t_span, shape=(5, 5), z_count=41)
    # 60 bisection steps alone would take 60 calls; the safeguarded Newton
    # loop takes two per iteration (u_t, u_tt) and 5 more for probes and polish
    assert stub.calls <= 45
    pts = theta.grid.points()
    z = pts[:, 0]
    # reference: 60 bisections on the same bracket plus one Newton polish
    lo = np.full(z.size, t_span[0])
    hi = np.full(z.size, t_span[1])
    for _ in range(60):
        t = 0.5 * (lo + hi)
        above = stub.eval_many(t[:, None], (1, 0, 0)) - z > 0.0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
    t = 0.5 * (lo + hi)
    t = t - (stub.eval_many(t[:, None], (1, 0, 0)) - z) / stub.eval_many(t[:, None], (2, 0, 0))
    got = theta.values.ravel()
    assert np.abs(got - t).max() <= 1e-13
    z_back = stub.eval_many(np.column_stack([got, pts[:, 1:]]), (1, 0, 0))
    assert np.abs(z_back - z).max() <= 1e-13


def test_legendre_harmonicity_refines_at_second_order():
    """theta of the counterexample is genuinely curved, so its discrete
    Laplacian is pure truncation error and must shrink ~4x per refinement."""
    ce = Counterexample()
    spans = ((1.0, 2.0), (1.0, 2.0))

    def level(n):
        theta = partial_legendre(ce, x_spans=spans, shape=(n, n), z_count=n)
        return harmonicity_test(theta)

    ratio = level(17) / level(33)
    assert 3.2 < ratio < 4.8


def test_legendre_rejects_non_monotone_candidates():
    concave = Quadratic(np.diag([-1.0, -0.5, -0.5]))  # valid solution, u_t decreasing
    with pytest.raises(NotMonotone):
        partial_legendre(concave)


def test_legendre_rejects_unattainable_z():
    with pytest.raises(ZOutOfRange):
        partial_legendre(Quadratic.standard(3), t_span=(-1.0, 1.0), z_span=(-5.0, 5.0))


def test_legendre_field_path_exact_for_quadratic():
    q = Quadratic.standard(3)
    g = Grid(((-1.0, 1.0),) * 3, (21, 21, 21))
    theta = partial_legendre(ScalarField.sample(g, q))
    z = theta.grid.meshgrid()[0]
    # u_t is linear in t, so the per-line interpolation is exact
    np.testing.assert_allclose(theta.values, z, atol=1e-12)


def test_legendre_field_path_rejects_non_monotone_lines():
    g = Grid(((-2.0, 2.0),) * 2, (21, 21))
    wavy = ScalarField.from_callable(g, lambda t, x: np.sin(t) + x**2)
    with pytest.raises(NotMonotone):
        partial_legendre(wavy)


def test_harmonicity_test_zero_for_affine_field():
    g = Grid(((-1.0, 1.0),) * 2, (9, 9))
    theta = ScalarField.from_callable(g, lambda z, x: 2.0 * z - 3.0 * x + 1.0)
    assert harmonicity_test(theta) == 0.0


# ---------------------------------------------------------------------------
# He-form reduction


def test_reduction_report_quadratic():
    rep = he_reduction_report(Quadratic.standard(3))
    assert rep["is_he_form"]
    assert rep["a"] == pytest.approx(0.5, abs=1e-12)
    assert rep["osc_u11"] <= 1e-12
    assert rep["round_trip_max_error"] <= 1e-10
    assert rep["poisson_residual_max"] <= 1e-10
    assert rep["theta_harmonicity"] <= 1e-10


def test_reduction_report_recovers_b_and_g():
    he = make_he_form(0.75, HarmonicPoly(2, {(1, 1): 2.0, (1, 0): -0.5}))
    rep = he_reduction_report(he)
    assert rep["is_he_form"]
    assert rep["a"] == pytest.approx(0.75, abs=1e-12)
    mesh = np.meshgrid(*[np.asarray(a) for a in rep["x_axes"]], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    np.testing.assert_allclose(
        np.asarray(rep["b_values"]).ravel(), he.b.eval_many(pts), atol=1e-10
    )
    np.testing.assert_allclose(
        np.asarray(rep["g_values"]).ravel(), he.g.eval_many(pts), atol=1e-10
    )
    assert rep["round_trip_max_error"] <= 1e-10


def test_reduction_report_rejects_counterexample():
    rep = he_reduction_report(Counterexample())
    assert not rep["is_he_form"]
    assert rep["osc_u11"] > 0.1
    # no (a, b, g) extraction is attempted for a non-member
    assert rep["a"] is None


def test_reduction_report_field_source():
    g = Grid(((-2.0, 2.0),) * 3, (17, 17, 17))
    rep = he_reduction_report(ScalarField.sample(g, Quadratic.standard(3)))
    assert rep["source"] == "field"
    assert rep["is_he_form"]
    assert rep["a"] == pytest.approx(0.5, abs=1e-10)


def test_reduction_report_field_needs_t_origin_inside():
    g = Grid(((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0)), (9, 9, 9))
    fld = ScalarField.sample(g, Quadratic.standard(3))
    with pytest.raises(ConfigError):
        he_reduction_report(fld)


def test_reduction_report_without_theta():
    rep = he_reduction_report(Quadratic.standard(3), theta=False)
    assert rep["theta_harmonicity"] is None
