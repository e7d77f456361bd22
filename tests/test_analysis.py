import numpy as np
import pytest

from sigma2lab.analysis import (
    _LAPLACIAN_BLOCK,
    _ROOT_BLOCK,
    EllipsoidMap,
    SublevelSet,
    _axis_crossings,
    _gradient,
    _legendre_roots,
    barrier_check,
    harmonicity_test,
    he_reduction_report,
    inscribe_ellipsoid,
    legendre_round_trip,
    partial_legendre,
)
from sigma2lab.candidates import CandidateSolution, Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.core_ops import Grid, ScalarField, laplacian, sigma2_tilde
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
    M = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    E = EllipsoidMap(M, center=np.array([1.0, -2.0, 0.5]))
    pts = E.boundary_points(200)
    r = np.linalg.norm((M @ (pts - E.center).T).T, axis=1)
    np.testing.assert_allclose(r, 1.0, atol=1e-12)
    # deterministic: same seed, same points
    np.testing.assert_array_equal(pts, E.boundary_points(200))


def test_ellipsoid_rejects_indefinite_matrix():
    with pytest.raises(NotPositiveDefinite):
        EllipsoidMap(np.diag([1.0, -1.0, 1.0]), center=np.zeros(3))
    with pytest.raises(ConfigError):
        EllipsoidMap(np.diag([1.0, 1.0]), center=np.zeros(3))
    with pytest.raises(ConfigError):
        EllipsoidMap(np.array([[1.0, 2.0], [2.5, 1.0]]), center=np.zeros(2))


def test_ellipsoid_scaling_shrinks_or_inflates():
    E = EllipsoidMap(np.diag([2.0, 2.0]), center=np.zeros(2))
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


def _rotation(rng, dim=3):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _brentq_crossings(K):
    """Each axis crossing of K by its own scipy brentq solve, at machine
    tolerances (xtol 1e-15, rtol 8.9e-16)."""
    from scipy.optimize import brentq

    out = []
    for e in np.kron(np.eye(K.dim), [[1.0], [-1.0]]):
        def f(s, e=e):
            return float(K.value((K.minimizer + s * e)[None, :])[0]) - K.h

        s_hi = 1.0
        while f(s_hi) <= 0.0:
            s_hi *= 2.0
        out.append(brentq(f, 0.0, s_hi, xtol=1e-15, rtol=8.9e-16))
    return np.array(out)


def test_batched_axis_crossings_match_brentq():
    """brentq brackets each root to within xtol + rtol * s, and the Newton
    solve ends on a polish step at rounding level, so with every crossing
    s >= 1 they agree to 2 (1e-15 + 8.9e-16) < 4e-15 relative.  The
    quadratics have min u = 0, so rounding in value itself stays below
    that."""
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(20):
        R = _rotation(rng)
        A0 = R @ np.diag(rng.uniform(0.3, 3.0, 3)) @ R.T
        A0 = 0.5 * (A0 + A0.T)
        A = A0 / np.sqrt(sigma2_tilde(A0))
        b = 0.3 * rng.normal(size=3)
        q = Quadratic(A, b=b, c=0.5 * b @ np.linalg.solve(A, b))
        cases.append((q, rng.uniform(1.0, 5.0) * np.diag(A).max() / 2.0))
    for _ in range(10):
        beta = rng.uniform(-0.6, 0.6, size=2)
        he = make_he_form(float(rng.uniform(0.5, 2.0)), HarmonicPoly(2, {(1, 0): beta[0], (0, 1): beta[1]}))
        cases.append((he, rng.uniform(1.0, 5.0) * max(2.0 * he.a, 1.0 / he.a)))
    for cand, h in cases:
        K = SublevelSet.from_candidate(cand, h)
        dirs = np.kron(np.eye(K.dim), [[1.0], [-1.0]])
        g0 = _gradient(cand, K.minimizer[None])[0]
        got = _axis_crossings(K.value, lambda pts: _gradient(cand, pts) - g0, K.minimizer, dirs, K.h)
        ref = _brentq_crossings(K)
        assert ref.min() >= 1.0
        np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0.0)
        np.testing.assert_array_equal(K.intercepts, got.reshape(K.dim, 2).min(axis=1))


class _CountingCandidate:
    """Forwards to ``cand`` and counts its ``eval_many`` calls."""

    def __init__(self, cand):
        self.cand, self.calls = cand, 0
        self.dim = cand.dim

    def eval_many(self, points, index=None):
        self.calls += 1
        return self.cand.eval_many(points, index)

    def hessian_many(self, points):
        return self.cand.hessian_many(points)


@pytest.mark.parametrize(
    "cand, h",
    [(Quadratic.standard(3), 1.0), (make_he_form(0.8, HarmonicPoly(2, {(1, 0): 0.3, (0, 1): -0.2})), 1.5)],
    ids=["quadratic", "he_form"],
)
def test_sublevel_set_makes_few_candidate_evaluations(cand, h):
    """The minimizer, the normalization and all 2 * dim crossings of one
    set take at most 35 batched evaluations."""
    counting = _CountingCandidate(cand)
    K = SublevelSet.from_candidate(counting, h)
    assert counting.calls <= 35
    np.testing.assert_array_equal(K.intercepts, SublevelSet.from_candidate(cand, h).intercepts)


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
        np.testing.assert_allclose(E.M, np.diag([1 / np.sqrt(2.0), 0.5, 0.5]), atol=1e-9)


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


def test_quadratic_ellipsoid_is_inside_by_the_exact_test():
    """For u = x^T A x / 2 + b.x + c the largest value of u - min u on the
    boundary of |M(x - c)| <= 1 is lambda_max(M^-1 A M^-1) / 2: a rotated
    quadratic's ellipsoid must keep it at most h, to 1e-12."""
    rng = np.random.default_rng(61)
    for _ in range(60):
        R = _rotation(rng)
        A0 = R @ np.diag(rng.uniform(0.3, 3.0, 3)) @ R.T
        A0 = 0.5 * (A0 + A0.T)
        A = A0 / np.sqrt(sigma2_tilde(A0))
        q = Quadratic(A, b=rng.normal(size=3), c=float(rng.normal()))
        h = float(10.0 ** rng.uniform(-1.0, 2.0))
        K = SublevelSet.from_candidate(q, h)
        np.testing.assert_array_equal(K.hessian, q.A)  # read off the probe bit for bit
        E = inscribe_ellipsoid(K)
        np.testing.assert_allclose(E.center, -np.linalg.solve(A, q.b), atol=1e-12)
        Minv = np.linalg.inv(E.M)
        assert np.linalg.eigvalsh(Minv @ A @ Minv).max() / 2.0 <= h * (1.0 + 1e-12)
        assert barrier_check(E, h)["pass"]


def test_he_form_with_affine_b_ellipsoid_is_inside_by_the_exact_test():
    """A He-form whose b is affine is a quadratic with mixed t-x terms: its
    Hessian H is constant, so the ellipsoid takes the exact path and keeps
    lambda_max(M^-1 H M^-1) / 2 at most h, to 1e-12."""
    rng = np.random.default_rng(62)
    for _ in range(20):
        b0, b1, b2 = rng.uniform(-0.65, 0.65, size=3)  # |grad b| < 1 keeps the form convex
        he = make_he_form(float(rng.uniform(0.3, 1.5)), HarmonicPoly(2, {(0, 0): b0, (1, 0): b1, (0, 1): b2}))
        H = he.hessian_many(np.zeros((1, 3)))[0]
        for h in (0.5, 1.0, float(10.0 ** rng.uniform(-1.0, 1.5))):
            K = SublevelSet.from_candidate(he, h)
            np.testing.assert_array_equal(K.hessian, H)
            Minv = np.linalg.inv(inscribe_ellipsoid(K).M)
            assert np.linalg.eigvalsh(Minv @ H @ Minv).max() / 2.0 <= h * (1.0 + 1e-12)


def test_he_form_with_quadratic_b_takes_the_sampled_path():
    # its Hessian varies across the probe, so no closed form applies
    he = make_he_form(0.5, HarmonicPoly(2, {(2, 0): 0.05, (0, 2): -0.05}))
    assert SublevelSet.from_candidate(he, 0.5).hessian is None


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
    assert legendre_round_trip(ce, theta) == np.abs(z_back - pts[:, 0]).max()


def _legendre_from_full_arrays(cand, theta, t_span):
    """The Newton roots over whole-grid point arrays (np.repeat / np.tile),
    in the same _ROOT_BLOCK blocks, as a reference for the blocked mesh."""
    z_axis, *x_axes = theta.grid.axes()
    x_pts = np.stack([g.ravel() for g in np.meshgrid(*x_axes, indexing="ij")], axis=-1)
    zz = np.repeat(z_axis, x_pts.shape[0])
    pts = np.empty((zz.size, cand.dim))
    pts[:, 1:] = np.tile(x_pts, (z_axis.size, 1))
    t = np.empty(zz.size)
    for start in range(0, zz.size, _ROOT_BLOCK):
        block = slice(start, start + _ROOT_BLOCK)
        t[block] = _legendre_roots(cand, pts[block, 1:], zz[block], t_span)
    return t.reshape(theta.grid.shape)


LEGENDRE_BLOCK_CASES = [
    (Counterexample(), ((1.0, 2.0), (1.0, 2.0)), (29, 29), 41),
    (Quadratic(np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), b=[1.0, 0.0, -2.0]),
     ((-0.2, 0.2), (-0.5, 0.5)), (29, 29), 41),
    (make_he_form(0.5, HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0})), ((-0.5, 0.5),) * 2, (29, 29), 41),
    (make_he_form(1.5, HarmonicPoly(1, {(1,): 3.0})), ((-0.5, 0.5),), (67,), 521),
]
LEGENDRE_BLOCK_IDS = ["counterexample", "quadratic", "he_form-3d", "he_form-2d"]


@pytest.mark.parametrize("cand, x_spans, shape, z_count", LEGENDRE_BLOCK_CASES, ids=LEGENDRE_BLOCK_IDS)
def test_legendre_blocks_match_full_point_arrays(cand, x_spans, shape, z_count):
    t_span = (-1.0, 1.0)
    theta = partial_legendre(cand, t_span=t_span, x_spans=x_spans, shape=shape, z_count=z_count)
    assert theta.grid.n_nodes > _ROOT_BLOCK  # two blocks, the second one partial
    want = _legendre_from_full_arrays(cand, theta, t_span)
    assert np.array_equal(theta.values.view(np.uint64), want.view(np.uint64))


def _two_call_roots(cand, pts, zz, t_span):
    """The Legendre roots as they were found before the t-line reader: the
    safeguarded Newton with separate u_t and u_tt calls to eval_many."""
    d1 = (1,) + (0,) * (cand.dim - 1)
    d2 = (2,) + d1[1:]

    def f(t):
        pts[:, 0] = t
        return cand.eval_many(pts, d1) - zz

    def df(t):
        pts[:, 0] = t
        return cand.eval_many(pts, d2)

    lo, hi = np.full(zz.size, float(t_span[0])), np.full(zz.size, float(t_span[1]))
    t = 0.5 * (lo + hi)
    done = np.zeros(t.size, dtype=bool)
    width = [hi - lo, hi - lo]
    update = [np.full(t.size, np.inf)] * 2
    for it in range(120):
        f_t = f(t)
        above = f_t > 0.0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        t_next = 0.5 * (lo + hi)
        if it < 60:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = t - f_t / df(t)
            newton = (step >= lo) & (step <= hi)
            newton &= (hi - lo <= 0.5 * width[0]) | (np.abs(step - t) <= 0.5 * update[0])
            t_next = np.where(newton, step, t_next)
        t_next = np.where(done, t, t_next)
        change = np.abs(t_next - t)
        width = [width[1], hi - lo]
        update = [update[1], change]
        t = t_next
        done |= change <= 1e-14 * np.maximum(1.0, np.abs(t))
        if done.all():
            break
    return t - f(t) / df(t)


@pytest.mark.parametrize("cand, x_spans, shape, z_count", LEGENDRE_BLOCK_CASES, ids=LEGENDRE_BLOCK_IDS)
def test_legendre_matches_two_call_newton_bit_for_bit(cand, x_spans, shape, z_count):
    t_span = (-1.0, 1.0)
    theta = partial_legendre(cand, t_span=t_span, x_spans=x_spans, shape=shape, z_count=z_count)
    z_axis, *x_axes = theta.grid.axes()
    x_pts = np.stack([g.ravel() for g in np.meshgrid(*x_axes, indexing="ij")], axis=-1)
    want = np.empty(theta.grid.n_nodes)
    for start in range(0, want.size, _ROOT_BLOCK):
        node = np.arange(start, min(start + _ROOT_BLOCK, want.size))
        pts = np.empty((node.size, cand.dim))
        pts[:, 1:] = x_pts[node % x_pts.shape[0]]
        want[node] = _two_call_roots(cand, pts, z_axis[node // x_pts.shape[0]], t_span)
    assert np.array_equal(theta.values.ravel().view(np.uint64), want.view(np.uint64))


def test_exponential_root_loop_makes_no_eval_many_call(monkeypatch):
    calls = []
    real = Counterexample.eval_many
    monkeypatch.setattr(Counterexample, "eval_many", lambda *a: calls.append(1) or real(*a))
    ce = Counterexample()
    x_rows = np.tile([[1.0, 1.5], [1.5, 1.0], [1.2, 1.3]], (10, 1))
    zz = np.linspace(5.0, 6.0, x_rows.shape[0])
    t = _legendre_roots(ce, x_rows, zz, (-1.0, 2.0))
    assert calls == []
    assert np.abs(real(ce, np.column_stack([t, x_rows]), (1, 0, 0)) - zz).max() <= 1e-12


class _SteepTanh(CandidateSolution):
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


@pytest.mark.parametrize("shape", [(40, 65, 65), (5, 9, 9), (300, 17)], ids=["blocks", "one-block", "2d"])
def test_slab_wise_harmonicity_equals_the_whole_grid_laplacian(shape):
    g = Grid(tuple((-1.0, 1.0 + a) for a in range(len(shape))), shape)
    theta = ScalarField(g, np.random.default_rng(8).normal(size=shape))
    assert harmonicity_test(theta) == np.abs(laplacian(theta.values, g.spacing)).max()


def test_slab_wise_harmonicity_memory_follows_the_block_size():
    import tracemalloc

    g = Grid(((-1.0, 1.0),) * 3, (129, 65, 65))
    theta = ScalarField(g, np.random.default_rng(8).normal(size=g.shape))
    tracemalloc.start()
    harmonicity_test(theta)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # eight block-sized arrays; three whole-interior temporaries were 11.6 MB
    assert peak <= 8 * 8 * _LAPLACIAN_BLOCK


@pytest.mark.parametrize("z_count", [-3, 0, 4])
def test_legendre_needs_five_z_nodes(z_count):
    field = ScalarField.sample(Grid(((-1.0, 1.0),) * 3, (9, 9, 9)), Counterexample(0.25))
    for source in (Counterexample(0.25), field):
        with pytest.raises(ConfigError, match="at least 5 z nodes"):
            partial_legendre(source, z_count=z_count)


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
