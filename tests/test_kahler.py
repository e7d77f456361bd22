import numpy as np
import pytest

import oracles
from sigma2lab import kahler
from sigma2lab.candidates import Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.errors import ConfigError, NotPositiveDefinite
from sigma2lab.kahler import curvature, metric_batch


def control_potential():
    """Convex non-solution with honest curvature: u = r^2 e^t + e^-t/4 + x^4/20."""
    return oracles.PerturbedPotential(Counterexample(), eps=1 / 20)


CONTROL_POINT = (0.0, 0.0, 1.0, 0.0)

# reference values for the control potential at CONTROL_POINT, computed
# symbolically (fractions 444/4900 etc. evaluated to double precision)
CONTROL_RICCI = np.array(
    [
        [-0.09061224489795917, -0.2008163265306122],
        [-0.2008163265306122, -0.6477551020408163],
    ]
)
CONTROL_RIEMANN_NORM = 1.3773115536553664


# ---------------------------------------------------------------------------
# metric entries


def test_metric_pinned_counterexample():
    curv = curvature(Counterexample(), CONTROL_POINT)
    expected = np.array([[0.3125, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(curv["g"][0], expected, atol=1e-14)
    assert curv["det_g"][0] == pytest.approx(1 / 16)


def test_metric_pinned_quadratic():
    g = curvature(Quadratic.standard(3), (0.3, -2.0, 0.4, 0.1))["g"][0]
    np.testing.assert_allclose(g, np.diag([0.25, 0.25]), atol=1e-15)


def test_metric_matches_hand_derived_oracle():
    rng = np.random.default_rng(0)
    pts4 = rng.uniform(-1.5, 1.5, size=(50, 4))
    data = metric_batch(control_potential(), pts4)
    g_oracle = oracles.metric_entries(control_potential(), pts4[:, [0, 2, 3]])
    np.testing.assert_allclose(data["g"], g_oracle, atol=1e-12)


def test_metric_is_hermitian_and_s_independent():
    rng = np.random.default_rng(1)
    pts4 = rng.uniform(-2.0, 2.0, size=(200, 4))
    data = metric_batch(Counterexample(), pts4)
    g = data["g"]
    np.testing.assert_allclose(g, np.conj(np.swapaxes(g, -1, -2)), atol=1e-13)
    # the potential never sees s, so neither may the metric
    shifted = pts4.copy()
    shifted[:, 1] += 7.5
    np.testing.assert_array_equal(metric_batch(Counterexample(), shifted)["g"], g)


def test_point_container_equivalence():
    """One point of 4 coordinates is a batch of one, however it is held."""
    p = (0.2, -0.3, 1.1, 0.5)
    a = curvature(Counterexample(), p)
    b = curvature(Counterexample(), np.array([p]))
    assert a["points"].shape == (1, 4)
    np.testing.assert_array_equal(a["g"], b["g"])
    with pytest.raises(ConfigError):
        curvature(Counterexample(), (0.2, np.nan, 1.1, 0.5))


def test_metric_requires_three_dimensional_potential():
    with pytest.raises(ConfigError):
        metric_batch(Quadratic.standard(2), (0.0, 0.0, 1.0, 0.0))


def test_not_positive_definite_is_reported():
    # a large negative quartic makes u_xx + u_yy change sign
    bad = oracles.PerturbedPotential(Counterexample(), eps=-10.0)
    with pytest.raises(NotPositiveDefinite, match=r"at \(t,s,x,y\)=\(0\.0, 0\.0, 1\.0, 0\.0\)"):
        curvature(bad, (0.0, 0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Monge-Ampere determinant


def test_determinant_constant_across_the_slab():
    rng = np.random.default_rng(2)
    pts4 = rng.uniform(-2.0, 2.0, size=(1000, 4))
    for cand in (Counterexample(), Quadratic.standard(3)):
        det = kahler._det(metric_batch(cand, pts4)["g"]).real
        assert det.std() <= 1e-10
        np.testing.assert_allclose(det, 1 / 16, atol=1e-12)


def test_quadratic_with_cross_terms_same_determinant():
    A = np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    q = Quadratic(A)
    assert curvature(q, (0.4, 1.0, -0.2, 0.8))["det_g"][0] == pytest.approx(1 / 16, abs=1e-14)


def test_det_rounding_error_is_within_its_bound():
    """Given its entries, _det rounds three times, each by at most eps/2
    relative: the real product g00 g11, the real part a^2 + b^2 of g01 g10
    (two products and a sum, so 2 of them on that term) and the difference.
    To first order its error is at most (3/2) eps (|g00 g11| + |g01 g10|).
    The entries are themselves rounded results (e^t times polynomial terms,
    a few ulps each), and each ulp of an entry adds eps/2 to its products:
    _DET_ERR = 4 eps covers both.  On the exponential family, where
    det g = kappa / 4 exactly, the worst error on these samples is 1.6 eps
    times the terms, so the bound is also not loose by more than a factor 4."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    worst = 0.0
    for kappa in (0.01, 0.25, 3.0):
        pts4 = rng.uniform(-1.0, 1.0, size=(20000, 4))
        pts4[:, 0] = rng.uniform(-20.0, 17.0, 20000)
        g = metric_batch(Counterexample(kappa), pts4)["g"]
        terms = np.abs(g[:, 0, 0] * g[:, 1, 1]) + np.abs(g[:, 0, 1] * g[:, 1, 0])
        worst = max(worst, float((np.abs(kahler._det(g).real - kappa / 4) / (eps * terms)).max()))
    assert 1.0 <= worst <= kahler._DET_ERR


@pytest.mark.parametrize("t", [8.0, 10.0, 18.0, 20.0])
def test_a_determinant_lost_to_rounding_is_refused(t):
    # g00 g11 and |g01|^2 grow like e^2t / 4 at x = 1 and cancel to 1/16:
    # det_g once read 0.0624999851 at t = 10, 0.125 at t = 18 and 0 at t = 20,
    # where the metric was called not positive definite
    with pytest.raises(ConfigError, match=rf"\(t,s,x,y\)=\({t}, 0\.0, 1\.0, 0\.0\) is lost to rounding"):
        curvature(Counterexample(), (t, 0.0, 1.0, 0.0))


def test_a_determinant_within_its_bound_is_reported():
    # up to t = 7 at x = 1 the bound stays below _DET_RTOL |det g|
    t = np.linspace(-7.0, 7.0, 29)
    pts4 = np.column_stack([t, np.zeros_like(t), np.ones_like(t), np.zeros_like(t)])
    np.testing.assert_allclose(curvature(Counterexample(), pts4)["det_g"], 1 / 16, rtol=kahler._DET_RTOL)


# ---------------------------------------------------------------------------
# curvature: the solution metrics are flat, the control is not


@pytest.mark.parametrize("kappa", [0.25, 1.0])
def test_solution_family_metrics_are_flat(kappa):
    """Zero Ricci *and* zero full curvature for every kappa, not just 1/4."""
    rng = np.random.default_rng(3)
    pts4 = rng.uniform(-1.5, 1.5, size=(25, 4))
    curv = curvature(Counterexample(kappa), pts4)
    # sigma2 = 4 kappa, so det g = kappa / 4: 1/16 only for the solution
    np.testing.assert_allclose(curv["det_g"], kappa / 4, atol=1e-12)
    assert np.abs(curv["ricci"]).max() <= 1e-10
    assert curv["riemann_norm_sq"].max() <= 1e-12


def test_he_form_metric_is_flat():
    he = make_he_form(0.5, HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0}))
    rng = np.random.default_rng(4)
    curv = curvature(he, rng.uniform(-1.0, 1.0, size=(10, 4)))
    assert np.abs(curv["ricci"]).max() <= 1e-10
    assert curv["riemann_norm_sq"].max() <= 1e-12


def test_control_ricci_pinned():
    ric = curvature(control_potential(), CONTROL_POINT)["ricci"][0]
    np.testing.assert_allclose(ric.real, CONTROL_RICCI, atol=1e-12)
    np.testing.assert_allclose(ric.imag, 0.0, atol=1e-12)


def test_control_riemann_norm_pinned():
    assert curvature(control_potential(), CONTROL_POINT)["riemann_norm_sq"][0] == pytest.approx(
        CONTROL_RIEMANN_NORM, rel=1e-12
    )


def test_curvature_matches_difference_oracle():
    """Two independent routes: closed-form derivative pipeline vs central
    differences of the hand-derived metric entries."""
    pert = control_potential()
    for p3 in [(0.0, 1.0, 0.0), (0.3, 0.8, -0.5)]:
        p4 = (p3[0], 0.0, p3[1], p3[2])
        ric_fd = oracles.ricci_fd(pert, p3)
        curv = curvature(pert, p4)
        np.testing.assert_allclose(curv["ricci"][0], ric_fd, atol=1e-7)
        assert curv["riemann_norm_sq"][0] == pytest.approx(
            oracles.riemann_norm_fd(pert, p3), abs=1e-6
        )


def test_riemann_kahler_symmetries():
    rm = curvature(control_potential(), (0.2, 0.0, 1.1, -0.3))["riemann"][0]
    # symmetric in the unbarred pair (i k) and in the barred pair (j l)
    np.testing.assert_allclose(rm, np.transpose(rm, (2, 1, 0, 3)), atol=1e-12)
    np.testing.assert_allclose(rm, np.transpose(rm, (0, 3, 2, 1)), atol=1e-12)
    # reality: conjugation swaps barred and unbarred slots
    np.testing.assert_allclose(np.conj(rm), np.transpose(rm, (1, 0, 3, 2)), atol=1e-12)


def test_ricci_is_trace_of_riemann():
    pert = control_potential()
    p4 = (0.1, 0.0, 0.9, -0.4)
    data = metric_batch(pert, p4)
    gup = np.linalg.inv(data["g"][0]).T
    curv = curvature(pert, p4)
    traced = np.einsum("ij,ijkl->kl", gup, curv["riemann"][0])
    np.testing.assert_allclose(traced, curv["ricci"][0], atol=1e-12)


def test_riemann_norm_positive_and_s_invariant():
    pert = control_potential()
    a, b = curvature(pert, [(0.0, 0.0, 1.0, 0.0), (0.0, 5.0, 1.0, 0.0)])["riemann_norm_sq"]
    assert a > 1.0
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("potential", [control_potential(), Counterexample(0.25)])
def test_batched_curvature_equals_single_point_readings(potential):
    """Row n of ``curvature`` at N points is ``curvature`` at point n alone."""
    pts4 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 4))
    curv = curvature(potential, pts4)
    for n, p in enumerate(pts4):
        single = curvature(potential, p)
        assert np.array_equal(curv["points"][n], single["points"][0])
        assert np.array_equal(curv["g"][n], single["g"][0])
        assert curv["det_g"][n] == single["det_g"][0]
        assert np.array_equal(curv["ricci"][n], single["ricci"][0])
        assert np.array_equal(curv["riemann"][n], single["riemann"][0])
        # both readings pass through the (-1e-10, 0) -> 0 clamp
        assert curv["riemann_norm_sq"][n] == single["riemann_norm_sq"][0]
        assert np.signbit(curv["riemann_norm_sq"][n]) == np.signbit(single["riemann_norm_sq"][0])


def test_riemann_norm_clamps_rounding_noise_only():
    # g = diag(e^{i pi/4}, 1) turns the single entry |R_0000|^2 into -|R_0000|^2
    g = np.array([np.diag([np.exp(0.25j * np.pi), 1.0])] * 3)
    rm = np.zeros((3, 2, 2, 2, 2), dtype=complex)
    rm[:, 0, 0, 0, 0] = np.sqrt([1e-11, 1e-9, 0.0])
    norm = kahler._riemann_norm_sq(np.swapaxes(np.linalg.inv(g), -1, -2), rm)
    assert norm[0] == 0.0
    assert norm[1] == pytest.approx(-1e-9, rel=1e-12)
    assert norm[2] == 0.0
