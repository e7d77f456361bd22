import numpy as np
import pytest

import oracles
from sigma2lab import kahler
from sigma2lab.candidates import Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.errors import ConfigError, NotPositiveDefinite
from sigma2lab.kahler import (
    ComplexPoint,
    complex_hessian,
    ma_residual,
    metric_batch,
    ricci,
    riemann_norm,
    riemann_tensor,
)


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
    g = complex_hessian(Counterexample(), CONTROL_POINT).g
    expected = np.array([[0.3125, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(g, expected, atol=1e-14)
    assert complex_hessian(Counterexample(), CONTROL_POINT).det == pytest.approx(1 / 16)


def test_metric_pinned_quadratic():
    g = complex_hessian(Quadratic.standard(3), (0.3, -2.0, 0.4, 0.1)).g
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
    p = ComplexPoint(0.2, -0.3, 1.1, 0.5)
    a = complex_hessian(Counterexample(), p).g
    b = complex_hessian(Counterexample(), (0.2, -0.3, 1.1, 0.5)).g
    np.testing.assert_array_equal(a, b)
    assert p.as_array().shape == (4,)


def test_metric_requires_three_dimensional_potential():
    with pytest.raises(ConfigError):
        metric_batch(Quadratic.standard(2), (0.0, 0.0, 1.0, 0.0))


def test_not_positive_definite_is_reported():
    # a large negative quartic makes u_xx + u_yy change sign
    bad = oracles.PerturbedPotential(Counterexample(), eps=-10.0)
    with pytest.raises(NotPositiveDefinite):
        complex_hessian(bad, (0.0, 0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Monge-Ampere residual


def test_ma_residual_zero_for_solutions():
    pts = [(0.0, 0.0, 1.0, 0.0), (0.5, 2.0, -1.0, 0.3), (-1.0, 0.0, 0.2, 0.9)]
    for p in pts:
        assert abs(ma_residual(Counterexample(), p)) <= 1e-14
        assert abs(ma_residual(Counterexample(), p, rescaled=True)) <= 1e-12
        assert abs(ma_residual(Quadratic.standard(3), p)) <= 1e-15


def test_ma_residual_detects_off_solution():
    # sigma2 = 4 kappa, so det g = kappa/4 and the raw defect is 3/16
    assert ma_residual(Counterexample(kappa=1.0), CONTROL_POINT) == pytest.approx(3 / 16)
    assert ma_residual(Counterexample(kappa=1.0), CONTROL_POINT, rescaled=True) == pytest.approx(3.0)


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
    assert complex_hessian(q, (0.4, 1.0, -0.2, 0.8)).det == pytest.approx(1 / 16, abs=1e-14)


# ---------------------------------------------------------------------------
# curvature: the solution metrics are flat, the control is not


@pytest.mark.parametrize("kappa", [0.25, 1.0])
def test_solution_family_metrics_are_flat(kappa):
    """Zero Ricci *and* zero full curvature for every kappa, not just 1/4."""
    rng = np.random.default_rng(3)
    pts4 = rng.uniform(-1.5, 1.5, size=(25, 4))
    ce = Counterexample(kappa)
    for p in pts4:
        assert np.abs(ricci(ce, p)).max() <= 1e-10
        assert riemann_norm(ce, p) <= 1e-12


def test_he_form_metric_is_flat():
    he = make_he_form(0.5, HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0}))
    rng = np.random.default_rng(4)
    for p in rng.uniform(-1.0, 1.0, size=(10, 4)):
        assert np.abs(ricci(he, p)).max() <= 1e-10
        assert riemann_norm(he, p) <= 1e-12


def test_control_ricci_pinned():
    ric = ricci(control_potential(), CONTROL_POINT)
    np.testing.assert_allclose(ric.real, CONTROL_RICCI, atol=1e-12)
    np.testing.assert_allclose(ric.imag, 0.0, atol=1e-12)


def test_control_riemann_norm_pinned():
    assert riemann_norm(control_potential(), CONTROL_POINT) == pytest.approx(
        CONTROL_RIEMANN_NORM, rel=1e-12
    )


def test_curvature_matches_difference_oracle():
    """Two independent routes: closed-form derivative pipeline vs central
    differences of the hand-derived metric entries."""
    pert = control_potential()
    for p3 in [(0.0, 1.0, 0.0), (0.3, 0.8, -0.5)]:
        p4 = (p3[0], 0.0, p3[1], p3[2])
        ric_fd = oracles.ricci_fd(pert, p3)
        np.testing.assert_allclose(ricci(pert, p4), ric_fd, atol=1e-7)
        assert riemann_norm(pert, p4) == pytest.approx(
            oracles.riemann_norm_fd(pert, p3), abs=1e-6
        )


def test_riemann_kahler_symmetries():
    rm = riemann_tensor(control_potential(), (0.2, 0.0, 1.1, -0.3))
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
    rm = riemann_tensor(pert, p4)
    traced = np.einsum("ij,ijkl->kl", gup, rm)
    np.testing.assert_allclose(traced, ricci(pert, p4), atol=1e-12)


def test_riemann_norm_positive_and_s_invariant():
    pert = control_potential()
    a = riemann_norm(pert, (0.0, 0.0, 1.0, 0.0))
    b = riemann_norm(pert, (0.0, 5.0, 1.0, 0.0))
    assert a > 1.0
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("potential", [control_potential(), Counterexample(0.25)])
def test_batched_curvature_equals_single_point_readings(potential):
    pts4 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 4))
    curv = kahler.curvature(potential, pts4)
    for n, p in enumerate(pts4):
        met = complex_hessian(potential, p)
        assert np.array_equal(curv["g"][n], met.g)
        assert curv["det_g"][n] == met.det
        assert np.array_equal(curv["ricci"][n], ricci(potential, p))
        assert np.array_equal(curv["riemann"][n], riemann_tensor(potential, p))
        # riemann_norm applies the (-1e-10, 0) -> 0 clamp
        single = riemann_norm(potential, p)
        assert curv["riemann_norm_sq"][n] == single
        assert np.signbit(curv["riemann_norm_sq"][n]) == np.signbit(single)


def test_riemann_norm_clamps_rounding_noise_only():
    # g = diag(e^{i pi/4}, 1) turns the single entry |R_0000|^2 into -|R_0000|^2
    g = np.array([np.diag([np.exp(0.25j * np.pi), 1.0])] * 3)
    rm = np.zeros((3, 2, 2, 2, 2), dtype=complex)
    rm[:, 0, 0, 0, 0] = np.sqrt([1e-11, 1e-9, 0.0])
    norm = kahler._riemann_norm_sq(g, rm)
    assert norm[0] == 0.0
    assert norm[1] == pytest.approx(-1e-9, rel=1e-12)
    assert norm[2] == 0.0
