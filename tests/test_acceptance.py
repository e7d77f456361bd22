"""Acceptance suite: the package's headline guarantees, end to end.

Each numbered test prints one PASS/FAIL line (visible with ``pytest -rA``
or on failure) and then asserts the same condition, so the printed ledger
and the exit status can never disagree.

Criterion 4b pins the curvature of the exponential solution, and what it
pins is exact flatness.  The solution is non-trivial as a potential (neither
quadratic nor of He's form), but its metric is not: the holomorphic change
of variables w1 = z2 * exp(z1/2), w2 = 2*sqrt(kappa) * exp(-z1/2) turns the
potential into |w1|^2 + |w2|^2 / 4, so the metric is the pull-back of a
Euclidean one and its full curvature tensor vanishes for every kappa.  4b
therefore bounds both curvature routes at the rounding floor, checks that
they still see real curvature on a perturbed potential, and asserts the
change of variables itself.
"""

import time

import numpy as np
import pytest

import oracles
from sigma2lab import kahler
from sigma2lab._ddouble import (
    dd,
    dd_add,
    dd_add_d,
    dd_mul,
    dd_mul_d,
    dd_sq,
    dd_sub,
    dd_to_float,
)
from sigma2lab.analysis import (
    SublevelSet,
    barrier_check,
    harmonicity_test,
    he_reduction_report,
    inscribe_ellipsoid,
    partial_legendre,
)
from sigma2lab.candidates import Counterexample, HarmonicPoly, Quadratic, make_he_form
from sigma2lab.core_ops import Grid, ScalarField, sigma2_tilde
from sigma2lab.solver import DirichletProblem, newton_solve, rigidity_sweep


def _line(num, name, ok, detail=""):
    tail = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# 1. pointwise verification of the exponential solution


def test_criterion_1_counterexample_residual():
    rng = np.random.default_rng(101)
    pts = np.column_stack(
        [
            rng.uniform(-3.0, 3.0, 10_000),
            rng.uniform(-2.0, 2.0, 10_000),
            rng.uniform(-2.0, 2.0, 10_000),
        ]
    )
    ce = Counterexample(0.25)
    start = time.perf_counter()
    worst = float(np.abs(ce.residual_many(pts)).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _line(1, "residual sweep", ok, f"max |sigma2 - 1| = {worst:.3e} over 1e4 points in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. the one-dimensional reduction: sigma2(D^2 u) = 4 e^t h''(t)


def _dd_poly(coeffs, t):
    acc = dd(np.zeros_like(t))
    for c in reversed(list(coeffs)):
        acc = dd_add_d(dd_mul(acc, dd(t)), float(c))
    return acc


def _reduction_gap(rng, n_pts):
    """max |sigma2(D^2 u) - 4 e^t h''| for u = r^2 e^t + p(t) e^{alpha t},
    both sides built from the same compensated seeds."""
    t = rng.uniform(-3.0, 3.0, n_pts)
    x = rng.uniform(-2.0, 2.0, n_pts)
    y = rng.uniform(-2.0, 2.0, n_pts)
    coeffs = rng.uniform(-1.0, 1.0, 5)  # degree-4 polynomial factor
    alpha = float(rng.uniform(-1.5, 1.5))

    E = dd(np.exp(t))
    Eh = dd(np.exp(alpha * t))
    X, Y = dd(x), dd(y)
    p0 = _dd_poly(coeffs, t)
    p1 = _dd_poly([k * coeffs[k] for k in range(1, 5)], t)
    p2 = _dd_poly([k * (k - 1) * coeffs[k] for k in range(2, 5)], t)
    # h'' = (p'' + 2 alpha p' + alpha^2 p) e^{alpha t}
    h2 = dd_mul(
        dd_add(dd_add(p2, dd_mul_d(p1, 2.0 * alpha)), dd_mul_d(p0, alpha * alpha)), Eh
    )

    utt = dd_add(dd_mul(dd_add(dd_sq(X), dd_sq(Y)), E), h2)
    lap = dd_mul_d(E, 4.0)  # u_xx + u_yy = 4 e^t
    utx = dd_mul_d(dd_mul(X, E), 2.0)
    uty = dd_mul_d(dd_mul(Y, E), 2.0)
    lhs = dd_sub(dd_sub(dd_mul(utt, lap), dd_sq(utx)), dd_sq(uty))
    rhs = dd_mul(dd_mul_d(E, 4.0), h2)
    return float(np.abs(dd_to_float(dd_sub(lhs, rhs))).max())


def test_criterion_2_exponential_family_identity():
    rng = np.random.default_rng(202)
    worst = max(_reduction_gap(rng, 500) for _ in range(20))
    ok = worst <= 1e-12
    _line(2, "r^2 e^t + h(t) reduction", ok, f"max |sigma2 - 4 e^t h''| = {worst:.3e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 3. the complex reading: det of the complex Hessian


class _Rescaled:
    dim = 3

    def __init__(self, base, factor):
        self.base = base
        self.factor = float(factor)

    def eval_many(self, pts, index):
        return self.factor * self.base.eval_many(pts, index)


def test_criterion_3_complex_determinant():
    rng = np.random.default_rng(303)
    pts4 = np.column_stack(
        [
            rng.uniform(-2.0, 2.0, 1000),
            rng.uniform(-2.0, 2.0, 1000),
            rng.uniform(-2.0, 2.0, 1000),
            rng.uniform(-2.0, 2.0, 1000),
        ]
    )
    ce = Counterexample(0.25)
    det = kahler._det(kahler.metric_batch(ce, pts4)["g"]).real
    det4u = kahler._det(kahler.metric_batch(_Rescaled(ce, 4.0), pts4)["g"]).real
    spread = float(det.max() - det.min())
    raw_err = float(np.abs(det - 1.0 / 16.0).max())
    scaled_err = float(np.abs(det4u - 1.0).max())
    ok = spread <= 1e-10 and raw_err <= 1e-10 and scaled_err <= 1e-10
    _line(
        3,
        "det of complex Hessian",
        ok,
        f"spread {spread:.2e}, |det - 1/16| <= {raw_err:.2e}, |det(4u) - 1| <= {scaled_err:.2e}",
    )
    assert spread <= 1e-10
    assert raw_err <= 1e-10
    assert scaled_err <= 1e-10


# ---------------------------------------------------------------------------
# 4. curvature of the induced metric


def test_criterion_4a_ricci_flat():
    rng = np.random.default_rng(404)
    pts4 = rng.uniform(-2.0, 2.0, size=(100, 4))
    ce = Counterexample(0.25)
    start = time.perf_counter()
    worst = float(np.abs(kahler.curvature(ce, pts4)["ricci"]).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _line(
        "4a", "Ricci flatness", ok, f"max |Ric_ij| = {worst:.3e} at 100 points in {elapsed:.2f}s"
    )
    assert worst <= 1e-8
    assert elapsed < 5.0


def _flattening_jacobian(kappa, pts4):
    """J[n, a, i] = d w_a / d z_i for w1 = z2 e^{z1/2}, w2 = 2 sqrt(kappa) e^{-z1/2}."""
    z1 = pts4[:, 0] + 1j * pts4[:, 1]
    z2 = pts4[:, 2] + 1j * pts4[:, 3]
    jac = np.zeros((pts4.shape[0], 2, 2), dtype=complex)
    jac[:, 0, 0] = 0.5 * z2 * np.exp(0.5 * z1)
    jac[:, 0, 1] = np.exp(0.5 * z1)
    jac[:, 1, 0] = -np.sqrt(kappa) * np.exp(-0.5 * z1)
    return jac


# Bounds for the exponential solution (kappa = 1/4) at (t,s,x,y) = (0,0,1,0).
# There g = [[5/16, 1/2], [1/2, 1]], det g = 1/16, the eigenvalues of g are
# (21 -+ sqrt(377)) / 32, i.e. 0.0495 and 1.263, and |g^{pq}| <= 16,
# |d g| <= 1/2, |d dbar g| <= 1/4 (u = unit roundoff, 1.1e-16).
#
# Closed-form route: R = -d dbar g + sum_pq g^{pq} dg dgbar.  Its four products
# are each <= 16 * 1/2 * 1/2 = 4, so O(1) terms cancel to zero.  The inverse
# carries relative error ~ cond(g) u = 25.5 u and each product a few u more,
# so every entry is off by at most ~ 16.25 * 31 u = 5.6e-14.
PACKAGE_ENTRY_BOUND = 1e-12
# Difference route: metric entries (|g_ij| <= 1.3 on the stencil) carry
# rounding eps_g <= 4e-16.  A Wirtinger second difference at step d is off by
# <= 2 eps_g / d^2; the Richardson step (4 D(d/2) - D(d)) / 3 amplifies that
# to 34 eps_g / (3 d^2) = 4.5e-9 at d = 1e-3 (random rounding gives ~1e-10).
# The first differences in the correction term add <= 1e-10 and the
# truncation left after Richardson is O(d^4) ~ 1e-12.
ORACLE_ENTRY_BOUND = 1e-8
# |Rm|^2 <= lambda_max(g^{-1})^4 * sum |R_ijkl|^2 <= 20.3^4 * 16 * (1e-8)^2 = 2.7e-10.
ORACLE_NORM_BOUND = 1e-9
# All three bounds sit at least six orders of magnitude below the control's
# values (|Rm|^2 = 1.377, largest tensor entry 0.043), so a wrong curvature
# formula cannot hide under them.


def test_criterion_4b_nonflatness_pin():
    """Curvature pin at (0,0,1,0): two routes to the curvature tensor agree
    with the mathematics on a flat and on a curved potential.

    1. Exponential solution (kappa = 1/4): the metric is exactly flat (see the
       module docstring), so the package's tensor (read raw from
       curvature's "riemann": its |Rm|^2 clamps small negatives to 0) and the
       difference oracle's tensor and norm V0 must sit at their rounding
       floors, bounded above with the derivations next to the constants.
    2. Control u + x^4/20: honest curvature, so the package's |Rm|^2 matches
       the oracle's V0 within 0.1% relative, and V0 > 1e-6.
    3. The reason for 1: g = J^T diag(1, 1/4) conj(J) at random points of the
       slab for kappa = 1/4 and 1, with J the Jacobian of (w1, w2).

    The name predates the restatement (the target used to be V0 > 1e-6 for
    the exponential solution, which no flat metric can meet); it is kept so
    the criterion's history stays traceable.
    """
    p4 = (0.0, 0.0, 1.0, 0.0)
    p3 = (0.0, 1.0, 0.0)

    ce = Counterexample(0.25)
    rm_pkg = float(np.abs(kahler.curvature(ce, p4)["riemann"]).max())
    rm_fd = float(np.abs(oracles.riemann_fd(ce, p3)).max())
    v0_flat = oracles.riemann_norm_fd(ce, p3)
    flat_ok = (
        rm_pkg <= PACKAGE_ENTRY_BOUND
        and rm_fd <= ORACLE_ENTRY_BOUND
        and abs(v0_flat) <= ORACLE_NORM_BOUND
    )

    pert = oracles.PerturbedPotential(Counterexample(), eps=1 / 20)
    v_curved = float(kahler.curvature(pert, p4)["riemann_norm_sq"][0])
    v0_curved = oracles.riemann_norm_fd(pert, p3)
    curved_ok = abs(v_curved - v0_curved) <= 1e-3 * abs(v0_curved) and v0_curved > 1e-6

    rng = np.random.default_rng(405)
    pts4 = rng.uniform(-2.0, 2.0, size=(1000, 4))
    weights = np.array([1.0, 0.25])
    # both sides are sums of non-cancelling products of a few rounded
    # factors, so they agree to ~10 u relative to the largest entry
    worst_gap = 0.0
    for kappa in (0.25, 1.0):
        g = kahler.metric_batch(Counterexample(kappa), pts4)["g"]
        jac = _flattening_jacobian(kappa, pts4)
        pulled = np.einsum("nai,a,naj->nij", jac, weights, np.conj(jac))
        gap = np.abs(g - pulled).max(axis=(1, 2)) / np.abs(g).max(axis=(1, 2))
        worst_gap = max(worst_gap, float(gap.max()))
    pullback_ok = worst_gap <= 1e-14

    ok = flat_ok and curved_ok and pullback_ok
    _line(
        "4b",
        "curvature pin",
        ok,
        f"exponential: max|R| package {rm_pkg:.2e}, oracle {rm_fd:.2e}, V0 {v0_flat:.2e}; "
        f"control: |Rm|^2 package {v_curved:.10f}, V0 {v0_curved:.10f}; "
        f"pull-back gap {worst_gap:.1e}",
    )
    assert rm_pkg <= PACKAGE_ENTRY_BOUND, (
        f"package curvature {rm_pkg:.3e} of the exponential solution exceeds the rounding "
        f"floor {PACKAGE_ENTRY_BOUND:.0e}; its metric is exactly flat"
    )
    assert rm_fd <= ORACLE_ENTRY_BOUND, (
        f"oracle curvature {rm_fd:.3e} exceeds its rounding floor {ORACLE_ENTRY_BOUND:.0e}"
    )
    assert abs(v0_flat) <= ORACLE_NORM_BOUND, (
        f"oracle V0 = {v0_flat:.3e} exceeds its rounding floor {ORACLE_NORM_BOUND:.0e}"
    )
    assert curved_ok, (
        f"control potential: package |Rm|^2 = {v_curved!r} vs oracle V0 = {v0_curved!r} "
        "(need 0.1% relative agreement and V0 > 1e-6)"
    )
    assert pullback_ok, (
        f"metric differs from the pull-back of |w1|^2 + |w2|^2/4 by {worst_gap:.3e} relative"
    )


# ---------------------------------------------------------------------------
# 5. the inscribed-ellipsoid bound


def test_criterion_5_ellipsoid_barrier():
    q = Quadratic.standard(3)
    worst_eq = 0.0
    for h in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        chk = barrier_check(inscribe_ellipsoid(SublevelSet.from_candidate(q, h)), h)
        worst_eq = max(worst_eq, abs(chk["value"] * 4.0 * h * h - 1.0))
        assert chk["pass"]

    rng = np.random.default_rng(505)
    failures = 0
    for k in range(200):
        h = float(10.0 ** rng.uniform(-1.0, 2.0))
        if k % 4 == 3:
            beta = rng.uniform(-0.6, 0.6, size=2)
            cand = make_he_form(
                float(10.0 ** rng.uniform(-0.5, 0.5)),
                HarmonicPoly(2, {(1, 0): beta[0], (0, 1): beta[1]}),
            )
        else:
            raw = rng.normal(size=(3, 3))
            A0 = raw @ raw.T + 0.3 * np.eye(3)
            cand = Quadratic(
                A0 / np.sqrt(sigma2_tilde(A0)), b=rng.normal(size=3), c=float(rng.normal())
            )
        chk = barrier_check(inscribe_ellipsoid(SublevelSet.from_candidate(cand, h)), h)
        failures += 0 if chk["pass"] else 1

    ok = worst_eq <= 1e-8 and failures == 0
    _line(
        5,
        "inscribed-ellipsoid bound",
        ok,
        f"equality gap {worst_eq:.2e} over six levels; {200 - failures}/200 random triples pass",
    )
    assert worst_eq <= 1e-8
    assert failures == 0


# ---------------------------------------------------------------------------
# 6. classification of the constant-u_tt family


def test_criterion_6_reduction_classification():
    members = [
        Quadratic.standard(3),
        Quadratic(np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), b=[0.0, 1.0, -1.0]),
        make_he_form(0.5, HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0})),
        make_he_form(2.0, HarmonicPoly(2, {(1, 1): 1.5, (0, 1): 0.3})),
        make_he_form(1.0, HarmonicPoly(1, {(1,): 0.8})),
    ]
    worst_osc = 0.0
    worst_rt = 0.0
    for cand in members:
        rep = he_reduction_report(cand)
        assert rep["is_he_form"], f"{cand.variant} misclassified"
        worst_osc = max(worst_osc, rep["osc_u11"])
        worst_rt = max(worst_rt, rep["round_trip_max_error"])

    rep_ce = he_reduction_report(Counterexample(0.25))
    ce_ok = (not rep_ce["is_he_form"]) and rep_ce["osc_u11"] > 0.1

    # theta(z, x) of the exponential solution is curved, so its discrete
    # Laplacian is pure truncation error: refinement must cut it ~4x
    spans = ((1.0, 2.0), (1.0, 2.0))

    def harm(n):
        return harmonicity_test(
            partial_legendre(Counterexample(0.25), x_spans=spans, shape=(n, n), z_count=n)
        )

    ratio = harm(33) / harm(65)
    ratio_ok = 3.5 <= ratio <= 4.5

    ok = worst_osc <= 1e-8 and worst_rt <= 1e-8 and ce_ok and ratio_ok
    _line(
        6,
        "constant-u_tt classification",
        ok,
        f"member osc <= {worst_osc:.2e}, round trip <= {worst_rt:.2e}, "
        f"non-member osc = {rep_ce['osc_u11']:.3f}, harmonicity ratio {ratio:.3f}",
    )
    assert worst_osc <= 1e-8
    assert worst_rt <= 1e-8
    assert ce_ok
    assert ratio_ok


# ---------------------------------------------------------------------------
# 7. Dirichlet solver convergence


def test_criterion_7_solver_convergence():
    ce = Counterexample(0.25)
    errors = {}
    start = time.perf_counter()
    for h, m in ((0.1, 21), (0.05, 41)):
        g = Grid(((-1.0, 1.0),) * 3, (m,) * 3)
        rep = newton_solve(DirichletProblem.from_candidate(g, ce))
        assert rep.converged
        exact = ScalarField.sample(g, ce)
        gap = np.abs(rep.solution.values - exact.values)
        errors[h] = float(gap[1:-1, 1:-1, 1:-1].max())
    elapsed = time.perf_counter() - start
    ratio = errors[0.1] / errors[0.05]

    quad = newton_solve(
        DirichletProblem.from_candidate(Grid(((-1.0, 1.0),) * 3, (21,) * 3), Quadratic.standard(3))
    )

    ratio_ok = 3.5 <= ratio <= 4.5
    ok = ratio_ok and quad.converged and quad.iterations <= 3 and elapsed < 120.0
    _line(
        7,
        "Dirichlet convergence",
        ok,
        f"errors {errors[0.1]:.3e} -> {errors[0.05]:.3e} (ratio {ratio:.3f}), "
        f"quadratic in {quad.iterations} Newton steps, {elapsed:.0f}s total",
    )
    assert ratio_ok
    assert quad.converged and quad.iterations <= 3
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 8. rigidity trend on growing boxes


def test_criterion_8_rigidity_trend():
    rows = rigidity_sweep(Quadratic.standard(3), eps=0.1, sizes=(1.0, 2.0, 4.0), h=0.125)
    oscs = [row["osc_u11_inner"] for row in rows]
    converged = all(row["converged"] for row in rows)
    monotone = converged and all(b <= a * (1 + 1e-12) for a, b in zip(oscs, oscs[1:]))
    ok = converged and monotone
    _line(
        8,
        "rigidity trend",
        ok,
        "osc(u_tt) inner half-box: " + " -> ".join(f"{v:.4e}" for v in oscs),
    )
    assert converged
    assert monotone
