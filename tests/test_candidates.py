import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sigma2lab import _ddouble as dd
from sigma2lab.candidates import (
    _RESIDUAL_BLOCK,
    Counterexample,
    HarmonicPoly,
    HeForm,
    Poly,
    Quadratic,
    candidate_from_dict,
    candidate_from_json,
    candidate_to_json,
    _sigma2_parts_dd,
    make_he_form,
)
from sigma2lab.errors import ConfigError, DegreeTooHigh, UnsupportedOrder


coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def random_points(seed, count, dim, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(count, dim))


# ---------------------------------------------------------------------------
# Poly


def test_poly_arithmetic():
    x = Poly.monomial(2, (1, 0))
    y = Poly.monomial(2, (0, 1))
    prod = (x + y) * (x - y)
    assert prod.coeffs == {(2, 0): 1.0, (0, 2): -1.0}
    assert (x * x).deriv(0).coeffs == {(1, 0): 2.0}
    assert (x * x + y * y).laplacian().coeffs == {(0, 0): 4.0}
    gs = (x * x - y * y).grad_sq()
    assert gs.coeffs == {(2, 0): 4.0, (0, 2): 4.0}
    assert prod.degree == 2


def test_poly_eval_and_serialization():
    p = Poly(2, {(2, 0): 1.5, (0, 1): -2.0, (0, 0): 0.5})
    pts = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 3.0]])
    np.testing.assert_allclose(p.eval_many(pts), [1.5 - 4.0 + 0.5, 0.5, 1.5 - 6.0 + 0.5])
    back = Poly.from_dict(2, p.to_dict())
    assert back.coeffs == p.coeffs
    assert "2,0" in p.to_dict()


def test_harmonic_poly_gatekeeping():
    HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0})  # x^2 - y^2 passes
    HarmonicPoly(2, {(1, 1): 2.5})  # xy passes
    with pytest.raises(ConfigError):
        HarmonicPoly(2, {(2, 0): 1.0})  # x^2 is not harmonic
    with pytest.raises(DegreeTooHigh):
        HarmonicPoly(2, {(5, 0): 1.0})


# ---------------------------------------------------------------------------
# pinned evaluations


def test_quadratic_standard_pinned():
    q = Quadratic.standard(3)
    assert q.eval_many([[1.0, 1.0, 0.5]]) == pytest.approx([0.5 + 0.25 + 0.0625], abs=1e-14)
    np.testing.assert_allclose(q.hessian_many([[0.0, 0.0, 0.0]]), [np.diag([1.0, 0.5, 0.5])])
    gradient = [q.eval_many([[1.0, 2.0, -2.0]], e)[0] for e in np.eye(3, dtype=int)]
    np.testing.assert_allclose(gradient, [1.0, 1.0, -1.0])


def test_counterexample_pinned():
    ce = Counterexample()
    p = [[0.0, 1.0, 0.0]]
    assert ce.eval_many(p) == pytest.approx([1.25], abs=1e-14)
    assert ce.eval_many(p, (1, 0, 0)) == pytest.approx([0.75], abs=1e-14)  # r^2 e^t - k e^-t
    assert ce.eval_many(p, (2, 0, 0)) == pytest.approx([1.25], abs=1e-14)
    assert ce.eval_many(p, (1, 1, 0)) == pytest.approx([2.0], abs=1e-14)  # 2x e^t
    assert ce.eval_many(p, (0, 2, 0)) == pytest.approx([2.0], abs=1e-14)
    assert ce.eval_many(p, (0, 1, 1))[0] == 0.0


def test_counterexample_solution_flag():
    # kappa must be positive; kappa = 1/4 is the solution (see the residual tests)
    with pytest.raises(ConfigError):
        Counterexample(0.0)
    with pytest.raises(ConfigError):
        Counterexample(-1.0)


# ---------------------------------------------------------------------------
# residuals (the compensated path is what makes the tight bounds possible)


def test_quadratic_residual_vanishes():
    A = np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    q = Quadratic(A, b=[0.3, -1.0, 2.0], c=5.0)
    pts = random_points(0, 2000, 3, -3.0, 3.0)
    assert np.abs(q.residual_many(pts)).max() <= 1e-14


def test_counterexample_residual_vanishes_even_far_out():
    ce = Counterexample()
    # e^t near 22000 makes the raw Hessian terms cancel through 13 digits;
    # the compensated evaluation keeps the residual at roundoff anyway
    pts = random_points(1, 2000, 3, -10.0, 10.0)
    assert np.abs(ce.residual_many(pts)).max() <= 1e-12


def test_counterexample_off_solution_residual_is_constant():
    ce = Counterexample(kappa=1.0)
    pts = random_points(2, 500, 3)
    np.testing.assert_allclose(ce.residual_many(pts), 3.0, atol=1e-12)


BLOCK_CANDIDATES = [
    Quadratic(np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), b=[1.0, 0.0, -2.0]),
    Counterexample(0.7),
    make_he_form(0.75, HarmonicPoly(2, {(2, 0): 0.4, (0, 2): -0.4, (1, 1): 1.0, (1, 0): -0.5})),
    make_he_form(1.5, HarmonicPoly(1, {(1,): 3.0, (0,): -0.25})),
]


@pytest.mark.parametrize("cand", BLOCK_CANDIDATES, ids=lambda c: f"{c.variant}-{c.dim}d")
@pytest.mark.parametrize(
    "count",
    [_RESIDUAL_BLOCK - 1, _RESIDUAL_BLOCK, _RESIDUAL_BLOCK + 1, 3 * _RESIDUAL_BLOCK + 17],
)
def test_blocked_residual_matches_one_block_bit_for_bit(cand, count):
    pts = random_points(5, count, cand.dim, -6.0, 6.0)
    sigma = _sigma2_parts_dd(*cand._residual_parts_dd(pts))
    one_block = dd.dd_to_float(dd.dd_add_d(sigma, -1.0))
    got = cand.residual_many(pts)
    assert got.shape == (count,)
    assert np.array_equal(got.view(np.uint64), one_block.view(np.uint64))


def test_residual_memory_grows_by_its_output_only():
    ce = Counterexample()

    def traced_peak(count):
        pts = random_points(6, count, 3)
        tracemalloc.start()
        try:
            ce.residual_many(pts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the blocks' temporaries are the same at both sizes; the output is 8 bytes a point
    growth = traced_peak(200_000) - traced_peak(50_000)
    assert growth <= 1.1 * 8 * 150_000


# The residual parts as they were computed term by term, before the
# monomial table and the shared Dekker splits: the references for the
# bit-identity tests below.


def _ref_pow_int(base, k):
    acc = dd.dd(base)
    for _ in range(k - 1):
        acc = dd.dd_mul_d(acc, np.asarray(base, dtype=float))
    return acc


def _ref_poly_dd(poly, X):
    n = X.shape[0]
    acc = (np.zeros(n), np.zeros(n))
    for e, c in poly.coeffs.items():
        term = (np.ones(n), np.zeros(n))
        for var, k in enumerate(e):
            if k:
                term = dd.dd_mul(term, _ref_pow_int(X[:, var], k))
        acc = dd.dd_add(acc, dd.dd_mul_d(term, c))
    return acc


def _ref_parts(cand, pts):
    n = pts.shape[0]
    if isinstance(cand, Quadratic):
        const = lambda v: (np.full(n, v), np.zeros(n))
        return (const(cand.A[0, 0]), [const(cand.A[i, i]) for i in range(1, cand.dim)],
                [const(cand.A[0, i]) for i in range(1, cand.dim)])
    if isinstance(cand, Counterexample):
        t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
        ep, em = np.exp(t), np.exp(-t)
        r2 = dd.dd_add(dd.two_prod(x, x), dd.two_prod(y, y))
        utt = dd.dd_add(dd.dd_mul_d(r2, ep), dd.two_prod(np.full_like(t, cand.kappa), em))
        two_ep = (2.0 * ep, np.zeros_like(ep))
        return utt, [two_ep, two_ep], [dd.two_prod(2.0 * x, ep), dd.two_prod(2.0 * y, ep)]
    t, X = pts[:, 0], pts[:, 1:]
    nv = cand.b.nvars
    t_dd = (t, np.zeros_like(t))
    diag = [
        dd.dd_add(dd.dd_mul(_ref_poly_dd(cand.b.deriv(i).deriv(i), X), t_dd),
                  _ref_poly_dd(cand.g.deriv(i).deriv(i), X))
        for i in range(nv)
    ]
    cross = [_ref_poly_dd(cand.b.deriv(i), X) for i in range(nv)]
    return (np.full(n, 2.0 * cand.a), np.zeros(n)), diag, cross


def _ref_residual(cand, pts):
    utt, diag, cross = _ref_parts(cand, pts)
    trace = diag[0]
    for d in diag[1:]:
        trace = dd.dd_add(trace, d)
    out = dd.dd_mul(utt, trace)
    for c in cross:
        out = dd.dd_sub(out, dd.dd_mul(c, c))
    return dd.dd_to_float(dd.dd_add_d(out, -1.0))


# b of degree 3 and g of degree 4 pass the Poisson check only within its
# relative 1e-10 tolerance (the 1e6 coefficients of g set the scale): not a
# solution, but every monomial of total degree up to 2 in both variables
WIDE_HE_FORM = candidate_from_dict({
    "variant": "he_form", "a": 2e5, "nvars": 2,
    "b": {"3,0": 1.0, "1,2": -3.0, "1,1": 0.5, "0,1": -0.2},
    "g": {"4,0": 1e6, "2,2": -6e6, "0,4": 1e6, "3,1": 0.3, "1,3": -0.3,
          "2,0": 6.25e-7, "0,2": 6.25e-7, "1,0": 0.7},
})
REFERENCE_CANDIDATES = [
    BLOCK_CANDIDATES[0], Counterexample(0.25), Counterexample(0.7), *BLOCK_CANDIDATES[2:], WIDE_HE_FORM,
]


@pytest.mark.parametrize("cand", REFERENCE_CANDIDATES, ids=["quadratic", "exp-0.25", "exp-0.7", "he-3d", "he-2d", "he-wide"])
@pytest.mark.parametrize("count", [_RESIDUAL_BLOCK - 1, _RESIDUAL_BLOCK + 1, 3 * _RESIDUAL_BLOCK + 17])
def test_residual_matches_term_by_term_reference_bit_for_bit(cand, count):
    pts = random_points(7, count, cand.dim, -6.0, 6.0)
    got = cand.residual_many(pts)
    want = _ref_residual(cand, pts)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_eval_many_dd_matches_term_by_term_reference_bit_for_bit():
    X = random_points(8, 1000, 2, -3.0, 3.0)
    for poly in (WIDE_HE_FORM.b, WIDE_HE_FORM.g, Poly.zero(2), Poly.constant(2, -1.5)):
        got, want = oracles.poly_eval_dd(poly, X), _ref_poly_dd(poly, X)
        assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))


def test_he_form_block_makes_each_distinct_monomial_once(monkeypatch):
    he = BLOCK_CANDIDATES[2]
    units = [(1, 0), (0, 1)]  # b_i, then b_ii and g_ii, as the residual reads them
    polys = [he._partial(e)[0] for e in units] + [p for e in units for p in he._partial(tuple(2 * k for k in e))]
    distinct = {e for p in polys for e in p.coeffs if any(e)}
    # every monomial's product over its leading variables is itself among them
    assert all(e[:1] + (0,) in distinct for e in distinct if e[1] and e[0])
    assert sum(len(p.coeffs) for p in polys) > 2 * len(distinct)
    calls = []
    real = dd.dd_mul
    monkeypatch.setattr(dd, "dd_mul", lambda *a: calls.append(1) or real(*a))
    he._residual_parts_dd(random_points(9, 100, 3))
    # one product per distinct monomial, plus t * b_ii for each transverse axis
    assert len(calls) == len(distinct) + he.b.nvars


def test_he_form_differentiates_b_and_g_once_per_transverse_index(monkeypatch):
    made, checking = [], []  # made: (polynomial, variable, derivative) outside the constructor's checks
    real_deriv = Poly.deriv

    def deriv(self, var):
        out = real_deriv(self, var)
        if not checking:
            made.append((self, var, out))
        return out

    def check(real):
        def run(self):
            checking.append(1)
            try:
                return real(self)
            finally:
                checking.pop()

        return run

    monkeypatch.setattr(Poly, "deriv", deriv)
    monkeypatch.setattr(Poly, "laplacian", check(Poly.laplacian))
    monkeypatch.setattr(Poly, "grad_sq", check(Poly.grad_sq))
    he = candidate_from_dict(WIDE_HE_FORM.to_dict())
    pts = random_points(12, 50, 3)
    indices = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 1), (1, 2, 1)]
    first = [he.eval_many(pts, index) for index in indices]
    residual = he.residual_many(pts)
    again = [he.eval_many(pts, index) for index in indices]
    assert he.residual_many(pts).tobytes() == residual.tobytes()
    # name every derivative made by its polynomial, b or g, and transverse multi-index
    names = {id(he.b): ("b", (0, 0)), id(he.g): ("g", (0, 0))}
    for poly, var, out in made:
        name, alpha = names[id(poly)]
        names[id(out)] = (name, tuple(k + (v == var) for v, k in enumerate(alpha)))
    # b and g once each along the chains to (1, 0), (2, 1) and, for the
    # residual, (0, 1), (2, 0) and (0, 2): no derivative made twice
    chains = [(1, 0), (2, 0), (2, 1), (0, 1), (0, 2)]
    assert sorted(names[id(out)] for _, _, out in made) == sorted((p, a) for p in "bg" for a in chains)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    t, X = pts[:, 0], pts[:, 1:]
    want = t * oracles.poly_partial(he.b, (1, 0)).eval_many(X) + oracles.poly_partial(he.g, (1, 0)).eval_many(X)
    assert first[3].tobytes() == want.tobytes()
    # the cached chains give Poly.partial's terms in Poly.partial's order
    for alpha, (b_alpha, g_alpha) in he._partials.items():
        assert list(b_alpha.coeffs.items()) == list(oracles.poly_partial(he.b, alpha).coeffs.items())
        assert list(g_alpha.coeffs.items()) == list(oracles.poly_partial(he.g, alpha).coeffs.items())


def _read_by_eval_many(cand, X, t):
    pts = np.column_stack([t, X])
    d1 = (1,) + (0,) * (cand.dim - 1)
    return cand.eval_many(pts, d1), cand.eval_many(pts, (2,) + d1[1:])


@pytest.mark.parametrize("cand", REFERENCE_CANDIDATES, ids=["quadratic", "exp-0.25", "exp-0.7", "he-3d", "he-2d", "he-wide"])
def test_t_line_reader_matches_two_eval_many_calls_bit_for_bit(cand):
    X = random_points(10, 5000, cand.dim - 1, -3.0, 3.0)
    read = cand._t_line_reader(X)
    for seed in (11, 12):
        t = random_points(seed, 5000, 1, -8.0, 8.0)[:, 0]
        got, want = read(t), _read_by_eval_many(cand, X, t)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_counterexample_t_line_reader_overflows_like_eval_many():
    ce = Counterexample(0.3)
    X = random_points(13, 50, 2, -3.0, 3.0)
    X[17] = 0.0  # r2 = 0 there: 0 * inf is NaN, the first bad point of u_t
    t = random_points(14, 50, 1, -1.0, 1.0)[:, 0]
    t[[17, 30]] = [720.0, -715.0]
    with pytest.raises(ConfigError) as want:
        _read_by_eval_many(ce, X, t)
    with pytest.raises(ConfigError) as got:
        ce._t_line_reader(X)(t)
    assert str(got.value) == str(want.value)
    assert "leaves the double range at the point (720.0, 0.0, 0.0)" in str(got.value)


# ---------------------------------------------------------------------------
# separated solutions


def test_make_he_form_pinned_coefficients():
    b = HarmonicPoly(2, {(2, 0): 1.0, (0, 2): -1.0})
    he = make_he_form(0.5, b)
    assert he.a == 0.5
    assert he.g.to_dict() == {
        "0,2": 0.25,
        "0,4": 0.25,
        "2,0": 0.25,
        "2,2": 0.5,
        "4,0": 0.25,
    }


@settings(deadline=None, max_examples=60)
@given(coeff, coeff, coeff, coeff, coeff, st.floats(0.1, 5.0))
def test_he_form_solves_identically(c0, c1, c2, c3, c4, a):
    """Any harmonic b of degree <= 2 plus the closed-form g is a solution."""
    b = HarmonicPoly(
        2, {(0, 0): c0, (1, 0): c1, (0, 1): c2, (2, 0): c3, (0, 2): -c3, (1, 1): c4}
    )
    he = make_he_form(a, b)
    pts = random_points(3, 200, 3)
    scale = max(1.0, c1**2, c2**2, c3**2, c4**2) / min(1.0, a)
    assert np.abs(he.residual_many(pts)).max() <= 1e-12 * scale


def test_he_form_one_transverse_variable():
    b = HarmonicPoly(1, {(1,): 3.0})
    he = make_he_form(1.0, b)
    assert he.dim == 2
    pts = random_points(4, 300, 2)
    assert np.abs(he.residual_many(pts)).max() <= 1e-13


def test_make_he_form_degree_cap():
    cubic = HarmonicPoly(2, {(3, 0): 1.0, (1, 2): -3.0})  # x^3 - 3xy^2
    with pytest.raises(DegreeTooHigh):
        make_he_form(0.5, cubic)


def test_he_form_rejects_wrong_g():
    b = HarmonicPoly(2, {(1, 0): 1.0})
    g = Poly(2, {(2, 0): 1.0})  # Lap g = 2, but the constraint needs 1
    with pytest.raises(ConfigError):
        HeForm(1.0, b, g)
    with pytest.raises(ConfigError):
        make_he_form(-1.0, b)


# ---------------------------------------------------------------------------
# shape and convexity facts


def test_counterexample_is_not_convex():
    ce = Counterexample()
    H = ce.hessian_many([[0.0, 2.0, 0.0]])
    assert np.linalg.eigvalsh(H).min() < -0.5
    # while the quadratic solution is convex everywhere
    q = Quadratic.standard(3)
    assert np.linalg.eigvalsh(q.hessian_many([[0.0, 2.0, 0.0]])).min() > 0.0


def test_counterexample_u_tt_unbounded_both_ways():
    ce = Counterexample()
    utt = lambda t, x: ce.eval_many([[t, x, 0.0]], (2, 0, 0))[0]
    assert utt(30.0, 1.0) > 1e12
    assert utt(-30.0, 0.0) > 1e12


# ---------------------------------------------------------------------------
# exact derivatives vs finite differences

CANDIDATES = [
    Quadratic(np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), b=[1.0, 0.0, -2.0]),
    Counterexample(0.7),
    make_he_form(0.75, HarmonicPoly(2, {(1, 1): 1.0, (1, 0): -0.5})),
]

INDICES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]


@pytest.mark.parametrize("cand", CANDIDATES, ids=lambda c: c.variant)
@pytest.mark.parametrize("index", INDICES, ids=str)
def test_exact_derivatives_match_finite_differences(cand, index):
    """The closed-form derivative table is the ground everything else
    stands on, so difference it against plain evaluations."""
    pts = random_points(5, 40, 3)
    h = 1e-5

    vals = cand.eval_many(pts, index)
    # peel one derivative off and central-difference it back on
    axis = next(i for i, k in enumerate(index) if k > 0)
    lower = tuple(k - 1 if i == axis else k for i, k in enumerate(index))
    hi = pts.copy()
    lo = pts.copy()
    hi[:, axis] += h
    lo[:, axis] -= h
    fd = (cand.eval_many(hi, lower) - cand.eval_many(lo, lower)) / (2 * h)
    np.testing.assert_allclose(vals, fd, atol=5e-8, rtol=1e-7)


def test_hessian_many_matches_single_point():
    # points do not interact: a one-row call gives its row of the batch exactly
    ce = Counterexample()
    pts = random_points(6, 10, 3)
    batch = ce.hessian_many(pts)
    for k, p in enumerate(pts):
        np.testing.assert_array_equal(ce.hessian_many(p[None]), batch[k:k + 1])


# ---------------------------------------------------------------------------
# serialization and error taxonomy


@pytest.mark.parametrize("cand", CANDIDATES, ids=lambda c: c.variant)
def test_candidate_json_roundtrip(cand):
    back = candidate_from_json(candidate_to_json(cand))
    assert back.to_dict() == cand.to_dict()
    pts = random_points(7, 50, 3)
    # coefficient dictionaries may come back in a different order, so the
    # evaluation sums can differ by roundoff but nothing more
    np.testing.assert_allclose(back.eval_many(pts), cand.eval_many(pts), rtol=1e-13, atol=1e-13)


def test_candidate_from_dict_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        candidate_from_dict({"variant": "mystery"})
    with pytest.raises(ConfigError):
        candidate_from_dict({})


@pytest.mark.parametrize(
    "data, match",
    [
        ({"x": 1}, "entry 'x'"),
        ([1], "map"),
        ({"1,0": "a"}, "entry '1,0'"),
        ({"1,0": None}, "entry '1,0'"),
        ({"1,0": float("inf")}, r"\(1, 0\) must be finite"),
        ({"0,1": "nan"}, r"\(0, 1\) must be finite"),
    ],
)
def test_poly_from_dict_names_the_bad_entry(data, match):
    with pytest.raises(ConfigError, match=match):
        Poly.from_dict(2, data)


def test_quadratic_rejects_wrong_normalization():
    with pytest.raises(ConfigError):
        Quadratic(np.eye(3))  # sigma2_tilde = 2
    with pytest.raises(ConfigError):
        Quadratic(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


def test_derivative_index_validation():
    ce = Counterexample()
    p = [[0.0, 1.0, 0.0]]
    with pytest.raises(UnsupportedOrder):
        ce.eval_many(p, (3, 2, 0))
    with pytest.raises(ConfigError):
        ce.eval_many(p, (1, 0))
    with pytest.raises(ConfigError):
        ce.eval_many(p, (-1, 0, 0))


def test_points_shape_validation():
    with pytest.raises(ConfigError):
        Counterexample().eval_many(np.zeros((4, 2)))
