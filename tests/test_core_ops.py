import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sigma2lab.core_ops import (
    Grid,
    ScalarField,
    hessian_entry,
    hessian_stencil,
    laplacian,
    second_diff,
    shifted,
    sigma2_interior,
    sigma2_linearization,
    sigma2_tilde,
)
from sigma2lab.candidates import Counterexample, Quadratic
from sigma2lab.errors import ConfigError


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def sym3(entries):
    a, b, c, d, e, f = entries
    return np.array([[a, b, c], [b, d, e], [c, e, f]])


# ---------------------------------------------------------------------------
# sigma2_tilde


def test_sigma2_pinned_values():
    H = np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert sigma2_tilde(H) == pytest.approx(1.0, abs=1e-14)
    # in two variables the operator is just the determinant
    H2 = np.array([[3.0, 1.5], [1.5, 2.0]])
    assert sigma2_tilde(H2) == pytest.approx(np.linalg.det(H2), abs=1e-12)


def test_sigma2_ignores_transverse_offdiagonal():
    H = np.array([[2.0, 1.0, -1.0], [1.0, 3.0, 0.0], [-1.0, 0.0, 4.0]])
    H_mod = H.copy()
    H_mod[1, 2] = H_mod[2, 1] = 7.0
    assert sigma2_tilde(H) == sigma2_tilde(H_mod)


def test_sigma2_matches_eigenvalue_route():
    rng = np.random.default_rng(42)
    for _ in range(200):
        H = rng.normal(size=(3, 3))
        H = 0.5 * (H + H.T)
        ref = oracles.sigma2_tilde_eig(H)
        assert sigma2_tilde(H) == pytest.approx(ref, abs=1e-11)


@settings(deadline=None, max_examples=150)
@given(st.lists(finite, min_size=6, max_size=6), st.floats(0.0, 2 * np.pi))
def test_sigma2_transverse_rotation_invariance(entries, angle):
    """Rotating the transverse plane must not change the operator."""
    H = sym3(entries)
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    scale = max(1.0, np.abs(H).max() ** 2)
    assert sigma2_tilde(R.T @ H @ R) == pytest.approx(sigma2_tilde(H), abs=1e-10 * scale)


def test_sigma2_rejects_non_square():
    with pytest.raises(ConfigError):
        sigma2_tilde(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        sigma2_tilde(np.array([[1.0]]))


# ---------------------------------------------------------------------------
# linearization


def test_linearization_pinned():
    H = np.array([[1.25, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    C = sigma2_linearization(H)
    expected = np.array([[4.0, -2.0, 0.0], [-2.0, 1.25, 0.0], [0.0, 0.0, 1.25]])
    np.testing.assert_allclose(C, expected, atol=1e-14)


@settings(deadline=None, max_examples=150)
@given(st.lists(finite, min_size=6, max_size=6), st.lists(finite, min_size=6, max_size=6))
def test_linearization_is_exact_gradient(h_entries, v_entries):
    """The operator is quadratic, so the expansion around any H terminates:

    sigma2(H + V) = sigma2(H) + <C(H), V> + sigma2(V) with no remainder.
    """
    H, V = sym3(h_entries), sym3(v_entries)
    C = sigma2_linearization(H)
    lhs = sigma2_tilde(H + V)
    rhs = sigma2_tilde(H) + np.sum(C * V) + sigma2_tilde(V)
    scale = max(1.0, np.abs(H).max() ** 2, np.abs(V).max() ** 2)
    assert lhs == pytest.approx(rhs, abs=1e-10 * scale)


@settings(deadline=None, max_examples=200)
@given(
    st.floats(0.2, 10.0),
    st.floats(0.2, 10.0),
    finite,
    finite,
    finite,
    st.floats(0.1, 10.0),
)
def test_linearization_definite_on_cone(d1, d2, m1, m2, off, s):
    """Ellipticity: C(H) is positive definite whenever H00 > 0, sigma2 > 0.

    Members of the cone are built directly: pick the transverse block and
    the mixed row, then set H00 so that sigma2_tilde lands exactly on s > 0.
    """
    h00 = (m1 * m1 + m2 * m2 + s) / (d1 + d2)
    H = np.array([[h00, m1, m2], [m1, d1, off], [m2, off, d2]])
    assert sigma2_tilde(H) == pytest.approx(s, rel=1e-9, abs=1e-9)
    eig = np.linalg.eigvalsh(sigma2_linearization(H))
    assert eig.min() > 0.0


def test_linearization_respects_symmetric_perturbation_direction():
    rng = np.random.default_rng(3)
    H = sym3(rng.normal(size=6))
    V = sym3(rng.normal(size=6))
    C = sigma2_linearization(H)
    eps = 1e-6
    fd = (sigma2_tilde(H + eps * V) - sigma2_tilde(H - eps * V)) / (2 * eps)
    assert fd == pytest.approx(np.sum(C * V), rel=1e-8)


# ---------------------------------------------------------------------------
# Grid


def test_grid_geometry():
    g = Grid(bounds=((0.0, 1.0), (0.0, 2.5), (-1.0, 1.0)), shape=(5, 6, 7))
    assert g.dim == 3
    assert g.spacing == (0.25, 0.5, 2.0 / 6.0)
    assert g.n_nodes == 210
    assert g.interior_shape == (3, 4, 5)
    assert g.boundary_mask().sum() == 210 - 60
    pts = g.points()
    assert pts.shape == (210, 3)
    np.testing.assert_allclose(pts[0], [0.0, 0.0, -1.0])
    np.testing.assert_allclose(pts[-1], [1.0, 2.5, 1.0])


@pytest.mark.parametrize(
    "bounds,shape",
    [
        (((0.0, 1.0),), (5,)),  # dim 1
        (((0.0, 1.0),) * 4, (5,) * 4),  # dim 4
        (((0.0, 1.0), (0.0, 1.0)), (5, 4)),  # too few nodes
        (((1.0, 0.0), (0.0, 1.0)), (5, 5)),  # reversed bounds
        (((0.0, 1.0),), (5, 5)),  # length mismatch
        (((-1e160, 1e160), (0.0, 1.0)), (5, 5)),  # spacing whose square overflows
    ],
)
def test_grid_validation(bounds, shape):
    with pytest.raises(ConfigError):
        Grid(bounds=bounds, shape=shape)


# ---------------------------------------------------------------------------
# difference stencils


def test_second_diff_exact_on_quadratics():
    g = Grid(bounds=((-1.0, 1.0), (-1.0, 1.0)), shape=(9, 11))
    f = oracles.field_from_callable(g, lambda t, x: 3.0 * t**2 + t * x + 2.0 * x**2)
    d2t = second_diff(f.values, 0, g.spacing[0])
    assert d2t.shape == g.interior_shape
    np.testing.assert_allclose(d2t, 6.0, atol=1e-11)
    mixed = hessian_entry(f.values, 0, 1, g.spacing)
    np.testing.assert_allclose(mixed, 1.0, atol=1e-11)
    # the two axes have different spacings, so a swapped spacing index shows
    np.testing.assert_allclose(laplacian(f.values, g.spacing), 10.0, atol=1e-11)


# the hand-written stencils the table replaced, kept as literal references
def _literal_second_diff(u, axis, h):
    e = tuple(1 if a == axis else 0 for a in range(u.ndim))
    me = tuple(-v for v in e)
    return (shifted(u, e) - 2.0 * shifted(u, (0,) * u.ndim) + shifted(u, me)) / h**2


def _literal_cross_diff(u, a, b, ha, hb):
    def off(sa, sb):
        o = [0] * u.ndim
        o[a], o[b] = sa, sb
        return tuple(o)

    return (
        shifted(u, off(1, 1)) - shifted(u, off(1, -1)) - shifted(u, off(-1, 1)) + shifted(u, off(-1, -1))
    ) / (4.0 * ha * hb)


def _table_hessian(field, node):
    """Every ``hessian_entry`` at one interior node, read off its 3^d block."""
    block = field.values[tuple(slice(i - 1, i + 2) for i in node)]
    n, h = field.grid.dim, field.grid.spacing
    return np.array([[hessian_entry(block, a, b, h).item() for b in range(n)] for a in range(n)])


STENCIL_GRIDS = [
    Grid(((-1.0, 1.0), (0.0, 3.0)), (7, 9)),
    Grid(((-1.0, 1.0),) * 3, (7, 7, 7)),
    Grid(((-1.0, 1.0), (0.0, 3.0), (-0.5, 0.25)), (33, 17, 9)),
]
STENCIL_IDS = ["plane7x9", "cube7", "box33x17x9"]


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e5])
@pytest.mark.parametrize("g", STENCIL_GRIDS, ids=STENCIL_IDS)
def test_stencil_table_reproduces_the_literal_stencils_bit_for_bit(g, scale):
    f = ScalarField(g, scale * np.random.default_rng(12).normal(size=g.shape))
    u, h = f.values, g.spacing
    for a in range(g.dim):
        np.testing.assert_array_equal(second_diff(u, a, h[a]), _literal_second_diff(u, a, h[a]))
        np.testing.assert_array_equal(hessian_entry(u, a, a, h), _literal_second_diff(u, a, h[a]))
        for b in range(a + 1, g.dim):
            want = _literal_cross_diff(u, a, b, h[a], h[b])
            np.testing.assert_array_equal(hessian_entry(u, a, b, h), want)
            np.testing.assert_array_equal(hessian_entry(u, b, a, h), _literal_cross_diff(u, b, a, h[b], h[a]))


def test_hessian_stencil_legs_and_divisors():
    h = (0.5, 0.25, 0.125)
    legs, div = hessian_stencil(3, 1, 1, h)
    assert legs == (((0, 1, 0), 1), ((0, 0, 0), -2), ((0, -1, 0), 1))
    assert div == 0.25**2
    legs, div = hessian_stencil(3, 0, 2, h)
    assert legs == (((1, 0, 1), 1), ((1, 0, -1), -1), ((-1, 0, 1), -1), ((-1, 0, -1), 1))
    assert div == 4.0 * 0.5 * 0.125
    # every entry's weights sum to zero: constants have a zero Hessian
    for a in range(3):
        for b in range(3):
            assert sum(w for _, w in hessian_stencil(3, a, b, h)[0]) == 0


def test_shifted_rejects_bad_offset():
    with pytest.raises(ConfigError):
        shifted(np.zeros((5, 5)), (2, 0))


def test_sigma2_interior_exact_on_quadratic_solution():
    q = Quadratic.standard(3)
    g = Grid(bounds=((-1.0, 1.0),) * 3, shape=(9, 9, 9))
    f = ScalarField.sample(g, q)
    vals = sigma2_interior(f.values, g.spacing)
    assert vals.shape == g.interior_shape
    np.testing.assert_allclose(vals, 1.0, atol=1e-12)


def test_sigma2_interior_matches_pointwise_operator():
    rng = np.random.default_rng(11)
    g = Grid(bounds=((-1.0, 1.0),) * 3, shape=(7, 7, 7))
    f = ScalarField(grid=g, values=rng.normal(size=g.shape))
    vals = sigma2_interior(f.values, g.spacing)
    node = (3, 2, 4)
    H = _table_hessian(f, node)
    # sigma2_interior reads only the entries the operator needs, so agreement
    # with the full discrete Hessian route is a consistency statement
    assert vals[node[0] - 1, node[1] - 1, node[2] - 1] == pytest.approx(
        sigma2_tilde(H), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pointwise finite differences


def test_fd_hessian_matches_exact_hessian():
    ce = Counterexample()
    center = np.array([0.5, 0.4, -0.3])
    exact = ce.hessian_many(center[None])[0]

    def err(h):
        box = tuple((c - 4 * h, c + 4 * h) for c in center)
        g = Grid(bounds=box, shape=(9, 9, 9))
        f = ScalarField.sample(g, ce)
        return np.abs(_table_hessian(f, (4, 4, 4)) - exact).max()

    e1, e2 = err(0.02), err(0.01)
    assert e1 < 1e-3
    # one refinement should cut the error by about four (second order)
    assert 3.0 < e1 / e2 < 5.0


# ---------------------------------------------------------------------------
# ScalarField plumbing


def test_field_shape_mismatch_rejected():
    g = Grid(bounds=((-1.0, 1.0),) * 2, shape=(5, 5))
    with pytest.raises(ConfigError):
        ScalarField(grid=g, values=np.zeros((5, 6)))


def test_field_sample_matches_from_callable():
    q = Quadratic.standard(2)
    g = Grid(bounds=((-1.0, 2.0), (0.0, 1.0)), shape=(6, 5))
    a = ScalarField.sample(g, q)
    b = oracles.field_from_callable(g, lambda t, x: 0.5 * (t**2 + x**2))
    np.testing.assert_allclose(a.values, b.values, atol=1e-14)


def test_field_io_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    g = Grid(bounds=((-1.0, 1.0), (0.0, 2.0), (3.0, 4.0)), shape=(5, 6, 7))
    f = ScalarField(grid=g, values=rng.normal(size=g.shape))
    meta_path, bin_path = f.save(tmp_path / "field")
    assert meta_path.name == "field.fld.json"
    assert bin_path.name == "field.fld.bin"
    back = ScalarField.load(tmp_path / "field")
    assert back.grid == f.grid
    np.testing.assert_array_equal(back.values, f.values)
    # loading through the full metadata filename works too
    again = ScalarField.load(meta_path)
    np.testing.assert_array_equal(again.values, f.values)


def test_field_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        ScalarField.load(tmp_path / "nope")
