"""Slow reference computations used to cross-check the fast code paths.

Everything here goes through plain central differences in the real
coordinates (t, x, y), with one Richardson step where accuracy matters.
The package computes curvature from closed-form derivative expressions,
so agreement with these routines is a genuine two-route check rather
than the same code run twice.  The last section holds the test-only
constructors and references that the package itself never calls.
"""

from __future__ import annotations

import numpy as np

from sigma2lab.candidates import _monomial_table
from sigma2lab.core_ops import ScalarField


def sigma2_tilde_eig(H) -> float:
    """Independent route: sigma_2 from eigenvalues minus the transverse minor.

    The operator keeps only the 2x2 principal minors that touch the first
    row, i.e. sigma_2(H) minus the minors living entirely in the transverse
    block.
    """
    H = np.asarray(H, dtype=float)
    ev = np.linalg.eigvalsh(H)
    sigma2 = 0.0
    for i in range(len(ev)):
        for j in range(i + 1, len(ev)):
            sigma2 += ev[i] * ev[j]
    trans = H[1:, 1:]
    for i in range(trans.shape[0]):
        for j in range(i + 1, trans.shape[0]):
            sigma2 -= trans[i, i] * trans[j, j] - trans[i, j] ** 2
    return float(sigma2)


class PerturbedPotential:
    """u + eps * x^4: a convex potential that is *not* a solution.

    Its metric has honest nonzero curvature, which makes it the control
    for "does the curvature pipeline report zero only when it should".
    Exposes the same eval_many(points, index) interface as the candidates.
    """

    dim = 3

    def __init__(self, base, eps: float = 0.05):
        self.base = base
        self.eps = eps

    def eval_many(self, pts, index):
        out = self.base.eval_many(pts, index)
        k, p, q = index
        if k == 0 and q == 0 and p <= 4:
            x = np.asarray(pts, dtype=float)[:, 1]
            extra = {
                0: x**4,
                1: 4.0 * x**3,
                2: 12.0 * x**2,
                3: 24.0 * x,
                4: 24.0 + 0.0 * x,
            }[p]
            out = out + self.eps * extra
        return out


def metric_entries(potential, pts3) -> np.ndarray:
    """2x2 Hermitian metric from the potential's second derivatives.

    Hand-derived Wirtinger algebra for z1 = t + i s, z2 = x + i y acting on
    s-independent functions:

        g_11 = u_tt / 4
        g_12 = (u_tx + i u_ty) / 4
        g_22 = (u_xx + u_yy) / 4
    """
    pts3 = np.atleast_2d(np.asarray(pts3, dtype=float))
    utt = potential.eval_many(pts3, (2, 0, 0))
    utx = potential.eval_many(pts3, (1, 1, 0))
    uty = potential.eval_many(pts3, (1, 0, 1))
    uxx = potential.eval_many(pts3, (0, 2, 0))
    uyy = potential.eval_many(pts3, (0, 0, 2))
    g = np.empty((pts3.shape[0], 2, 2), dtype=complex)
    g[:, 0, 0] = 0.25 * utt
    g[:, 0, 1] = 0.25 * (utx + 1j * uty)
    g[:, 1, 0] = 0.25 * (utx - 1j * uty)
    g[:, 1, 1] = 0.25 * (uxx + uyy)
    return g


def _central(fn, p, axis: int, delta: float):
    hi = np.array(p, dtype=float)
    lo = np.array(p, dtype=float)
    hi[axis] += delta
    lo[axis] -= delta
    return (fn(hi) - fn(lo)) / (2.0 * delta)


def _second(fn, p, ax_a: int, ax_b: int, delta: float):
    p = np.asarray(p, dtype=float)
    if ax_a == ax_b:
        hi = p.copy()
        lo = p.copy()
        hi[ax_a] += delta
        lo[ax_a] -= delta
        return (fn(hi) - 2.0 * fn(p) + fn(lo)) / delta**2
    total = 0.0
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            q = p.copy()
            q[ax_a] += sa * delta
            q[ax_b] += sb * delta
            total = total + sa * sb * fn(q)
    return total / (4.0 * delta**2)


# Wirtinger combinations of the real axes (t, x, y) for s-independent data:
#   d/dz1    = (1/2) d/dt         d/dzbar1 = (1/2) d/dt
#   d/dz2    = (1/2)(d/dx - i d/dy)   d/dzbar2 = (1/2)(d/dx + i d/dy)


def _dz(fn, p, k: int, delta: float):
    if k == 0:
        return 0.5 * _central(fn, p, 0, delta)
    return 0.5 * (_central(fn, p, 1, delta) - 1j * _central(fn, p, 2, delta))


def _dzbar(fn, p, l: int, delta: float):
    if l == 0:
        return 0.5 * _central(fn, p, 0, delta)
    return 0.5 * (_central(fn, p, 1, delta) + 1j * _central(fn, p, 2, delta))


def _dz_dzbar(fn, p, k: int, l: int, delta: float):
    if k == 0 and l == 0:
        return 0.25 * _second(fn, p, 0, 0, delta)
    if k == 0 and l == 1:
        return 0.25 * (_second(fn, p, 0, 1, delta) + 1j * _second(fn, p, 0, 2, delta))
    if k == 1 and l == 0:
        return 0.25 * (_second(fn, p, 0, 1, delta) - 1j * _second(fn, p, 0, 2, delta))
    return 0.25 * (_second(fn, p, 1, 1, delta) + _second(fn, p, 2, 2, delta))


def _richardson(fn_of_delta, delta: float):
    return (4.0 * fn_of_delta(delta / 2.0) - fn_of_delta(delta)) / 3.0


def ricci_fd(potential, pts3_point, delta: float = 1e-3) -> np.ndarray:
    """Ricci by differencing log det g directly: R_ij = -d_i dbar_j log det g.

    The package instead expands the derivatives of det g by the product
    rule, so the two answers share nothing past the metric entries.
    """
    p = np.asarray(pts3_point, dtype=float)

    def logdet(q):
        g = metric_entries(potential, q[None, :])[0]
        return float(np.log((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real))

    def at(d):
        out = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[i, j] = -_dz_dzbar(logdet, p, i, j, d)
        return out

    return _richardson(at, delta)


def riemann_fd(potential, pts3_point, delta: float = 1e-3) -> np.ndarray:
    """R_{i jbar k lbar} with all metric derivatives taken by differences."""
    p = np.asarray(pts3_point, dtype=float)
    g = metric_entries(potential, p[None, :])[0]
    # g^{p qbar} solves sum_q g^{p qbar} g_{s qbar} = delta_ps, i.e. the
    # transpose of the matrix inverse of (g_{i jbar}).
    gup = np.linalg.inv(g).T

    def entry(i, j):
        return lambda q: metric_entries(potential, q[None, :])[0][i, j]

    def at(d):
        dg = np.empty((2, 2, 2), dtype=complex)
        dgbar = np.empty((2, 2, 2), dtype=complex)
        d2g = np.empty((2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                fn = entry(i, j)
                for k in range(2):
                    dg[k, i, j] = _dz(fn, p, k, d)
                    dgbar[k, i, j] = _dzbar(fn, p, k, d)
                    for l in range(2):
                        d2g[k, l, i, j] = _dz_dzbar(fn, p, k, l, d)
        rm = np.empty((2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        corr = sum(
                            gup[pp, qq] * dg[k, i, qq] * dgbar[l, pp, j]
                            for pp in range(2)
                            for qq in range(2)
                        )
                        rm[i, j, k, l] = -d2g[k, l, i, j] + corr
        return rm

    return _richardson(at, delta)


def riemann_norm_fd(potential, pts3_point, delta: float = 1e-3) -> float:
    """Squared curvature norm with every index raised by g^{. .bar}."""
    p = np.asarray(pts3_point, dtype=float)
    g = metric_entries(potential, p[None, :])[0]
    gup = np.linalg.inv(g).T
    rm = riemann_fd(potential, p, delta)
    val = np.einsum("ia,bj,kc,dl,ajcl,ibkd->", gup, gup, gup, gup, rm, np.conj(rm))
    return float(val.real)


def harmonic_dual_solution(points, eps: float) -> np.ndarray:
    """Exact solution of sigma2_tilde(D^2 u) = 1 from a harmonic partial Legendre dual.

    The dual u*(z, x) = z^2/2 - x^2/2 + eps e^z cos x in 2D, and
    z^2/2 - (x^2 + y^2)/4 + eps e^z cos x in 3D, is harmonic in (z, x[, y])
    with u*_zz = 1 + eps e^z cos x > 0 on |x| < pi/2.  Solving u*_z(z, x) = t
    for z and setting u = t z - u*(z, x) gives u_t = z, u_tt = 1 / u*_zz and
    Lap_x u = -u_tt Lap_x u*, so the paper's partial Legendre identity makes
    u a solution with u_tt varying in t and x: neither a He-form nor the
    exponential family.  ``points`` is an (N, 2) or (N, 3) array of (t, x[, y])
    with |x| < pi/2 and eps >= 0; returns u at each point.

    The root of z + eps e^z cos x = t is found by Newton from z = t: the left
    side is increasing and convex in z and exceeds t there, so the iterates
    fall monotonically onto the root.
    """
    pts = np.asarray(points, dtype=float)
    t, x = pts[:, 0], pts[:, 1]
    transverse = x**2 / 2 if pts.shape[1] == 2 else (x**2 + pts[:, 2] ** 2) / 4
    c = eps * np.cos(x)
    z = t.copy()
    for _ in range(100):
        step = (z + c * np.exp(z) - t) / (1.0 + c * np.exp(z))
        z -= step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            break
    return t * z - (z**2 / 2 - transverse + c * np.exp(z))


# ---------------------------------------------------------------------------
# test-only constructors and references the package never calls


def grid_meshgrid(grid) -> tuple[np.ndarray, ...]:
    """The node coordinate arrays of ``grid``, indexing "ij"."""
    return tuple(np.meshgrid(*grid.axes(), indexing="ij"))


def field_from_callable(grid, fn) -> ScalarField:
    """``fn`` evaluated on the node coordinate arrays of ``grid``."""
    return ScalarField(grid, np.asarray(fn(*grid_meshgrid(grid)), dtype=float))


def poly_partial(poly, index):
    """``poly`` differentiated by the multi-index ``index``, variable 0 first:
    the order in which ``HeForm._partial`` must make each derivative."""
    p = poly
    for var, k in enumerate(index):
        for _ in range(int(k)):
            p = p.deriv(var)
    return p


def poly_eval_dd(poly, X):
    """Compensated evaluation of ``poly`` at the points ``X``, a double-double
    pair of arrays, through one ``_monomial_table`` and ``Poly._eval_dd``."""
    return poly._eval_dd(_monomial_table(np.asarray(X, dtype=float), poly.coeffs))
