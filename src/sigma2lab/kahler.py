"""Kahler-metric reading of three-dimensional candidates on C^2.

A potential u(t, x, y) is read as an s-independent function on C^2 via
z1 = t + i s, z2 = x + i y, and induces the Hermitian form

    g_{ij} = d_{z_i} d_{zbar_j} u,    d_z = (d_real - i d_imag) / 2.

Because u does not depend on s, every holomorphic/antiholomorphic derivative
reduces to a fixed complex combination of real partials of u; the tables of
those combinations are built once at import time and evaluated through the
candidate's exact derivatives (total order <= 4).  Finite differences appear
only in the test oracles, never here.

Normalization: with this convention det(g) = sigma2_tilde(D^2 u) / 16, so a
solution of the real equation has det(g) = 1/16; the potential 4u has
det = 1.  ``ma_residual`` exposes both readings.  ``curvature`` returns g,
det g, Ricci and the squared norm |Rm|^2 of the curvature tensor at many
points from one metric evaluation; ``ricci``, ``riemann_tensor`` and
``riemann_norm`` are its single-point readings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotPositiveDefinite

__all__ = [
    "ComplexPoint",
    "HermitianMetric",
    "complex_hessian",
    "ma_residual",
    "ricci",
    "riemann_tensor",
    "riemann_norm",
    "metric_batch",
    "curvature",
]


@dataclass(frozen=True)
class ComplexPoint:
    """A point of C^2 stored as four reals: z1 = t + i s, z2 = x + i y."""

    t: float
    s: float = 0.0
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self):
        for name in ("t", "s", "x", "y"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ConfigError(f"coordinate {name} must be finite")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.s, self.x, self.y])


def _points4(p) -> np.ndarray:
    if isinstance(p, ComplexPoint):
        return p.as_array().reshape(1, 4)
    pts = np.asarray(p, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ConfigError(f"expected points (t, s, x, y) of shape (N, 4), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("point coordinates must be finite")
    return pts


# ---------------------------------------------------------------------------
# derivative bookkeeping
#
# A complex differential operator applied to an s-independent potential is a
# finite sum  sum_c  c * d_t^k d_x^p d_y^q;  it is stored as the coefficient
# map {(k, p, q): c}.  Applying d_{z1} or d_{zbar1} halves via d_t; applying
# d_{z2} / d_{zbar2} adds (d_x -+ i d_y) / 2.
# ---------------------------------------------------------------------------


def _apply(expr: dict, slot: int, bar: bool) -> dict:
    out: dict[tuple[int, int, int], complex] = {}

    def add(key, val):
        out[key] = out.get(key, 0.0 + 0.0j) + val

    for (k, p, q), c in expr.items():
        if slot == 0:
            add((k + 1, p, q), 0.5 * c)
        else:
            add((k, p + 1, q), 0.5 * c)
            add((k, p, q + 1), (0.5j if bar else -0.5j) * c)
    return out


_BASE = {(0, 0, 0): 1.0 + 0.0j}
# g[i][j] = d_{z_i} d_{zbar_j} u and its first/second z-derivatives
_G_EXPR = [[_apply(_apply(_BASE, i, False), j, True) for j in range(2)] for i in range(2)]
_DG_EXPR = [[[_apply(_G_EXPR[i][j], k, False) for j in range(2)] for i in range(2)] for k in range(2)]
_DGBAR_EXPR = [[[_apply(_G_EXPR[i][j], l, True) for j in range(2)] for i in range(2)] for l in range(2)]
_D2G_EXPR = [
    [[[_apply(_DG_EXPR[k][i][j], l, True) for j in range(2)] for i in range(2)] for l in range(2)]
    for k in range(2)
]


def _eval_expr(expr: dict, cache: dict, potential, pts3: np.ndarray) -> np.ndarray:
    out = np.zeros(pts3.shape[0], dtype=complex)
    for index, coeff in expr.items():
        if index not in cache:
            cache[index] = potential.eval_many(pts3, index)
        out += coeff * cache[index]
    return out


def metric_batch(potential, points) -> dict[str, np.ndarray]:
    """Metric data at many points: g, dg, dgbar, d2g as stacked arrays.

    ``dg[n, k, i, j] = d_{z_k} g_{ij}`` and ``d2g[n, k, l, i, j] =
    d_{z_k} d_{zbar_l} g_{ij}`` at point n.  Accepts any object with
    ``dim == 3`` and an ``eval_many(points, index)`` method.
    """
    if getattr(potential, "dim", None) != 3:
        raise ConfigError("the complex reading needs a three-dimensional potential u(t, x, y)")
    pts4 = _points4(points)
    pts3 = pts4[:, [0, 2, 3]]
    n = pts4.shape[0]
    cache: dict[tuple[int, int, int], np.ndarray] = {}
    g = np.empty((n, 2, 2), dtype=complex)
    dg = np.empty((n, 2, 2, 2), dtype=complex)
    dgbar = np.empty((n, 2, 2, 2), dtype=complex)
    d2g = np.empty((n, 2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            g[:, i, j] = _eval_expr(_G_EXPR[i][j], cache, potential, pts3)
            for k in range(2):
                dg[:, k, i, j] = _eval_expr(_DG_EXPR[k][i][j], cache, potential, pts3)
                dgbar[:, k, i, j] = _eval_expr(_DGBAR_EXPR[k][i][j], cache, potential, pts3)
                for l in range(2):
                    d2g[:, k, l, i, j] = _eval_expr(_D2G_EXPR[k][l][i][j], cache, potential, pts3)
    return {"points": pts4, "g": g, "dg": dg, "dgbar": dgbar, "d2g": d2g}


def _det(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def _require_pd(g: np.ndarray, points: np.ndarray) -> None:
    g00 = g[:, 0, 0].real
    det = _det(g).real
    bad = (g00 <= 0.0) | (det <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotPositiveDefinite(
            f"metric not positive definite at (t,s,x,y)={tuple(points[k])}: "
            f"g11={g00[k]:.6g}, det={det[k]:.6g}"
        )


@dataclass
class HermitianMetric:
    """g_{ij} and its z-derivatives at one point of C^2."""

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    dgbar: np.ndarray
    d2g: np.ndarray

    @property
    def det(self) -> float:
        return float(_det(self.g).real)

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.g)


def complex_hessian(potential, p) -> HermitianMetric:
    """The induced Hermitian metric at p; errors if it is not positive definite."""
    data = metric_batch(potential, p)
    _require_pd(data["g"], data["points"])
    return HermitianMetric(
        point=data["points"][0],
        g=data["g"][0],
        dg=data["dg"][0],
        dgbar=data["dgbar"][0],
        d2g=data["d2g"][0],
    )


def ma_residual(potential, p, rescaled: bool = False) -> float:
    """det(g) - 1/16, or det - 1 for the rescaled potential 4u.

    For candidates with a compensated residual path the identity
    det(g) = sigma2_tilde(D^2 u) / 16 is used, so the result stays accurate
    where e^|t| amplification would swamp a direct determinant.
    """
    data = metric_batch(potential, p)
    _require_pd(data["g"], data["points"])
    residual_many = getattr(potential, "residual_many", None)
    if residual_many is not None:
        r = float(residual_many(data["points"][:, [0, 2, 3]])[0])
        return r if rescaled else r / 16.0
    det = float(_det(data["g"])[0].real)
    return 16.0 * det - 1.0 if rescaled else det - 1.0 / 16.0


def _ricci_batch(data: dict[str, np.ndarray]) -> np.ndarray:
    """Ricci_{ij} = -d_{z_i} d_{zbar_j} log det g from the metric data."""
    g, dg, dgbar, d2g = data["g"], data["dg"], data["dgbar"], data["d2g"]
    det = _det(g)
    # first derivatives of det
    ddet = np.empty(dg.shape[:2], dtype=complex)  # (n, k)
    ddetbar = np.empty_like(ddet)
    for k in range(2):
        ddet[:, k] = (
            dg[:, k, 0, 0] * g[:, 1, 1]
            + g[:, 0, 0] * dg[:, k, 1, 1]
            - dg[:, k, 0, 1] * g[:, 1, 0]
            - g[:, 0, 1] * dg[:, k, 1, 0]
        )
        ddetbar[:, k] = (
            dgbar[:, k, 0, 0] * g[:, 1, 1]
            + g[:, 0, 0] * dgbar[:, k, 1, 1]
            - dgbar[:, k, 0, 1] * g[:, 1, 0]
            - g[:, 0, 1] * dgbar[:, k, 1, 0]
        )
    # mixed second derivatives of det
    d2det = np.empty(d2g.shape[:3], dtype=complex)  # (n, k, l)
    for k in range(2):
        for l in range(2):
            d2det[:, k, l] = (
                d2g[:, k, l, 0, 0] * g[:, 1, 1]
                + dg[:, k, 0, 0] * dgbar[:, l, 1, 1]
                + dgbar[:, l, 0, 0] * dg[:, k, 1, 1]
                + g[:, 0, 0] * d2g[:, k, l, 1, 1]
                - d2g[:, k, l, 0, 1] * g[:, 1, 0]
                - dg[:, k, 0, 1] * dgbar[:, l, 1, 0]
                - dgbar[:, l, 0, 1] * dg[:, k, 1, 0]
                - g[:, 0, 1] * d2g[:, k, l, 1, 0]
            )
    det = det[:, None, None]
    return -(d2det / det - ddet[:, :, None] * ddetbar[:, None, :] / det**2)


def ricci(potential, p) -> np.ndarray:
    """Ricci tensor R_{ij} at p as a 2x2 complex matrix (zero for solutions)."""
    return curvature(potential, p)["ricci"][0]


def _riemann_batch(data: dict[str, np.ndarray]) -> np.ndarray:
    """R_{i jbar k lbar} = -d2g[k,l,i,j] + g^{pq} dg[k,i,q] dgbar[l,p,j]."""
    g, dg, dgbar, d2g = data["g"], data["dg"], data["dgbar"], data["d2g"]
    ginv_mat = np.linalg.inv(g)  # (n, a, b) with sum_b g[i,b] ginv[b,j] = delta
    # g^{pq} (first index unbarred) is the transpose of the matrix inverse
    gup = np.swapaxes(ginv_mat, -1, -2)
    corr = np.einsum("npq,nkiq,nlpj->nijkl", gup, dg, dgbar)
    rm = -np.transpose(d2g, (0, 3, 4, 1, 2)) + corr
    return rm


def riemann_tensor(potential, p) -> np.ndarray:
    """Curvature tensor R_{i jbar k lbar} at p, shape (2, 2, 2, 2)."""
    return curvature(potential, p)["riemann"][0]


def riemann_norm(potential, p) -> float:
    """Squared curvature norm |Rm|^2 at p (vanishes exactly on flat metrics)."""
    return float(curvature(potential, p)["riemann_norm_sq"][0])


def curvature(potential, points) -> dict[str, np.ndarray]:
    """Metric and curvature at many points from one ``metric_batch`` call.

    Returns ``points`` (N, 4), ``g`` (N, 2, 2), ``det_g`` (N,) real,
    ``ricci`` (N, 2, 2), ``riemann`` (N, 2, 2, 2, 2) and ``riemann_norm_sq``
    (N,), where |Rm|^2 values in (-1e-10, 0) are rounding noise of a flat
    metric and read 0.  Raises if the metric is not positive definite at
    any point.
    """
    data = metric_batch(potential, points)
    g = data["g"]
    _require_pd(g, data["points"])
    rm = _riemann_batch(data)
    return {
        "points": data["points"],
        "g": g,
        "det_g": _det(g).real,
        "ricci": _ricci_batch(data),
        "riemann": rm,
        "riemann_norm_sq": _riemann_norm_sq(g, rm),
    }


def _riemann_norm_sq(g: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """|Rm|^2 = g^{ia} g^{bj} g^{kc} g^{dl} R_{a jbar c lbar} conj(R_{i bbar k dbar}).

    Values in (-1e-10, 0) are rounding noise around a flat metric and read 0.
    """
    gup = np.swapaxes(np.linalg.inv(g), -1, -2)
    norm = np.einsum(
        "nia,nbj,nkc,ndl,najcl,nibkd->n", gup, gup, gup, gup, rm, np.conj(rm)
    ).real
    return np.where((norm < 0.0) & (norm > -1e-10), 0.0, norm)
