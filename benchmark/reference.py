"""Values the output checks compare against, computed without sigma2lab.

Everything here is plain numpy: the closed forms of the exact solutions, a
central-difference stencil for the discrete operator, the flattening map of
the exponential solution, and sampled containment of an ellipsoid in a
quadratic sublevel set.
"""

from __future__ import annotations

import numpy as np


def exponential(t, x, y, kappa):
    """u = (x^2 + y^2) e^t + kappa e^{-t}."""
    return (x * x + y * y) * np.exp(t) + kappa * np.exp(-t)


def cube_axes(lo: float, hi: float, m: int):
    """Coordinates of an m^3 grid on [lo, hi]^3, index order (t, x, y)."""
    ax = np.linspace(lo, hi, m)
    return np.meshgrid(ax, ax, ax, indexing="ij")


def stencil_residual(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(u_tt * Lap_x u - |grad_x u_t|^2 - 1, u_tt) at interior nodes of a cube
    grid with spacing h, second-order central differences."""
    c = u[1:-1, 1:-1, 1:-1]
    h2 = h * h
    utt = (u[2:, 1:-1, 1:-1] - 2.0 * c + u[:-2, 1:-1, 1:-1]) / h2
    uxx = (u[1:-1, 2:, 1:-1] - 2.0 * c + u[1:-1, :-2, 1:-1]) / h2
    uyy = (u[1:-1, 1:-1, 2:] - 2.0 * c + u[1:-1, 1:-1, :-2]) / h2
    utx = (u[2:, 2:, 1:-1] - u[2:, :-2, 1:-1] - u[:-2, 2:, 1:-1] + u[:-2, :-2, 1:-1]) / (4.0 * h2)
    uty = (u[2:, 1:-1, 2:] - u[2:, 1:-1, :-2] - u[:-2, 1:-1, 2:] + u[:-2, 1:-1, :-2]) / (4.0 * h2)
    return utt * (uxx + uyy) - utx * utx - uty * uty - 1.0, utt


def sigma2(H: np.ndarray) -> float:
    """H00 (H11 + ... ) - H01^2 - ... for one symmetric matrix."""
    return float(H[0, 0] * np.trace(H[1:, 1:]) - np.sum(H[0, 1:] ** 2))


def exponential_metric(points: np.ndarray, kappa: float) -> np.ndarray:
    """g = J^T diag(1, 1/4) conj(J) at points (t, s, x, y).

    J[a, i] = dw_a/dz_i for w1 = z2 e^{z1/2}, w2 = 2 sqrt(kappa) e^{-z1/2}
    with z1 = t + i s, z2 = x + i y; the potential is |w1|^2 + |w2|^2 / 4.
    """
    z1 = points[:, 0] + 1j * points[:, 1]
    z2 = points[:, 2] + 1j * points[:, 3]
    e = np.exp(z1 / 2.0)
    J = np.zeros((points.shape[0], 2, 2), dtype=complex)
    J[:, 0, 0] = 0.5 * z2 * e
    J[:, 0, 1] = e
    J[:, 1, 0] = -np.sqrt(kappa) * np.exp(-z1 / 2.0)
    weights = np.array([1.0, 0.25])
    return np.einsum("nai,a,naj->nij", J, weights, np.conj(J))


def legendre_theta(z, x, y, kappa):
    """theta with u_t(theta, x, y) = z for the exponential solution:
    e^theta = (z + sqrt(z^2 + 4 kappa r^2)) / (2 r^2), r^2 = x^2 + y^2 > 0."""
    r2 = x * x + y * y
    return np.log((z + np.sqrt(z * z + 4.0 * kappa * r2)) / (2.0 * r2))


def laplacian(values: np.ndarray, spacing) -> np.ndarray:
    """Central-difference Laplacian at interior nodes, per-axis spacing."""
    inner = tuple(slice(1, -1) for _ in range(values.ndim))
    out = np.zeros(tuple(m - 2 for m in values.shape))
    for axis, h in enumerate(spacing):
        up = list(inner)
        dn = list(inner)
        up[axis] = slice(2, None)
        dn[axis] = slice(None, -2)
        out += (values[tuple(up)] - 2.0 * values[inner] + values[tuple(dn)]) / (h * h)
    return out


def containment_excess(M, center, H, xstar, level, rng, count: int = 2000) -> float:
    """Largest relative excess (q - level) / level of q(x) = (x - x*)^T H (x - x*) / 2
    over boundary points x = center + M^{-1} s, |s| = 1, of the ellipsoid.

    The directions are ``count`` uniform samples plus the two extreme
    eigen-directions of M^{-1} H M^{-1}, so for a quadratic q the sample
    contains the boundary point where q is largest.
    """
    Minv = np.linalg.inv(M)
    dirs = rng.standard_normal((count, M.shape[0]))
    _, vecs = np.linalg.eigh(Minv @ H @ Minv)
    dirs = np.vstack([dirs, vecs[:, -1], -vecs[:, -1]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    d = center + dirs @ Minv.T - xstar
    q = 0.5 * np.einsum("ni,ij,nj->n", d, H, d)
    return float((q.max() - level) / level)
