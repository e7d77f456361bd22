"""Structural probes: inscribed-ellipsoid barrier, partial Legendre transform,
and the reduction test for the form u = a*t^2 + t*b(x) + g(x).

The barrier chain mirrors the convexity argument: normalize a convex function
so its minimum is 0, take the sublevel set K_h = {u <= h}, inscribe an
ellipsoid |M(x-c)| <= 1, and check sigma2_tilde(M^2) >= 1/(4 h^2).  The
partial Legendre transform swaps t for z = u_t along each x-line; for true
solutions with u_tt > 0 the resulting theta(z, x) is harmonic, which
``harmonicity_test`` measures with a discrete Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import Quadratic, is_he_form
from .core_ops import (
    Grid,
    ScalarField,
    fd_hessian,
    laplacian,
    mesh_points,
    second_diff,
    sigma2_tilde,
)
from .errors import (
    ConfigError,
    NoInteriorPoint,
    NotConvex,
    NotMonotone,
    NotPositiveDefinite,
    ZOutOfRange,
)

__all__ = [
    "EllipsoidMap",
    "SublevelSet",
    "inscribe_ellipsoid",
    "barrier_check",
    "partial_legendre",
    "legendre_round_trip",
    "harmonicity_test",
    "he_reduction_report",
]

_CONTAIN_SAMPLES = 1000
_CONTAIN_SEED = 20230915


@dataclass(frozen=True)
class EllipsoidMap:
    """Affine map A(x) = M(x - center) with M symmetric positive definite.

    Represents the ellipsoid E = {x : |M(x - center)| <= 1}; M^2 is the shape
    matrix entering the barrier bound.
    """

    M: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {M.shape}")
        if not np.array_equal(M, M.T):
            raise ConfigError("ellipsoid matrix is not symmetric")
        if self.center.shape != (self.dim,):
            raise ConfigError(
                f"center has shape {self.center.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(self.center)):
            raise ConfigError("ellipsoid center must be finite")
        eigs = np.linalg.eigvalsh(M)
        if eigs.min() <= 0.0:
            raise NotPositiveDefinite(
                f"ellipsoid matrix has eigenvalue {eigs.min():.6g} <= 0"
            )

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def shape_matrix(self) -> np.ndarray:
        return self.M @ self.M

    def boundary_points(self, count: int = _CONTAIN_SAMPLES, seed: int = _CONTAIN_SEED) -> np.ndarray:
        """Deterministic sample of E's boundary: x = center + M^{-1} s, |s| = 1."""
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((count, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return self.center + np.linalg.solve(self.M, dirs.T).T

    def scaled(self, s: float) -> "EllipsoidMap":
        return EllipsoidMap(s * self.M, self.center)


def _minimize_candidate(candidate, x0: np.ndarray) -> np.ndarray:
    """Damped Newton on the gradient, tolerance 1e-10 on its sup-norm."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(100):
        g = candidate.gradient(x)
        if np.abs(g).max() <= 1e-10:
            return x
        H = candidate.hessian(x)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        alpha = 1.0
        gn = np.linalg.norm(g)
        for _ in range(40):
            trial = x + alpha * step
            if np.linalg.norm(candidate.gradient(trial)) < gn:
                x = trial
                break
            alpha *= 0.5
        else:
            raise NoInteriorPoint("minimizer search stalled; no descent step found")
    g = candidate.gradient(x)
    if np.abs(g).max() > 1e-8:
        raise NoInteriorPoint(
            f"minimizer search did not converge (|grad| = {np.abs(g).max():.3e})"
        )
    return x


# machine-level bracket tolerance (scipy brentq's xtol and rtol): the barrier
# value is quartic in 1/intercept, so a sloppy crossing inflates sigma2(M^2)
# errors past the check's 1e-12 slack
_CROSSING_XTOL = 1e-15
_CROSSING_RTOL = 8.9e-16
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def _axis_crossings(value, xstar: np.ndarray, dirs: np.ndarray, h: float) -> np.ndarray:
    """Smallest s > 0 with value(xstar + s e) = h for a convex profile, for
    every row e of ``dirs`` (+e_0, -e_0, +e_1, -e_1, ...) at once.

    A doubling search brackets every crossing in [0, 2^k], then bisection
    halves all brackets together until each is narrower than
    xtol + rtol * s.  The answer is the root of the chord through the last
    bracket wider than sqrt(eps) * s, clipped to the final bracket: the
    chord's curvature error is O(eps * s), and its end values lie far enough
    apart that their rounding cannot decide which end of the final bracket
    is nearer the crossing.
    """

    def f(s: np.ndarray) -> np.ndarray:
        return value(xstar + s[:, None] * dirs) - h

    hi = np.ones(dirs.shape[0])
    for _ in range(80):
        f_hi = f(hi)
        if np.all(f_hi > 0.0):
            break
        hi = np.where(f_hi > 0.0, hi, 2.0 * hi)
    else:
        k = int(np.argmin(f_hi > 0.0))  # the first direction still inside
        raise ConfigError(
            f"sublevel set appears unbounded along axis {k // 2} ({'+-'[k % 2]}); "
            "no crossing below u = h"
        )
    lo = np.zeros_like(hi)
    f_lo = f(lo)
    chord = (lo, hi, f_lo, f_hi)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = hi - lo > _CROSSING_XTOL + _CROSSING_RTOL * mid
        if not open_.any():
            break
        f_mid = f(mid)
        above = open_ & (f_mid > 0.0)
        below = open_ & ~above
        hi, f_hi = np.where(above, mid, hi), np.where(above, f_mid, f_hi)
        lo, f_lo = np.where(below, mid, lo), np.where(below, f_mid, f_lo)
        wide = hi - lo > _SQRT_EPS * hi
        chord = tuple(np.where(wide, new, old) for new, old in zip((lo, hi, f_lo, f_hi), chord))
    c_lo, c_hi, fc_lo, fc_hi = chord
    return np.clip(c_lo - fc_lo * (c_hi - c_lo) / (fc_hi - fc_lo), lo, hi)


@dataclass
class SublevelSet:
    """K_h = {u <= h} for a normalized convex u (min u = 0 at ``minimizer``).

    ``value`` evaluates the normalized function at (N, dim) points; axis
    intercepts are the distances from the minimizer to the boundary of K_h
    along each coordinate axis (the smaller of the two directions).
    ``hessian`` is the constant Hessian of a quadratic source, for which
    value(x) = (x - minimizer)^T hessian (x - minimizer) / 2 exactly; None
    for every other source.
    """

    h: float
    dim: int
    minimizer: np.ndarray
    intercepts: np.ndarray
    boundary_samples: np.ndarray
    value: object  # callable (N, dim) -> (N,)
    hessian: np.ndarray | None = None

    @classmethod
    def from_candidate(cls, candidate, h: float, convexity_box: float = 2.0) -> "SublevelSet":
        if h <= 0.0:
            raise NoInteriorPoint(f"level h = {h} admits no interior point (min u = 0)")
        dim = candidate.dim
        probe = mesh_points([np.linspace(-convexity_box, convexity_box, 5)] * dim)
        eigs = np.linalg.eigvalsh(candidate.hessian_many(probe))
        if eigs.min() < -1e-8:
            raise NotConvex(
                f"Hessian eigenvalue {eigs.min():.3e} < 0 at a probe point; "
                "sublevel machinery requires a convex source"
            )
        xstar = _minimize_candidate(candidate, np.zeros(dim))
        u0 = candidate.eval(xstar)
        g0 = candidate.gradient(xstar)

        def value(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            return candidate.eval_many(pts) - u0 - (pts - xstar) @ g0

        return cls._from_value(
            value, xstar, h, candidate.A if isinstance(candidate, Quadratic) else None
        )

    @classmethod
    def from_field(cls, fld: ScalarField, h: float) -> "SublevelSet":
        if h <= 0.0:
            raise NoInteriorPoint(f"level h = {h} admits no interior point (min u = 0)")
        grid = fld.grid
        idx_min = np.unravel_index(np.argmin(fld.values), grid.shape)
        if any(i == 0 or i == m - 1 for i, m in zip(idx_min, grid.shape)):
            raise NoInteriorPoint("discrete minimizer sits on the boundary of the grid")
        eigs = np.linalg.eigvalsh(fd_hessian(fld, idx_min))
        if eigs.min() < -1e-8:
            raise NotConvex(
                f"fd Hessian eigenvalue {eigs.min():.3e} < 0 at the discrete minimizer"
            )
        axes = grid.axes()
        xstar = np.array([ax[i] for ax, i in zip(axes, idx_min)])
        vals = fld.values - fld.values[idx_min]
        # imported here, so that candidate-only callers never load scipy
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(axes, vals, method="linear", bounds_error=True)

        def value(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            out = np.full(pts.shape[0], np.inf)
            inside = np.all(
                (pts >= [b[0] for b in grid.bounds]) & (pts <= [b[1] for b in grid.bounds]),
                axis=1,
            )
            if inside.any():
                out[inside] = interp(pts[inside])
            return out

        return cls._from_value(value, xstar, h)

    @classmethod
    def _from_value(cls, value, xstar: np.ndarray, h: float, hessian=None) -> "SublevelSet":
        """The set {value <= h} around its minimizer ``xstar``, by axis crossings."""
        dim = xstar.size
        dirs = np.kron(np.eye(dim), [[1.0], [-1.0]])
        crossings = _axis_crossings(value, xstar, dirs, h)
        return cls(
            h=float(h),
            dim=dim,
            minimizer=xstar,
            intercepts=crossings.reshape(dim, 2).min(axis=1),
            boundary_samples=xstar + crossings[:, None] * dirs,
            value=value,
            hessian=hessian,
        )


def inscribe_ellipsoid(K: SublevelSet, samples: int = _CONTAIN_SAMPLES) -> EllipsoidMap:
    """Ellipsoid inside K_h: diagonal seed M0 from the axis intercepts, then
    the smallest uniform shrink factor s >= 1 that keeps it inside.

    For a quadratic source the maximum of value on |s M0 (x - c)| = 1 is
    lambda_max(M0^-1 H M0^-1) / (2 s^2), so s is exact in closed form.  For
    every other source s is certified on sampled boundary points only.
    """
    if samples < 1:
        raise ConfigError(f"need at least one sample point, got {samples}")
    if np.any(K.intercepts <= 0.0) or not np.all(np.isfinite(K.intercepts)):
        raise NoInteriorPoint("degenerate axis intercepts; K_h has empty interior")
    seed = EllipsoidMap(np.diag(1.0 / K.intercepts), K.minimizer)
    if K.hessian is not None:
        D = np.diag(K.intercepts)
        lam = float(np.linalg.eigvalsh(D @ K.hessian @ D).max())
        return seed.scaled(max(1.0, float(np.sqrt(lam / (2.0 * K.h)))))
    tol = 1e-12 * max(1.0, abs(K.h))

    def contained(s: float) -> bool:
        pts = seed.scaled(s).boundary_points(samples)
        return bool(np.all(K.value(pts) <= K.h + tol))

    if contained(1.0):
        return seed
    s_hi = 2.0
    for _ in range(60):
        if contained(s_hi):
            break
        s_hi *= 2.0
    else:
        raise ConfigError("inscribed-ellipsoid shrink did not certify containment")
    s_lo = s_hi / 2.0
    while s_hi - s_lo > 1e-6:
        mid = 0.5 * (s_lo + s_hi)
        if contained(mid):
            s_hi = mid
        else:
            s_lo = mid
    return seed.scaled(s_hi)


def barrier_check(E: EllipsoidMap, h: float) -> dict:
    """value = sigma2_tilde(M^2) against bound = 1/(4 h^2)."""
    value = float(sigma2_tilde(E.shape_matrix()))
    bound = 1.0 / (4.0 * h * h)
    return {
        "value": value,
        "bound": bound,
        "margin": value - bound,
        "pass": bool(value >= bound - 1e-12),
    }


def _z_axis(attained_lo: float, attained_hi: float, z_span, z_count: int):
    """The z-range and its ``z_count`` nodes inside (attained_lo, attained_hi),
    the u_t range that every x-line attains.  The default range shrinks it by
    5% per side; a requested range must lie inside it."""
    if attained_hi <= attained_lo:
        raise ZOutOfRange(
            "the x-lines share no common attained range of u_t; "
            "narrow the transverse box"
        )
    if z_span is None:
        width = attained_hi - attained_lo
        z_span = (attained_lo + 0.05 * width, attained_hi - 0.05 * width)
    elif z_span[0] < attained_lo or z_span[1] > attained_hi:
        raise ZOutOfRange(
            f"requested z-range {z_span} exceeds the attained range "
            f"({attained_lo:.6g}, {attained_hi:.6g})"
        )
    return z_span, np.linspace(z_span[0], z_span[1], z_count)


def _legendre_from_field(fld: ScalarField, z_span, z_count):
    grid = fld.grid
    h0 = grid.spacing[0]
    u1 = (fld.values[2:] - fld.values[:-2]) / (2.0 * h0)
    if np.any(np.diff(u1, axis=0) <= 0.0):
        raise NotMonotone("discrete u_t is not strictly increasing along every t-line")
    flat = u1.reshape(u1.shape[0], -1)
    if z_count is None:
        z_count = u1.shape[0]
    z_span, z = _z_axis(float(flat[0].max()), float(flat[-1].min()), z_span, z_count)
    t_int = grid.axes()[0][1:-1]
    theta = np.empty((z_count, flat.shape[1]))
    for j in range(flat.shape[1]):
        theta[:, j] = np.interp(z, flat[:, j], t_int)
    out_grid = Grid((tuple(z_span), *grid.bounds[1:]), (z_count, *grid.shape[1:]))
    return ScalarField(out_grid, theta.reshape(out_grid.shape))


def _legendre_from_candidate(cand, t_span, x_spans, shape, z_span, z_count):
    dim = cand.dim
    if x_spans is None:
        x_spans = ((-1.0, 1.0),) * (dim - 1)
    if shape is None:
        shape = (17,) * (dim - 1)
    if len(x_spans) != dim - 1 or len(shape) != dim - 1 or min(shape) < 5:
        raise ConfigError(
            f"need {dim - 1} transverse spans and {dim - 1} node counts of at least 5, "
            f"got {len(x_spans)} spans and shape {tuple(shape)}"
        )
    x_pts = mesh_points([np.linspace(lo, hi, m) for (lo, hi), m in zip(x_spans, shape)])
    n_lines = x_pts.shape[0]
    d1 = (1,) + (0,) * (dim - 1)
    d2 = (2,) + (0,) * (dim - 1)

    t_probe = np.linspace(t_span[0], t_span[1], 33)
    # only the minimum is kept, so the probe points are freed before the roots
    u11_min = cand.eval_many(
        np.concatenate([np.column_stack([np.full(n_lines, t), x_pts]) for t in t_probe]), d2
    ).min()
    if u11_min <= 0.0:
        raise NotMonotone(
            f"u_tt reaches {u11_min:.3e} <= 0 on the probe box; u_t is not invertible in t"
        )
    lo_pts = np.column_stack([np.full(n_lines, t_span[0]), x_pts])
    hi_pts = np.column_stack([np.full(n_lines, t_span[1]), x_pts])
    if z_count is None:
        z_count = 33
    z_span, z = _z_axis(
        float(cand.eval_many(lo_pts, d1).max()), float(cand.eval_many(hi_pts, d1).min()), z_span, z_count
    )

    t = np.empty(z_count * n_lines)
    # blocks of nodes bound the working memory; nodes do not interact.  Node
    # k of the (z, x) grid in C order sits at z[k // n_lines], x_pts[k % n_lines].
    for start in range(0, t.size, _ROOT_BLOCK):
        node = np.arange(start, min(start + _ROOT_BLOCK, t.size))
        pts = np.empty((node.size, dim))
        pts[:, 1:] = x_pts[node % n_lines]
        t[start:start + node.size] = _legendre_roots(cand, pts, z[node // n_lines], t_span)
    out_grid = Grid((tuple(z_span), *tuple(tuple(s) for s in x_spans)), (z_count, *shape))
    return ScalarField(out_grid, t.reshape(out_grid.shape))


# Newton steps are taken while they stay in the bracket and make progress;
# after _NEWTON_ITERATIONS the nodes still open only bisect, so no node costs
# more than twice the 60 halvings of plain bisection.
_NEWTON_ITERATIONS = 60
_BISECTIONS = 60
_ROOT_RTOL = 1e-14
_ROOT_BLOCK = 1 << 15


def _legendre_roots(cand, pts: np.ndarray, zz: np.ndarray, t_span) -> np.ndarray:
    """Safeguarded Newton for u_t(t, x) = z at every row of ``pts`` (t column
    overwritten), then one Newton polish.

    Each node keeps a bracket [lo, hi] from the sign of f = u_t - z.  The
    Newton step t - f/u_tt is taken when it lands in the closed bracket and
    either the bracket or the Newton update has at least halved over the
    last two iterations; otherwise (or when the step is not finite) the node
    bisects.  The test on the update keeps one-sided Newton convergence,
    where the far end of the bracket never moves, from being interrupted.
    A node is done once its update is at most 1e-14 * max(1, |t|); done
    nodes keep their value, so rounding noise in f cannot move them again.
    """
    dim = pts.shape[1]
    d1 = (1,) + (0,) * (dim - 1)
    d2 = (2,) + (0,) * (dim - 1)
    lo = np.full(zz.size, float(t_span[0]))
    hi = np.full(zz.size, float(t_span[1]))
    t = 0.5 * (lo + hi)
    done = np.zeros(zz.size, dtype=bool)
    width = [hi - lo, hi - lo]  # bracket widths two and one iterations ago
    update = [np.full(zz.size, np.inf)] * 2
    for it in range(_NEWTON_ITERATIONS + _BISECTIONS):
        pts[:, 0] = t
        f = cand.eval_many(pts, d1) - zz
        above = f > 0.0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        t_next = 0.5 * (lo + hi)
        if it < _NEWTON_ITERATIONS:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = t - f / cand.eval_many(pts, d2)
            # non-strict: a converged step equals the bracket end it came from
            newton = (step >= lo) & (step <= hi)
            newton &= (hi - lo <= 0.5 * width[0]) | (np.abs(step - t) <= 0.5 * update[0])
            t_next = np.where(newton, step, t_next)
        t_next = np.where(done, t, t_next)
        change = np.abs(t_next - t)
        width = [width[1], hi - lo]
        update = [update[1], change]
        t = t_next
        done |= change <= _ROOT_RTOL * np.maximum(1.0, np.abs(t))
        if done.all():
            break
    pts[:, 0] = t
    return t - (cand.eval_many(pts, d1) - zz) / cand.eval_many(pts, d2)


def partial_legendre(
    source,
    t_span=(-1.0, 1.0),
    x_spans=None,
    shape=None,
    z_span=None,
    z_count=None,
) -> ScalarField:
    """theta(z, x) = the t with u_t(t, x) = z, on a uniform (z, x) grid.

    ScalarField sources use their own grid (t_span/x_spans/shape are ignored)
    and per-line monotone interpolation of the central-difference u_t;
    candidate sources use vectorized safeguarded Newton on [t_span] plus
    one Newton polish.  The default z-range is the intersection of the
    attained ranges over all x-lines, shrunk 5% per side; ``z_count``, the
    number of z nodes, must be at least 5.
    """
    if z_count is not None and z_count < 5:
        raise ConfigError(f"need at least 5 z nodes, got z_count={z_count}")
    if isinstance(source, ScalarField):
        return _legendre_from_field(source, z_span, z_count)
    return _legendre_from_candidate(source, t_span, x_spans, shape, z_span, z_count)


def legendre_round_trip(cand, theta: ScalarField) -> float:
    """max |u_t(theta(z, x), x) - z| over the (z, x) grid of ``theta``, one
    z-slab at a time on the transverse mesh."""
    z_axis, *x_axes = theta.grid.axes()
    pts = np.empty((theta.values[0].size, theta.grid.dim))
    pts[:, 1:] = mesh_points(x_axes)
    d1 = (1,) + (0,) * (cand.dim - 1)
    slab_max = np.empty(z_axis.size)
    for i, z in enumerate(z_axis):
        pts[:, 0] = theta.values[i].ravel()
        slab_max[i] = np.abs(cand.eval_many(pts, d1) - z).max()
    return float(slab_max.max())


# interior nodes per block of harmonicity_test's slab-wise Laplacian
_LAPLACIAN_BLOCK = 1 << 15


def harmonicity_test(theta: ScalarField) -> float:
    """Max absolute discrete Laplacian (over all variables) at interior nodes.

    The Laplacian runs over blocks of whole z-slabs of about _LAPLACIAN_BLOCK
    nodes, each with its two neighbouring slabs, so its temporaries follow
    the block size, not the grid; each node sees the same stencil values as
    in one whole-grid call, so the maximum is the same to the last bit.
    """
    vals, spacing = theta.values, theta.grid.spacing
    n_inner = vals.shape[0] - 2
    step = max(1, _LAPLACIAN_BLOCK // vals[0].size)
    starts = range(0, n_inner, step)
    block_max = np.empty(len(starts))
    for i, start in enumerate(starts):
        block = vals[start:min(start + step, n_inner) + 2]
        block_max[i] = np.abs(laplacian(block, spacing)).max()
    return float(block_max.max())


def _he_extract_candidate(cand, box, samples_per_axis):
    dim = cand.dim
    nt = dim - 1
    x_axes = [np.linspace(lo, hi, samples_per_axis) for lo, hi in box[1:]]
    x_pts = mesh_points(x_axes)
    zero_t = np.column_stack([np.zeros(x_pts.shape[0]), x_pts])

    def dcount(t_order, x_orders):
        return (t_order, *x_orders)

    a = float(cand.eval(np.zeros(dim), dcount(2, (0,) * nt))) / 2.0
    b_vals = cand.eval_many(zero_t, dcount(1, (0,) * nt))
    g_vals = cand.eval_many(zero_t, dcount(0, (0,) * nt))
    lap_b = np.zeros(x_pts.shape[0])
    lap_g = np.zeros(x_pts.shape[0])
    grad_b_sq = np.zeros(x_pts.shape[0])
    for k in range(nt):
        two = [0] * nt
        two[k] = 2
        one = [0] * nt
        one[k] = 1
        lap_b += cand.eval_many(zero_t, dcount(1, tuple(two)))
        lap_g += cand.eval_many(zero_t, dcount(0, tuple(two)))
        grad_b_sq += cand.eval_many(zero_t, dcount(1, tuple(one))) ** 2
    poisson = lap_g - (1.0 + grad_b_sq) / (2.0 * a)
    t_samples = np.linspace(box[0][0], box[0][1], 9)
    round_trip = 0.0
    for t in t_samples:
        pts = np.column_stack([np.full(x_pts.shape[0], t), x_pts])
        model = a * t * t + t * b_vals + g_vals
        round_trip = max(round_trip, float(np.abs(cand.eval_many(pts) - model).max()))
    return {
        "a": a,
        "x_axes": [ax.tolist() for ax in x_axes],
        "b_values": b_vals.reshape([samples_per_axis] * nt),
        "g_values": g_vals.reshape([samples_per_axis] * nt),
        "lap_b_max": float(np.abs(lap_b).max()),
        "poisson_residual_max": float(np.abs(poisson).max()),
        "round_trip_max_error": round_trip,
    }


def _he_extract_field(fld: ScalarField):
    grid = fld.grid
    axes = grid.axes()
    t_idx = int(np.argmin(np.abs(axes[0])))
    if t_idx == 0 or t_idx == grid.shape[0] - 1:
        raise ConfigError(
            "field t-range must contain 0 strictly inside; the reduction is anchored at t = 0"
        )
    h0 = grid.spacing[0]
    utt = second_diff(fld.values, 0, h0)
    a = float(utt.mean()) / 2.0
    b_vals = (fld.values[t_idx + 1] - fld.values[t_idx - 1]) / (2.0 * h0)
    g_vals = fld.values[t_idx].copy()
    inner = tuple(slice(1, -1) for _ in range(grid.dim - 1))
    lap_b = np.zeros_like(b_vals[inner])
    lap_g = np.zeros_like(g_vals[inner])
    grad_b_sq = np.zeros_like(b_vals[inner])
    for k in range(grid.dim - 1):
        h = grid.spacing[k + 1]
        lap_b += second_diff(b_vals, k, h)
        lap_g += second_diff(g_vals, k, h)
        up = [slice(1, -1)] * (grid.dim - 1)
        dn = [slice(1, -1)] * (grid.dim - 1)
        up[k] = slice(2, None)
        dn[k] = slice(None, -2)
        grad_b_sq += ((b_vals[tuple(up)] - b_vals[tuple(dn)]) / (2.0 * h)) ** 2
    poisson = lap_g - (1.0 + grad_b_sq) / (2.0 * a)
    tt = axes[0].reshape((-1,) + (1,) * (grid.dim - 1)) - axes[0][t_idx]
    model = a * tt * tt + tt * b_vals[None] + g_vals[None]
    round_trip = float(np.abs(fld.values - model).max())
    return {
        "a": a,
        "x_axes": [ax.tolist() for ax in axes[1:]],
        "b_values": b_vals,
        "g_values": g_vals,
        "lap_b_max": float(np.abs(lap_b).max()),
        "poisson_residual_max": float(np.abs(poisson).max()),
        "round_trip_max_error": round_trip,
    }


def he_reduction_report(source, box=None, samples_per_axis=17, tol=1e-8, theta=True) -> dict:
    """Oscillation of u_tt, verdict, extracted (a, b, g) with identity residuals,
    and the harmonicity level of the transformed theta."""
    if isinstance(source, ScalarField):
        grid = source.grid
        box = [tuple(b) for b in grid.bounds]
        utt = second_diff(source.values, 0, grid.spacing[0])
        osc = float(utt.max() - utt.min())
        report = {
            "source": "field",
            "probe_box": [list(b) for b in box],
            "u11_min": float(utt.min()),
            "u11_max": float(utt.max()),
            "osc_u11": osc,
            "tolerance": tol,
            # He's form u = a t^2 + t b + g needs a = u_tt / 2 > 0
            "is_he_form": bool(osc <= tol and utt.min() > 0.0),
        }
    else:
        if box is None:
            box = [(-2.0, 2.0)] * source.dim
        flag, probe = is_he_form(source, box=box, tol=tol)
        report = {
            "source": "candidate",
            "probe_box": [list(b) for b in box],
            "u11_min": probe["u_tt_min"],
            "u11_max": probe["u_tt_max"],
            "osc_u11": probe["u_tt_oscillation"],
            "tolerance": tol,
            "is_he_form": flag,
        }
    if report["is_he_form"]:
        if isinstance(source, ScalarField):
            report.update(_he_extract_field(source))
        else:
            report.update(_he_extract_candidate(source, box, samples_per_axis))
    else:
        report.update(
            a=None,
            lap_b_max=None,
            poisson_residual_max=None,
            round_trip_max_error=None,
        )
    if theta:
        try:
            if isinstance(source, ScalarField):
                th = partial_legendre(source)
            else:
                th = partial_legendre(source, t_span=box[0], x_spans=tuple(box[1:]))
            report["theta_harmonicity"] = harmonicity_test(th)
            report["theta_note"] = None
        except (NotMonotone, ZOutOfRange) as exc:
            report["theta_harmonicity"] = None
            report["theta_note"] = f"{type(exc).__name__}: {exc}"
    else:
        report["theta_harmonicity"] = None
        report["theta_note"] = "skipped"
    return report
