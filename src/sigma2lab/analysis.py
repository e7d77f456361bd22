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

import math
from dataclasses import dataclass

import numpy as np

from .core_ops import (
    Grid,
    ScalarField,
    laplacian,
    mesh_points,
    second_diff,
    shifted,
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
# value = u - u0 - (x - xstar) . g0 carries rounding noise of about
# eps (|u0| + |xstar . grad u(0)|): for a quadratic these two bound its
# constant, linear and quadratic terms at xstar, which eval_many sums.  The
# noise moves an axis intercept by a relative noise / (2 h); a level must keep
# that below this bound
_INTERCEPT_NOISE_RTOL = 1e-8


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

    def boundary_points(self, count: int = _CONTAIN_SAMPLES) -> np.ndarray:
        """Deterministic sample of E's boundary: x = center + M^{-1} s, |s| = 1."""
        rng = np.random.default_rng(_CONTAIN_SEED)
        dirs = rng.standard_normal((count, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return self.center + np.linalg.solve(self.M, dirs.T).T

    def scaled(self, s: float) -> "EllipsoidMap":
        return EllipsoidMap(s * self.M, self.center)


def _gradient(candidate, pts: np.ndarray) -> np.ndarray:
    """Exact gradients of ``candidate`` at the rows of ``pts``, shape (N, dim)."""
    return np.column_stack([candidate.eval_many(pts, e) for e in np.eye(pts.shape[1], dtype=int)])


def _minimize_candidate(candidate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the gradient from the origin, tolerance 1e-10 on its
    sup-norm; the minimizer, the gradient there and the gradient at the
    origin."""
    x = np.zeros(candidate.dim)
    g = g_origin = _gradient(candidate, x[None])[0]
    for _ in range(100):
        if np.abs(g).max() <= 1e-10:
            return x, g, g_origin
        H = candidate.hessian_many(x[None])[0]
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        alpha = 1.0
        with np.errstate(over="ignore"):  # checked here, and an overflowing trial is no descent
            gn = np.linalg.norm(g)
            if not math.isfinite(gn):
                raise NoInteriorPoint(f"the gradient {g.tolist()} is too large for the minimizer search")
            for _ in range(40):
                trial = x + alpha * step
                g = _gradient(candidate, trial[None])[0]
                if np.linalg.norm(g) < gn:
                    x = trial
                    break
                alpha *= 0.5
            else:
                raise NoInteriorPoint("minimizer search stalled; no descent step found")
    if np.abs(g).max() > 1e-8:
        raise NoInteriorPoint(
            f"minimizer search did not converge (|grad| = {np.abs(g).max():.3e})"
        )
    return x, g, g_origin


def _axis_crossings(value, gradient, xstar: np.ndarray, dirs: np.ndarray, h: float) -> np.ndarray:
    """Smallest s > 0 with value(xstar + s e) = h for a convex profile, for
    every row e of ``dirs`` (+e_0, -e_0, +e_1, -e_1, ...) at once.

    From s = 1 each direction doubles s while it stays inside K_h, or halves
    it while it stays outside, up to the power of two p just outside.
    ``_bracketed_roots`` then solves for s / q with slope
    q e . gradient(xstar + s e) (``gradient`` maps points to the gradient of
    ``value``): after doubling q = p/2 and s in [0, p]; after halving
    q = min(1, 4p) and s in [0, q], so only crossings below 1/8 leave the
    bracket [0, 1] that fixes the digits of all others.  Powers of two scale
    exactly, and the stopping test 1e-14 max(1, s/q) is relative to s at
    every scale.  A direction still inside at s = 2^1023 is unbounded.
    """

    def points(s: np.ndarray) -> np.ndarray:
        return xstar + s[:, None] * dirs

    def f(s: np.ndarray) -> np.ndarray:
        return value(points(s)) - h

    s = np.ones(dirs.shape[0])
    grow = ~(f(s) > 0.0)  # inside at s = 1
    searching = np.ones(s.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        while searching.any():
            trial = np.where(searching, np.where(grow, 2.0 * s, 0.5 * s), s)
            if np.isinf(trial).any():
                k = int(np.argmax(np.isinf(trial)))  # the first direction still inside
                raise ConfigError(
                    f"sublevel set appears unbounded along axis {k // 2} ({'+-'[k % 2]}); "
                    "no crossing below u = h"
                )
            crossed = searching & ((f(trial) > 0.0) == grow)
            s = np.where(searching & (grow | ~crossed), trial, s)  # ends at p
            searching &= ~crossed
    q = np.where(grow, 0.5 * s, np.minimum(1.0, 4.0 * s))

    def f_df(r: np.ndarray):
        pts = points(r * q)
        return value(pts) - h, q * (gradient(pts) * dirs).sum(axis=1)

    return q * _bracketed_roots(f_df, np.zeros_like(q), np.where(grow, 2.0, 1.0))


@dataclass
class SublevelSet:
    """K_h = {u <= h} for a normalized convex u (min u = 0 at ``minimizer``).

    ``value`` evaluates the normalized function at (N, dim) points; axis
    intercepts are the distances from the minimizer to the boundary of K_h
    along each coordinate axis (the smaller of the two directions).
    ``hessian`` is the source's Hessian when it is constant, for which
    value(x) = (x - minimizer)^T hessian (x - minimizer) / 2 exactly; None
    for every other source.  It is read off the convexity probe, 5 nodes per
    axis of [-2, 2]^n: every family's Hessian entries have degree at most 2
    in each variable or contain e^t, so a Hessian that is the same at every
    probe node is constant.
    """

    h: float
    dim: int
    minimizer: np.ndarray
    intercepts: np.ndarray
    value: object  # callable (N, dim) -> (N,)
    hessian: np.ndarray | None = None

    @classmethod
    def from_candidate(cls, candidate, h: float) -> "SublevelSet":
        if h <= 0.0:
            raise NoInteriorPoint(f"level h = {h} admits no interior point (min u = 0)")
        with np.errstate(over="ignore", divide="ignore"):
            bound = 1.0 / (4.0 * np.float64(h) ** 2)
        if not np.finfo(float).tiny <= bound < np.inf:  # also refuses a NaN or infinite h
            raise ConfigError(f"level h = {h} is out of range: 1/(4 h^2) is not a finite normal float")
        dim = candidate.dim
        probe = mesh_points([np.linspace(-2.0, 2.0, 5)] * dim)
        H = candidate.hessian_many(probe)
        eigs = np.linalg.eigvalsh(H)
        if eigs.min() < -1e-8:
            raise NotConvex(
                f"Hessian eigenvalue {eigs.min():.3e} < 0 at a probe point; "
                "sublevel machinery requires a convex source"
            )
        xstar, g0, g_origin = _minimize_candidate(candidate)
        u0 = candidate.eval_many(xstar[None])[0]
        noise = np.finfo(float).eps * (abs(u0) + abs(xstar @ g_origin))
        floor = noise / (2.0 * _INTERCEPT_NOISE_RTOL)
        if h < floor:
            raise ConfigError(
                f"level h = {h} is below the rounding floor {floor:.3g} of this candidate: "
                f"u - min u carries noise of about eps (|min u| + |x* . grad u(0)|) = {noise:.3g}"
            )

        def value(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            return candidate.eval_many(pts) - u0 - (pts - xstar) @ g0

        dirs = np.kron(np.eye(dim), [[1.0], [-1.0]])
        crossings = _axis_crossings(
            value, lambda pts: _gradient(candidate, pts) - g0, xstar, dirs, h
        )
        return cls(
            h=float(h),
            dim=dim,
            minimizer=xstar,
            intercepts=crossings.reshape(dim, 2).min(axis=1),
            value=value,
            hessian=H[0] if (H == H[0]).all() else None,
        )


def inscribe_ellipsoid(K: SublevelSet, samples: int = _CONTAIN_SAMPLES) -> EllipsoidMap:
    """Ellipsoid inside K_h: diagonal seed M0 from the axis intercepts, then
    the smallest uniform shrink factor s >= 1 that keeps it inside.

    For a source with a constant Hessian H (a quadratic, or a He-form with
    affine b) the maximum of value on |s M0 (x - c)| = 1 is
    lambda_max(M0^-1 H M0^-1) / (2 s^2), so s is exact in closed form.  For
    a non-constant Hessian s is certified on sampled boundary points only.
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
    tol = 1e-12 * K.h

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
    """value = sigma2_tilde(M^2) against bound = 1/(4 h^2), which it passes
    within a relative 1e-12 (round quadratic data is the equality case)."""
    value = float(sigma2_tilde(E.M @ E.M))
    bound = 1.0 / (4.0 * h * h)
    return {
        "value": value,
        "bound": bound,
        "margin": value - bound,
        "pass": bool(value >= bound * (1.0 - 1e-12)),
    }


def _z_axis(attained_lo: float, attained_hi: float, z_span, z_count: int):
    """The z-range and its ``z_count`` nodes inside (attained_lo, attained_hi),
    the u_t range that every x-line attains.  The default range shrinks it by
    5% per side; a requested range must lie inside it, and its node spacing
    must leave second differences room: 4 dz^2 finite and dz^2 a normal float."""
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
    dz = (z_span[1] - z_span[0]) / (z_count - 1)
    if not math.isfinite(4.0 * dz * dz):
        raise ZOutOfRange(f"z-range ({z_span[0]:.6g}, {z_span[1]:.6g}) is too wide for {z_count} nodes")
    if not dz * dz >= np.finfo(float).tiny:
        raise ZOutOfRange(f"z-range ({z_span[0]:.6g}, {z_span[1]:.6g}) is too narrow for {z_count} nodes")
    return z_span, np.linspace(z_span[0], z_span[1], z_count)


def _legendre_from_field(fld: ScalarField, z_span, z_count):
    grid = fld.grid
    if z_count is None and grid.shape[0] < 7:  # one z node per interior t-node, and a grid needs 5
        raise ZOutOfRange(
            f"theta needs at least 7 t-nodes (5 z nodes) unless z_count is given, the field has {grid.shape[0]}"
        )
    h0 = grid.spacing[0]
    u1 = (fld.values[2:] - fld.values[:-2]) / (2.0 * h0)
    if np.any(np.diff(u1, axis=0) <= 0.0):
        raise NotMonotone("discrete u_t is not strictly increasing along every t-line")
    flat = u1.reshape(u1.shape[0], -1)
    z_count = u1.shape[0] if z_count is None else z_count
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
        t[start:start + node.size] = _legendre_roots(cand, x_pts[node % n_lines], z[node // n_lines], t_span)
    out_grid = Grid((tuple(z_span), *tuple(tuple(s) for s in x_spans)), (z_count, *shape))
    return ScalarField(out_grid, t.reshape(out_grid.shape))


# Newton steps are taken while they stay in the bracket and make progress;
# after _NEWTON_ITERATIONS the roots still open only bisect, so no root costs
# more than twice the 60 halvings of plain bisection.
_NEWTON_ITERATIONS = 60
_BISECTIONS = 60
_ROOT_RTOL = 1e-14
_ROOT_BLOCK = 1 << 15


def _bracketed_roots(f_df, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton for f(t) = 0 on every bracket [lo, hi] at once,
    then one Newton polish; f is increasing, f(lo) <= 0 < f(hi), and
    ``f_df`` maps an array of t to the arrays f(t) and f'(t) of the same
    size, read together so that they can share their work.

    Each root keeps its bracket from the sign of f.  The Newton step
    t - f/df is taken when it lands in the closed bracket and either the
    bracket or the Newton update has at least halved over the last two
    iterations; otherwise (or when the step is not finite) the root
    bisects.  The test on the update keeps one-sided Newton convergence,
    where the far end of the bracket never moves, from being interrupted.
    A root is done once its update is at most 1e-14 * max(1, |t|); done
    roots keep their value, so rounding noise in f cannot move them again.
    """
    t = 0.5 * (lo + hi)
    done = np.zeros(t.size, dtype=bool)
    width = [hi - lo, hi - lo]  # bracket widths two and one iterations ago
    update = [np.full(t.size, np.inf)] * 2
    for it in range(_NEWTON_ITERATIONS + _BISECTIONS):
        f_t, df_t = f_df(t)
        above = f_t > 0.0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        t_next = 0.5 * (lo + hi)
        if it < _NEWTON_ITERATIONS:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = t - f_t / df_t
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
    f_t, df_t = f_df(t)
    return t - f_t / df_t


def _legendre_roots(cand, x_rows: np.ndarray, zz: np.ndarray, t_span) -> np.ndarray:
    """The t with u_t(t, x) = z at every transverse row x of ``x_rows`` and
    entry z of ``zz``, by ``_bracketed_roots`` on [t_span]."""
    read = cand._t_line_reader(x_rows)

    def f_df(t: np.ndarray):
        u_t, u_tt = read(t)
        return u_t - zz, u_tt

    return _bracketed_roots(f_df, np.full(zz.size, float(t_span[0])), np.full(zz.size, float(t_span[1])))


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


def _he_identities(a, x_axes, b_vals, g_vals, lap_b, lap_g, grad_b_sq, round_trip) -> dict:
    """The extracted (a, b, g) and the residuals of He's identities Lap b = 0, 2a Lap g = 1 + |grad b|^2."""
    with np.errstate(over="ignore"):
        poisson = lap_g - (1.0 + grad_b_sq) / (2.0 * a)
    if not np.all(np.isfinite(poisson)):
        raise ConfigError(f"He's identity 2a Lap g = 1 + |grad b|^2 overflows at a = {a:.6g}")
    return {
        "a": a,
        "x_axes": [ax.tolist() for ax in x_axes],
        "b_values": b_vals,
        "g_values": g_vals,
        "lap_b_max": float(np.abs(lap_b).max()),
        "poisson_residual_max": float(np.abs(poisson).max()),
        "round_trip_max_error": round_trip,
    }


def _he_extract_candidate(cand, box):
    nt = cand.dim - 1
    x_axes = [np.linspace(lo, hi, 17) for lo, hi in box[1:]]
    x_pts = mesh_points(x_axes)
    zero_t = np.column_stack([np.zeros(x_pts.shape[0]), x_pts])
    a = float(cand.eval_many(np.zeros((1, cand.dim)), (2,) + (0,) * nt)[0]) / 2.0
    b_vals = cand.eval_many(zero_t, (1,) + (0,) * nt)
    g_vals = cand.eval_many(zero_t, (0,) * (nt + 1))
    eye = np.eye(nt, dtype=int)
    lap_b = sum(cand.eval_many(zero_t, (1, *2 * one)) for one in eye)
    lap_g = sum(cand.eval_many(zero_t, (0, *2 * one)) for one in eye)
    grad_b_sq = sum(cand.eval_many(zero_t, (1, *one)) ** 2 for one in eye)
    t_samples = np.linspace(box[0][0], box[0][1], 9)
    round_trip = 0.0
    for t in t_samples:
        pts = np.column_stack([np.full(x_pts.shape[0], t), x_pts])
        model = a * t * t + t * b_vals + g_vals
        round_trip = max(round_trip, float(np.abs(cand.eval_many(pts) - model).max()))
    shape = [ax.size for ax in x_axes]
    return _he_identities(a, x_axes, b_vals.reshape(shape), g_vals.reshape(shape), lap_b, lap_g, grad_b_sq, round_trip)


def _he_extract_field(fld: ScalarField):
    grid = fld.grid
    axes = grid.axes()
    t_idx = int(np.argmin(np.abs(axes[0])))
    if t_idx == 0 or t_idx == grid.shape[0] - 1:
        raise ConfigError(
            "field t-range must contain 0 strictly inside; the reduction is anchored at t = 0"
        )
    h0 = grid.spacing[0]
    a = float(second_diff(fld.values, 0, h0).mean()) / 2.0
    b_vals = (fld.values[t_idx + 1] - fld.values[t_idx - 1]) / (2.0 * h0)
    g_vals = fld.values[t_idx].copy()
    x_spacing = grid.spacing[1:]
    grad_b_sq = sum(
        ((shifted(b_vals, e) - shifted(b_vals, -e)) / (2.0 * h)) ** 2
        for e, h in zip(np.eye(grid.dim - 1, dtype=int), x_spacing)
    )
    tt = axes[0].reshape((-1,) + (1,) * (grid.dim - 1)) - axes[0][t_idx]
    model = a * tt * tt + tt * b_vals[None] + g_vals[None]
    round_trip = float(np.abs(fld.values - model).max())
    return _he_identities(
        a, axes[1:], b_vals, g_vals, laplacian(b_vals, x_spacing), laplacian(g_vals, x_spacing),
        grad_b_sq, round_trip,
    )


def he_reduction_report(source, tol=1e-8) -> dict:
    """Oscillation of u_tt, verdict, extracted (a, b, g) with identity residuals,
    and the harmonicity level of the transformed theta.

    u_tt is read once: exact on a 33-per-axis mesh of the box [-2, 2]^n for a
    candidate (and (a, b, g) on 17 nodes per transverse axis), by central
    second differences at the interior nodes for a field.  The source is of
    He's form u = a t^2 + t b + g, which needs a = u_tt / 2 > 0, when the
    oscillation of u_tt is at most ``tol`` and its minimum is positive.
    """
    field = isinstance(source, ScalarField)
    if field:
        box = [tuple(b) for b in source.grid.bounds]
        utt = second_diff(source.values, 0, source.grid.spacing[0])
    else:
        box = [(-2.0, 2.0)] * source.dim
        probe = mesh_points([np.linspace(lo, hi, 33) for lo, hi in box])
        utt = source.eval_many(probe, (2,) + (0,) * (source.dim - 1))
    osc = float(utt.max() - utt.min())
    report = {
        "source": "field" if field else "candidate",
        "probe_box": [list(b) for b in box],
        "u11_min": float(utt.min()),
        "u11_max": float(utt.max()),
        "osc_u11": osc,
        "tolerance": tol,
        "is_he_form": bool(osc <= tol and utt.min() > 0.0),
    }
    if report["is_he_form"]:
        report.update(_he_extract_field(source) if field else _he_extract_candidate(source, box))
    else:
        report.update(dict.fromkeys(["a", "lap_b_max", "poisson_residual_max", "round_trip_max_error"]))
    report["theta_harmonicity"] = None
    report["theta_note"] = None
    try:
        # a field's theta lives on its own grid, which is the box
        th = partial_legendre(source, t_span=box[0], x_spans=tuple(box[1:]))
        report["theta_harmonicity"] = harmonicity_test(th)
    except (NotMonotone, ZOutOfRange) as exc:
        report["theta_note"] = f"{type(exc).__name__}: {exc}"
    return report
