"""Damped Newton solver for the Dirichlet problem sigma2_tilde(D^2 u) = 1.

The discrete residual at an interior node is sigma2_tilde of the central
second-difference Hessian minus 1.  Because the operator is quadratic in u,
Newton's method with the exact Jacobian converges quadratically once inside
the ellipticity cone u_tt > 0; a backtracking line search on ||F||_2 keeps
iterates there.  ``assemble_jacobian`` derives it from the residual's stencil
table (``core_ops.hessian_stencil``): each Hessian entry's legs, times the
partial derivative Lap_x u, u_tt or -2 u_ti of sigma2_tilde in u_tt, u_ii or
u_ti, summed per offset into one stored diagonal (DIA storage, Saad,
*Iterative Methods for Sparse Linear Systems*, 2003, §3.4).
Boundary nodes are hard Dirichlet constraints eliminated from the linear
systems.

Each Newton correction solves J delta = -F by restarted GMRES (Saad &
Schultz, *SIAM J. Sci. Stat. Comput.* 1986), right-preconditioned with one
multigrid V-cycle M (Briggs, Henson & McCormick, *A Multigrid Tutorial*):
the Krylov space is that of J M, so the Arnoldi residual it stops on is the
residual of J delta = -F itself.  Each new basis vector is orthogonalised
against the whole basis block by CGS2, classical Gram-Schmidt run twice
(Giraud, Langou, Rozložník & van den Eshof, *Numer. Math.* 2005), which
keeps the basis orthogonal to working precision in two block passes.

The V-cycle levels are the ladder of ``_coarsen_levels``, the same one the
auto start refines along: every grid has one.  Each axis halves its node
count, m -> ceil(m/2), while that leaves at least 5 nodes, so the coarsest
level has at most 8 nodes per axis.  Coarse operators are the Galerkin
products R (J P), with R = P^T and P the tensor product of the interior
blocks of the linear interpolation tables that the auto start's spline
shares (``_linear_read_off``).  Every level above the coarsest, the fine
one included, smooths with the same Chebyshev-weighted Jacobi sweeps; the
coarsest, at most 6^d unknowns (216 in 3D), is inverted densely and applied
as a matrix-vector product.  A Newton solve builds the levels below the fine
one once, from its first Jacobian, and carries them to its later steps
(Knoll & Keyes, *J. Comput. Phys.* 2004, §3: a preconditioner kept across
Newton steps); each step refreshes only the fine level, its Jacobian and
that Jacobian's smoother weights.  Every solve must reach relative residual
1e-10 on J itself or raise LinearSolveFailure.

The auto start (``init=None``) solves one discrete Laplace problem with the
given boundary data plus one Poisson problem with unit load, then picks the
combination u_harmonic + c*w whose mean discrete operator value is 1 --
exact root of a scalar quadratic.  For quadratic boundary data this lands on
the discrete solution itself.  Both Dirichlet problems are diagonalised
exactly by the type-1 discrete sine transform (Buzbee, Golub & Nielson
1970), taken with numpy's real FFT of the odd extension, so the calibration
costs a few FFTs instead of a factorisation.
A calibrated root starts Newton only inside the true ellipticity cone,
u_tt > 0 and sigma2_tilde > 0 at every node; u_tt > 0 alone leaves the
linearisation indefinite where sigma2_tilde <= 0.  When no root qualifies
(the exponential data, say), the start is built by nested iteration
(Trottenberg, Oosterlee & Schüller, *Multigrid*, 2001, §5.3): one Newton
solve per level of the ladder below the fine one, each started from the
coarser level's solution.  The coarsest level starts from a family member
with u_tt > 0, its cone entry: u_tt of u_harmonic + c*w is affine in c at
every node, so the c with u_tt > 0 everywhere form one interval, read off in
closed form.  Each level's solution reaches the next, finer one through the
tensor-product not-a-knot cubic spline read off at the finer nodes: per
axis the linear table less the spline's moment correction (``_spline_eval``).
The coarse levels' boundary data is the fine data read off the same way.  A
level where that prolongation breaks u_tt > 0 starts from its cone entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from .core_ops import (
    Grid,
    ScalarField,
    hessian_parts,
    hessian_stencil,
    laplacian,
    mesh_points,
    second_diff,
    sigma2_interior,
)
from .errors import (
    ConfigError,
    EllipticityLost,
    LinearSolveFailure,
    MaxIterExceeded,
    NotConvex,
    SolverError,
)

__all__ = [
    "DirichletProblem",
    "SolveReport",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "rigidity_sweep",
]

_LINEAR_RELRES = 1e-10
# linear solve: GMRES(_GMRES_RESTART) with CGS2 Arnoldi for at most
# _GMRES_CYCLES cycles, each starting from the true residual, right-
# preconditioned by a V(_SMOOTHING_SWEEPS, _SMOOTHING_SWEEPS) cycle of
# Chebyshev-weighted Jacobi sweeps (``_v_cycle``).  The basis holds
# _GMRES_RESTART + 1 vectors of the fine grid's interior size.
_GMRES_RESTART = 40
_GMRES_CYCLES = 5
_SMOOTHING_SWEEPS = 2
_CHEBYSHEV_RATIO = 8
_LINE_SEARCH_HALVINGS = 30  # step halvings the Newton line search tries


@dataclass
class DirichletProblem:
    """Grid plus Dirichlet data; the right-hand side is the constant 1.

    ``boundary`` is a full-shape field of which only the boundary ring is
    ever read.
    """

    grid: Grid
    boundary: ScalarField

    def __post_init__(self):
        if self.boundary.grid != self.grid:
            raise ConfigError("boundary field must live on the problem grid")

    @classmethod
    def from_candidate(cls, grid: Grid, candidate) -> "DirichletProblem":
        return cls(grid, ScalarField.sample(grid, candidate))

    def default_tol(self) -> float:
        n_int = int(np.prod(self.grid.interior_shape))
        return 1e-10 * np.sqrt(n_int)


@dataclass
class SolveReport:
    """Outcome of a Newton run; ``solution`` is None on failure reports."""

    converged: bool
    iterations: int
    residual_norm: float
    residual_max: float
    min_u11: float
    tol: float
    residual_history: list[float] = field(default_factory=list)
    solution: ScalarField | None = None

    def to_dict(self) -> dict:
        """Every field but ``solution``; ``residual_history`` as a copy."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "solution"}
        out["residual_history"] = list(self.residual_history)
        return out


def assemble_residual(u: ScalarField) -> np.ndarray:
    """F_p = sigma2_tilde(discrete Hessian at p) - 1, flattened C-order."""
    return (sigma2_interior(u.values, u.grid.spacing) - 1.0).ravel()


def assemble_jacobian(u: ScalarField) -> sp.dia_matrix:
    """Exact Jacobian of ``assemble_residual`` at u (interior unknowns only),
    stored as one diagonal per stencil offset in column-shift order.

    Stencil legs that leave the interior box hit Dirichlet nodes and are
    dropped (their contribution belongs to the right-hand side), so each leg
    fills the box of rows it stays inside.  DIA keeps entry (r, r + s) at
    column r + s of the diagonal of shift s, so the leg's box is written
    shifted by its offset.
    """
    h = u.grid.spacing
    ndim = u.grid.dim
    shape = u.grid.interior_shape
    n = math.prod(shape)
    strides = [math.prod(shape[a + 1 :]) for a in range(ndim)]
    utt, diag, cross = hessian_parts(u.values, h)
    # d sigma2_tilde / d H_ab for every entry the operator reads
    partials = [((0, 0), sum(diag))]
    partials += [((a, a), utt) for a in range(1, ndim)]
    partials += [((0, a), -2.0 * cross[a - 1]) for a in range(1, ndim)]
    stencils = [(coeff, *hessian_stencil(ndim, a, b, h)) for (a, b), coeff in partials]
    shift = {off: int(np.dot(off, strides)) for _, legs, _ in stencils for off, _ in legs}
    offsets = sorted(set(shift.values()))
    data = np.zeros((len(offsets), n))
    for coeff, legs, divisor in stencils:
        for off, w in legs:
            src = tuple(slice(max(0, -o), m - max(0, o)) for o, m in zip(off, shape))
            tgt = tuple(slice(max(0, o), m - max(0, -o)) for o, m in zip(off, shape))
            data[offsets.index(shift[off])].reshape(shape)[tgt] += w * coeff[src] / divisor
    return sp.dia_matrix((data, offsets), shape=(n, n))


def _boundary_only(problem: DirichletProblem) -> np.ndarray:
    vals = np.zeros(problem.grid.shape)
    mask = problem.grid.boundary_mask()
    vals[mask] = problem.boundary.values[mask]
    return vals


def _interior_embed(grid: Grid, boundary_vals: np.ndarray, interior: np.ndarray) -> np.ndarray:
    full = boundary_vals.copy()
    sl = tuple(slice(1, -1) for _ in range(grid.dim))
    full[sl] = interior.reshape(grid.interior_shape)
    return full


def _min_u11(values: np.ndarray, spacing) -> float:
    return float(second_diff(values, 0, spacing[0]).min())


def _linear_read_off(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear interpolation through m equispaced nodes read off at n equispaced
    nodes of the same interval: the dense (n, m) matrix, and the position
    i (m - 1) / (n - 1) = j + theta in node units that its row i reads off at.
    n = 2m - 1 gives the exact weights 1 and 1/2, n = m the exact identity."""
    pos = np.arange(n) * (m - 1) / (n - 1)
    j = np.minimum(np.floor(pos).astype(np.intp), m - 2)
    theta = pos - j
    out = np.zeros((n, m))
    out[np.arange(n), j] = 1.0 - theta
    out[np.arange(n), j + 1] = theta
    return out, j, theta


def _prolongation_1d(fine: int, coarse: int) -> sp.csr_matrix:
    """Linear interpolation from the coarse to the fine interior nodes of one axis:
    the interior block of ``_linear_read_off``, as corrections vanish on the boundary."""
    return sp.csr_matrix(_linear_read_off(coarse, fine)[0][1:-1, 1:-1])


@lru_cache(maxsize=8)
def _prolongations(shape: tuple[int, ...]):
    """Tensor-product prolongations P up the ladder of ``_coarsen_levels``, coarse
    first, each paired with its restriction P^T in CSR form."""
    levels = _coarsen_levels(shape)
    transfers = []
    for coarse, fine in zip(levels[:-1], levels[1:]):
        P = _prolongation_1d(fine[0], coarse[0])
        for f, c in zip(fine[1:], coarse[1:]):
            P = sp.kron(P, _prolongation_1d(f, c), format="csr")
        transfers.append((P, P.T.tocsr()))
    return tuple(transfers)


def _chebyshev_weights(A: sp.spmatrix) -> list[np.ndarray]:
    """The _SMOOTHING_SWEEPS Jacobi weights w_j = 1 / (rho xi_j d) of one level.

    rho xi_j are the Chebyshev nodes of [rho / _CHEBYSHEV_RATIO, rho], so the
    k sweeps x += w_j (rhs - A x) are Chebyshev iteration on D^-1 A in product
    form (Saad, *Iterative Methods for Sparse Linear Systems*, 2003, Alg.
    12.1; Adams, Brezina, Hu & Tuminaro, *J. Comput. Phys.* 2003), rho =
    max_i sum_j |a_ij| / |a_ii| its Gershgorin bound.
    """
    k, r = _SMOOTHING_SWEEPS, _CHEBYSHEV_RATIO
    diag = A.diagonal()
    if not np.all(np.isfinite(diag)) or np.any(diag == 0.0):
        raise LinearSolveFailure("Jacobi smoother needs a finite, nonzero diagonal")
    rho = float(np.max((abs(A) @ np.ones(A.shape[0])) / np.abs(diag)))
    if not math.isfinite(rho):
        raise LinearSolveFailure("Chebyshev smoother needs a finite Gershgorin bound of D^-1 A")
    xis = [(1 + 1 / r + (1 - 1 / r) * math.cos(math.pi * (j - 0.5) / k)) / 2 for j in range(1, k + 1)]
    return [1.0 / (rho * xi * diag) for xi in xis]


def _dense_inverse(A: sp.spmatrix) -> np.ndarray:
    try:
        return np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"coarsest-level inverse failed: {exc}") from exc


def _coarse_levels(mat: sp.spmatrix, shape: tuple[int, ...]):
    """The V-cycle levels below the fine one, built from the fine operator ``mat``.

    Returns the Galerkin operators R (A P) coarse first, the Chebyshev
    weights of every level between the coarsest and the fine one, and the
    coarsest level's dense inverse.  A one-level ladder has no level below
    the fine one: its parts are empty and its inverse None.  Nothing returned
    refers to ``mat``, so a Newton solve can carry these parts from its first
    Jacobian to later steps without keeping that Jacobian alive.
    """
    ops, A = [], mat
    for P, R in reversed(_prolongations(shape)):  # from the fine level down
        A = R @ (A @ P)
        ops.insert(0, A)
    # copied once the products' temporaries (the CSR copy of ``mat`` among
    # them) are freed, so the carried levels reuse that memory instead of
    # holding the heap above it: without the copy, repeated 25^3 rigidity
    # sweeps in one process peaked 0.1-0.2 MB higher in RSS
    ops = [op.copy() for op in ops]
    weights = [_chebyshev_weights(op) for op in ops[1:]]
    return ops, weights, _dense_inverse(ops[0]) if ops else None


def _v_cycle(mat: sp.spmatrix, shape: tuple[int, ...], coarse):
    """One V-cycle for ``mat`` as a function of the residual.

    The levels below the fine one are ``coarse``, the parts that
    ``_coarse_levels`` built from ``mat`` or from an earlier operator of the
    same grid.  The fine level is always ``mat``: every level above the
    coarsest smooths with k = _SMOOTHING_SWEEPS Chebyshev-weighted Jacobi
    sweeps (``_chebyshev_weights``), pre-smoothing with j = 1..k and
    post-smoothing with k..1.  On a one-level ladder the fine level is the
    coarsest, inverted densely here, and ``coarse`` is empty.
    """
    transfers = _prolongations(shape)
    if not transfers:
        return partial(_cycle, [mat], [], transfers, _dense_inverse(mat), 0)
    fine = _chebyshev_weights(mat)
    ops, weights, coarsest = coarse
    # a module-level function, not a recursive closure: a closure that calls
    # itself is a reference cycle, and would keep the whole hierarchy (the
    # fine Jacobian included) alive until the cyclic garbage collector runs
    return partial(_cycle, [*ops, mat], [*weights, fine], transfers, coarsest, len(ops))


def _cycle(ops, weights, transfers, coarsest, level: int, rhs: np.ndarray) -> np.ndarray:
    if level == 0:
        return coarsest @ rhs
    A, w, (P, R) = ops[level], weights[level - 1], transfers[level - 1]
    x = w[0] * rhs  # first pre-smoothing sweep, from zero
    for wj in w[1:]:
        x += wj * (rhs - A @ x)
    x += P @ _cycle(ops, weights, transfers, coarsest, level - 1, R @ (rhs - A @ x))
    for wj in reversed(w):
        x += wj * (rhs - A @ x)
    return x


def _gmres(mat, rhs: np.ndarray, precond) -> tuple[np.ndarray, int, int]:
    """Right-preconditioned GMRES(_GMRES_RESTART) for ``mat x = rhs`` in at most
    _GMRES_CYCLES cycles; returns x, the Krylov iterations and the restarts.

    Each cycle runs Arnoldi on ``mat @ precond`` from the true residual and
    orthogonalises each new vector against the basis block by CGS2: two
    classical Gram-Schmidt passes, each a product with the block and one with
    its transpose.  The Hessenberg columns are reduced by Givens rotations as
    they arrive; the cycle stops once the Arnoldi residual |g_k| is at most
    _LINEAR_RELRES * ||rhs||, then adds precond(V_k y) to x.  The
    preconditioned vectors are not stored: that costs one more ``precond``
    per cycle and keeps the memory to the one basis V.  A non-finite
    residual or Hessenberg entry and a zero pivot (a singular ``mat @
    precond``) raise LinearSolveFailure at once.
    """
    m = _GMRES_RESTART
    tol = _LINEAR_RELRES * float(np.linalg.norm(rhs))
    x = np.zeros(rhs.shape[0])
    V = np.empty((m + 1, rhs.shape[0]))
    tri = np.zeros((m, m))  # the Hessenberg matrix reduced by Givens rotations
    iters = 0
    for cycle in range(_GMRES_CYCLES):
        r = rhs - mat @ x if cycle else rhs
        beta = float(np.linalg.norm(r))
        if not math.isfinite(beta):
            raise LinearSolveFailure(f"GMRES residual is non-finite after {iters} Krylov iterations")
        if beta <= tol:
            return x, iters, max(cycle - 1, 0)
        V[0] = r / beta
        rotations, g = [], [beta]
        for j in range(m):
            basis = V[: j + 1]
            w = mat @ precond(V[j])
            h = basis @ w
            w -= h @ basis
            h2 = basis @ w
            w -= h2 @ basis
            h += h2
            h_next = float(np.linalg.norm(w))
            iters += 1
            if not (math.isfinite(h_next) and np.isfinite(h).all()):
                raise LinearSolveFailure(
                    f"GMRES Hessenberg entry is non-finite at Krylov iteration {iters}"
                )
            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            pivot = math.hypot(col[j], h_next)
            if pivot == 0.0:
                raise LinearSolveFailure(
                    f"GMRES met a zero Givens pivot at Krylov iteration {iters}: "
                    "the preconditioned matrix is singular"
                )
            c, s = col[j] / pivot, h_next / pivot
            rotations.append((c, s))
            col[j] = pivot
            tri[: j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= tol:
                break
            V[j + 1] = w / h_next
        k = len(rotations)
        x += precond(np.linalg.solve(tri[:k, :k], g[:k]) @ V[:k])
    return x, iters, _GMRES_CYCLES - 1


def _solve_sparse(mat: sp.spmatrix, rhs: np.ndarray, grid: Grid, coarse) -> np.ndarray:
    """Solve ``mat x = rhs`` for the interior unknowns of ``grid`` to relative
    residual 1e-10, preconditioned by a V-cycle whose fine level is ``mat``
    and whose coarser levels are ``coarse`` (``_coarse_levels``)."""
    x, iters, restarts = _gmres(mat, rhs, _v_cycle(mat, grid.shape, coarse))
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("sparse solve produced non-finite values")
    denom = np.linalg.norm(rhs)
    if denom > 0.0:
        relres = np.linalg.norm(mat @ x - rhs) / denom
        if not relres <= _LINEAR_RELRES:  # NaN fails too
            raise LinearSolveFailure(
                f"inner linear solve reached relative residual {relres:.3e} > {_LINEAR_RELRES} "
                f"(Krylov iterations {iters}, restarts {restarts})"
            )
    return x


def _dirichlet_poisson(grid: Grid, load: np.ndarray) -> np.ndarray:
    """Interior solution of Lap_h v = load with zero Dirichlet data, by DST-I.

    The interior 5-point (7-point in 3D) Laplacian is diagonal in the sine
    basis, with eigenvalue sum_a -(4/h_a^2) sin^2(pi k_a / (2(n_a+1))),
    k_a = 1..n_a, on an axis with n_a interior nodes.
    """
    shape = grid.interior_shape
    eig = np.zeros(shape)
    for a, (n, h) in enumerate(zip(shape, grid.spacing)):
        k = np.arange(1, n + 1)
        lam = -(4.0 / h**2) * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2
        eig = eig + lam.reshape([-1 if b == a else 1 for b in range(len(shape))])
    coef = load
    for a in range(len(shape)):
        coef = _dst1(coef, a)
    coef = coef / eig
    for a in range(len(shape)):
        coef = _dst1(coef, a)
    # DST-I is its own inverse up to the factor 2 (n + 1) per axis
    return coef / math.prod(2 * (n + 1) for n in shape)


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalised DST-I along ``axis``, y_k = 2 sum_j x_j sin(pi (j+1)(k+1) / (n+1)).

    The FFT of the odd extension [0, x, 0, -x reversed] is -i y_(k-1) at k = 1..n.
    """
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * n + 2,))
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return np.moveaxis(-np.fft.rfft(ext).imag[..., 1 : n + 1], -1, axis)


def _calibrated_family(problem: DirichletProblem):
    """The one-parameter family u_c = u_harm + c * w, its calibrated roots and
    its u_tt cone.

    Lap_h(u_harm) = 0 with the problem's boundary data and Lap_h(w) = 1 with
    zero data.  The mean discrete operator value of u_c is an exact quadratic
    in c; returns u_harm, w, the real roots of (mean value - 1) and the open
    interval (lo, hi) of c with u_tt > 0 at every node.  At a node u_tt is
    alpha + c * beta (the u_tt of u_harm and w), so lo and hi are the extreme
    -alpha/beta over beta > 0 and beta < 0; beta = 0 with alpha <= 0 empties it.
    """
    grid = problem.grid
    h = grid.spacing
    bvals = _boundary_only(problem)
    w_int = _dirichlet_poisson(grid, np.ones(grid.interior_shape))
    w = _interior_embed(grid, np.zeros(grid.shape), w_int)

    def mean_residual(c: float) -> float:
        return float(np.mean(sigma2_interior(harm + c * w, h)) - 1.0)

    # huge data overflows from the Laplacian on; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        harm = _interior_embed(grid, bvals, _dirichlet_poisson(grid, -laplacian(bvals, h)))
        f0, fp, fm = mean_residual(0.0), mean_residual(1.0), mean_residual(-1.0)
        a2 = 0.5 * (fp + fm - 2.0 * f0)  # exact: the operator is quadratic in u
        a1 = 0.5 * (fp - fm)
    if not np.all(np.isfinite([a2, a1, f0])):
        raise ConfigError(
            "boundary data too large: the discrete operator overflows in the auto start"
        )
    roots = [r.real for r in np.roots([a2, a1, f0]) if abs(r.imag) <= 1e-9 * (1 + abs(r.real))]
    if not roots:
        roots = [-a1 / (2.0 * a2)] if a2 != 0.0 else [0.0]
    alpha, beta = second_diff(harm, 0, h[0]), second_diff(w, 0, h[0])
    lo = float((-alpha[beta > 0.0] / beta[beta > 0.0]).max(initial=-np.inf))
    hi = float((-alpha[beta < 0.0] / beta[beta < 0.0]).min(initial=np.inf))
    if np.any((beta == 0.0) & (alpha <= 0.0)):
        lo, hi = np.inf, -np.inf
    return harm, w, roots, (lo, hi)


def _calibrated_start(grid: Grid, family) -> ScalarField | None:
    """The calibrated root whose field lies in the ellipticity cone, u_tt > 0
    and sigma2_tilde > 0 at every node, with the largest u_tt margin; None if
    no root does.  The linearisation's symbol [[Lap_x u, -b^T], [-b, u_tt I]]
    is positive definite exactly there (``core_ops.sigma2_linearization``)."""
    harm, w, roots, _ = family
    h = grid.spacing
    fields = [harm + c * w for c in roots]
    inside = [u for u in fields if _min_u11(u, h) > 0.0 and sigma2_interior(u, h).min() > 0.0]
    return ScalarField(grid, max(inside, key=lambda u: _min_u11(u, h))) if inside else None


def _cone_entry(grid: Grid, family) -> ScalarField:
    """The family member that starts Newton on a ladder level with no usable
    coarser solution, with u_tt > 0 but perhaps not sigma2_tilde > 0: the
    root inside the u_tt cone with the largest margin, else the cone endpoint
    nearest a root moved inward by 1e-3 (1 + |endpoint|) or half the cone,
    whichever is less."""
    harm, w, roots, (lo, hi) = family
    if not lo < hi:
        raise EllipticityLost("auto initialization cannot reach u_tt > 0 for this data")
    inside = [c for c in roots if lo < c < hi]
    if inside:
        c = max(inside, key=lambda c: _min_u11(harm + c * w, grid.spacing))
    else:
        e = min((e for e in (lo, hi) if math.isfinite(e)), key=lambda e: min(abs(e - r) for r in roots))
        step = min(1e-3 * (1.0 + abs(e)), 0.5 * (hi - lo))
        c = e + step if e == lo else e - step
    return ScalarField(grid, harm + c * w)


def _coarsen_levels(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shape ladder from coarse to fine.  Each axis goes from m to ceil(m/2)
    nodes while that leaves at least 5, on its own; the ladder ends when no
    axis can coarsen, so the coarsest level has at most 8 nodes per axis."""
    shapes = [tuple(shape)]
    while True:
        coarser = tuple((m + 1) // 2 if (m + 1) // 2 >= 5 else m for m in shapes[0])
        if coarser == shapes[0]:
            return shapes
        shapes.insert(0, coarser)


@lru_cache(maxsize=16)
def _spline_eval(m: int, n: int) -> np.ndarray:
    """Not-a-knot cubic spline through m equispaced nodes, read off at n
    equispaced nodes of the same interval, as a dense read-only (n, m) matrix:
    the linear read-off of ``_linear_read_off`` minus a moment correction,
    which vanishes where theta is 0 or 1, so n = m gives exactly the identity.

    In unit spacing the moments M_j = s''(x_j) solve M_{j-1} + 4 M_j + M_{j+1}
    = 6 (y_{j-1} - 2 y_j + y_{j+1}) at the inner nodes, and not-a-knot asks
    for a continuous third derivative at x_1 and x_{m-2}: M_0 - 2 M_1 + M_2 = 0
    and its mirror image.  At x = j + theta the spline is
    (1 - theta) y_j + theta y_{j+1} - theta (1 - theta) [(2 - theta) M_j + (1 + theta) M_{j+1}] / 6.
    The spacing cancels, so one matrix serves every axis with these counts.
    """
    inner = np.arange(1, m - 1)
    lhs = np.zeros((m, m))
    rhs = np.zeros((m, m))
    for off, a, b in ((-1, 1.0, 6.0), (0, 4.0, -12.0), (1, 1.0, 6.0)):
        lhs[inner, inner + off] = a
        rhs[inner, inner + off] = b
    lhs[0, :3] = lhs[-1, -3:] = (1.0, -2.0, 1.0)
    moments = np.linalg.solve(lhs, rhs)  # M = moments @ y
    out, j, theta = _linear_read_off(m, n)
    theta = theta[:, None]
    out -= theta * (1.0 - theta) * ((2.0 - theta) * moments[j] + (1.0 + theta) * moments[j + 1]) / 6.0
    out.flags.writeable = False
    return out


def _resample(vals: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The tensor-product not-a-knot spline through the node values ``vals``
    read off at ``shape`` equispaced nodes of the same box.  The end nodes of
    every axis are read off exactly, so each face of the result is the spline
    within the same face of ``vals``.

    Cubic, not linear: the second differences of a piecewise-linear
    interpolant vanish at inserted nodes, which would break the auto start's
    u_tt > 0 guard.
    """
    for axis, (m, n) in enumerate(zip(vals.shape, shape)):
        vals = np.moveaxis(np.tensordot(_spline_eval(m, n), vals, axes=(1, axis)), 0, axis)
    return np.ascontiguousarray(vals)


def _auto_init(problem: DirichletProblem) -> ScalarField:
    """Starting field for Newton: the calibrated Laplace field if it lies in
    the ellipticity cone, else nested iteration up the ladder.  Each level
    below the fine one gets one Newton solve, started from the prolonged
    coarser solution if that keeps u_tt > 0, else from the level's cone
    entry (always so on the coarsest level).  The fine level takes the
    prolonged field as it is, or solves from its cone entry if the seam broke
    there.  A coarse level's boundary data is the fine data read off at its
    nodes by the spline within each face: exact subsampling on nested axes."""
    grid = problem.grid
    family = _calibrated_family(problem)
    start = _calibrated_start(grid, family)
    if start is not None:
        return start
    fine_b = _boundary_only(problem)
    u = None
    for shape in _coarsen_levels(grid.shape):
        g = Grid(grid.bounds, shape)
        if shape == grid.shape:
            level = problem
        else:
            level = DirichletProblem(g, ScalarField(g, _resample(fine_b, shape)))
        if u is not None:
            vals = _resample(u.values, shape)
            mask = g.boundary_mask()
            vals[mask] = level.boundary.values[mask]
        if u is None or _min_u11(vals, g.spacing) <= 0.0:
            # the coarsest level, or a prolongation seam that broke the cone
            start = _cone_entry(g, family if shape == grid.shape else _calibrated_family(level))
        elif shape == grid.shape:
            return ScalarField(g, vals)
        else:
            start = ScalarField(g, vals)
        u = newton_solve(level, init=start, max_iter=80).solution
    return u


def newton_solve(
    problem: DirichletProblem,
    init: ScalarField | None = None,
    tol: float | None = None,
    max_iter: int = 50,
) -> SolveReport:
    """Damped Newton iteration from ``init``, or from the auto start when it
    is None; see the module docstring for the scheme.

    Raises MaxIterExceeded / EllipticityLost / LinearSolveFailure on failure
    (each carries the partial report where meaningful).
    """
    grid = problem.grid
    h = grid.spacing
    if tol is None:
        tol = problem.default_tol()
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"Newton tolerance must be finite and positive, got {tol}")
    if max_iter < 0:
        raise ConfigError(f"iteration limit must be >= 0, got max_iter={max_iter}")
    if init is None:
        u = _auto_init(problem).values
    else:
        if init.grid != grid:
            raise ConfigError("init field must live on the problem grid")
        u = init.values.copy()
        mask = grid.boundary_mask()
        u[mask] = problem.boundary.values[mask]

    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    res = (sigma2_interior(u, h) - 1.0).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(res))
    if not np.isfinite(norm):
        raise ConfigError("boundary data too large: the residual norm of the first iterate overflows")
    history = [norm]

    def report(converged: bool, iters: int, with_solution: bool) -> SolveReport:
        return SolveReport(
            converged=converged,
            iterations=iters,
            residual_norm=norm,
            residual_max=float(np.abs(res).max()),
            min_u11=_min_u11(u, h),
            tol=tol,
            residual_history=history.copy(),
            solution=ScalarField(grid, u.copy()) if with_solution else None,
        )

    min_u11 = _min_u11(u, h)
    if min_u11 <= 0.0:
        raise EllipticityLost(f"initial iterate has min u_tt = {min_u11:.6g} <= 0", report(False, 0, False))
    iters = 0
    coarse = None  # the V-cycle's levels below the fine one, from the first Jacobian
    while norm > tol:
        if iters >= max_iter:
            raise MaxIterExceeded(
                f"no convergence after {max_iter} Newton iterations "
                f"(residual norm {norm:.3e}, tol {tol:.3e})",
                report(False, iters, False),
            )
        jac = assemble_jacobian(ScalarField(grid, u))
        if coarse is None:
            coarse = _coarse_levels(jac, grid.shape)
        delta = _solve_sparse(jac, -res, grid, coarse)
        step = np.zeros_like(u)
        accepted = False
        saw_elliptic_trial = False
        alpha = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS + 1):
            step[interior] = (alpha * delta).reshape(grid.interior_shape)
            trial = u + step
            if _min_u11(trial, h) > 0.0:
                saw_elliptic_trial = True
                trial_res = (sigma2_interior(trial, h) - 1.0).ravel()
                trial_norm = float(np.linalg.norm(trial_res))
                if trial_norm < norm:
                    u, res, norm = trial, trial_res, trial_norm
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            if not saw_elliptic_trial:
                raise EllipticityLost(
                    f"no damped step at iteration {iters} keeps u_tt > 0",
                    report(False, iters, False),
                )
            raise MaxIterExceeded(
                f"line search exhausted {_LINE_SEARCH_HALVINGS} halvings at iteration {iters}",
                report(False, iters, False),
            )
        iters += 1
        history.append(norm)
    return report(True, iters, True)


_BUMP_CENTER = (1.0, 0.35, -0.2)
_BUMP_WIDTH = 0.35


def _bump(points: np.ndarray, box_size: float, dim: int) -> np.ndarray:
    xi = points / box_size
    center = np.array(_BUMP_CENTER[:dim])
    return np.exp(-np.sum(((xi - center) / _BUMP_WIDTH) ** 2, axis=1))


def rigidity_sweep(
    base,
    eps: float = 0.1,
    sizes=(1.0, 2.0, 4.0),
    h: float = 0.125,
    tol: float | None = None,
) -> list[dict]:
    """Solve on growing boxes [-L, L]^n with perturbed convex boundary data.

    ``h`` is the spacing relative to the box size (the grid step is h*L, so
    resolution is fixed across the sweep).  The boundary data is
    base(x) + eps * bump(x/L) with a fixed off-axis Gaussian bump in scaled
    coordinates.  Each row records the discrete u_tt oscillation over the
    inner half-box |x_k| <= L/2 and max |u_t| along the t-axis; solver
    failures mark the row instead of aborting the sweep.
    """
    sizes = [float(L) for L in sizes]
    if not all(0.0 < L < math.inf for L in sizes) or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"box sizes must be finite, positive and strictly increasing, got {sizes}")
    if not math.isfinite(eps):
        raise ConfigError(f"bump amplitude eps must be finite, got {eps}")
    if not (np.isfinite(h) and h > 0.0):
        raise ConfigError(f"relative spacing h must be finite and positive, got {h}")
    m = int(round(2.0 / h)) + 1
    if m < 5:
        raise ConfigError(f"relative spacing h={h} gives only {m} nodes per axis (need >= 5)")
    dim = base.dim
    lmax = max(sizes)
    probe = mesh_points([np.linspace(-lmax, lmax, 5)] * dim)
    eigs = np.linalg.eigvalsh(base.hessian_many(probe))
    if eigs.min() < -1e-9:
        raise NotConvex(
            f"base candidate has Hessian eigenvalue {eigs.min():.3e} < 0 on the sweep box"
        )

    rows = []
    for L in sizes:
        grid = Grid(tuple((-L, L) for _ in range(dim)), (m,) * dim)
        pts = grid.points()
        vals = base.eval_many(pts) + eps * _bump(pts, L, dim)
        problem = DirichletProblem(grid, ScalarField(grid, vals.reshape(grid.shape)))
        row = {
            "L": L,
            "h": grid.spacing[0],
            "nodes_per_axis": m,
            "converged": False,
            "iterations": None,
            "residual_norm": None,
            "osc_u11_inner": None,
            "max_u1_axis": None,
            "error": None,
        }
        try:
            rep = newton_solve(problem, tol=tol)
        except SolverError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        u = rep.solution.values
        utt = second_diff(u, 0, grid.spacing[0])
        axes = grid.axes()
        masks = [np.abs(ax[1:-1]) <= L / 2 + 1e-12 for ax in axes]
        inner = utt[np.ix_(*masks)]
        center_idx = [int(np.argmin(np.abs(ax))) for ax in axes[1:]]
        line = u[(slice(None), *center_idx)]
        u1 = (line[2:] - line[:-2]) / (2.0 * grid.spacing[0])
        row.update(
            converged=True,
            iterations=rep.iterations,
            residual_norm=rep.residual_norm,
            osc_u11_inner=float(inner.max() - inner.min()),
            max_u1_axis=float(np.abs(u1).max()),
        )
        rows.append(row)
    return rows
