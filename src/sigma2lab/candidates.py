"""Exact candidate solutions of u_tt * Lap_x(u) - |grad_x u_t|^2 = 1.

Three closed families are provided, all with exact derivative evaluation up
to total order 4 and a compensated residual path that reports
sigma2_tilde(D^2 u) - 1 at the 1e-16 level even where e^|t| amplification
would wreck a naive evaluation:

* ``Quadratic``    u = x^T A x / 2 + b.x + c with the solution constraint
                   sigma2_tilde(A) = 1 enforced at construction;
* ``Counterexample``  u = (x^2 + y^2) e^t + kappa e^{-t} on R^3, an entire
                   solution exactly when kappa = 1/4 (its u_tt is wildly
                   non-constant, so it is not of separated type);
* ``HeForm``       u = a t^2 + t b(x) + g(x) with b harmonic and
                   2a * Lap(g) = 1 + |grad b|^2, the general shape of any
                   solution whose u_tt is a (positive) constant.

``make_he_form`` solves the Poisson constraint for g in closed form.  The
pointwise readers are batched only: ``eval_many``, ``hessian_many`` and
``residual_many`` take an (N, dim) array of points and return row n for
point n.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import _ddouble as dd
from .core_ops import sigma2_tilde
from .errors import ConfigError, DegreeTooHigh, UnsupportedOrder

__all__ = [
    "Poly",
    "HarmonicPoly",
    "CandidateSolution",
    "Quadratic",
    "Counterexample",
    "HeForm",
    "make_he_form",
    "candidate_to_json",
    "candidate_from_json",
    "candidate_from_dict",
]

_MAX_ORDER = 4
# points per block of the compensated residual: its few dozen temporaries of
# this length stay in cache, and memory does not grow with the point count
_RESIDUAL_BLOCK = 8192


# ---------------------------------------------------------------------------
# polynomials in the transverse variables
# ---------------------------------------------------------------------------


class Poly:
    """Polynomial in ``nvars`` variables as a {exponent tuple: coefficient} map."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict[tuple[int, ...], float] | None = None):
        if nvars < 1:
            raise ConfigError("a polynomial needs at least one variable")
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], float] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ConfigError(f"bad exponent tuple {expo} for {nvars} variables")
            c = float(c)
            if not math.isfinite(c):
                raise ConfigError(f"polynomial coefficient of {expo} must be finite, got {c}")
            if c != 0.0:
                clean[expo] = clean.get(expo, 0.0) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0.0}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: float) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, expo: tuple[int, ...], c: float = 1.0) -> "Poly":
        return cls(nvars, {tuple(expo): c})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        self._check_peer(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_peer(other)
            out: dict[tuple[int, ...], float] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return Poly(self.nvars, out)
        return Poly(self.nvars, {e: c * float(other) for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def _check_peer(self, other: "Poly") -> None:
        if other.nvars != self.nvars:
            raise ConfigError("polynomials have different variable counts")

    # -- calculus ----------------------------------------------------------
    def deriv(self, var: int) -> "Poly":
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            if e[var] > 0:
                ne = list(e)
                ne[var] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0.0) + c * e[var]
        return Poly(self.nvars, out)

    def laplacian(self) -> "Poly":
        out = Poly.zero(self.nvars)
        for var in range(self.nvars):
            out = out + self.deriv(var).deriv(var)
        return out

    def grad_sq(self) -> "Poly":
        out = Poly.zero(self.nvars)
        for var in range(self.nvars):
            d = self.deriv(var)
            out = out + d * d
        return out

    # -- queries -----------------------------------------------------------
    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_harmonic(self) -> bool:
        """Every Laplacian coefficient is at most 1e-12 of the largest coefficient (or of 1)."""
        return self.laplacian().max_abs_coeff() <= 1e-12 * max(1.0, self.max_abs_coeff())

    # -- evaluation --------------------------------------------------------
    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise ConfigError(f"expected points of shape (N, {self.nvars})")
        out = np.zeros(X.shape[0])
        for e, c in self.coeffs.items():
            term = np.full(X.shape[0], c)
            for var, k in enumerate(e):
                if k:
                    term = term * X[:, var] ** k
            out += term
        return out

    def _eval_dd(self, table):
        """The compensated sum of c * monomial over the terms, in coefficient
        order, with the monomials read from a ``_monomial_table``."""
        ones = table[(0,) * self.nvars][0][0]
        acc = (np.zeros_like(ones), np.zeros_like(ones))
        for e, c in self.coeffs.items():
            term, s = table[e]
            acc = dd.dd_add(acc, dd.dd_mul_d(term, c, s))
        return acc

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, float]:
        return {",".join(str(v) for v in e): c for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_dict(cls, nvars: int, data: dict[str, float]) -> "Poly":
        """The polynomial of a {"i,j": coefficient} map; a malformed entry is a ConfigError."""
        if not isinstance(data, dict):
            raise ConfigError(f'polynomial coefficients must be a {{"i,j": value}} map, got {data!r}')
        coeffs = {}
        for key, c in data.items():
            try:
                coeffs[tuple(int(v) for v in key.split(","))] = float(c)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad polynomial coefficient entry {key!r}: {c!r}") from exc
        return cls(nvars, coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.coeffs!r})"


def _monomial_table(X: np.ndarray, exponents) -> dict:
    """{exponent tuple: (double-double monomial at the rows of X, split of its
    high part)} for every tuple of ``exponents`` and the constant 1.

    A monomial is 1 times each variable's power in variable order, the power
    x^k being x^(k-1) times x, all in double-double.  Its product over the
    leading variables is the monomial with the later exponents zeroed, so
    every distinct monomial and power is made and split once.
    """
    n, nvars = X.shape
    one = (np.ones(n), np.zeros(n))
    table = {(0,) * nvars: (one, dd.split(one[0]))}
    powers: dict[int, list] = {}  # powers[v][k - 1]: (x_v^k, split of its high part)
    for e in exponents:
        head = table[(0,) * nvars]
        for var, k in enumerate(e):
            if not k:
                continue
            key = e[:var + 1] + (0,) * (nvars - 1 - var)
            if key not in table:
                pw = powers.setdefault(var, [])
                if not pw:
                    x = X[:, var]
                    pw.append(((x, np.zeros_like(x)), dd.split(x)))
                while len(pw) < k:
                    (prev, s_prev), ((x, _), s_x) = pw[-1], pw[0]
                    p = dd.dd_mul_d(prev, x, s_prev, s_x)
                    pw.append((p, dd.split(p[0])))
                term = dd.dd_mul(head[0], pw[k - 1][0], head[1], pw[k - 1][1])
                table[key] = (term, dd.split(term[0]))
            head = table[key]
    return table


class HarmonicPoly(Poly):
    """A :class:`Poly` whose Laplacian vanishes identically (checked)."""

    def __init__(self, nvars: int, coeffs: dict[tuple[int, ...], float] | None = None):
        super().__init__(nvars, coeffs)
        if self.degree > _MAX_ORDER:
            raise DegreeTooHigh(f"degree {self.degree} exceeds the supported bound {_MAX_ORDER}")
        if not self.is_harmonic():
            raise ConfigError("polynomial is not harmonic")


# ---------------------------------------------------------------------------
# candidate families
# ---------------------------------------------------------------------------


def _check_index(index, dim: int) -> tuple[int, ...]:
    index = tuple(int(k) for k in index)
    if len(index) != dim:
        raise ConfigError(f"derivative index {index} has wrong length for dimension {dim}")
    if any(k < 0 for k in index):
        raise ConfigError(f"derivative index {index} has negative entries")
    if sum(index) > _MAX_ORDER:
        raise UnsupportedOrder(f"total derivative order {sum(index)} exceeds {_MAX_ORDER}")
    return index


def _check_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigError(f"expected points of shape (N, {dim}), got {pts.shape}")
    return pts


def _first_nonfinite(values: np.ndarray, pts: np.ndarray) -> str:
    """The first point whose value left the double range, as "(x0, x1, ...)"."""
    return "(" + ", ".join(repr(float(v)) for v in pts[int(np.argmin(np.isfinite(values)))]) + ")"


def _sigma2_parts_dd(utt, diag, cross):
    """sigma2_tilde from double-double Hessian parts (utt, [u_ii], [u_ti])."""
    trace = diag[0]
    for d in diag[1:]:
        trace = dd.dd_add(trace, d)
    out = dd.dd_mul(utt, trace)
    for c in cross:
        out = dd.dd_sub(out, dd.dd_sq(c))
    return out


class CandidateSolution:
    """Shared interface of the exact candidate families."""

    variant: str = "abstract"
    dim: int

    # subclasses implement _eval_many(points, index) and _residual_parts_dd(points)

    def eval_many(self, points, index=None) -> np.ndarray:
        if index is None:
            index = (0,) * self.dim
        index = _check_index(index, self.dim)
        pts = _check_points(points, self.dim)
        return self._eval_many(pts, index)

    def _t_line_reader(self, x_rows: np.ndarray):
        """For transverse rows x_k, the function of an array t that returns
        (u_t, u_tt) at the points (t_k, x_k): here two ``eval_many`` calls; a
        family may override it to reuse the factors that do not depend on t."""
        pts = np.empty((x_rows.shape[0], self.dim))
        pts[:, 1:] = x_rows
        d1 = (1,) + (0,) * (self.dim - 1)
        d2 = (2,) + d1[1:]

        def read(t: np.ndarray):
            pts[:, 0] = t
            return self.eval_many(pts, d1), self.eval_many(pts, d2)

        return read

    def hessian_many(self, points) -> np.ndarray:
        pts = _check_points(points, self.dim)
        n = self.dim
        out = np.empty((pts.shape[0], n, n))
        for i in range(n):
            for j in range(i, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                vals = self._eval_many(pts, tuple(e))
                out[:, i, j] = vals
                out[:, j, i] = vals
        return out

    def residual_many(self, points) -> np.ndarray:
        """sigma2_tilde(D^2 u) - 1, evaluated in compensated arithmetic.

        The double-double temporaries are built for ``_RESIDUAL_BLOCK`` points
        at a time; points do not interact, so the result is the same for any
        block size.
        """
        pts = _check_points(points, self.dim)
        out = np.empty(pts.shape[0])
        # a term past the split's range turns the pair into NaN, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, pts.shape[0], _RESIDUAL_BLOCK):
                block = slice(start, start + _RESIDUAL_BLOCK)
                sigma = _sigma2_parts_dd(*self._residual_parts_dd(pts[block]))
                out[block] = dd.dd_to_float(dd.dd_add_d(sigma, -1.0))
        if not np.isfinite(out).all():
            raise ConfigError(
                f"the compensated residual of {self!r} leaves the double range at the point "
                f"{_first_nonfinite(out, pts)}: its double-double terms must stay below {dd.SPLIT_MAX:.3g}"
            )
        return out

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()!r})"


class Quadratic(CandidateSolution):
    """u = x^T A x / 2 + b.x + c with sigma2_tilde(A) = 1 (A is the Hessian)."""

    variant = "quadratic"

    def __init__(self, A, b=None, c: float = 0.0):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] not in (2, 3):
            raise ConfigError(f"Hessian must be 2x2 or 3x3, got shape {A.shape}")
        if not np.allclose(A, A.T, atol=1e-12, rtol=0.0):
            raise ConfigError("Hessian must be symmetric")
        self.dim = A.shape[0]
        self.A = 0.5 * (A + A.T)
        self.b = np.zeros(self.dim) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (self.dim,):
            raise ConfigError(f"linear part must have shape ({self.dim},)")
        if not np.all(np.isfinite(self.b)):
            raise ConfigError(f"linear part b must be finite, got {self.b.tolist()}")
        self.c = float(c)
        if not math.isfinite(self.c):
            raise ConfigError(f"constant term c must be finite, got {self.c}")
        with np.errstate(over="ignore", invalid="ignore"):
            s = sigma2_tilde(self.A)
        if not abs(s - 1.0) <= 1e-10:  # NaN fails too
            raise ConfigError(
                f"sigma2_tilde(A) = {s!r} but a quadratic solution requires the value 1"
            )

    @classmethod
    def standard(cls, dim: int = 3) -> "Quadratic":
        """The rotationally symmetric solution t^2/2 + |x|^2/(2(n-1))."""
        if dim not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        diag = [1.0] + [1.0 / (dim - 1)] * (dim - 1)
        return cls(np.diag(diag))

    def _eval_many(self, pts: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
        order = sum(index)
        if order == 0:
            return 0.5 * np.einsum("ni,ij,nj->n", pts, self.A, pts) + pts @ self.b + self.c
        if order == 1:
            i = index.index(1)
            return pts @ self.A[i] + self.b[i]
        if order == 2:
            pair = [v for v, k in enumerate(index) for _ in range(k)]
            return np.full(pts.shape[0], self.A[pair[0], pair[1]])
        return np.zeros(pts.shape[0])

    def _residual_parts_dd(self, pts: np.ndarray):
        n_pts = pts.shape[0]

        def const(v):
            return (np.full(n_pts, v), np.zeros(n_pts))

        utt = const(self.A[0, 0])
        diag = [const(self.A[i, i]) for i in range(1, self.dim)]
        cross = [const(self.A[0, i]) for i in range(1, self.dim)]
        return utt, diag, cross

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "c": self.c,
        }


class Counterexample(CandidateSolution):
    """u = (x^2 + y^2) e^t + kappa e^{-t} on R^3.

    sigma2_tilde(D^2 u) = 4 kappa e^t e^{-t} identically, so this is an
    entire solution exactly when kappa = 1/4 -- convex nowhere near that,
    with u_tt unbounded in every direction of the (t, x, y) slab.
    """

    variant = "counterexample"
    dim = 3

    def __init__(self, kappa: float = 0.25):
        kappa = float(kappa)
        if not (kappa > 0.0 and np.isfinite(kappa)):
            raise ConfigError(f"kappa must be positive and finite, got {kappa}")
        self.kappa = kappa

    @staticmethod
    def _transverse_factor(p: int, q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # d^p/dx^p d^q/dy^q of (x^2 + y^2)
        if (p, q) == (0, 0):
            return x**2 + y**2
        if (p, q) == (1, 0):
            return 2.0 * x
        if (p, q) == (0, 1):
            return 2.0 * y
        if (p, q) in ((2, 0), (0, 2)):
            return np.full_like(x, 2.0)
        return np.zeros_like(x)

    def _eval_many(self, pts: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
        k, p, q = index
        t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._transverse_factor(p, q, x, y) * np.exp(t)
            if p == 0 and q == 0:
                out = out + ((-1.0) ** k) * self.kappa * np.exp(-t)
        self._check_finite(out, pts)
        return out

    def _check_finite(self, out: np.ndarray, pts: np.ndarray) -> None:
        if not np.isfinite(out).all():
            raise ConfigError(
                f"the counterexample with kappa = {self.kappa!r} leaves the double range at the point "
                f"{_first_nonfinite(out, pts)}: e^t, kappa e^-t and their products must stay finite"
            )

    def _t_line_reader(self, x_rows: np.ndarray):
        """u_t = r2 e^t - kappa e^-t and u_tt = r2 e^t + kappa e^-t with
        r2 = x^2 + y^2 made once, each digit as ``eval_many`` gives it."""
        r2 = self._transverse_factor(0, 0, x_rows[:, 0], x_rows[:, 1])

        def read(t: np.ndarray):
            with np.errstate(over="ignore", invalid="ignore"):
                grow = r2 * np.exp(t)
                decay = self.kappa * np.exp(-t)
                u_t, u_tt = grow - decay, grow + decay
            if not (np.isfinite(u_t).all() and np.isfinite(u_tt).all()):
                pts = np.column_stack([t, x_rows])
                self._check_finite(u_t, pts)
                self._check_finite(u_tt, pts)
            return u_t, u_tt

        return read

    def _residual_parts_dd(self, pts: np.ndarray):
        t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
        ep = np.exp(t)
        em = np.exp(-t)
        sx, sy, s_ep = dd.split(x), dd.split(y), dd.split(ep)
        r2 = dd.dd_add(dd.two_prod(x, x, sx, sx), dd.two_prod(y, y, sy, sy))
        utt = dd.dd_add(dd.dd_mul_d(r2, ep, None, s_ep), dd.two_prod(self.kappa, em))
        two_ep = (2.0 * ep, np.zeros_like(ep))
        diag = [two_ep, two_ep]
        cross = [dd.two_prod(2.0 * x, ep, None, s_ep), dd.two_prod(2.0 * y, ep, None, s_ep)]
        return utt, diag, cross

    def to_dict(self) -> dict:
        return {"variant": self.variant, "kappa": self.kappa}


def _check_t2_coefficient(a) -> float:
    """The t^2 coefficient a as a float; u_tt = 2a must be positive and finite."""
    a = float(a)
    if not (a > 0.0 and math.isfinite(2.0 * a)):
        raise ConfigError(f"the t^2 coefficient a must be positive with 2a finite, got {a}")
    return a


class HeForm(CandidateSolution):
    """u = a t^2 + t b(x) + g(x) with b harmonic and 2a Lap(g) = 1 + |grad b|^2.

    This is exactly the family of solutions with constant u_tt (= 2a > 0).
    The Poisson constraint on g is verified coefficient-wise at construction.
    """

    variant = "he_form"

    def __init__(self, a: float, b: Poly, g: Poly):
        a = _check_t2_coefficient(a)
        if b.nvars != g.nvars or b.nvars not in (1, 2):
            raise ConfigError("b and g must share 1 or 2 transverse variables")
        if not b.is_harmonic():
            raise ConfigError("b must be harmonic")
        if b.degree > _MAX_ORDER or g.degree > _MAX_ORDER:
            raise DegreeTooHigh(f"polynomial degree exceeds the supported bound {_MAX_ORDER}")
        rhs = (1.0 / (2.0 * a)) * (Poly.constant(b.nvars, 1.0) + b.grad_sq())
        defect = g.laplacian() - rhs
        scale = max(1.0, rhs.max_abs_coeff(), g.max_abs_coeff())
        if defect.max_abs_coeff() > 1e-10 * scale:
            raise ConfigError(
                "g does not satisfy 2a Lap(g) = 1 + |grad b|^2 "
                f"(coefficient defect {defect.max_abs_coeff():.3e})"
            )
        self.a = a
        self.b = b
        self.g = g
        self.dim = 1 + b.nvars
        self._partials: dict[tuple[int, ...], tuple[Poly, Poly]] = {(0,) * b.nvars: (b, g)}

    def _partial(self, alpha: tuple[int, ...]) -> tuple[Poly, Poly]:
        """b and g differentiated by the transverse multi-index alpha.  Each
        derivative is made once per candidate, from the cached one below it,
        differentiating variable 0 first: alpha's last variable is the last
        differentiated."""
        if alpha not in self._partials:
            var = max(v for v, k in enumerate(alpha) if k)
            lower = alpha[:var] + (alpha[var] - 1,) + alpha[var + 1:]
            self._partials[alpha] = tuple(p.deriv(var) for p in self._partial(lower))
        return self._partials[alpha]

    def _eval_many(self, pts: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
        k, alpha = index[0], index[1:]
        t, X = pts[:, 0], pts[:, 1:]
        pure = all(v == 0 for v in alpha)
        if k == 0:
            b_alpha, g_alpha = self._partial(alpha)
            out = t * b_alpha.eval_many(X) + g_alpha.eval_many(X)
            if pure:
                out = out + self.a * t**2
            return out
        if k == 1:
            out = self._partial(alpha)[0].eval_many(X)
            if pure:
                out = out + 2.0 * self.a * t
            return out
        if k == 2 and pure:
            return np.full(pts.shape[0], 2.0 * self.a)
        return np.zeros(pts.shape[0])

    def _residual_parts_dd(self, pts: np.ndarray):
        t, X = pts[:, 0], pts[:, 1:]
        n_pts = pts.shape[0]
        units = [tuple(int(v == i) for v in range(self.dim - 1)) for i in range(self.dim - 1)]
        b_d1 = [self._partial(e)[0] for e in units]
        b_d2, g_d2 = zip(*(self._partial(tuple(2 * k for k in e)) for e in units))
        table = _monomial_table(X, {e for p in (*b_d1, *b_d2, *g_d2) for e in p.coeffs})
        utt = (np.full(n_pts, 2.0 * self.a), np.zeros(n_pts))
        t_dd, s_t = (t, np.zeros_like(t)), dd.split(t)
        diag = [
            dd.dd_add(dd.dd_mul(b2._eval_dd(table), t_dd, None, s_t), g2._eval_dd(table))
            for b2, g2 in zip(b_d2, g_d2)
        ]
        cross = [b1._eval_dd(table) for b1 in b_d1]
        return utt, diag, cross

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "a": self.a,
            "nvars": self.b.nvars,
            "b": self.b.to_dict(),
            "g": self.g.to_dict(),
        }


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_he_form(a: float, b: Poly) -> HeForm:
    """Build the separated solution with harmonic b: solves 2a Lap(g) = 1 + |grad b|^2.

    The right-hand side must be a polynomial of degree at most 2 (so b of
    degree at most 2); a particular radial-flavoured g is returned:

        constant  c        ->  c rho^2 / (2 nu)
        linear    x_i      ->  x_i rho^2 / (2 nu + 4)
        harmonic quadratic ->  P2 rho^2 / (2 nu + 8)
        rho^2              ->  rho^4 / (4 nu + 8)

    with rho^2 = |x|^2 and nu the number of transverse variables.
    """
    a = _check_t2_coefficient(a)
    if not b.is_harmonic():
        raise ConfigError("b must be harmonic")
    rhs = (1.0 / (2.0 * a)) * (Poly.constant(b.nvars, 1.0) + b.grad_sq())
    if rhs.degree > 2:
        raise DegreeTooHigh(
            f"1 + |grad b|^2 has degree {rhs.degree}; the closed-form solve needs degree <= 2"
        )
    nu = b.nvars
    rho2 = Poly.zero(nu)
    for i in range(nu):
        e = [0] * nu
        e[i] = 2
        rho2 = rho2 + Poly.monomial(nu, tuple(e))

    c0 = rhs.coeffs.get((0,) * nu, 0.0)
    g = (c0 / (2.0 * nu)) * rho2
    quad = Poly.zero(nu)
    trace = 0.0
    for expo, coeff in rhs.coeffs.items():
        deg = sum(expo)
        if deg == 0:
            continue
        if deg == 1:
            i = expo.index(1)
            g = g + (coeff / (2.0 * nu + 4.0)) * (Poly.monomial(nu, expo) * rho2)
        else:  # deg == 2
            quad = quad + Poly.monomial(nu, expo, coeff)
            if 2 in expo:
                trace += 2.0 * coeff
    if quad.coeffs:
        harm = quad - (trace / (2.0 * nu)) * rho2
        if harm.coeffs:
            g = g + (1.0 / (2.0 * nu + 8.0)) * (harm * rho2)
        if trace != 0.0:
            g = g + (trace / (2.0 * nu) / (4.0 * nu + 8.0)) * (rho2 * rho2)
    return HeForm(a, b, g)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def candidate_from_dict(data: dict) -> CandidateSolution:
    try:
        variant = data["variant"]
    except (TypeError, KeyError) as exc:
        raise ConfigError("candidate description lacks a 'variant' key") from exc
    try:
        if variant == "quadratic":
            return Quadratic(np.asarray(data["A"], dtype=float),
                             np.asarray(data.get("b", [0.0] * len(data["A"])), dtype=float),
                             float(data.get("c", 0.0)))
        if variant == "counterexample":
            return Counterexample(float(data.get("kappa", 0.25)))
        if variant == "he_form":
            nvars = int(data["nvars"])
            b = Poly.from_dict(nvars, data["b"])
            g = Poly.from_dict(nvars, data["g"])
            return HeForm(float(data["a"]), b, g)
    except (TypeError, KeyError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed {variant!r} candidate description: {exc!r}") from exc
    raise ConfigError(f"unknown candidate variant {variant!r}")


def candidate_to_json(candidate: CandidateSolution) -> str:
    return json.dumps(candidate.to_dict(), indent=2, sort_keys=True)


def candidate_from_json(text: str) -> CandidateSolution:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid candidate JSON: {exc}") from exc
    return candidate_from_dict(data)
