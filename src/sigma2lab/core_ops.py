"""Grids, scalar fields, and the pointwise operator algebra.

Coordinates are (t, x_2, ..., x_n) on a box; grid axis 0 is always the
distinguished ``t`` direction.  For a symmetric matrix H the scalar operator
of interest is

    sigma2_tilde(H) = H[0,0] * (H[1,1] + ... + H[n-1,n-1]) - H[0,1]**2 - ... - H[0,n-1]**2,

i.e. the sum of the 2x2 principal minors that involve row/column 0.  It is
invariant under rotations of the transverse block and quadratic in H, and
its derivative at H is contraction with the matrix returned by
``sigma2_linearization``.

All finite differences are second-order central stencils on uniform grids,
read from one table: ``hessian_stencil`` gives the legs and divisor of each
Hessian entry, and ``hessian_entry``, ``second_diff``, ``fd_hessian`` and the
solver's Jacobian all derive from it.  ``laplacian``, ``hessian_parts`` and
``sigma2_interior`` are the whole-box combinations that the solver and the
analysis probes share.
Fields are serialized as a JSON header plus a raw little-endian float64
payload (extension pair ``.fld.json`` / ``.fld.bin``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import BoundaryNode, ConfigError

__all__ = [
    "Grid",
    "mesh_points",
    "ScalarField",
    "sigma2_tilde",
    "sigma2_linearization",
    "fd_hessian",
    "shifted",
    "hessian_stencil",
    "hessian_entry",
    "second_diff",
    "laplacian",
    "hessian_parts",
    "sigma2_interior",
]


def mesh_points(axes) -> np.ndarray:
    """The nodes of the tensor grid on ``axes``, shape (n_nodes, len(axes)),
    in C node order (the last axis varies fastest)."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box in R^n, n in {2, 3}.

    ``bounds[k] = (lo_k, hi_k)`` and ``shape[k]`` is the node count along
    axis k (at least 5 so that every second-order stencil has room).
    """

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        shape = tuple(int(m) for m in self.shape)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)
        if len(bounds) != len(shape):
            raise ConfigError("bounds and shape must have the same length")
        if len(shape) not in (2, 3):
            raise ConfigError(f"grid dimension must be 2 or 3, got {len(shape)}")
        for (lo, hi), m in zip(bounds, shape):
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ConfigError(f"invalid axis bounds ({lo}, {hi})")
            if m < 5:
                raise ConfigError(f"need at least 5 nodes per axis, got {m}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (m - 1) for (lo, hi), m in zip(self.bounds, self.shape))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(m - 2 for m in self.shape)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, m) for (lo, hi), m in zip(self.bounds, self.shape)]

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def points(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), C node order."""
        return mesh_points(self.axes())

    def coords(self, node: tuple[int, ...]) -> np.ndarray:
        if len(node) != self.dim:
            raise ConfigError(f"node {node} has wrong length for a {self.dim}-d grid")
        return np.array(
            [lo + i * h for (lo, _), i, h in zip(self.bounds, node, self.spacing)]
        )

    def is_interior(self, node: tuple[int, ...]) -> bool:
        return all(0 < i < m - 1 for i, m in zip(node, self.shape))

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[axis] = 0
            mask[tuple(sl)] = True
            sl[axis] = -1
            mask[tuple(sl)] = True
        return mask


@dataclass
class ScalarField:
    """Node values of a scalar function on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ConfigError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigError("field values must be finite")
        self.values = values

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))

    @classmethod
    def sample(cls, grid: Grid, candidate, index: tuple[int, ...] | None = None) -> "ScalarField":
        """Sample a candidate solution (or any object with ``eval_many``)."""
        if index is None:
            index = (0,) * grid.dim
        vals = candidate.eval_many(grid.points(), index)
        return cls(grid, vals.reshape(grid.shape))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def save(self, path: str | Path) -> tuple[Path, Path]:
        """Write ``<base>.fld.json`` + ``<base>.fld.bin``; returns both paths."""
        base = _strip_field_suffix(path)
        meta = {
            "dim": self.grid.dim,
            "bounds": [list(b) for b in self.grid.bounds],
            "resolution": list(self.grid.shape),
            "byte_order": "little",
        }
        json_path = Path(str(base) + ".fld.json")
        bin_path = Path(str(base) + ".fld.bin")
        json_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        bin_path.write_bytes(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
        return json_path, bin_path

    @classmethod
    def load(cls, path: str | Path) -> "ScalarField":
        base = _strip_field_suffix(path)
        json_path = Path(str(base) + ".fld.json")
        bin_path = Path(str(base) + ".fld.bin")
        try:
            meta = json.loads(json_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read field header {json_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigError(f"field header {json_path} is not a JSON object")
        if meta.get("byte_order") != "little":
            raise ConfigError(f"unsupported byte order {meta.get('byte_order')!r}")
        try:
            grid = Grid(tuple(tuple(b) for b in meta["bounds"]), tuple(meta["resolution"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"field header {json_path} needs numeric 'bounds' pairs and a 'resolution' list "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        try:
            raw = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
        except OSError as exc:
            raise ConfigError(f"cannot read field payload {bin_path}: {exc}") from exc
        if raw.size != grid.n_nodes:
            raise ConfigError(
                f"payload has {raw.size} values, header promises {grid.n_nodes}"
            )
        return cls(grid, raw.reshape(grid.shape).astype(float))


def _strip_field_suffix(path: str | Path) -> Path:
    s = str(path)
    for suffix in (".fld.json", ".fld.bin"):
        if s.endswith(suffix):
            s = s[: -len(suffix)]
            break
    return Path(s)


def _as_matrix(H) -> np.ndarray:
    a = np.asarray(H, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ConfigError(f"expected a square matrix of dimension >= 2, got shape {a.shape}")
    return a


def sigma2_tilde(H) -> float:
    """Sum of the 2x2 principal minors of H that involve index 0."""
    a = _as_matrix(H)
    return float(a[0, 0] * np.trace(a[1:, 1:]) - np.sum(a[0, 1:] ** 2))


def sigma2_linearization(H) -> np.ndarray:
    """Matrix C with d/ds sigma2_tilde(H + sV)|_{s=0} = sum_ij C_ij V_ij.

    C is positive definite exactly when H[0,0] > 0 and sigma2_tilde(H) > 0,
    which is the ellipticity statement for the operator on its solution cone.
    """
    a = _as_matrix(H)
    n = a.shape[0]
    c = np.zeros((n, n))
    c[0, 0] = np.trace(a[1:, 1:])
    for i in range(1, n):
        c[i, i] = a[0, 0]
        c[0, i] = c[i, 0] = -a[0, i]
    return c


def _require_interior(field: ScalarField, node: tuple[int, ...]) -> None:
    if len(node) != field.grid.dim:
        raise ConfigError(f"node {node} has wrong length for a {field.grid.dim}-d grid")
    if not all(0 <= i < m for i, m in zip(node, field.grid.shape)):
        raise ConfigError(f"node {node} is outside the grid")
    if not field.grid.is_interior(node):
        raise BoundaryNode(f"node {node} is on the boundary")


def fd_hessian(field: ScalarField, node: tuple[int, ...]) -> np.ndarray:
    """Central-difference Hessian at an interior node (exact on quadratics):
    every ``hessian_entry`` over the node's 3^d block."""
    _require_interior(field, node)
    block = field.values[tuple(slice(i - 1, i + 2) for i in node)]
    n = field.grid.dim
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            out[a, b] = out[b, a] = hessian_entry(block, a, b, field.grid.spacing).item()
    return out


def shifted(values: np.ndarray, offset: tuple[int, ...]) -> np.ndarray:
    """View of ``values`` at interior nodes displaced by ``offset``.

    The result always has the interior-box shape; offsets must have entries
    in {-1, 0, 1}.
    """
    sl = []
    for o, m in zip(offset, values.shape):
        if o not in (-1, 0, 1):
            raise ConfigError("offsets must be -1, 0, or 1")
        sl.append(slice(1 + o, m - 1 + o))
    return values[tuple(sl)]


@lru_cache(maxsize=None)
def _legs(dim: int, a: int, b: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    def offset(steps: dict) -> tuple[int, ...]:
        return tuple(steps.get(k, 0) for k in range(dim))

    if a == b:
        return tuple((offset({a: s}), w) for s, w in ((1, 1), (0, -2), (-1, 1)))
    return tuple((offset({a: sa, b: sb}), sa * sb) for sa in (1, -1) for sb in (1, -1))


def hessian_stencil(dim: int, a: int, b: int, spacing: tuple[float, ...]):
    """The one central-difference table: the legs of Hessian entry (a, b) as
    (offset, integer weight) pairs in summation order (the first has weight
    1), and their divisor.

    A diagonal entry has the three legs e_a, 0, -e_a with weights 1, -2, 1
    over h_a**2; a mixed entry the four legs +-e_a +-e_b with weight
    s_a * s_b over 4 h_a h_b.
    """
    divisor = spacing[a] ** 2 if a == b else 4.0 * spacing[a] * spacing[b]
    return _legs(dim, a, b), divisor


def hessian_entry(values: np.ndarray, a: int, b: int, spacing: tuple[float, ...]) -> np.ndarray:
    """Hessian entry (a, b) over the interior box: the legs of
    ``hessian_stencil`` added or subtracted left to right, then one division."""
    legs, divisor = hessian_stencil(values.ndim, a, b, spacing)
    out = None
    for off, w in legs:
        term = shifted(values, off) if abs(w) == 1 else abs(w) * shifted(values, off)
        out = term if out is None else (out + term if w > 0 else out - term)
    return out / divisor


def second_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second difference along ``axis`` over the interior box."""
    return hessian_entry(values, axis, axis, (h,) * values.ndim)


def laplacian(values: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    """Discrete Laplacian (sum of the axis second differences) over the interior box."""
    out = second_diff(values, 0, spacing[0])
    for axis in range(1, values.ndim):
        out = out + second_diff(values, axis, spacing[axis])
    return out


def hessian_parts(values: np.ndarray, spacing: tuple[float, ...]) -> tuple[np.ndarray, list, list]:
    """The discrete Hessian entries sigma2_tilde reads, over the interior box:
    u_tt, the transverse diagonal [u_ii] and the mixed t-row [u_ti], i >= 1."""
    utt = second_diff(values, 0, spacing[0])
    diag = [second_diff(values, axis, spacing[axis]) for axis in range(1, values.ndim)]
    cross = [hessian_entry(values, 0, axis, spacing) for axis in range(1, values.ndim)]
    return utt, diag, cross


def sigma2_interior(values: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    """sigma2_tilde of the discrete Hessian at every interior node.

    Returns an array of interior-box shape.  Only the Hessian entries the
    operator actually reads are formed (see ``hessian_parts``).
    """
    utt, diag, cross = hessian_parts(values, spacing)
    out = utt * sum(diag)
    for c in cross:
        out -= c**2
    return out
