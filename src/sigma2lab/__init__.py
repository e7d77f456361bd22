"""Numerical toolkit for the equation u_tt * Lap_x(u) - |grad_x u_t|^2 = 1.

The unknown u lives on R x R^(n-1) with coordinates (t, x_2, ..., x_n); the
first axis is structurally distinguished.  The package bundles exact
candidate solutions, certified residual evaluation, a damped Newton solver
for the Dirichlet problem, the Kahler-metric reading of n = 3 solutions,
and convexity/rigidity analysis tools.
"""

__version__ = "0.1.0"

# submodules load on first import, so a closed-form CLI call never loads the
# solver's scipy stack: ``from sigma2lab import solver`` still works
__all__ = ["analysis", "candidates", "core_ops", "errors", "kahler", "solver", "__version__"]
