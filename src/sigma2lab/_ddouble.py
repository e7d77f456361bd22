"""Compensated (double-double) arithmetic on numpy arrays.

A value is carried as an unevaluated pair ``(hi, lo)`` with ``hi + lo`` the
intended number and ``|lo| <= ulp(hi)/2``.  The error-free transforms below
(Knuth two-sum, Dekker split/product) push the working precision to roughly
32 significant digits, which is what lets residuals of exact candidate
solutions come out at the 1e-16 level instead of drowning in cancellation:
the operator multiplies terms of size e^|t| before differences of order one
are taken.

Only the handful of operations the residual paths need are provided.  All
functions broadcast like the underlying numpy ufuncs and accept scalars.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant for binary64
# the largest magnitude whose split stays finite: _SPLITTER * a overflows above it
SPLIT_MAX = np.finfo(float).max / _SPLITTER


def two_sum(a, b):
    """Error-free sum: returns (s, err) with s = fl(a+b) and s + err = a + b."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: returns (p, err) with p = fl(a*b) and p + err = a * b."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd(x):
    """Promote an exact float/array to a double-double pair."""
    x = np.asarray(x, dtype=float)
    return x, np.zeros_like(x)


def dd_add(x, y):
    sh, sl = two_sum(x[0], y[0])
    sl = sl + (x[1] + y[1])
    return two_sum(sh, sl)


def dd_sub(x, y):
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x, y):
    ph, pl = two_prod(x[0], y[0])
    pl = pl + (x[0] * y[1] + x[1] * y[0])
    return two_sum(ph, pl)


def dd_mul_d(x, a):
    """Multiply a double-double by an exact double."""
    ph, pl = two_prod(x[0], a)
    pl = pl + x[1] * a
    return two_sum(ph, pl)


def dd_add_d(x, a):
    sh, sl = two_sum(x[0], a)
    sl = sl + x[1]
    return two_sum(sh, sl)


def dd_sq(x):
    return dd_mul(x, x)


def dd_pow_int(base, k: int):
    """base**k for a plain float/array base and small non-negative integer k."""
    if k == 0:
        b = np.asarray(base, dtype=float)
        return np.ones_like(b), np.zeros_like(b)
    acc = dd(base)
    for _ in range(k - 1):
        acc = dd_mul_d(acc, np.asarray(base, dtype=float))
    return acc


def dd_to_float(x):
    return x[0] + x[1]
