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
The products take a caller's ``split`` of an operand, so an operand that a
caller multiplies many times is split once; the result is the same.
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
    # (a - (s - bb)) + (b - bb), summed in place: the same digits, one
    # temporary fewer (a float sum is commutative bit for bit)
    err = b - bb
    err += a - (s - bb)
    return s, err


def split(a):
    """Dekker's split: (hi, lo) with hi + lo = a and 26-bit halves."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b, sa=None, sb=None):
    """Error-free product: returns (p, err) with p = fl(a*b) and p + err = a * b.

    ``sa`` and ``sb`` are ``split(a)`` and ``split(b)`` when the caller has them.
    """
    p = a * b
    ah, al = split(a) if sa is None else sa
    bh, bl = split(b) if sb is None else sb
    # ((ah bh - p) + ah bl + al bh) + al bl, each sum in place
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
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


def dd_mul(x, y, sx=None, sy=None):
    """x * y; ``sx`` and ``sy`` are the splits of the high parts x[0] and y[0]."""
    ph, pl = two_prod(x[0], y[0], sx, sy)
    pl = pl + (x[0] * y[1] + x[1] * y[0])
    return two_sum(ph, pl)


def dd_mul_d(x, a, sx=None, sa=None):
    """Multiply a double-double by an exact double; ``sx`` splits x[0], ``sa`` a."""
    ph, pl = two_prod(x[0], a, sx, sa)
    pl = pl + x[1] * a
    return two_sum(ph, pl)


def dd_add_d(x, a):
    sh, sl = two_sum(x[0], a)
    sl = sl + x[1]
    return two_sum(sh, sl)


def dd_sq(x):
    s = split(x[0])
    return dd_mul(x, x, s, s)


def dd_to_float(x):
    return x[0] + x[1]
