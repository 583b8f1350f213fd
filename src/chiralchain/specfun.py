"""Self-contained Bessel functions for the dipole-dipole kernels.

Evaluates J0, J1, J2, Y0 and Y1, the Bessel functions behind the planar
and free-space kernels, in numpy alone, so the package needs no scipy at
run time.  The module exports nothing: the kernels call its private core,
``_bessel_columns``, on their separations and fold Y2 = (2/x) Y1 - Y0
into their own formulas.  The tests compare the columns, and the kernels
built on them, with scipy.special as an independent code path.

Evaluation strategy
-------------------
``_bessel_columns`` returns J0, J1, J2, Y0 and Y1 of an array of points
x >= 0 as a (points, 5) table in a single pass over fixed blocks of 256
points (``_BLOCK``), so a kernel table is a few numpy passes with no
Python per point.  Y is -inf at 0 and below 1e-305, where it has left
the double range.  Within a block each point takes its branch by mask:

* x < 6:   ascending power series, J_n by A&S 9.1.10 and Y0, Y1 by
           A&S 9.1.11 with harmonic-number coefficients on the same
           J0 and J1 sums.  The five term recurrences form one
           (points, 5, 61) matrix, each row summed in order through its
           first term below the bound, as a term-by-term loop would stop.
* x >= 6:  Bessel's integral J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt
           (A&S 9.1.21) and, for Y_n (DLMF 10.9.9),
           Y_n(x) = (1/pi) int_0^pi sin(x sin t - n t) dt
                  - (1/pi) int_0^inf [e^{nt} + (-1)^n e^{-nt}] e^{-x sinh t} dt,
           by a fixed 120-node Gauss-Legendre rule.  The rule on [0, pi]
           is symmetric about pi/2, so the oscillatory integrals fold onto
           its 60 nodes below pi/2: J0, J2 and the oscillatory part of Y1
           are row sums of one cos(x sin t) matrix, J1 and that of Y0 of
           one sin(x sin t) matrix, against fixed weights.  The second
           integral runs on [0, t_max(x)] per point, and one
           e^{-x sinh t} matrix serves both Y0 and Y1.  The integrands are
           entire, so the fixed rule is accurate to near machine precision
           over the supported range x <= 50: absolute error below 1e-12
           for J and 1e-10 for Y.

Every operation acts on one point at a time or sums one point's row, so
a value does not depend on the block it was evaluated in: a table equals
the same points evaluated one by one, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list = []

_EULER_GAMMA = 0.5772156649015329

# Series / quadrature crossover for J and Y.  Kept low enough that the
# largest series term stays ~O(10), which bounds the cancellation error
# near 1e-14 absolute.
_SERIES_LIMIT = 6.0

# Below this the Y_n values overflow double precision range; they are
# reported as the divergence -inf rather than an overflowed number.
_Y_DIVERGENCE_CUTOFF = 1e-305

# Points per pass of the array evaluation; its largest temporaries, the
# (points, 3, 60) cos product and the (points, 120) tail matrix, then hold
# 370 kB and 250 kB.  On the 9999-point kernel grid, blocks of 64 to 512
# points run equally fast, 1024 about 15% slower, and one pass over the
# whole grid about twice as slow, with 31 MB of numpy temporaries at its
# peak against 2.5 MB.
_BLOCK = 256

# Fixed Gauss-Legendre rule used for the integral representations.  With
# at most ~16 oscillation periods across [0, pi] at x = 50, 120 nodes are
# far in the spectrally convergent regime.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)
# the rule on [0, 1], scaled to [0, t_max(x)] per point for the Y tails
_TAIL_NODES = 0.5 * (_GL_NODES + 1.0)
# Mapped onto [0, pi] the rule is symmetric about pi/2, and the nodes t and
# pi - t share sin t, so each oscillatory integral folds onto the 60 nodes
# below pi/2: the pair weight (pi/2) 2w against the integrals' 1/pi is w.
_HALF_T = 0.5 * math.pi * (_GL_NODES[:60] + 1.0)
_HALF_SIN_T = np.sin(_HALF_T)
_HALF_W = _GL_WEIGHTS[:60]
# rows against cos(x sin t): J0, J2 and the oscillatory part of Y1
_COS_WEIGHTS = np.stack([_HALF_W, _HALF_W * np.cos(2.0 * _HALF_T),
                         -_HALF_W * _HALF_SIN_T])
# rows against sin(x sin t): J1 and the oscillatory part of Y0
_SIN_WEIGHTS = np.stack([_HALF_W * _HALF_SIN_T, _HALF_W])

# The series branch sums five term recurrences as one (points, 5, 61)
# matrix: J0, J1, J2 (A&S 9.1.10) and the Y0 and Y1 tails (A&S 9.1.11).
# Each row is a running product of ratios q / _SERIES_DENOM, q = x^2/4,
# after its first term, times _SERIES_COEF; an infinite denominator pads a
# shorter row with zeros.  m = 1 ... 60 below.
_M = np.arange(1, 61)
# harmonic numbers H_1 ... H_60
_HARMONIC = np.cumsum(1.0 / _M)
_SERIES_DENOM = np.array([
    # J_n: t_m = t_{m-1} * (-q / (m (m+n)))
    *(-_M * (_M + n) for n in range(3)),
    # Y0: q^m / (m!)^2 from m = 1, through m = 59
    np.concatenate([_M[1:-1] ** 2, [math.inf] * 2]),
    # Y1: (-q)^m / (m! (m+1)!) from m = 0, through m = 59
    np.concatenate([-_M[:-1] * _M[1:], [math.inf]]),
], dtype=float)
_SERIES_COEF = np.ones((5, 61))
# Y0: (-1)^{m+1} H_m
_SERIES_COEF[3, :59] = np.where(_M[:-1] % 2, 1.0, -1.0) * _HARMONIC[:-1]
# Y1: H_m + H_{m+1}, with H_0 + H_1 = 1
_SERIES_COEF[4, 1:60] = _HARMONIC[:-1] + _HARMONIC[1:]


def _sum_through_first(terms: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Row sums of terms through each row's first True in last (all if none).

    This is the stopping rule of a term-by-term loop, applied per point
    to a (points, terms) matrix, so a sum does not depend on the other
    points of its block.
    """
    after = np.cumsum(last, axis=-1) > last
    # summed in term order, as such a loop adds them
    return np.cumsum(np.where(after, 0.0, terms), axis=-1)[..., -1]


def _series_sums(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2 and the Y0 and Y1 tails at x, as (..., 5).

    The tails are sum_{m>=1} (-1)^{m+1} H_m q^m / (m!)^2 and
    sum_{m>=0} (-1)^m (H_m + H_{m+1}) q^m / (m! (m+1)!), q = x^2/4.  A J
    row is summed through its first term within 1e-18 (1 + |t_0|), a tail
    through its first term within 1e-18.
    """
    half = 0.5 * x[..., None]
    q = half * half
    # first terms (x/2)^n / n! of J_n, q of the Y0 tail and 1 of the Y1 tail
    first = np.concatenate([np.ones_like(half), half, 0.5 * q, q,
                            np.ones_like(half)], axis=-1)[..., None]
    terms = _SERIES_COEF * np.cumprod(np.concatenate(
        [first, q[..., None, :] / _SERIES_DENOM], axis=-1), axis=-1)
    bound = 1e-18 * (1.0 + np.abs(first))
    bound[..., 3:, :] = 1e-18
    return _sum_through_first(terms, np.abs(terms) <= bound)


def _series_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of points 0 <= x < 6 by their series, as (..., 5).

    Y0 = (2/pi) [ (ln(x/2)+gamma) J0 + Y0 tail ] and
    Y1 = (2/pi)(ln(x/2)+gamma) J1 - 2/(pi x) - (x/(2 pi)) Y1 tail
    (A&S 9.1.11).  Points below the divergence cutoff are lifted to it
    and then get -inf.
    """
    out = _series_sums(x)
    finite = x >= _Y_DIVERGENCE_CUTOFF
    x = np.maximum(x, _Y_DIVERGENCE_CUTOFF)
    log_term = np.log(0.5 * x) + _EULER_GAMMA
    y0 = (2.0 / math.pi) * (log_term * out[..., 0] + out[..., 3])
    y1 = ((2.0 / math.pi) * log_term * out[..., 1]
          - 2.0 / (math.pi * x)
          - (x / (2.0 * math.pi)) * out[..., 4])
    out[..., 3] = np.where(finite, y0, -math.inf)
    out[..., 4] = np.where(finite, y1, -math.inf)
    return out


def _integral_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of points x >= 6 by quadrature, as (..., 5)."""
    out = np.empty(x.shape + (5,))
    x = x[..., None]
    # J_n (A&S 9.1.21) and the oscillatory part of Y_n (DLMF 10.9.9),
    # folded onto the half nodes: row sums of one cos and one sin matrix,
    # into the columns J0, J2, Y1 and J1, Y0
    s = x * _HALF_SIN_T
    out[..., 0::2] = (np.cos(s)[..., None, :] * _COS_WEIGHTS).sum(axis=-1)
    out[..., 1::2] = (np.sin(s)[..., None, :] * _SIN_WEIGHTS).sum(axis=-1)
    # less the exponential part (1/pi) int_0^inf [e^{nt} + (-1)^n e^{-nt}]
    # e^{-x sinh t} dt, whose bracket is 2 for n = 0 and 2 sinh t for
    # n = 1; the integrand is negligible once x sinh T ~ 48, so each point
    # integrates to its own T
    t_max = np.arcsinh(48.0 / x)
    sinh_t = np.sinh(t_max * _TAIL_NODES)
    decay = np.exp(-x * sinh_t) * (t_max / math.pi * _GL_WEIGHTS)
    out[..., 3] -= decay.sum(axis=-1)
    out[..., 4] -= (sinh_t * decay).sum(axis=-1)
    return out


def _bessel_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of the points x >= 0, as a (points, 5) array.

    One pass per _BLOCK points, each point by the branch of its argument;
    Y is -inf at 0 and below the divergence cutoff.
    """
    out = np.empty(x.shape + (5,))
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        small = block < _SERIES_LIMIT
        for points, branch in ((small, _series_columns), (~small, _integral_columns)):
            if points.any():
                out[start:start + _BLOCK][points] = branch(block[points])
    return out
