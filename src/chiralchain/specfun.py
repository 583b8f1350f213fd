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
x >= 0 as a (points, 5) table.  Each point takes the branch of its
argument, and each branch is a fixed sequence of elementwise numpy
operations over its points, so a kernel table costs a few hundred numpy
calls and no Python per point.  Y is -inf at 0 and below 1e-305,
where it has left the double range.

* x < 1:        ascending power series, J_n by A&S 9.1.10 and Y0, Y1 by
                A&S 9.1.11 with harmonic-number coefficients on the same
                J0 and J1 sums.  The five term recurrences form a
                (points, 5, 17) matrix, each row summed in order through
                its first term below the bound, as a term-by-term loop
                would stop (``_power_series``, which the kernels' own
                small-argument series use too).
* 1 <= x < 17:  Miller's backward recurrence from the order
                2 floor(x) + 18, normalised by J0 + 2 sum J_2k = 1, with
                Y0 and Y1 from the Neumann sums of the same J_k
                (A&S 9.1.88, 9.1.89).
* x >= 17:      Hankel's asymptotic expansion (DLMF 10.17.3) with 16
                terms in each of P and Q, summed by Horner's rule, on
                sin x and cos x rather than on a shifted phase.

Against 30-digit mpmath values at a few hundred points, every column is
within 4e-16 absolute from x = 1 to 1000, and the expansion only gets
more accurate as x grows; below 1 the series gives J within 3e-16 and
Y0 within 5e-14 absolute, and Y1, which diverges like -2/(pi x), within
3e-16 relative.  Miller's and Hankel's branches hold about a dozen
arrays of their points at a time and the series a few (points, 5, 17)
term matrices; the kernels bound the memory by handing over their
points in chunks of fixed size.

Every operation acts on one point at a time, so a value does not depend
on the other points of its call: a table equals the same points
evaluated one by one, bit for bit.  A single point runs the branches'
Python loops on Python floats, which round exactly like numpy's
elementwise arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list = []

_EULER_GAMMA = 0.5772156649015329

# Branch limits: the series below _SERIES_LIMIT, Miller's algorithm up
# to _HANKEL_LIMIT, Hankel's expansion from there on.
_SERIES_LIMIT = 1.0
_HANKEL_LIMIT = 17.0
_BRANCH_LIMITS = np.array([_SERIES_LIMIT, _HANKEL_LIMIT])

# Below this the Y_n values overflow double precision range; they are
# reported as the divergence -inf rather than an overflowed number.
_Y_DIVERGENCE_CUTOFF = 1e-305

# Miller's algorithm runs the recurrence two orders per step, j = 25 ... 0,
# each step making r_{2j+1} and r_2j from the coefficients (2j+2)/x and
# (2j+1)/x, formed in the step from 2/x.  A point starts at its order
# M = 2 floor(x) + 18, which is at most 50 below x = 17: its step j = M/2
# is where j equals floor(x) + 9.  Each step holds j and the weights of r_2j in the normalisation J0 + 2 sum J_2k = 1
# and in the Neumann sum of Y0, and of r_{2j+1} in that of Y1 (A&S 9.1.88,
# 9.1.89), both sums without their ln(x/2) and 1/x terms:
# -(4/pi) sum_{k>=1} (-1)^k J_2k / k and
# -(2/pi) [J1 + sum_{k>=1} (-1)^k (2k+1) J_{2k+1} / (k (k+1))].
_MILLER_STEPS = [(j, 2.0,
                  -(4.0 / math.pi) * (-1.0) ** j / j,
                  -(2.0 / math.pi) * (-1.0) ** j * (2 * j + 1) / (j * (j + 1)))
                 for j in range(25, 0, -1)] + [(0, 1.0, 0.0, -2.0 / math.pi)]


# Hankel's expansion (DLMF 10.17.3), J_nu + i Y_nu =
# sqrt(2 / (pi x)) (P_nu + i Q_nu) e^{i (x - nu pi/2 - pi/4)}, with
# P_nu = sum_m (-1)^m a_2m(nu) w^2m, Q_nu = sum_m (-1)^m a_{2m+1}(nu) w^{2m+1},
# w = 1/x and a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (8j).  Rows
# P0, Q0 / w, P1, Q1 / w as polynomials in w^2, highest power first, for
# Horner's rule.  With 16 terms each, the first term left out, a_32 w^32,
# is below 3e-16 at x = 17 and falls off as x^-32.
def _hankel_rows(nu: int, terms: int = 16) -> list:
    """The rows P_nu and Q_nu / w of _HANKEL_COEF, highest power first."""
    k = np.arange(1, 2 * terms)
    a = np.cumprod(np.concatenate([[1.0], (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)]))
    a *= np.repeat((-1.0) ** np.arange(terms), 2)
    return [a[-2::-2].tolist(), a[::-2].tolist()]


_HANKEL_COEF = _hankel_rows(0) + _hankel_rows(1)

# The series branch sums five term recurrences as one (points, 5, 17)
# matrix: J0, J1, J2 (A&S 9.1.10) and the Y0 and Y1 tails (A&S 9.1.11).
# Each row is a running product of ratios q / _SERIES_DENOM, q = x^2/4,
# after its first term, times _SERIES_COEF; an infinite denominator pads a
# shorter row with zeros.  m = 1 ... 16 below.  Below x = 1, the largest
# argument the series takes, every row reaches its first term under its
# bound by its 11th term, well inside the matrix.
_M = np.arange(1, 17)
# harmonic numbers H_1 ... H_16
_HARMONIC = np.cumsum(1.0 / _M)
_SERIES_DENOM = np.array([
    # J_n: t_m = t_{m-1} * (-q / (m (m+n)))
    *(-_M * (_M + n) for n in range(3)),
    # Y0: q^m / (m!)^2 from m = 1, through m = 15
    np.concatenate([_M[1:-1] ** 2, [math.inf] * 2]),
    # Y1: (-q)^m / (m! (m+1)!) from m = 0, through m = 15
    np.concatenate([-_M[:-1] * _M[1:], [math.inf]]),
], dtype=float)
_SERIES_COEF = np.ones((5, _M.size + 1))
# Y0: (-1)^{m+1} H_m
_SERIES_COEF[3, :_M.size - 1] = np.where(_M[:-1] % 2, 1.0, -1.0) * _HARMONIC[:-1]
# Y1: H_m + H_{m+1}, with H_0 + H_1 = 1
_SERIES_COEF[4, 1:_M.size] = _HARMONIC[:-1] + _HARMONIC[1:]


def _power_series(first, q, denom, coef=1.0, bound=1e-18):
    """Row sums of coef_k t_k with t_0 = first and t_k = t_{k-1} q / denom_k.

    q / denom is a (..., terms - 1) array of ratios and first broadcasts
    to one term per row.  A row is summed in term order through its first
    term within bound, |coef_k t_k| <= bound, or through its last term: the
    stopping rule of a term-by-term loop, applied per point, so a sum
    does not depend on the other points of its call.
    """
    rows = np.broadcast_shapes(np.shape(q), np.shape(denom))[:-1]
    terms = np.concatenate([np.broadcast_to(first, rows + (1,)), q / denom], axis=-1)
    # the running products, then the terms past each row's stop zeroed, in place
    np.cumprod(terms, axis=-1, out=terms)
    terms *= coef
    within = np.abs(terms) <= bound
    # each row stops at its first term within bound, or at its last term
    within[..., -1] = True
    stop = np.argmax(within, axis=-1, keepdims=True)
    terms[np.arange(terms.shape[-1]) > stop] = 0.0
    # summed in term order, as such a loop adds them
    return np.cumsum(terms, axis=-1, out=terms)[..., -1]


def _series_sums(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2 and the Y0 and Y1 tails of points 0 <= x < 1, as (n, 5).

    The tails are sum_{m>=1} (-1)^{m+1} H_m q^m / (m!)^2 and
    sum_{m>=0} (-1)^m (H_m + H_{m+1}) q^m / (m! (m+1)!), q = x^2/4.  A J
    row is summed through its first term within 1e-18 (1 + |t_0|), a tail
    through its first term within 1e-18.
    """
    half = 0.5 * x[:, None]
    q = half * half
    one = np.ones_like(half)
    # first terms (x/2)^n / n! of J_n, q of the Y0 tail and 1 of the Y1 tail
    first = np.concatenate([one, half, 0.5 * q, q, one], axis=-1)[..., None]
    # first >= 0, so 1 + first is 1 + |t_0|
    bound = 1e-18 * (1.0 + first)
    bound[:, 3:] = 1e-18
    return _power_series(first, q[..., None], _SERIES_DENOM, _SERIES_COEF, bound)


def _series_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of points 0 <= x < 1 by their series, as (..., 5).

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


def _operands(rows: list) -> list:
    """Arrays of points as they are, or as Python floats for one point.

    Python floats round exactly like numpy's elementwise arithmetic, so a
    single point can take a branch's Python loop on floats, without
    numpy's per-call cost, and get the bits it gets in a table.
    """
    if rows[0].size != 1:
        return rows
    return [row.item() for row in rows]


def _miller_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of points 1 <= x < 17 by Miller's algorithm, as (n, 5).

    The recurrence r_{k-1} = (2k/x) r_k - r_{k+1} runs down from
    r_{M+1} = 0, r_M = 1, where the start order M = 2 floor(x) + 18 of a
    point leaves a neglected tail |J_{M+2}| below 1e-17 and
    |J_{M+1} / Y_{M+1}| below 1e-18 at the top of its unit interval.
    Every point takes the same steps: r is 0 above its start order and
    set to 1 at it, so a point's values do not depend on the others.
    The order sums are added up from the highest order down, as the
    recurrence makes the terms, and J2 is (2/x) J1 - J0.
    """
    t = 2.0 / x
    v, start = _operands([t, np.floor(x) + 9.0])
    r_odd = r_even = norm = neumann0 = neumann1 = 0.0
    for j, w_norm, w_0, w_1 in _MILLER_STEPS:
        r_odd = (2 * j + 2) * v * r_even - r_odd
        r_even = (2 * j + 1) * v * r_odd - r_even + (start == j)
        norm = norm + w_norm * r_even
        neumann0 = neumann0 + w_0 * r_even
        neumann1 = neumann1 + w_1 * r_odd
    j0, j1 = r_even / norm, r_odd / norm
    # Y_n gets (2/pi) (ln(x/2) + gamma) J_n, and Y1 also -(2/(pi x)) J0
    log_term = (2.0 / math.pi) * (np.log(0.5 * x) + _EULER_GAMMA)
    out = np.empty((x.size, 5))
    out[:, 0], out[:, 1], out[:, 2] = j0, j1, t * j1 - j0
    out[:, 3] = log_term * j0 + neumann0 / norm
    out[:, 4] = log_term * j1 + neumann1 / norm - t / math.pi * j0
    return out


def _hankel_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of points x >= 17 by Hankel's expansion, as (n, 5).

    With s = sin x and c = cos x, the phases x - pi/4 and x - 3pi/4 give
    sqrt(pi x) J0 = (P0 - Q0) s + (P0 + Q0) c,
    sqrt(pi x) Y0 = (P0 + Q0) s - (P0 - Q0) c,
    sqrt(pi x) J1 = (P1 + Q1) s - (P1 - Q1) c,
    sqrt(pi x) Y1 = -(P1 - Q1) s - (P1 + Q1) c, and J2 = (2/x) J1 - J0.
    """
    w = 1.0 / x
    (v,) = _operands([w])
    w2 = v * v
    series = []
    for row in _HANKEL_COEF:
        total = 0.0
        for coef in row:
            total = total * w2 + coef
        series.append(total)
    p0, q0, p1, q1 = series
    q0, q1 = q0 * v, q1 * v
    s, c = np.sin(x), np.cos(x)
    scale = np.sqrt(w / math.pi)
    out = np.empty((x.size, 5))
    out[:, 0] = ((p0 - q0) * s + (p0 + q0) * c) * scale
    out[:, 1] = ((p1 + q1) * s - (p1 - q1) * c) * scale
    out[:, 2] = 2.0 * w * out[:, 1] - out[:, 0]
    out[:, 3] = ((p0 + q0) * s - (p0 - q0) * c) * scale
    out[:, 4] = (-(p1 - q1) * s - (p1 + q1) * c) * scale
    return out


def _bessel_columns(x: np.ndarray) -> np.ndarray:
    """J0, J1, J2, Y0, Y1 of the points x >= 0, as a (points, 5) array.

    Each point by the branch of its argument; Y is -inf at 0 and below
    the divergence cutoff.
    """
    branch = np.searchsorted(_BRANCH_LIMITS, x, side="right")
    # the points in branch order, each branch a contiguous slice of them
    order = np.argsort(branch, kind="stable")
    ordered = x[order]
    columns = np.empty(x.shape + (5,))
    start = 0
    for k, end in enumerate(np.cumsum(np.bincount(branch, minlength=3)).tolist()):
        if end > start:
            columns[start:end] = _BRANCHES[k](ordered[start:end])
        start = end
    # back in the order of x: a gather of rows, several times cheaper
    # than scattering them
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return np.take(columns, inverse, axis=0)


_BRANCHES = (_series_columns, _miller_columns, _hankel_columns)
