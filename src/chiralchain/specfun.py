"""Self-contained special functions and a Cauchy principal-value integrator.

Provides the Bessel functions J0, J1, J2 and Y0, Y1, Y2, the Struve
functions H0 and H1, and a principal-value integrator for simple poles on
semi-infinite or finite intervals.  These are the primitives behind the
planar and free-space dipole-dipole kernels; scipy.special is deliberately
not used here so the kernel formulas and their integral-identity checks
rest on independent code paths.

Evaluation strategy
-------------------
One private core, ``_bessel_columns``, returns J0, J1, J2, Y0 and Y1 of
an array of points as a (points, 5) table in a single pass over fixed
blocks of 256 points (``_BLOCK``), so a kernel table is a few numpy
passes with no Python per point.  ``bessel_j`` and ``bessel_y`` are
column views of it: a float goes in as a one-element block and comes out
as a float, J of a negative point is J of |x| with the sign of its
parity, and Y2 = (2/x) Y1 - Y0 on the columns of the same points.
Within a block each point takes its branch by mask:

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
           over the supported range |x| <= 50.
* H_n, |x| <= 20: ascending power series (A&S 12.1.5).
* H_n, |x| > 20:  H_n(x) = Y_n(x) + asymptotic series (DLMF 11.6.1),
                  truncated at its smallest term.

Every operation acts on one point at a time or sums one point's row, so
a value does not depend on the block it was evaluated in: a table equals
the same points evaluated one by one, bit for bit.

The straight power series cannot hold an absolute error of 1e-8 for the
Struve functions much past |x| ~ 20 in double precision (the alternating
terms peak near 1e19 at x = 50, so cancellation destroys the sum), which
is why the large-argument branch switches to the Y_n-anchored expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericsError

_EULER_GAMMA = 0.5772156649015329

# Series / quadrature crossover for J and Y.  Kept low enough that the
# largest series term stays ~O(10), which bounds the cancellation error
# near 1e-14 absolute.
_SERIES_LIMIT = 6.0

# Struve series crossover; beyond this the alternating series loses more
# than 8 digits to cancellation.
_STRUVE_SERIES_LIMIT = 20.0

# Below this the Y_n values overflow double precision range; the caller
# is told the function diverged rather than handed an overflowed number.
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


def _check_order(order: int, allowed: tuple[int, ...], name: str) -> None:
    if not isinstance(order, (int, np.integer)) or order not in allowed:
        raise DomainError(f"{name} supports orders {allowed}, got {order!r}")


def _evaluated(name: str, x, values: Callable[[np.ndarray], np.ndarray],
               positive: bool = False):
    """values() of the validated points of x; a float in, a float out."""
    points = np.asarray(x, dtype=float)
    flat = points.ravel()
    bad = ~np.isfinite(flat)
    if bad.any():
        raise DomainError(f"{name} requires finite x, got {float(flat[bad][0])!r}")
    if positive:
        bad = flat <= 0.0
        if bad.any():
            raise DomainError(f"{name} requires x > 0, got {float(flat[bad][0])!r}")
    out = values(flat)
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)


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


# the branches one column at a time, as the crossover test compares them
def _bessel_j_series(order: int, x) -> np.ndarray:
    return _series_columns(np.asarray(x, dtype=float))[..., order]


def _bessel_y_series(order: int, x) -> np.ndarray:
    return _series_columns(np.asarray(x, dtype=float))[..., 3 + order]


def _bessel_j_integral(order: int, x) -> np.ndarray:
    return _integral_columns(np.asarray(x, dtype=float))[..., order]


def _bessel_y_integral(order: int, x) -> np.ndarray:
    return _integral_columns(np.asarray(x, dtype=float))[..., 3 + order]


def bessel_j(order: int, x):
    """Bessel function of the first kind, J_order(x), order in {0, 1, 2}.

    x is a float, giving a float, or an array, giving an array of its
    shape.  Absolute error below 1e-12 for |x| <= 50.
    """
    _check_order(order, (0, 1, 2), "bessel_j")

    def values(x: np.ndarray) -> np.ndarray:
        out = _bessel_columns(np.abs(x))[:, order]
        # J_n(-x) = (-1)^n J_n(x)
        return np.where(x < 0.0, -out, out) if order % 2 else out

    return _evaluated("bessel_j", x, values)


def bessel_y(order: int, x):
    """Bessel function of the second kind, Y_order(x), order in {0, 1, 2}.

    x is a float, giving a float, or an array, giving an array of its
    shape; every point must be > 0.  Absolute error below 1e-10 for
    x <= 50.  For x below a tiny documented cutoff
    (1e-305) the value has left the double range and the divergence is
    reported as -inf.
    """
    _check_order(order, (0, 1, 2), "bessel_y")

    def values(x: np.ndarray) -> np.ndarray:
        columns = _bessel_columns(x)
        if order < 2:
            return columns[:, 3 + order]
        # Y2 = (2/x) Y1 - Y0; no cancellation trouble since Y2 is
        # dominated by the (2/x) Y1 term at small x and all terms
        # share magnitude at large x.  Below x ~ 1e-154 it overflows
        # to -inf, as the divergence it is.
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(x >= _Y_DIVERGENCE_CUTOFF,
                            2.0 / x * columns[:, 4] - columns[:, 3], -math.inf)

    return _evaluated("bessel_y", x, values, positive=True)


def _struve_series(order: int, x: float) -> float:
    half = 0.5 * x
    q = half * half
    # t_0 = (x/2)^(order+1) / (Gamma(3/2) Gamma(order + 3/2))
    term = half ** (order + 1) / (math.gamma(1.5) * math.gamma(order + 1.5))
    terms = [term]
    for k in range(1, 80):
        term *= -q / ((k + 0.5) * (k + order + 0.5))
        terms.append(term)
        if abs(term) < 1e-18 * (1.0 + abs(terms[0])):
            break
    return math.fsum(terms)


def _struve_large(order: int, x: float) -> float:
    # DLMF 11.6.1: H_n(x) - Y_n(x) ~ (1/pi) sum_k Gamma(k + 1/2)
    #   (x/2)^(n - 2k - 1) / Gamma(n + 1/2 - k), truncated at the
    # smallest term.
    total = 0.0
    prev = math.inf
    for k in range(0, 60):
        term = (math.gamma(k + 0.5) * (0.5 * x) ** (order - 2 * k - 1)
                / math.gamma(order + 0.5 - k))
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < 1e-18:
            break
    return bessel_y(order, x) + total / math.pi


def struve_h(order: int, x: float) -> float:
    """Struve function H_order(x), order in {0, 1}.

    Absolute error below 1e-8 for |x| <= 50.  H0 is odd, H1 even.
    """
    _check_order(order, (0, 1), "struve_h")
    if not math.isfinite(x):
        raise DomainError(f"struve_h requires finite x, got {x!r}")
    sign = 1.0
    if x < 0.0:
        x = -x
        sign = -1.0 if order == 0 else 1.0
    if x == 0.0:
        return 0.0
    if x <= _STRUVE_SERIES_LIMIT:
        return sign * _struve_series(order, x)
    return sign * _struve_large(order, x)


# ---------------------------------------------------------------------------
# principal-value integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PVIntegrand:
    """A real integrand with one simple pole inside its integration bounds.

    evaluator must be finite at every non-pole point of the interval; the
    upper bound may be math.inf, in which case the integrand is assumed to
    be eventually oscillatory with a quasi-period near 2*pi (Bessel-type
    tails), which is what the kernel identities need.
    """

    evaluator: Callable[[float], float]
    pole_location: float
    bounds: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.bounds
        if not (math.isfinite(lo) and (math.isfinite(hi) or hi == math.inf)):
            raise DomainError(f"bad integration bounds {self.bounds!r}")
        if not lo < self.pole_location < hi:
            raise DomainError(
                f"pole {self.pole_location!r} must lie strictly inside "
                f"bounds {self.bounds!r}")


def _epsilon_limit(sums: list[float]) -> float:
    """Wynn's epsilon algorithm: accelerate a sequence of partial sums."""
    n = len(sums)
    if n == 1:
        return sums[0]
    eps_prev = [0.0] * n           # epsilon_{-1}
    eps_curr = list(sums)          # epsilon_0
    best = sums[-1]
    for k in range(1, n):
        nxt = []
        for j in range(len(eps_curr) - 1):
            diff = eps_curr[j + 1] - eps_curr[j]
            if abs(diff) < 1e-300:
                return eps_curr[j + 1]
            nxt.append(eps_prev[j + 1] + 1.0 / diff)
        eps_prev, eps_curr = eps_curr, nxt
        if k % 2 == 0 and eps_curr:
            best = eps_curr[-1]
    return best


def oscillatory_integral(f: Callable[[float], float], lower: float,
                         tol: float = 1e-9, segment: float = math.pi,
                         max_segments: int = 400) -> float:
    """Integrate an eventually-oscillatory f over [lower, inf).

    Sums quadrature results over consecutive segments of the given length
    (half the quasi-period, so consecutive contributions alternate in
    sign) and extrapolates the slowly converging alternating series with
    Wynn's epsilon algorithm.
    """
    from scipy.integrate import quad  # only the test identities need scipy.integrate

    partial = 0.0
    sums: list[float] = []
    estimates: list[float] = []
    for k in range(max_segments):
        a = lower + k * segment
        piece, _ = quad(f, a, a + segment, epsabs=tol * 1e-3, epsrel=1e-12,
                        limit=100)
        partial += piece
        sums.append(partial)
        if len(sums) >= 6 and len(sums) % 2 == 0:
            window = sums[-40:]
            estimates.append(_epsilon_limit(window))
            if (len(estimates) >= 2
                    and abs(estimates[-1] - estimates[-2]) < 0.5 * tol):
                return estimates[-1]
    best = estimates[-1] if estimates else sums[-1]
    resid = abs(estimates[-1] - estimates[-2]) if len(estimates) >= 2 else math.inf
    raise NumericsError(
        f"oscillatory tail failed to settle within {max_segments} segments",
        estimate=best, residual=resid)


def principal_value(integrand: PVIntegrand, tol: float = 1e-7) -> float:
    """Cauchy principal value of a simple-pole integrand.

    The pole is handled by symmetric excision: inside a window of
    half-width eps around the pole the integrand is evaluated in pairs
    f(pole + u) + f(pole - u), which cancels the singular part and leaves
    a bounded integrand; outside the window ordinary adaptive quadrature
    is used.  The window is halved until two successive estimates agree
    within tol/2.  Failure to settle raises NumericsError carrying the
    best estimate and the residual.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    from scipy.integrate import quad  # only the test identities need scipy.integrate

    f = integrand.evaluator
    pole = integrand.pole_location
    lo, hi = integrand.bounds

    infinite = hi == math.inf
    room_right = math.inf if infinite else hi - pole
    width0 = 0.5 * min(pole - lo, room_right, 2.0)

    # The tail beyond a fixed turning point does not depend on the
    # excision window, so it is computed once.
    tail = 0.0
    turn = hi
    if infinite:
        turn = pole + width0 + max(30.0, 4.0 * abs(pole))
        tail = oscillatory_integral(f, turn, tol=0.25 * tol)

    def paired(u: float) -> float:
        return f(pole + u) + f(pole - u)

    def estimate(width: float) -> float:
        eps = tol / 16.0
        left, _ = quad(f, lo, pole - width, epsabs=eps, epsrel=1e-12,
                       limit=200)
        right, _ = quad(f, pole + width, turn, epsabs=eps, epsrel=1e-12,
                        limit=200)
        window, _ = quad(paired, 0.0, width, epsabs=eps, epsrel=1e-12,
                         limit=200)
        return left + right + window + tail

    width = width0
    prev = estimate(width)
    delta = math.inf
    for _ in range(24):
        width *= 0.5
        curr = estimate(width)
        delta = abs(curr - prev)
        if delta <= 0.5 * tol:
            return curr
        prev = curr
    raise NumericsError(
        "principal value did not settle under window halving",
        estimate=prev, residual=delta)
