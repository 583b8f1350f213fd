"""Self-contained special functions and a Cauchy principal-value integrator.

Provides the Bessel functions J0, J1, J2 and Y0, Y1, Y2, the Struve
functions H0 and H1, and a principal-value integrator for simple poles on
semi-infinite or finite intervals.  These are the primitives behind the
planar and free-space dipole-dipole kernels; scipy.special is deliberately
not used here so the kernel formulas and their integral-identity checks
rest on independent code paths.

Evaluation strategy
-------------------
``bessel_j`` and ``bessel_y`` take a float or an array of points and
evaluate them in fixed blocks of 256 points (``_BLOCK``), so a kernel
table is a few numpy passes with no Python per point.  A float goes in
as a one-element block and comes out as a float.  Within a block each
point takes its branch by mask:

* J_n, |x| < 6:   ascending power series (Abramowitz & Stegun 9.1.10),
                  as a (points, terms) matrix of the term recurrence,
                  each row summed in order through its first term below
                  the bound, as a term-by-term loop would stop.
* J_n, |x| >= 6:  Gauss-Legendre quadrature of Bessel's integral
                  J_n(x) = (1/pi) * int_0^pi cos(n*t - x*sin t) dt
                  (A&S 9.1.21), as a (points, 120) node matrix summed
                  against the weights.  The integrand is entire, so a
                  fixed high-order rule is accurate to near machine
                  precision over the supported range |x| <= 50.
* Y_n, 0 < x < 6: ascending series with harmonic-number coefficients
                  (A&S 9.1.11), summed per point like the J series.
* Y_n, x >= 6:    integral representation (DLMF 10.9.9)
                  Y_n(x) = (1/pi) int_0^pi sin(x sin t - n t) dt
                         - (1/pi) int_0^inf [e^{nt} + (-1)^n e^{-nt}]
                                  e^{-x sinh t} dt,
                  the second integral on [0, t_max(x)] per point.
* Y_2:            the recurrence Y2 = (2/x) Y1 - Y0 on the Y0 and Y1 of
                  the same block, so no Y quadrature runs twice.
* H_n, |x| <= 20: ascending power series (A&S 12.1.5).
* H_n, |x| > 20:  H_n(x) = Y_n(x) + asymptotic series (DLMF 11.6.1),
                  truncated at its smallest term.

Every operation acts on one point at a time or sums one point's row, so
a value does not depend on the block it was evaluated in: a table equals
the same points evaluated one by one, bit for bit.  Blocks bound each
node matrix to 256 x 120 entries.

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

# Points per pass of the array evaluation; a (points, 120) node matrix
# then holds 250 kB.  Larger blocks measured no faster, and one pass over
# a whole 9999-point kernel table added 65 MB to the peak memory.
_BLOCK = 256

# Fixed Gauss-Legendre rule used for the integral representations.  With
# at most ~16 oscillation periods across [0, pi] at x = 50, 120 nodes are
# far in the spectrally convergent regime.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)
# mapped once onto [0, pi]
_GL_T = 0.5 * math.pi * (_GL_NODES + 1.0)
_GL_W = 0.5 * math.pi * _GL_WEIGHTS
_GL_SIN_T = np.sin(_GL_T)

# harmonic numbers H_1 ... H_60 for the Y series
_HARMONIC = np.cumsum(1.0 / np.arange(1, 61))


def _check_order(order: int, allowed: tuple[int, ...], name: str) -> None:
    if not isinstance(order, (int, np.integer)) or order not in allowed:
        raise DomainError(f"{name} supports orders {allowed}, got {order!r}")


def _blocked(name: str, x, block: Callable[[np.ndarray], np.ndarray],
             positive: bool = False):
    """Apply block() to x in _BLOCK-point slices; a float in, a float out."""
    points = np.asarray(x, dtype=float)
    flat = points.ravel()
    bad = ~np.isfinite(flat)
    if bad.any():
        raise DomainError(f"{name} requires finite x, got {float(flat[bad][0])!r}")
    if positive:
        bad = flat <= 0.0
        if bad.any():
            raise DomainError(f"{name} requires x > 0, got {float(flat[bad][0])!r}")
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        out[start:start + _BLOCK] = block(flat[start:start + _BLOCK])
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)


def _gl_sum(values: np.ndarray, weights: np.ndarray = _GL_W) -> np.ndarray:
    # one pairwise sum per row: the same rounding for a row in any block
    return (values * weights).sum(axis=-1)


def _by_branch(order: int, x: np.ndarray, series, integral) -> np.ndarray:
    """series(order, .) on the points below _SERIES_LIMIT, integral on the rest."""
    out = np.empty_like(x)
    small = x < _SERIES_LIMIT
    for points, branch in ((small, series), (~small, integral)):
        if points.any():
            out[points] = branch(order, x[points])
    return out


def _sum_through_first(terms: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Row sums of terms through each row's first True in last (all if none).

    This is the stopping rule of a term-by-term loop, applied per point
    to a (points, terms) matrix, so a sum does not depend on the other
    points of its block.
    """
    after = np.cumsum(last, axis=-1) > last
    # summed in term order, as such a loop adds them
    return np.cumsum(np.where(after, 0.0, terms), axis=-1)[..., -1]


def _bessel_j_series(order: int, x: np.ndarray) -> np.ndarray:
    # t_m = (-1)^m (x/2)^(2m+n) / (m! (m+n)!) = t_{m-1} * (-q / (m (m+n))),
    # summed through the first term within 1e-18 (1 + |t_0|), m <= 60
    half = 0.5 * np.asarray(x, dtype=float)[..., None]
    q = half * half
    first = half**order / math.factorial(order)
    m = np.arange(1, 61)
    terms = np.cumprod(np.concatenate(
        [first, -q / (m * (m + order))], axis=-1), axis=-1)
    return _sum_through_first(terms, np.abs(terms) <= 1e-18 * (1.0 + np.abs(first)))


def _bessel_j_integral(order: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    vals = np.cos(order * _GL_T - x[..., None] * _GL_SIN_T)
    return _gl_sum(vals) / math.pi


def bessel_j(order: int, x):
    """Bessel function of the first kind, J_order(x), order in {0, 1, 2}.

    x is a float, giving a float, or an array, giving an array of its
    shape.  Absolute error below 1e-12 for |x| <= 50.
    """
    _check_order(order, (0, 1, 2), "bessel_j")

    def block(x: np.ndarray) -> np.ndarray:
        out = _by_branch(order, np.abs(x), _bessel_j_series, _bessel_j_integral)
        # J_n(-x) = (-1)^n J_n(x)
        return np.where(x < 0.0, -out, out) if order % 2 else out

    return _blocked("bessel_j", x, block)


def _bessel_y_series(order: int, x: np.ndarray) -> np.ndarray:
    # A&S 9.1.11 specialised to n = 0, 1; each tail is summed through its
    # first term below 1e-18, m <= 59.
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    q = (half * half)[..., None]
    log_term = np.log(half) + _EULER_GAMMA
    m = np.arange(1, 60)
    if order == 0:
        # (2/pi) [ (ln(x/2)+gamma) J0 + sum_{m>=1} (-1)^{m+1} H_m q^m / (m!)^2 ]
        sign = np.where(m % 2, 1.0, -1.0)
        tail = sign * _HARMONIC[:-1] * np.cumprod(q / (m * m), axis=-1)
        return (2.0 / math.pi) * (log_term * _bessel_j_series(0, x)
                                  + _sum_through_first(tail, np.abs(tail) < 1e-18))
    # order == 1:
    # (2/pi)(ln(x/2)+gamma) J1 - 2/(pi x) - (x/(2 pi)) _y1_series_sum(x)
    return ((2.0 / math.pi) * log_term * _bessel_j_series(1, x)
            - 2.0 / (math.pi * x)
            - (x / (2.0 * math.pi)) * _y1_series_sum(x))


def _y1_series_sum(x: np.ndarray) -> np.ndarray:
    """sum_{m>=0} (-1)^m (H_m + H_{m+1}) q^m / (m! (m+1)!) with q = x^2/4.

    The power-series part of Y1 (A&S 9.1.11), summed through its first
    term below 1e-18, m <= 59.
    """
    half = 0.5 * np.asarray(x, dtype=float)
    q = (half * half)[..., None]
    m = np.arange(1, 60)
    tail = (_HARMONIC[:-1] + _HARMONIC[1:]) * np.cumprod(-q / (m * (m + 1)), axis=-1)
    tail = np.concatenate([np.ones_like(q), tail], axis=-1)  # m = 0: H_0 + H_1 = 1
    return _sum_through_first(tail, np.abs(tail) < 1e-18)


def _bessel_y_integral(order: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)[..., None]
    osc = np.sin(x * _GL_SIN_T - order * _GL_T)
    first = _gl_sum(osc) / math.pi
    # exponential part: integrand e^{nt - x sinh t} (+ e^{-nt} piece) is
    # negligible once x sinh T ~ 48, so each point integrates to its own T
    t_max = np.arcsinh(48.0 / x)
    t = 0.5 * t_max * (_GL_NODES + 1.0)
    sinh_t = np.sinh(t)
    decay = np.exp(-x * sinh_t)
    # e^{nt} + (-1)^n e^{-nt} is 2 for n = 0 and 2 sinh t for n = 1
    hyp = 2.0 * sinh_t if order else 2.0
    second = _gl_sum(hyp * decay, 0.5 * t_max * _GL_WEIGHTS) / math.pi
    return first - second


def bessel_y(order: int, x):
    """Bessel function of the second kind, Y_order(x), order in {0, 1, 2}.

    x is a float, giving a float, or an array, giving an array of its
    shape; every point must be > 0.  Absolute error below 1e-10 for
    x <= 50.  For x below a tiny documented cutoff
    (1e-305) the value has left the double range and the divergence is
    reported as -inf.
    """
    _check_order(order, (0, 1, 2), "bessel_y")

    def y01(order: int, x: np.ndarray) -> np.ndarray:
        return _by_branch(order, x, _bessel_y_series, _bessel_y_integral)

    def block(x: np.ndarray) -> np.ndarray:
        out = np.full_like(x, -math.inf)
        finite = x >= _Y_DIVERGENCE_CUTOFF
        x = x[finite]
        if order == 2:
            # Y2 = (2/x) Y1 - Y0; no cancellation trouble since Y2 is
            # dominated by the (2/x) Y1 term at small x and all terms
            # share magnitude at large x.  Below x ~ 1e-154 it overflows
            # to -inf, as the divergence it is.
            with np.errstate(over="ignore"):
                out[finite] = 2.0 / x * y01(1, x) - y01(0, x)
        else:
            out[finite] = y01(order, x)
        return out

    return _blocked("bessel_y", x, block, positive=True)


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
