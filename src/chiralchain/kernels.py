"""Resonant dipole-dipole coupling kernels for 1D, 2D, and 3D reservoirs.

All kernels are reported through a single convention: the complex
pair-coupling J splits as

    J = (gamma_uv + 2i * Omega_uv) / 2,

so the decay part is half the collective decay rate gamma_uv and the
shift part is the coherent exchange rate Omega_uv.  Rates are given in
natural units where the intrinsic single-atom rate (Gamma, Gamma_1D, or
Gamma_2D as appropriate) equals 1.

Each kernel is one function of the dimensionless separation xi = k*r,
a float or an array, and returns its values in xi's shape (numpy
scalars for a float): the same call fills a CLI table and gives a
single point.  The 2D and 3D kernels add shift_divergent flags for
separations where the coherent shift has no finite value (contact, and
separations so small that it overflows); the decay there still carries
its finite limit and the shift is NaN.  They take their points in chunks
of 4096, so a table of any length peaks at its own columns, about 18
bytes a point, plus under 10 MB for the temporaries of one chunk.

The 1D chiral reservoir is characterised instead by the pair (F, G) of
symmetric and antisymmetric combinations of the directional rates; for
equal left/right rates F and G are real and reduce to the decay and
shift parts of the reciprocal 1D kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .specfun import (_EULER_GAMMA, _SERIES_COEF, _SERIES_DENOM,
                      _bessel_columns, _power_series)

__all__ = [
    "chiral_fg",
    "kernel_1d_reciprocal",
    "kernel_2d",
    "kernel_3d",
]


def _separations(xi) -> np.ndarray:
    """xi as a float array, every value finite and >= 0."""
    xi = np.asarray(xi, dtype=float)
    bad = ~(np.isfinite(xi) & (xi >= 0.0))
    if bad.any():
        raise DomainError(f"xi must be finite and >= 0, got {float(xi[bad][0])!r}")
    return xi


def _check_rates(gamma_left: float, gamma_right: float) -> None:
    for name, g in (("gamma_left", gamma_left), ("gamma_right", gamma_right)):
        if not math.isfinite(g) or g < 0.0:
            raise DomainError(f"{name} must be finite and >= 0, got {g!r}")
    if gamma_left == 0.0 and gamma_right == 0.0:
        raise DomainError("gamma_left and gamma_right cannot both vanish")


# points per pass of the 2D and 3D kernels, which bounds their temporaries
_CHUNK = 4096


def _table(columns, xi, alignment: float):
    """(decay, shift, shift_divergent) of columns(chunk, a^2) over xi.

    The shift is NaN and flagged wherever it is not finite.  Indexing
    with () gives numpy scalars for a float xi, as the numpy functions
    of the 1D kernels do, and the arrays themselves otherwise.
    """
    xi = _separations(xi)
    if not math.isfinite(alignment) or abs(alignment) > 1.0:
        raise DomainError(f"alignment must lie in [-1, 1], got {alignment!r}")
    a2 = alignment * alignment
    flat = xi.ravel()
    decay, shift = np.empty_like(flat), np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        decay[chunk], shift[chunk] = columns(flat[chunk], a2)
    decay, shift = decay.reshape(xi.shape), shift.reshape(xi.shape)
    divergent = ~np.isfinite(shift)
    shift[divergent] = math.nan
    return decay[()], shift[()], divergent[()]


def chiral_fg(xi, gamma_left: float, gamma_right: float):
    """Symmetric/antisymmetric coupling pair (F, G) of a 1D chiral line.

    F = (gamma_R e^{i xi} + gamma_L e^{-i xi}) / 2
    G = -i (gamma_R e^{i xi} - gamma_L e^{-i xi}) / 2

    For gamma_left == gamma_right both are exactly real: F = gamma cos(xi)
    and G = gamma sin(xi), i.e. the decay and shift parts of the
    reciprocal kernel, with imaginary parts 0.0.  F and G are complex, in
    xi's shape, and no part of either is -0.0.
    """
    xi = _separations(xi)
    _check_rates(gamma_left, gamma_right)
    phase = np.exp(1j * xi)
    # e^{-i xi} as the conjugate, so that equal rates cancel exactly
    right, left = gamma_right * phase, gamma_left * phase.conj()
    # adding 0.0 turns a part that is -0.0 into 0.0
    return 0.5 * (right + left) + 0.0, -0.5j * (right - left) + 0.0


def kernel_1d_reciprocal(xi):
    """(decay, shift) of the reciprocal 1D kernel J = (1/2) e^{i xi}, Gamma_1D = 1.

    decay^2 + shift^2 = 1/4 for every separation: a 1D line only
    dephases the pair coupling, it never weakens it, so the shift is
    never divergent.
    """
    xi = _separations(xi)
    return 0.5 * np.cos(xi), 0.5 * np.sin(xi)


def kernel_3d(xi, alignment: float = 0.0):
    """(decay, shift, shift_divergent) of the free-space kernel, Gamma = 1.

    For a linearly polarised pair,

    gamma_uv = (3/2) { (1 - a^2) sin(xi)/xi
                       + (1 - 3 a^2) [cos(xi)/xi^2 - sin(xi)/xi^3] }
    Omega_uv = (3/4) { -(1 - a^2) cos(xi)/xi
                       + (1 - 3 a^2) [sin(xi)/xi^2 + cos(xi)/xi^3] }

    with a the alignment, the cosine of the angle between the (linear)
    dipoles and the pair axis, in [-1, 1].  xi -> 0 gives the Dicke
    limit gamma_uv -> 1 for any alignment, while the shift diverges as
    1/xi^3 and is flagged instead of returned, at contact and wherever
    the powers of xi underflow.
    """
    return _table(_columns_3d, xi, alignment)


def _columns_3d(xi: np.ndarray, a2: float):
    perp = 1.0 - a2
    quad_combo = 1.0 - 3.0 * a2
    sin, cos = np.sin(xi), np.cos(xi)
    # contact and underflowing powers of xi make the shift infinite or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sinc = np.where(xi < 1e-2, 1.0 - xi * xi / 6.0 + xi**4 / 120.0, sin / xi)
        sin2_cos3 = sin / xi**2 + cos / xi**3
        bracket = cos / xi**2 - sin / xi**3
        small = xi < _BRACKET_SERIES_LIMIT
        bracket[small] = _power_series(-1.0 / 3.0, xi[small, None] ** 2, _BRACKET_DENOM)
        gamma_uv = 1.5 * (perp * sinc + quad_combo * bracket)
        omega_uv = 0.75 * (-perp * cos / xi + quad_combo * sin2_cos3)
    # the Dicke limit exactly at contact
    return np.where(xi == 0.0, 0.5, 0.5 * gamma_uv), omega_uv


# cos/xi^2 - sin/xi^3 cancels two terms of order 1/xi^2 down to -1/3;
# the direct form holds to a few ulp only from about xi = 1.2 on
_BRACKET_SERIES_LIMIT = 1.2
# its series: a_0 = -1/3, a_j = a_{j-1} * (-xi^2 / (2j (2j+3))), j <= 16,
# the denominators with their sign
_BRACKET_DENOM = -2.0 * np.arange(1, 17) * (2.0 * np.arange(1, 17) + 3.0)


def kernel_2d(xi, alignment: float = 0.0):
    """(decay, shift, shift_divergent) of the in-plane kernel, Gamma_2D = 1.

    J = (f + i g) / 2 with

    f(xi) = 2 [ J0(xi) - J1(xi)/xi + a^2 J2(xi) ]
    g(xi) = 2 Y0(xi) - 2 Y1(xi)/xi + 2 a^2 Y2(xi)
            - (4 / (pi xi^2)) (1 - 2 a^2)

    with a the alignment cosine in [-1, 1], as for kernel_3d.
    f(0+) = 1 recovers the Dicke limit; g diverges logarithmically at
    contact and is flagged there.  g is evaluated as
    2 (1 - a^2) Y0 - 2 (1 - 2 a^2) [Y1/xi + 2/(pi xi^2)], the bracket
    free of its cancelling 1/xi^2 terms below xi = 0.1, so it stays
    finite down to the Y cutoff of specfun (1e-305), below which it is
    flagged too.  g is the Kramers-Kronig partner of f, which the test
    suite verifies by principal-value reconstruction.
    """
    return _table(_columns_2d, xi, alignment)


def _columns_2d(x: np.ndarray, a2: float):
    j0, j1, j2, y0, y1 = _bessel_columns(x).T
    # the plain quotients overflow below 0.1, where the series replace them;
    # ln(x/2) = -inf at contact and Y0 = -inf below the Y cutoff leave the
    # shift non-finite there, and so flagged
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j1_over_x, y1_pole_free = _j1_y1_over_x(x, j1, y1)
        # shift = g / 2 with Y2 = 2 Y1/xi - Y0 folded in
        shift = 0.5 * (2.0 * (1.0 - a2) * y0
                       - 2.0 * (1.0 - 2.0 * a2) * y1_pole_free)
    # decay = f / 2 = J0 - J1/xi + a^2 J2; at contact the series give J0 = 1,
    # J1/xi = 1/2 and J2 = 0, so exactly the Dicke limit f(0+) = 1
    return j0 - j1_over_x + a2 * j2, shift


def _j1_y1_over_x(x: np.ndarray, j1: np.ndarray, y1: np.ndarray):
    """J1(x)/x and Y1(x)/x + 2/(pi x^2), which grows only like ln(x) at small x.

    Below 0.1 both come from series: J1 ~ x/2 there, so the plain quotient
    would just amplify rounding in J1, and the plain Y1 sum cancels two
    terms of order 1/x^2, so the Y1 series enters without its -2/(pi x) pole.
    """
    j1_over_x, y1_pole_free = j1 / x, y1 / x + 2.0 / (math.pi * x * x)
    small = x < 0.1
    x = x[small]
    # q = x^2/4, formed as _series_sums forms it
    half = 0.5 * x[:, None]
    q = half * half
    # J1(x)/x: t_0 = 1/2, then the ratios of the J1 row of _series_sums
    j1_over_x[small] = _power_series(0.5, q, _SERIES_DENOM[1])
    log_term = np.log(0.5 * x) + _EULER_GAMMA
    # the Y1 tail, the last row of _series_sums, summed alone
    y1_tail = _power_series(1.0, q, _SERIES_DENOM[4], _SERIES_COEF[4])
    y1_pole_free[small] = ((2.0 / math.pi) * log_term * j1_over_x[small]
                           - y1_tail / (2.0 * math.pi))
    return j1_over_x, y1_pole_free
