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
single point.  The 2D and 3D kernels
add shift_divergent flags for separations where the coherent shift has
no finite value (contact, and separations so small that it overflows);
the decay there still carries its finite limit and the shift is NaN.

The 1D chiral reservoir is characterised instead by the pair (F, G) of
symmetric and antisymmetric combinations of the directional rates; for
equal left/right rates F and G are real and reduce to the decay and
shift parts of the reciprocal 1D kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .specfun import (_EULER_GAMMA, _bessel_columns, _series_sums,
                      _sum_through_first)

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


def _alignment_squared(alignment: float) -> float:
    if not math.isfinite(alignment) or abs(alignment) > 1.0:
        raise DomainError(f"alignment must lie in [-1, 1], got {alignment!r}")
    return alignment * alignment


def _check_rates(gamma_left: float, gamma_right: float) -> None:
    for name, g in (("gamma_left", gamma_left), ("gamma_right", gamma_right)):
        if not math.isfinite(g) or g < 0.0:
            raise DomainError(f"{name} must be finite and >= 0, got {g!r}")
    if gamma_left == 0.0 and gamma_right == 0.0:
        raise DomainError("gamma_left and gamma_right cannot both vanish")


def _flag_divergent(decay: np.ndarray, shift: np.ndarray):
    """(decay, shift, flags), the shift NaN and flagged wherever it is not finite.

    Indexing with () gives numpy scalars for a float xi, as the numpy
    functions of the 1D kernels do, and the arrays themselves otherwise.
    """
    divergent = ~np.isfinite(shift)
    return decay[()], np.where(divergent, math.nan, shift)[()], divergent[()]


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
    xi = _separations(xi)
    a2 = _alignment_squared(alignment)
    perp = 1.0 - a2
    quad_combo = 1.0 - 3.0 * a2
    sin, cos = np.sin(xi), np.cos(xi)
    # contact and underflowing powers of xi make the shift infinite or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sinc = np.where(xi < 1e-2, 1.0 - xi * xi / 6.0 + xi**4 / 120.0, sin / xi)
        sin2_cos3 = sin / xi**2 + cos / xi**3
        gamma_uv = 1.5 * (perp * sinc + quad_combo * _cos2_sin3(xi, sin, cos))
        omega_uv = 0.75 * (-perp * cos / xi + quad_combo * sin2_cos3)
    # the Dicke limit exactly at contact
    return _flag_divergent(np.where(xi == 0.0, 0.5, 0.5 * gamma_uv), omega_uv)


# cos/xi^2 - sin/xi^3 cancels two terms of order 1/xi^2 down to -1/3;
# the direct form holds to a few ulp only from about xi = 1.2 on
_BRACKET_SERIES_LIMIT = 1.2
# its series: a_0 = -1/3, a_j = a_{j-1} * (-xi^2 / (2j (2j+3))), j <= 16
_BRACKET_DENOM = 2.0 * np.arange(1, 17) * (2.0 * np.arange(1, 17) + 3.0)


def _cos2_sin3(xi: np.ndarray, sin: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """cos(xi)/xi^2 - sin(xi)/xi^3, by its series below _BRACKET_SERIES_LIMIT."""
    out = np.empty_like(xi)
    small = xi < _BRACKET_SERIES_LIMIT
    x = xi[~small]
    out[~small] = cos[~small] / x**2 - sin[~small] / x**3
    q = (xi[small] ** 2)[:, None]
    terms = np.cumprod(np.concatenate(
        [np.full_like(q, -1.0 / 3.0), -q / _BRACKET_DENOM], axis=1), axis=1)
    out[small] = _sum_through_first(terms, np.abs(terms) < 1e-18)
    return out


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
    xi = _separations(xi)
    a2 = _alignment_squared(alignment)
    decay = np.full(xi.shape, 0.5)  # f(0+) = 1
    shift = np.full(xi.shape, math.nan)
    apart = xi > 0.0
    x = xi[apart]
    j0, j1, j2, y0, y1 = _bessel_columns(x).T
    j1_over_x = _j1_over_x(x, j1)
    # decay = f / 2 = J0 - J1/xi + a^2 J2
    decay[apart] = j0 - j1_over_x + a2 * j2
    # shift = g / 2 with Y2 = 2 Y1/xi - Y0 folded in; Y0 = -inf below the
    # Y cutoff leaves it non-finite there, and so flagged
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shift[apart] = 0.5 * (2.0 * (1.0 - a2) * y0
                              - 2.0 * (1.0 - 2.0 * a2) * _y1_pole_free(x, y1, j1_over_x))
    return _flag_divergent(decay, shift)


def _y1_pole_free(x: np.ndarray, y1: np.ndarray, j1_over_x: np.ndarray) -> np.ndarray:
    # Y1(x)/x + 2/(pi x^2), which grows only like ln(x) at small x.  Below
    # 0.1 it comes from the Y1 series without its -2/(pi x) pole, since
    # the plain sum there cancels two terms of order 1/x^2.
    out = np.empty_like(x)
    big = x >= 0.1
    out[big] = y1[big] / x[big] + 2.0 / (math.pi * x[big] * x[big])
    small = x[~big]
    log_term = np.log(0.5 * small) + _EULER_GAMMA
    out[~big] = ((2.0 / math.pi) * log_term * j1_over_x[~big]
                 - _series_sums(small)[:, 4] / (2.0 * math.pi))
    return out


def _j1_over_x(x: np.ndarray, j1: np.ndarray) -> np.ndarray:
    # J1(x)/x by its own series at small argument; J1 ~ x/2 there, so the
    # plain quotient would just amplify rounding in J1.
    out = np.empty_like(x)
    big = x >= 0.1
    out[big] = j1[big] / x[big]
    q = (0.25 * x[~big] * x[~big])[:, None]
    m = np.arange(1, 20)
    terms = np.cumprod(np.concatenate(
        [np.full_like(q, 0.5), -q / (m * (m + 1))], axis=1), axis=1)
    out[~big] = _sum_through_first(terms, np.abs(terms) < 1e-18)
    return out
