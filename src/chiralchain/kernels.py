"""Resonant dipole-dipole coupling kernels for 1D, 2D, and 3D reservoirs.

All kernels are reported through a single convention: the complex
pair-coupling J splits as

    J = (gamma_uv + 2i * Omega_uv) / 2,

so ``decay_part`` is half the collective decay rate gamma_uv and
``shift_part`` is the coherent exchange rate Omega_uv.  Rates are given
in natural units where the intrinsic single-atom rate (Gamma, Gamma_1D,
or Gamma_2D as appropriate) equals 1.

The 1D chiral reservoir is characterised instead by the pair (F, G) of
symmetric and antisymmetric combinations of the directional rates; for
equal left/right rates F and G are real and reduce to the decay and
shift parts of the reciprocal 1D kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import (_EULER_GAMMA, _bessel_columns, _series_sums,
                      _sum_through_first)

__all__ = [
    "KernelValue",
    "DipoleGeometry",
    "chiral_fg",
    "kernel_1d_reciprocal",
    "kernel_2d",
    "kernel_3d",
]


@dataclass(frozen=True)
class KernelValue:
    """One kernel evaluation: J = decay_part + i * shift_part.

    decay_part is gamma_uv / 2 and shift_part is Omega_uv, both in units
    of the intrinsic rate.  shift_divergent marks separations where the
    coherent shift has no finite value (contact limit of the 2D and 3D
    kernels, and separations so small that it overflows); decay_part then
    still carries the finite decay limit and shift_part is NaN.
    """

    decay_part: float
    shift_part: float
    shift_divergent: bool = False

    @property
    def collective_decay(self) -> float:
        """The full pair decay rate gamma_uv (= 2 * decay_part)."""
        return 2.0 * self.decay_part

    @property
    def as_complex(self) -> complex:
        return complex(self.decay_part, self.shift_part)


@dataclass(frozen=True)
class DipoleGeometry:
    """Separation phase and dipole alignment for a planar or 3D pair.

    xi is the dimensionless separation k*r >= 0; alignment is the cosine
    of the angle between the (linear) dipole orientation and the
    interatomic axis, in [-1, 1].
    """

    xi: float
    alignment: float = 0.0

    def __post_init__(self):
        _separations(self.xi)
        _alignment_squared(self.alignment)


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


def _value(columns) -> KernelValue:
    decay, shift, divergent = columns
    return KernelValue(float(decay[0]), float(shift[0]), bool(divergent[0]))


def _flag_divergent(decay: np.ndarray, shift: np.ndarray):
    """(decay, shift, flags), the shift NaN and flagged wherever it is not finite."""
    divergent = ~np.isfinite(shift)
    return decay, np.where(divergent, math.nan, shift), divergent


# Each kernel has one array core, returning its decay column, shift column
# and divergence flags for an array of separations; the public functions
# evaluate it at one point and the CLI tables call it once per table.

def _chiral_fg_columns(xi, gamma_left: float, gamma_right: float):
    xi = _separations(xi)
    _check_rates(gamma_left, gamma_right)
    phase = np.exp(1j * xi)
    f = 0.5 * (gamma_right * phase + gamma_left / phase)
    g = -0.5j * (gamma_right * phase - gamma_left / phase)
    return f, g


def chiral_fg(xi: float, gamma_left: float, gamma_right: float
              ) -> tuple[complex, complex]:
    """Symmetric/antisymmetric coupling pair (F, G) of a 1D chiral line.

    F = (gamma_R e^{i xi} + gamma_L e^{-i xi}) / 2
    G = -i (gamma_R e^{i xi} - gamma_L e^{-i xi}) / 2

    For gamma_left == gamma_right both are real: F = gamma cos(xi) and
    G = gamma sin(xi), i.e. the decay and shift parts of the reciprocal
    kernel.
    """
    f, g = _chiral_fg_columns([xi], gamma_left, gamma_right)
    return complex(f[0]), complex(g[0])


def _kernel_1d_columns(xi):
    xi = _separations(xi)
    return 0.5 * np.cos(xi), 0.5 * np.sin(xi), np.zeros(xi.shape, dtype=bool)


def kernel_1d_reciprocal(xi: float) -> KernelValue:
    """Reciprocal 1D kernel J = (1/2) e^{i xi} in units Gamma_1D = 1.

    decay_part^2 + shift_part^2 = 1/4 for every separation: a 1D line
    only dephases the pair coupling, it never weakens it.
    """
    return _value(_kernel_1d_columns([xi]))


def _kernel_3d_columns(xi, alignment: float):
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


def kernel_3d(geometry: DipoleGeometry) -> KernelValue:
    """Free-space kernel for a linearly polarised pair, Gamma = 1.

    gamma_uv = (3/2) { (1 - a^2) sin(xi)/xi
                       + (1 - 3 a^2) [cos(xi)/xi^2 - sin(xi)/xi^3] }
    Omega_uv = (3/4) { -(1 - a^2) cos(xi)/xi
                       + (1 - 3 a^2) [sin(xi)/xi^2 + cos(xi)/xi^3] }

    with a the dipole/axis alignment cosine.  xi -> 0 gives the Dicke
    limit gamma_uv -> 1 for any alignment, while the shift diverges as
    1/xi^3 and is flagged instead of returned.
    """
    return _value(_kernel_3d_columns([geometry.xi], geometry.alignment))


def _kernel_2d_columns(xi, alignment: float):
    xi = _separations(xi)
    a2 = _alignment_squared(alignment)
    decay = np.full(xi.shape, 0.5)  # f(0+) = 1
    shift = np.full(xi.shape, math.nan)
    apart = xi > 0.0
    x = xi[apart]
    j0, j1, j2, y0, y1 = _bessel_columns(x).T
    j1_over_x = _j1_over_x(x, j1)
    # decay_part = f / 2 = J0 - J1/xi + a^2 J2
    decay[apart] = j0 - j1_over_x + a2 * j2
    # shift_part = g / 2 with Y2 = 2 Y1/xi - Y0 folded in; where the
    # 1/xi^2 of the defining form overflows (xi below about 7e-155) the
    # shift is flagged, as at contact
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shift[apart] = np.where(
            np.isinf(1.0 / (x * x)), math.inf,
            0.5 * (2.0 * (1.0 - a2) * y0
                   - 2.0 * (1.0 - 2.0 * a2) * _y1_pole_free(x, y1, j1_over_x)))
    return _flag_divergent(decay, shift)


def kernel_2d(geometry: DipoleGeometry) -> KernelValue:
    """In-plane kernel for a planar reservoir, Gamma_2D = 1.

    J = (f + i g) / 2 with

    f(xi) = 2 [ J0(xi) - J1(xi)/xi + a^2 J2(xi) ]
    g(xi) = 2 Y0(xi) - 2 Y1(xi)/xi + 2 a^2 Y2(xi)
            - (4 / (pi xi^2)) (1 - 2 a^2)

    f(0+) = 1 recovers the Dicke limit; g diverges logarithmically at
    contact and is flagged there.  g is evaluated as
    2 (1 - a^2) Y0 - 2 (1 - 2 a^2) [Y1/xi + 2/(pi xi^2)], the bracket
    free of its cancelling 1/xi^2 terms below xi = 0.1, and is flagged
    where 1/xi^2 overflows.  g is the Kramers-Kronig partner of f,
    which the test suite verifies by principal-value reconstruction.
    """
    return _value(_kernel_2d_columns([geometry.xi], geometry.alignment))


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
