"""Closed-form references for small chains.

These are independent analytic solutions used to pin down the numerical
propagator: the fully unidirectional (cascaded, gamma_L = 0) two- and
three-atom chains admit elementary solutions because the generator is
triangular, and the reciprocal three-atom chain at spacing phase pi has
an exactly solvable eigensystem with a two-dimensional decoherence-free
subspace.

All solutions start from the uniform single-excitation state
c_m(0) = 1/sqrt(N) and use gamma = gamma_R as the rate unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chiralchain.errors import DomainError

__all__ = [
    "cascaded_n2",
    "cascaded_n3",
    "DarkModesN3",
    "dark_modes_n3",
]


def _check_args(xi, t) -> None:
    if not math.isfinite(xi) or xi < 0.0:
        raise DomainError(f"xi must be finite and >= 0, got {xi!r}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t_arr)) or np.any(t_arr < 0.0):
        raise DomainError("t must be finite and >= 0")


def cascaded_n2(xi: float, t):
    """Amplitudes (c1, c2) of the unidirectional two-atom chain.

    c1 = e^{-t/2} / sqrt(2)
    c2 = e^{-t/2} (1 - t e^{-i xi}) / sqrt(2)

    t in units of 1/gamma.  Accepts scalar or array t.
    """
    _check_args(xi, t)
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-0.5 * t) / math.sqrt(2.0)
    phase = np.exp(-1j * xi)
    c1 = envelope.astype(complex)
    c2 = envelope * (1.0 - t * phase)
    return c1, c2


def cascaded_n3(xi: float, t):
    """Amplitudes (c1, c2, c3) of the unidirectional three-atom chain.

    c1 = e^{-t/2} / sqrt(3)
    c2 = e^{-t/2} (1 - t e^{-i xi}) / sqrt(3)
    c3 = e^{-t/2} [t^2 e^{-2 i xi} - 2 t (e^{-i xi} + e^{-2 i xi}) + 2]
         / (2 sqrt(3))
    """
    _check_args(xi, t)
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-0.5 * t) / math.sqrt(3.0)
    p1 = np.exp(-1j * xi)
    p2 = np.exp(-2j * xi)
    c1 = envelope.astype(complex)
    c2 = envelope * (1.0 - t * p1)
    c3 = envelope * (t * t * p2 - 2.0 * t * (p1 + p2) + 2.0) / 2.0
    return c1, c2, c3


@dataclass(frozen=True)
class DarkModesN3:
    """Eigensystem of the reciprocal three-atom chain at spacing phase pi.

    V = gamma * [[-1, 1, -1], [1, -1, 1], [-1, 1, -1]] has a two-fold
    degenerate zero eigenvalue (the decoherence-free subspace) spanned by
    dark_vectors, and one collective mode decaying at 3 * gamma.  The
    uniform initial state relaxes onto the dark subspace with site
    populations (4/27, 16/27, 4/27).
    """

    dark_vectors: tuple[np.ndarray, np.ndarray]
    bright_vector: np.ndarray
    bright_eigenvalue: complex
    steady_populations: tuple[float, float, float]


def dark_modes_n3(gamma: float = 1.0) -> DarkModesN3:
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    dark = (np.array([-1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]))
    bright = np.array([1.0, -1.0, 1.0])
    return DarkModesN3(
        dark_vectors=dark,
        bright_vector=bright,
        bright_eigenvalue=complex(-3.0 * gamma, 0.0),
        steady_populations=(4.0 / 27.0, 16.0 / 27.0, 4.0 / 27.0),
    )
