"""Closed-form references for chains of any length.

These are independent analytic solutions used to pin down the numerical
propagator: the fully unidirectional (cascaded, gamma_L = 0) chain has a
triangular generator, which the Laguerre polynomials solve for every N
and any atom positions, and the reciprocal three-atom chain at spacing
phase pi has an exactly solvable eigensystem with a two-dimensional
decoherence-free subspace.  At spacing phase 0 or pi and any
0 < gamma_L != gamma_R, every eigenvector is geometric, which solves
the chain for every N without a matrix function or a linear solve.

The solutions start from the uniform single-excitation state
c_m(0) = 1/sqrt(N) (geometric takes any c0) and use gamma = gamma_R as
the rate unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chiralchain.errors import DomainError

__all__ = [
    "cascaded",
    "DarkModesN3",
    "dark_modes_n3",
    "geometric",
    "geometric_modes",
]


def cascaded(phases, t) -> np.ndarray:
    """Amplitudes c_m(t) of the unidirectional chain, as (N,) + t.shape.

    phases holds the phase positions phi_m, finite and non-decreasing (a
    CouplingMatrix's positions); t, in units of 1/gamma, is a float or an
    array.  The chain obeys dc_m/dt = -c_m/2 - sum_{j<m} e^{-i(phi_m -
    phi_j)} c_j.  In d_m = e^{i phi_m} c_m its generator is -1/2 - S/(1 - S),
    S the shift down by one site, and the Laguerre generating function
    (DLMF 18.12.13) gives exp(-t S/(1 - S)) = sum_k L_k^(-1)(t) S^k, so

        c_m(t) = e^{-i phi_m} e^{-t/2} sum_{k=0}^{m} L_k^(-1)(t) d_{m-k}(0).

    L_k^(-1) comes from its three-term recurrence, L_0 = 1, L_1 = -t,
    (k + 1) L_{k+1} = (2k - t) L_k - (k - 1) L_{k-1}; the explicit
    polynomial sums lose digits to cancellation at N = 20, t = 30.
    """
    phases = np.asarray(phases, dtype=float)
    t = np.asarray(t, dtype=float)
    if (phases.ndim != 1 or phases.size == 0 or not np.all(np.isfinite(phases))
            or np.any(np.diff(phases) < 0.0)):
        raise DomainError("phases must be finite and non-decreasing")
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise DomainError("t must be finite and >= 0")
    n = phases.size
    laguerre = np.empty((n,) + t.shape)
    laguerre[0] = 1.0
    if n > 1:
        laguerre[1] = -t
    for k in range(1, n - 1):
        laguerre[k + 1] = ((2 * k - t) * laguerre[k]
                           - (k - 1) * laguerre[k - 1]) / (k + 1)
    d0 = np.exp(1j * phases) / math.sqrt(n)
    sums = np.array([np.tensordot(d0[m::-1], laguerre[:m + 1], axes=1)
                     for m in range(n)])
    envelope = np.exp(-0.5 * t)
    return np.exp(-1j * phases).reshape((n,) + (1,) * t.ndim) * envelope * sums


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


def geometric_modes(n: int, xi: float, gamma_left: float, gamma_right: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and right and left eigenvectors of the chain at xi = 0, pi.

    There exp(-i xi |u - v|) = s_u s_v, with s_m = (-1)^m at xi = pi and
    s_m = 1 at xi = 0, so in d_m = s_m c_m the generator has -gamma_R on
    every entry below the diagonal and -gamma_L on every entry above it.
    The difference of consecutive rows of V x = lambda x makes every
    eigenvector geometric, x_j = s_j r^j, and the first row then forces

        r_k^N = gamma_R / gamma_L,
        lambda_k = -(gamma_R - gamma_L)/2 * (r_k + 1)/(r_k - 1)

    for k = 0 .. N - 1.  The left eigenvectors y_k, y_k[m] = s_m r_k^(-m),
    are biorthogonal to the right ones with y_k . x_l = N delta_kl.
    Returns (lambda (N,), x (N, N), y (N, N)), row k of x and y the k-th
    vectors, sites m = 1 .. N.  Needs 0 < gamma_L != gamma_R (gamma_L = 0
    is cascaded's chain, and gamma_L = gamma_R puts r = 1 among the roots).
    """
    if xi not in (0.0, math.pi):
        raise DomainError(f"xi must be 0 or pi, got {xi!r}")
    if (n < 1 or not 0.0 < gamma_left < math.inf
            or not 0.0 < gamma_right < math.inf or gamma_left == gamma_right):
        raise DomainError(
            "need n >= 1 and finite rates 0 < gamma_left != gamma_right")
    k, m = np.arange(n)[:, None], np.arange(1, n + 1)
    s = (-1.0) ** m if xi == math.pi else np.ones(n)
    rho = (gamma_right / gamma_left) ** (1.0 / n)
    # r_k^m = rho^m e^{2 pi i k m / N}, the phase reduced mod N exactly
    turns = np.exp(2j * np.pi * ((k * m) % n) / n)
    r = rho * turns[:, 0]
    lam = -0.5 * (gamma_right - gamma_left) * (r + 1.0) / (r - 1.0)
    return lam, s * rho ** m * turns, s * rho ** -m * turns.conj()


def geometric(n: int, xi: float, gamma_left: float, gamma_right: float, t,
              c0=None) -> np.ndarray:
    """Amplitudes c_j(t) of the chain at xi = 0 or pi, as (N,) + t.shape.

    c_j(t) = (1/N) sum_k s_j r_k^j e^{lambda_k t} sum_m s_m r_k^(-m) c0_m,
    from geometric_modes; c0 defaults to the uniform state 1/sqrt(N).
    """
    lam, x, y = geometric_modes(n, xi, gamma_left, gamma_right)
    t = np.asarray(t, dtype=float)
    c0 = (np.full(n, 1.0 / math.sqrt(n)) if c0 is None
          else np.asarray(c0, dtype=complex))
    weights = y @ c0 / n
    return np.tensordot(x.T * weights, np.exp(np.multiply.outer(lam, t)),
                        axes=1)
