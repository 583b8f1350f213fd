"""Principal-value and oscillatory-tail quadrature for the kernel identities.

The Kramers-Kronig checks (acceptance criteria 12 and 13) integrate
g(a) / (a - pole) over [0, inf) for Bessel-type g.  Up to a turning
point the pole is handled by QUADPACK's Cauchy-weight rule QAWC
(scipy.integrate.quad with weight="cauchy"); the tail beyond it is
summed over half-period segments and extrapolated with Wynn's epsilon
algorithm, since no library routine converges on these slowly decaying
Bessel tails.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.integrate import quad

from chiralchain.errors import NumericsError


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


def principal_value(g: Callable[[float], float], pole: float,
                    tol: float = 1e-7) -> float:
    """PV int_0^inf g(a) / (a - pole) da, for pole > 0.

    g must be finite on [0, inf) and eventually oscillatory with a
    quasi-period near 2 pi.  The pole part up to the turning point is
    one QAWC call; the tail beyond it goes to oscillatory_integral.
    """
    turn = pole + 0.5 * min(pole, 2.0) + max(30.0, 4.0 * pole)
    head, _ = quad(g, 0.0, turn, weight="cauchy", wvar=pole,
                   epsabs=tol / 16.0, epsrel=1e-12, limit=200)
    tail = oscillatory_integral(lambda a: g(a) / (a - pole), turn,
                                tol=0.25 * tol)
    return head + tail
