"""The tables the propagation core yields, collected over the whole grid.

Each table is copied as it comes: it stays valid only until the next one
is requested.
"""

import numpy as np

from chiralchain import dynamics


def core_tables(v, w, c0, grid):
    """The core's tables as one (R, K, N + 2) array, and where each began."""
    out = np.empty((v.shape[0], grid.size, v.shape[1] + 2), dtype=complex)
    starts = []
    for k, table in dynamics._evolve(v, w, c0, grid):
        starts.append(k)
        out[:, k:k + table.shape[1]] = table
    return out, starts


def full_observables(matrices, c0, grid):
    """P_tot and I_tot of every coupling matrix, each a C-contiguous (R, K),
    and where each of the core's tables began.

    _observables takes the whole (R, K, N + 2) array at once, not each
    table on its own as the propagators do.
    """
    v, w, weights = dynamics._generators(matrices)
    table, starts = core_tables(v, w, c0, grid)
    observed = dynamics._observables(table, weights)[1]
    return observed[..., 0].copy(), observed[..., 1].copy(), starts
