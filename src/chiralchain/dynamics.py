"""Propagation of single-excitation amplitudes and derived observables.

The equation of motion dc/dt = V c is linear with constant V, so the
primary propagator is exact stepping with the matrix exponential.
Exponentials come from this module's expm: scaling and squaring with
the degree-13 diagonal Pade approximant (Al-Mohy & Higham 2009) on a
whole stack of matrices, the scaling chosen per matrix.  A grid whose
times all equal j*h to within a few ulp is uniform, of step h
(np.linspace rounds its steps to about 16 distinct floats;
exp(V a) exp(V b) = exp(V (a + b)) makes stepping by h exact up to those
ulp).  It is cut into blocks of B rows: the first row of each block, its
coarse state, comes from the one before by exp(V B h), so rounding does
not add up over long runs, and every row of a chunk of blocks comes from
the chunk's coarse states by one real matmul against exp(V h)^j for
j < B, in the 2 x 2 real block form of complex numbers; the whole grid
costs a single expm call (for h and B h).  Any other grid, such as a log
grid, advances one step at a time, with one exponential per step, each
expm call taking as many steps as the caps on B allow.  The same core
evolves a whole stack of generators at once: run_ensemble propagates a
disorder ensemble as one stack, reducing it to moments as rows come.

Every propagation can be cross-checked against an independently coded
adaptive Runge-Kutta integrator (Dormand-Prince 5(4)) that takes a whole
stack in one pass, its shared step never looser than one per generator;
backends disagreeing beyond 1e-8 in max norm raise IntegrityError, as
silent numerical corruption is worse than a crash.

Observables: site populations P_m = |c_m|^2, total population P_tot,
the emitted intensity I_tot = -dP_tot/dt, and the t -> infinity state
as the orthogonal projection onto null(V).  With
w_m = exp(-i phi_m) at the phase positions phi_m, the emission form is
rank 2, -(V + V^dag) = gamma_R w w^dag + gamma_L conj(w) w^T, so
I_tot = gamma_R |w^dag c|^2 + gamma_L |w^T c|^2: the sum of the
intensities emitted to the right and to the left, each >= 0.  The same
matmul that gives a chunk's amplitudes gives both projections, and the
intensity never cancels terms of size gamma |c|^2 as -c^dag (V + V^dag) c
would on the long-lived plateaus.

Populations below 1e-300 are clamped to zero and flagged, so extreme
subradiance studies cannot leak denormals into downstream analysis.

The CSV columns of a trajectory and of an ensemble are their table();
reprs writes the tables and the trajectory JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain import ChainConfig, CouplingMatrix, DisorderSpec, build_chain
from .errors import ConfigError, IntegrityError, NumericsError

__all__ = [
    "StateVector",
    "Trajectory",
    "uniform_excitation",
    "uniform_grid",
    "log_grid",
    "propagate",
    "EnsembleResult",
    "run_ensemble",
    "steady_state",
]

_UNDERFLOW_FLOOR = 1e-300
# first nonzero time of a log grid, in units of 1/gamma
_LOG_T_MIN = 1e-2
# most points of a time grid or of a kernel table's xi range (80 MB per
# column); a grid past it is refused before any array is made
_MAX_POINTS = 10**7
_NORM_SLACK = 1e-9
_CHECK_SEED = 0x5EED
# cross-check: max-norm tolerance and number of re-solved grid times
_CHECK_TOL = 1e-8
_CHECK_POINTS = 10
# relative and absolute local error bound of each Runge-Kutta step
_RK_TOL = 1e-12
# steps advanced per matmul on a uniform grid
_BLOCK = 32
# most entries B*N^2 of one generator's powers (64 KB in real form), and
# of its step exponentials per expm call off a uniform grid (see _evolve)
_BLOCK_ENTRIES = 2048
# entries C*(N+2) of one generator's chunk of C grid rows (see _evolve)
_CHUNK_ENTRIES = 2048
# a grid whose times are within this many ulp of j*h is uniform, of step h
_RUN_ULPS = 4


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex site amplitudes of one state; norm**2 <= 1 (+ slack)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        # a copy: freezing the caller's own array would lock it too
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ConfigError("amplitudes must be a non-empty 1D array")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        # written so that a NaN norm fails too
        if not norm_sq <= 1.0 + _NORM_SLACK:
            raise ConfigError(
                f"state norm^2 = {norm_sq!r} is not at most 1 within tolerance")
        object.__setattr__(self, "amplitudes", amps)
        amps.flags.writeable = False

    @property
    def n_atoms(self) -> int:
        return self.amplitudes.size

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def uniform_excitation(n_atoms: int) -> StateVector:
    """The symmetric state c_m = 1/sqrt(N) shared by the whole chain."""
    if not isinstance(n_atoms, (int, np.integer)) or n_atoms < 1:
        raise ConfigError(f"n_atoms must be an integer >= 1, got {n_atoms!r}")
    return StateVector(np.full(n_atoms, 1.0 / math.sqrt(n_atoms), dtype=complex))


def uniform_grid(horizon: float = 20.0, points: int = 2000) -> np.ndarray:
    """Uniformly spaced times [0, horizon] (times in units of 1/gamma)."""
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon!r}")
    if not isinstance(points, (int, np.integer)) or not 2 <= points <= _MAX_POINTS:
        raise ConfigError(
            f"points must be an integer in [2, {_MAX_POINTS}], got {points!r}")
    return np.linspace(0.0, horizon, points)


def log_grid(horizon: float = 1e4, points_per_decade: int = 400) -> np.ndarray:
    """t = 0 followed by log-spaced times from _LOG_T_MIN to horizon."""
    if not _LOG_T_MIN < horizon or not math.isfinite(horizon):
        raise ConfigError(
            f"need {_LOG_T_MIN!r} < horizon < inf, got horizon={horizon!r}")
    if (not isinstance(points_per_decade, (int, np.integer))
            or points_per_decade < 1):
        raise ConfigError("points_per_decade must be an integer >= 1")
    decades = math.log10(horizon / _LOG_T_MIN)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    if count >= _MAX_POINTS:
        raise ConfigError(f"a log grid of {count + 1} points exceeds {_MAX_POINTS}")
    times = np.logspace(math.log10(_LOG_T_MIN), math.log10(horizon), count)
    times[-1] = horizon
    return np.concatenate(([0.0], times))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Propagated amplitudes plus derived observables on a time grid.

    times has shape (K,), amplitudes (K, N).  populations are clamped at
    the underflow floor; total and intensity derive from the clamped and
    raw amplitudes respectively; column m - 1 of amplitudes and of
    populations is site m.  gamma records the time-unit rate of the
    generating matrix so detector defaults can scale with it.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    populations: np.ndarray
    total: np.ndarray
    intensity: np.ndarray
    gamma: float
    underflow_clamped: bool = False

    def __len__(self) -> int:
        return self.times.size

    @property
    def n_atoms(self) -> int:
        return self.amplitudes.shape[1]

    @staticmethod
    def header(n_atoms: int) -> list:
        """The CSV header of a chain of n_atoms sites: t, P_1..P_N, P_tot, I_tot."""
        return ["t", *(f"P_{m}" for m in range(1, n_atoms + 1)), "P_tot", "I_tot"]

    def table(self) -> dict:
        """The CSV table, header name -> column."""
        return dict(zip(self.header(self.n_atoms), [
            self.times, *self.populations.T, self.total, self.intensity]))


def _validate_grid(grid: np.ndarray) -> np.ndarray:
    # a copy: a result's times must not change when the caller's grid does
    g = np.array(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ConfigError("grid must be a 1D array with at least 2 points")
    if g[0] != 0.0:
        raise ConfigError(f"grid must start at 0, got {float(g[0])!r}")
    if np.any(np.diff(g) <= 0.0):
        raise ConfigError("grid must be strictly increasing")
    if not np.all(np.isfinite(g)):
        raise ConfigError("grid must be finite")
    return g


def _observables(table: np.ndarray, weights: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Populations and (P_tot, I_tot) of the rows of a table of _evolve.

    table is (R, K, N + 2): the amplitudes c and the projections w^dag c
    and w^T c (see _evolve); weights (R, N + 2, 2), from _generators,
    takes the squared moduli of a row to P_tot and to
    I_tot = gamma_R |w^dag c|^2 + gamma_L |w^T c|^2, the rank-2 form of
    -c^dag (V + V^dag) c, which adds two nonnegative terms instead of
    cancelling terms of size gamma |c|^2 down to the emitted intensity.
    Returns the populations (R, K, N), (P_tot, I_tot) as (R, K, 2) and
    whether a population was clamped.
    """
    n = table.shape[-1] - 2
    # |c_m|^2, |w^dag c|^2 and |w^T c|^2, with no other temporary
    squares = np.abs(table)
    squares *= squares
    populations = squares[..., :n]
    clamped = False
    # the contiguous minimum first: scanning the strided populations costs
    # several times more, and is needed only when some square is tiny
    if squares.min() < _UNDERFLOW_FLOOR and populations.min() < _UNDERFLOW_FLOOR:
        tiny = populations < _UNDERFLOW_FLOOR
        clamped = bool(populations[tiny].any())
        populations[tiny] = 0.0
    # (P_tot, I_tot) of every row from one product: a sum over a short
    # last axis is several times slower than a matmul.  A one-row product
    # takes another BLAS path than a longer one and rounds differently, so
    # a one-row table goes through as two copies of its row.
    if table.shape[-2] == 1:
        doubled = np.repeat(squares, 2, axis=-2) @ weights
        return populations, doubled[..., :1, :].copy(), clamped
    return populations, squares @ weights, clamped


def _generators(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stack V (R, N, N), emission vectors w (R, N) and weights.

    w_m = exp(-i phi_m) from the positions phi of each matrix: the
    strictly lower part of V is -gamma_R w w^dag and the strictly upper
    part -gamma_L conj(w) w^T, so -(V + V^dag) = gamma_R w w^dag +
    gamma_L conj(w) w^T.  weights (R, N + 2, 2) takes
    (|c_1|^2 .. |c_N|^2, |w^dag c|^2, |w^T c|^2) to (P_tot, I_tot).
    """
    v = np.stack([m.entries for m in matrices])
    n_stack, n = v.shape[:2]
    w = np.exp(-1j * np.stack([m.positions for m in matrices]))
    weights = np.zeros((n_stack, n + 2, 2))
    weights[:, :n, 0] = 1.0
    weights[:, n:, 1] = [[m.gamma_right, m.gamma_left] for m in matrices]
    return v, w, weights


# Scaling and squaring with the diagonal Pade approximant r_13, Al-Mohy &
# Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009): the bound theta_13 on
# the scaled norm, 1/|c_27| of the leading backward-error coefficient (for
# ell) and the coefficients b_0 .. b_13 of r_13.
_PADE_THETA = 4.25
_PADE_ELL = 113250775606021113483283660800000000.0
_PADE_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)


def _onenorm(a: np.ndarray) -> np.ndarray:
    """Largest absolute column sum of every matrix of the stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _ell(a: np.ndarray) -> np.ndarray:
    """Extra squarings that the rounding of r_13 asks for, per matrix.

    ell(A) = max(ceil(log2(alpha / u) / 26), 0) with
    alpha = ||abs(A)^27||_1 / (||A||_1 |1/c_27|); the norm of the
    nonnegative power is e^T abs(A)^27 by vector products.
    """
    magnitude = np.abs(a)
    sums = np.ones(a.shape[:-1])[:, None, :]
    for _ in range(27):
        sums = sums @ magnitude
    power_norm = sums[:, 0].max(axis=-1)
    # a zero matrix gives 0 / 0, which the last line drops
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = power_norm / (magnitude.sum(axis=-2).max(axis=-1) * _PADE_ELL)
        value = np.ceil(np.log2(alpha / 2.0 ** -53) / 26)
    return np.where(power_norm > 0.0, np.maximum(value, 0.0), 0.0).astype(int)


def _pade(s: int, powers: list) -> np.ndarray:
    """r_13(2^-s A) for a stack; powers are A, A^2, A^4, A^6."""
    b = _PADE_B
    scale = 2.0 ** -s
    a1, a2, a4, a6 = (p * scale ** k for p, k in zip(powers, (1, 2, 4, 6)))
    high = [(b[13], a6), (b[11], a4), (b[9], a2)]
    u = a1 @ _series(b[1], [(b[7], a6), (b[5], a4), (b[3], a2)],
                     a6 @ _series(0.0, high))
    high = [(b[12], a6), (b[10], a4), (b[8], a2)]
    v = _series(b[0], [(b[6], a6), (b[4], a4), (b[2], a2)],
                a6 @ _series(0.0, high))
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: the identity stays exact
    r = np.linalg.solve(v - u, u)
    r *= 2.0
    return _series(1.0, [], r)


def _series(constant: float, terms: list, start=None) -> np.ndarray:
    """start + sum of c * M over the (c, M) terms + constant * I, in place.

    Adds into one array, and the constant onto its diagonal only: at
    N = 200 the temporaries of the plain expression cost more than the
    matrix products.
    """
    out = start
    for c, matrix in terms:
        if out is None:
            out = c * matrix
        else:
            out += c * matrix
    sites = np.arange(out.shape[-1])
    out[..., sites, sites] += constant
    return out


def _exp_sinch(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(a) sinh(x) / x, from its Taylor series where |x| is small."""
    x2 = x * x
    series = np.exp(a) * (1.0 + x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.exp(a + x) - np.exp(a - x)) / (2.0 * x)
    return np.where(np.abs(x) < 0.0135, series, direct)


def _square(r: np.ndarray, a: np.ndarray, s: int) -> np.ndarray:
    """r^(2^s), where r = r_13(2^-s A) for the stack a.

    A triangular matrix of a (a diagonal one is triangular both ways)
    keeps its zero triangle and gets the exact diagonal of exp(2^-i A) at
    every i from s down to 0, and the exact first off-diagonal after every
    squaring (Code Fragment 2.1 of Al-Mohy & Higham).  At s = 0 that is
    the exact diagonal alone.
    """
    lower = ~np.triu(a, 1).any(axis=(1, 2))
    upper = ~np.tril(a, -1).any(axis=(1, 2))
    triangular = np.flatnonzero(lower | upper)
    r[lower] = np.tril(r[lower])
    r[upper] = np.triu(r[upper])
    t = a[triangular]
    diag = np.diagonal(t, axis1=1, axis2=2)
    below = np.diagonal(t, -1, axis1=1, axis2=2)
    above = np.diagonal(t, 1, axis1=1, axis2=2)
    sites = np.arange(a.shape[-1])
    for i in range(s, -1, -1):
        if i < s:
            r = r @ r
        scale = 2.0 ** -i
        fixed = r[triangular]
        fixed[:, sites, sites] = np.exp(scale * diag)
        if i < s:
            lam = scale * diag
            # the off-diagonal of exp([[l1, t], [0, l2]]), Higham (10.42)
            factor = scale * _exp_sinch(0.5 * (lam[:, :-1] + lam[:, 1:]),
                                        0.5 * (lam[:, :-1] - lam[:, 1:]))
            fixed[:, sites[1:], sites[:-1]] = factor * below
            fixed[:, sites[:-1], sites[1:]] = factor * above
        r[triangular] = fixed
    return r


def expm(a: np.ndarray) -> np.ndarray:
    """exp(A) of every matrix of a stack (..., N, N).

    Scaling and squaring with the diagonal Pade approximant r_13, the
    degree-13 branch of Al-Mohy & Higham (2009), Algorithm 5.1, with exact
    1-norms of the powers of A.  The scaling is chosen per matrix, so a
    matrix's exponential does not depend on the rest of the stack;
    matrices that share it are evaluated together.  The algorithm's lower
    degrees 3 to 9 only save matrix products at small norms, and on
    stacks of small generators numpy's per-call overhead, not the
    products, sets the cost, so every matrix takes r_13.  A triangular
    matrix, a diagonal one included, keeps its zero triangle exactly zero
    and gets the exact exponential of its diagonal at every scaling.
    Raises NumericsError when a power norm is not finite.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    # an A that overflows or holds a NaN is refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2
        d6 = _onenorm(x6) ** (1 / 6)
        # d8 <= d4 and d10 <= max(d4, d6), so eta <= max(d4, d6): where
        # that bound is below theta_13, by far more than the rounding of
        # the products, every scaling is 0 without A^8 and A^10
        eta = np.maximum(_onenorm(x4) ** (1 / 4), d6)
        if not np.all(eta <= _PADE_THETA * (1.0 - 1e-9)):
            d8 = _onenorm(x4 @ x4) ** (1 / 8)
            d10 = _onenorm(x4 @ x6) ** (1 / 10)
            eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    if not np.all(np.isfinite(eta)):
        raise NumericsError("expm: a power norm overflows or is NaN")
    with np.errstate(divide="ignore"):
        scaling = np.where(eta > 0.0, np.maximum(
            np.ceil(np.log2(eta / _PADE_THETA)), 0.0), 0.0).astype(int)
    scaling += _ell(x * (2.0 ** -scaling)[:, None, None])
    result = np.empty_like(x)
    for s in sorted(set(scaling.tolist())):
        members = np.flatnonzero(scaling == s)
        r = _pade(s, [p[members] for p in (x, x2, x4, x6)])
        result[members] = _square(r, x[members], s)
    return result.reshape(a.shape)


def _is_uniform(grid: np.ndarray) -> bool:
    """Whether every time of a validated grid is within _RUN_ULPS ulp of j*h."""
    h = grid[-1] / (grid.size - 1)
    line = h * np.arange(grid.size)
    return bool(np.all(np.abs(grid - line) <= _RUN_ULPS * np.spacing(grid)))


def _evolve(v: np.ndarray, w: np.ndarray, c0: np.ndarray, grid: np.ndarray
            ) -> Iterator[tuple[int, np.ndarray]]:
    """Advance c0 under every generator of the stack v across the grid.

    v has shape (R, N, N) and w (R, N).  Yields (k, table) in grid order:
    the rows k .. k + c - 1 of the grid as an (R, c, N + 2) array,
    starting with the initial state at k = 0: per row the amplitudes c,
    then the projections w^dag c and w^T c.  A table stays valid only
    until the next one is requested; a consumer copies what it keeps.

    The grid is cut into blocks of B rows and chunks of C rows, C a
    multiple of B.  The first row of each block, its coarse state, comes
    from the coarse state before it by one small product per generator:
    exp(V B h) on a uniform grid of step h, so rounding does not add up
    over long runs, and the step's own exponential on any other grid,
    where B = 1 and the steps that fit the caps on B below share one
    expm call.  Then one product per chunk gives every row of the chunk
    from its coarse states, in row form c^T S: S (R, N, B (N + 2) - N)
    holds (E^j)^T, (E^j)^T conj(w) and (E^j)^T w for j = 0 .. B - 1,
    E = exp(V h), less the identity of j = 0, whose amplitudes are the
    coarse states themselves.  The product is taken in real arithmetic,
    a dgemm per generator, which measured about twice as fast as the
    complex product at N = 5: S is built once in its real form, each
    entry s as the 2 x 2 block [[Re s, Im s], [-Im s, Re s]], interleaved
    so that the float view (Re c_1, Im c_1, ..) of the coarse states
    (R, C/B, 2N) times it is the float view of the rows; the complex S is
    dropped.  A uniform grid costs one expm call (for h and B h) in all.

    B is _BLOCK, capped so that the R B N^2 entries of the powers never
    exceed the R K N amplitudes of the trajectories, and so that one
    generator's powers stay within _BLOCK_ENTRIES: blocking only saves
    per-call overhead, and larger powers measured slower (N = 200 with
    B = 10 against B = 1, and N = 9 or 10 with B N^2 near 5000 under
    multithreaded OpenBLAS).  C is the least multiple of B that is at
    least max(_BLOCK, _CHUNK_ENTRIES / (N + 2)) rows (C = 320 at N = 5).
    C depends on N and the grid but never on R, so a generator's rows are
    bit for bit the same alone and in a stack.  Each generator costs
    C (N + 2) x 16 bytes for its chunk and 2N x 2 (B (N + 2) - N) x 8
    bytes for the real form of S (36 and 35 kB at N = 5; the real form
    takes twice the bytes of the complex S, so _BLOCK is 32, not 64,
    which keeps S at its complex size, and the chunk product at R = 20
    measured 53 us at B = 32 against 64 us at B = 64), and
    _observables adds C (N + 2) x 8 bytes of squared moduli and
    C x 2 x 8 bytes of (P_tot, I_tot) per chunk (18 and 5 kB), which an
    ensemble reduces over the stack in place: 96 kB per generator in
    all, measured with tracemalloc on a stack of 200.
    """
    n_stack, n = v.shape[:2]
    count = grid.size - 1
    bound = min(grid.size // n, _BLOCK_ENTRIES // (n * n))
    uniform = _is_uniform(grid)
    width = max(1, min(_BLOCK, bound, count)) if uniform else 1
    cap = max(1, bound)
    # [I | conj(w) | w]: a row state c^T times it is (c, w^dag c, w^T c)
    frame = np.zeros((n_stack, n, width, n + 2), dtype=complex)
    frame[:, range(n), 0, range(n)] = 1.0
    frame[:, :, 0, n] = w.conj()
    frame[:, :, 0, n + 1] = w
    if uniform:
        h = grid[-1] / count
        ends = _exponentials(v, [h] if width == 1 else [h, width * h])
        transposed = ends[:, 0].swapaxes(1, 2)
        for j in range(1, width):
            frame[:, :, j] = transposed @ frame[:, :, j - 1]
        leap = ends[:, -1]
    else:
        steps = np.diff(grid)
    # S less the identity of j = 0: the coarse states are their own rows
    fine = frame.reshape(n_stack, n, -1)[..., n:]
    # S in real form: rows 2m and 2m + 1 hold (Re S_mk, Im S_mk) and
    # (-Im S_mk, Re S_mk) for every column k, filled with no temporary
    real_fine = np.empty((n_stack, n, 2, fine.shape[-1], 2))
    real_fine[:, :, 0] = fine.view(float).reshape(n_stack, n, -1, 2)
    np.negative(fine.imag, out=real_fine[:, :, 1, :, 0])
    real_fine[:, :, 1, :, 1] = fine.real
    real_fine = real_fine.reshape(n_stack, 2 * n, -1)
    del frame, fine
    blocks = -(-max(_BLOCK, _CHUNK_ENTRIES // (n + 2)) // width)
    chunk = np.empty((n_stack, blocks, width * (n + 2)), dtype=complex)
    coarse = chunk[..., :n]
    # each block's coarse state as an (R, N, 1) column, made once: slicing
    # it anew for every step product cost a third of that product
    columns = [coarse[:, b, :, None] for b in range(blocks)]
    floats = chunk.view(float)
    table = chunk.reshape(n_stack, blocks * width, n + 2)
    coarse[:, 0] = c0
    first, filled = 0, 1
    for index in range(1, -(-grid.size // width)):
        if uniform:
            step = leap
        else:
            j = (index - 1) % cap
            if j == 0:
                exponentials = _exponentials(v, steps[index - 1:index - 1 + cap])
            step = exponentials[:, j]
        if filled == blocks:
            np.matmul(floats[..., :2 * n], real_fine, out=floats[..., 2 * n:])
            yield first, table
            first, filled = first + blocks * width, 0
        # after a full chunk the coarse state before sits at index -1
        np.matmul(step, columns[filled - 1], out=columns[filled])
        filled += 1
    np.matmul(floats[:, :filled, :2 * n], real_fine,
              out=floats[:, :filled, 2 * n:])
    yield first, table[:, :grid.size - first]


def _exponentials(v: np.ndarray, scales) -> np.ndarray:
    """exp(V * scale) for every generator and scale as (R, S, N, N), in one expm call."""
    n_stack, n = v.shape[:2]
    stack = v[:, None] * np.asarray(scales)[:, None, None]
    return expm(stack.reshape(-1, n, n)).reshape(n_stack, -1, n, n)


def _check_points(size: int) -> np.ndarray:
    """Sorted grid indices re-solved by the cross-check; the last is always in."""
    rng = np.random.default_rng(_CHECK_SEED)
    picks = np.sort(rng.choice(np.arange(1, size),
                               size=min(_CHECK_POINTS, size - 1), replace=False))
    picks[-1] = size - 1
    return picks


def _cross_check(v: np.ndarray, c0: np.ndarray, times: np.ndarray,
                 states: np.ndarray) -> None:
    """Compare states (R, P, N) of a stack v (R, N, N) at times with one RK
    call; an error names the time, and in an ensemble the realization."""
    deviations = np.abs(states - _dp54(v, c0, times))
    worst = np.unravel_index(np.argmax(deviations), deviations.shape)
    deviation = float(deviations[worst])
    if not deviation <= _CHECK_TOL:  # NaN fails too; argmax finds it
        where = f" in realization {worst[0]}" if len(v) > 1 else ""
        raise IntegrityError(
            "matrix-exponential and Runge-Kutta backends disagree "
            f"({deviation:.3e} > {_CHECK_TOL:.1e}){where} "
            f"at t = {times[worst[1]]}", estimate=deviation, residual=deviation)


def _check_sites(matrix_sites: int, state: StateVector) -> None:
    if state.n_atoms != matrix_sites:
        raise ConfigError(
            f"state has {state.n_atoms} sites but matrix has {matrix_sites}")


def propagate(matrix: CouplingMatrix, initial: StateVector, grid,
              *, cross_check: bool = True) -> Trajectory:
    """Evolve the initial state to every grid time via matrix exponentials.

    With cross_check on (the default), up to _CHECK_POINTS grid times
    are re-solved by the adaptive Runge-Kutta backend and compared in max
    norm; disagreement beyond _CHECK_TOL raises IntegrityError.
    """
    grid = _validate_grid(grid)
    _check_sites(matrix.n_atoms, initial)
    n = matrix.n_atoms
    v, w, weights = _generators([matrix])
    states = np.empty((grid.size, n), dtype=complex)
    populations = np.empty((grid.size, n))
    total = np.empty(grid.size)
    intensity_arr = np.empty(grid.size)
    clamped = False
    for k, table in _evolve(v, w, initial.amplitudes, grid):
        stop = k + table.shape[1]
        pops, observed, clamp = _observables(table, weights)
        states[k:stop] = table[0, :, :n]
        populations[k:stop] = pops[0]
        total[k:stop] = observed[0, :, 0]
        intensity_arr[k:stop] = observed[0, :, 1]
        clamped |= clamp
    if cross_check:
        picks = _check_points(grid.size)
        _cross_check(v, initial.amplitudes, grid[picks], states[None, picks])
    return Trajectory(times=grid, amplitudes=states, populations=populations,
                      total=total, intensity=intensity_arr,
                      gamma=matrix.gamma, underflow_clamped=clamped)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Per-time sample mean and standard deviation over disorder draws."""

    times: np.ndarray
    mean_total: np.ndarray
    std_total: np.ndarray
    mean_intensity: np.ndarray
    std_intensity: np.ndarray
    n_realizations: int
    seed: int
    n_skipped: int = 0  # no draw breaks the site order (see run_ensemble)
    gamma: float = 1.0
    underflow_clamped: bool = False  # any draw's population was clamped

    def __post_init__(self):
        for name in ("times", "mean_total", "std_total",
                     "mean_intensity", "std_intensity"):
            value = getattr(self, name)
            # kept when it and the memory it views are frozen already, as
            # run_ensemble hands them over; else a copy, since freezing
            # the caller's own arrays would lock them too
            base = value if getattr(value, "base", None) is None else value.base
            if not (isinstance(value, np.ndarray) and value.dtype == float
                    and isinstance(base, np.ndarray)
                    and not (value.flags.writeable or base.flags.writeable)):
                value = np.array(value, dtype=float)
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        if np.any(self.std_total < 0.0) or np.any(self.std_intensity < 0.0):
            raise ConfigError("standard deviations must be non-negative")

    @staticmethod
    def header() -> list:
        """The CSV header of an ensemble: t and the moments of P_tot, I_tot."""
        return ["t", "mean_P_tot", "std_P_tot", "mean_I_tot", "std_I_tot"]

    def table(self) -> dict:
        """The CSV table, header name -> column."""
        return dict(zip(self.header(), [self.times, self.mean_total, self.std_total,
                                        self.mean_intensity, self.std_intensity]))


def run_ensemble(config: ChainConfig, disorder: DisorderSpec, grid,
                 *, cross_check: bool = False) -> EnsembleResult:
    """Propagate every disorder realization from the uniform excitation
    and reduce to the per-time mean and std of P_tot and I_tot.

    The realizations' coupling matrices are stacked in fixed index order
    and propagated together as one stack, so a given seed yields
    bitwise-identical output.  Neither the amplitudes nor the whole P_tot
    and I_tot of each realization are kept: each table that _evolve
    yields is reduced over the stack axis as it comes.  Its (P_tot, I_tot)
    rows form a C-contiguous (R, 2c) array, whose rows numpy adds in
    generator order, as it does for the whole (R, K) arrays, and the
    reduction is the two passes of numpy's mean and std, the sum over the
    stack taken once for both, so the moments are bit for bit those of
    the full arrays.  2c >= 2 columns hold even for a one-row table, whose
    two (R, 1) columns alone numpy would add pairwise.  Memory grows
    with the number of realizations plus the grid length, not with their
    product: O(R C (N + 2) + K), C the chunk rows of _evolve, 96 kB per
    realization at N = 5 (see _evolve).  Every draw keeps the site order
    (DisorderSpec holds w below 0.5), so no realization is skipped and
    n_skipped stays 0.  Standard deviations use the n-1 divisor.  With
    cross_check on, only the states at the check times are kept, and
    every realization is re-solved at them by one Runge-Kutta pass over
    the whole stack, as in propagate.
    """
    if disorder.mode != "ensemble":
        raise ConfigError(
            f"run_ensemble needs disorder mode 'ensemble', got {disorder.mode!r}")
    if disorder.n_realizations < 2:
        raise ConfigError("need at least 2 realizations")
    times = _validate_grid(grid)
    n_stack, n = disorder.n_realizations, config.n_atoms
    v, w, weights = _generators([build_chain(config, disorder, index)
                                 for index in range(n_stack)])
    c0 = uniform_excitation(n).amplitudes
    # [mean, std] of (P_tot, I_tot) at every grid time
    moments = np.empty((2, times.size, 2))
    picks = (_check_points(times.size) if cross_check
             else np.empty(0, dtype=int))
    checked = np.empty((n_stack, picks.size, n), dtype=complex)
    clamped = False
    for first, table in _evolve(v, w, c0, times):
        stop = first + table.shape[1]
        observed, clamp = _observables(table, weights)[1:]
        observed = observed.reshape(n_stack, -1)
        clamped |= clamp
        # numpy's two-pass mean and std(ddof=1), the sum taken once
        mean, std = moments[:, first:stop].reshape(2, -1)
        np.add.reduce(observed, axis=0, out=mean)
        mean /= n_stack
        observed -= mean
        np.square(observed, out=observed)
        np.add.reduce(observed, axis=0, out=std)
        std /= n_stack - 1
        np.sqrt(std, out=std)
        del observed  # freed before the next table's squares are made
        hit = (picks >= first) & (picks < stop)
        checked[:, hit] = table[:, picks[hit] - first, :n]
    if cross_check:
        _cross_check(v, c0, times[picks], checked)
    # frozen, so that EnsembleResult keeps them instead of copying
    times.flags.writeable = moments.flags.writeable = False
    mean, std = moments
    return EnsembleResult(times=times, mean_total=mean[:, 0],
                          std_total=std[:, 0], mean_intensity=mean[:, 1],
                          std_intensity=std[:, 1],
                          n_realizations=n_stack, seed=disorder.seed,
                          gamma=config.gamma, underflow_clamped=clamped)


# Dormand-Prince 5(4) tableau; the last row of a is b5, the weights of the
# fifth-order solution, where the seventh stage is taken (first same as last)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_A[-1] + (0.0,), _DP_B4))


def _combination(terms: list, stages: list) -> np.ndarray:
    """The sum of c * stages[j] over the (c, j) terms, left to right."""
    total = terms[0][0] * stages[terms[0][1]]
    for c, j in terms[1:]:
        total += c * stages[j]
    return total


def _dp54(v: np.ndarray, c0: np.ndarray, record_times: np.ndarray) -> np.ndarray:
    """Integrate dc/dt = V c from t = 0 for a stack v (R, N, N), recording
    states (R, P, N) at the given times.  The stack shares one step size,
    accepted only when the scaled error is <= 1 at every realization and
    site: never looser than per-generator control."""
    out = np.empty((len(v), record_times.size, c0.size), dtype=complex)
    t = 0.0
    y = np.tile(c0.astype(complex)[:, None], (len(v), 1, 1))
    k1 = v @ y
    h = 1e-3
    # the (coefficient, stage) pairs of each row with a nonzero coefficient
    rows = [[(c, j) for j, c in enumerate(row) if c] for row in (*_DP_A[1:], _DP_ERR)]
    for idx, t_target in enumerate(record_times):
        while t < t_target:
            clipped = t + h >= t_target
            h_step = (t_target - t) if clipped else h
            stages = [k1]
            for terms in rows[:-1]:
                # each stage's argument; the last row's is y5
                y5 = y + h_step * _combination(terms, stages)
                stages.append(v @ y5)
            err_vec = h_step * _combination(rows[-1], stages)
            scale = _RK_TOL + _RK_TOL * np.maximum(np.abs(y), np.abs(y5))
            err = float((np.abs(err_vec) / scale).max())
            if err <= 1.0:
                t = t_target if clipped else t + h_step
                y = y5
                k1 = stages[-1]  # first-same-as-last
                factor = min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.2))
                h = h_step * factor
            else:
                # only a rejected step tests the floor: an accepted step clipped
                # to land on a record time may be as short as the grid asks
                h = h_step * max(0.2, 0.9 * err ** -0.2)
                if h < 1e-13:
                    raise NumericsError(
                        "Runge-Kutta step size underflow", estimate=t, residual=h)
        out[:, idx] = y[..., 0]
    return out


def _null_space(v: np.ndarray) -> np.ndarray:
    """Orthonormal rows q spanning null(v): the right singular vectors whose
    singular value is at most sigma_max * N * eps (numpy's matrix_rank
    tolerance)."""
    _, sigma, vh = np.linalg.svd(v)
    return vh[sigma <= sigma[0] * sigma.size * np.finfo(float).eps].conj()


def steady_state(matrix: CouplingMatrix, initial: StateVector) -> StateVector:
    """The t -> infinity state: the orthogonal projection of c0 onto null(V).

    -(V + V^dag) is positive semidefinite, so V c = 0 gives
    c^dag (V + V^dag) c = 0, hence (V + V^dag) c = 0 and V^dag c = 0:
    null(V) = null(V^dag), the orthogonal complement of range(V).  No
    eigenvalue of V is purely imaginary and nonzero, so every component
    in range(V) decays and what is left is the orthogonal projection of
    c0 onto null(V).  The decay can be slow beyond any reachable time: a
    shifted site can leave a mode decaying at 1e-17 gamma, which this
    limit drops.  No eigenvector conditioning enters, and a generator
    without dark modes, such as every cascaded chain, gives exactly the
    zero state.
    """
    _check_sites(matrix.n_atoms, initial)
    dark = _null_space(matrix.entries)
    return StateVector(dark.T @ (dark.conj() @ initial.amplitudes))
