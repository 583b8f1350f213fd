"""Propagator backends, observables, steady states, and trajectory export."""

import dataclasses
import io
import json
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm, null_space

from chiralchain import dynamics, reprs
from chiralchain.chain import (ChainConfig, DisorderSpec,
                               _build_coupling_matrix, build_chain)
from chiralchain.dynamics import (StateVector, log_grid, propagate,
                                  steady_state, uniform_excitation,
                                  uniform_grid)
from chiralchain.reprs import write_trajectory_csv, write_trajectory_json
from chiralchain.errors import ConfigError, IntegrityError, NumericsError
from core_tables import core_tables
from oracles import cascaded, geometric, geometric_modes
from expm_references import (EXPM_CASES, EXPM_DPS, LIVE_CASE, STORED_N,
                             input_digest, load_references, mpmath_expm)


def chain(n, xi, gl, gr):
    return build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=gl,
                                   gamma_right=gr))


def test_uniform_grid_and_validation():
    grid = uniform_grid(10.0, 101)
    assert grid[0] == 0.0 and grid[-1] == 10.0 and grid.size == 101
    with pytest.raises(ConfigError):
        uniform_grid(-1.0, 100)
    with pytest.raises(ConfigError):
        uniform_grid(1.0, 1)


def test_log_grid_shape():
    grid = log_grid(horizon=1e4, points_per_decade=100)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(1e-2)
    assert grid[-1] == 1e4
    assert np.all(np.diff(grid) > 0.0)
    with pytest.raises(ConfigError):
        log_grid(horizon=1e-3, points_per_decade=100)


@pytest.mark.parametrize("build", [
    lambda: uniform_grid(20.0, dynamics._MAX_POINTS + 1),
    lambda: uniform_grid(20.0, 10**17),
    # 6 decades of points_per_decade points, plus t = 0 and the horizon
    lambda: log_grid(1e4, dynamics._MAX_POINTS // 6 + 1),
    lambda: log_grid(1e4, 10**17),
    lambda: uniform_grid(20.0, 2.5),
    lambda: log_grid(1e4, 2.5),
    lambda: log_grid(1e4, math.nan),
], ids=["uniform_cap", "uniform_1e17", "log_cap", "log_1e17",
        "uniform_2.5", "log_2.5", "log_nan"])
def test_grids_past_the_point_cap_are_refused_before_allocating(build):
    # such arrays would take 80 MB to many PB; the refusal is a
    # ConfigError, not a MemoryError; so is a count that is not an integer
    with pytest.raises(ConfigError):
        build()


def test_state_vector_invariants():
    state = uniform_excitation(4)
    assert state.n_atoms == 4
    assert np.sum(state.populations) == pytest.approx(1.0)
    assert not state.amplitudes.flags.writeable
    with pytest.raises(ConfigError):
        StateVector(np.array([1.0, 1.0]))  # norm^2 = 2
    with pytest.raises(ConfigError):
        StateVector(np.array([0.5, math.nan]))
    with pytest.raises(ConfigError):
        StateVector(np.zeros((2, 2)))
    for count in (0, 2.5, math.nan):
        with pytest.raises(ConfigError):
            uniform_excitation(count)
    # the state freezes its own copy, not the caller's array
    amplitudes = np.full(4, 0.5, dtype=complex)
    assert not StateVector(amplitudes).amplitudes.flags.writeable
    assert amplitudes.flags.writeable


def test_array_records_compare_by_identity():
    # a field-wise == would ask numpy for the truth value of an array
    config = ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9,
                         gamma_right=1.0)
    grid = uniform_grid(5.0, 11)
    first, second = (propagate(build_chain(config), uniform_excitation(3),
                               grid, cross_check=False) for _ in range(2))
    assert np.array_equal(first.amplitudes, second.amplitudes)
    assert first != second and first not in [second]
    assert first == first and first in [second, first]
    assert len({first, second, first}) == 2
    assert uniform_excitation(3) != uniform_excitation(3)
    assert build_chain(config) != build_chain(config)
    # the records of parameters keep value equality
    assert ChainConfig(**vars(config)) == config
    assert DisorderSpec.single_site(2, 0.1) == DisorderSpec.single_site(2, 0.1)


def assert_propagate_matches_cascaded(n, xi, disorder=None):
    matrix = build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=0.0,
                                     gamma_right=1.0), disorder)
    grid = uniform_grid(20.0, 801)
    trajectory = propagate(matrix, uniform_excitation(n), grid)
    expected = cascaded(matrix.positions, grid).T
    assert np.max(np.abs(trajectory.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("xi", [0.0, math.pi / 4.0, math.pi / 2.0, math.pi])
def test_propagate_matches_cascaded_n2(xi):
    assert_propagate_matches_cascaded(2, xi)


@pytest.mark.parametrize("xi", [0.0, math.pi / 2.0, math.pi])
def test_propagate_matches_cascaded_n3(xi):
    assert_propagate_matches_cascaded(3, xi)


@pytest.mark.parametrize("n", [5, 11, 20])
@pytest.mark.parametrize("xi", [0.0, math.pi / 2.0, math.pi])
def test_propagate_matches_cascaded_long_chains(n, xi):
    assert_propagate_matches_cascaded(n, xi)


@pytest.mark.parametrize("n", [2, 3, 5, 11, 20])
def test_propagate_matches_cascaded_with_a_shifted_site(n):
    assert_propagate_matches_cascaded(n, 2.37, DisorderSpec.single_site(n // 2 + 1, 0.3))


@pytest.mark.parametrize("n,xi,gamma_left,horizon,points", [
    (5, math.pi, 0.9, 1500.0, 37501),  # the staircase
    (11, math.pi, 0.9, 1500.0, 37501),
    (40, math.pi, 0.5, 200.0, 2001),
    (6, 0.0, 0.3, 20.0, 2001),
    (7, math.pi, 1.5, 100.0, 2001),  # gamma_L > gamma_R
    (200, math.pi, 0.9, 20.0, 2001),
])
def test_propagate_matches_the_geometric_closed_form(n, xi, gamma_left,
                                                     horizon, points):
    times = uniform_grid(horizon, points)
    trajectory = propagate(chain(n, xi, gamma_left, 1.0), uniform_excitation(n),
                           times, cross_check=False)
    expected = geometric(n, xi, gamma_left, 1.0, times).T
    deviation = np.max(np.abs(trajectory.amplitudes - expected), axis=1)
    # the chain's phases m * float(pi) are off by about m * 1.2e-16, which
    # the closed form's exact signs are not: an error growing as N t eps
    # (at most 0.57 of this bound, at N = 200 and t = 18)
    assert np.all(deviation <= 1e-13 + n * times * np.finfo(float).eps)


# gamma_L stays 0.01 away from 0 and from gamma_R: toward either the
# closed form's eigenbasis degenerates, and it loses digits of its own (at
# N = 20 and t = 100 it is 7.8e-12 from scipy's expm at gamma_L = 1e-6 and
# 3.7e-13 at 0.9999, where propagate is within 5e-15 and 7e-14).  The
# bound is tight near N = 200 at xi = pi: over 2400 random draws of this
# domain the largest deviation was 0.99 of it (N = 199, gamma_L = 1.92,
# t = 4.7), so the draws are fixed and every run checks the same chains
@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 200), xi=st.sampled_from([0.0, math.pi]),
       gamma_left=st.floats(0.01, 2.0).filter(lambda g: abs(g - 1.0) >= 0.01),
       horizon=st.floats(0.1, 100.0))
@example(n=200, xi=math.pi, gamma_left=2.0, horizon=100.0)
@example(n=2, xi=0.0, gamma_left=0.01, horizon=100.0)
@example(n=20, xi=math.pi, gamma_left=0.99, horizon=100.0)
def test_propagate_sweeps_the_geometric_closed_form(n, xi, gamma_left, horizon):
    times = uniform_grid(horizon, 21)
    trajectory = propagate(chain(n, xi, gamma_left, 1.0), uniform_excitation(n),
                           times, cross_check=False)
    expected = geometric(n, xi, gamma_left, 1.0, times).T
    deviation = np.max(np.abs(trajectory.amplitudes - expected), axis=1)
    assert np.all(deviation <= 1e-13 + n * times * np.finfo(float).eps)


def test_matrix_exponential_and_runge_kutta_agree():
    matrix = chain(5, 2.2, 0.7, 1.0)
    grid = uniform_grid(15.0, 301)
    state = uniform_excitation(5)
    fast = propagate(matrix, state, grid, cross_check=False)
    [slow] = dynamics._dp54(matrix.entries[None], state.amplitudes, grid[1:])
    assert slow.shape == (300, 5)
    assert np.max(np.abs(fast.amplitudes[1:] - slow)) < 1e-10
    # a stack of two gives (R, P, N), each row its generator's states
    other = chain(5, 0.4, 0.0, 1.0)
    stack = dynamics._dp54(np.stack([matrix.entries, other.entries]),
                           state.amplitudes, grid[1:])
    assert stack.shape == (2, 300, 5)
    assert np.max(np.abs(stack[0] - slow)) < 1e-10
    alone = propagate(other, state, grid, cross_check=False)
    assert np.max(np.abs(stack[1] - alone.amplitudes[1:])) < 1e-10


@pytest.mark.parametrize("horizon", [1e-12, 1e-14, 1e-20])
def test_runge_kutta_check_passes_on_short_horizons(horizon):
    # the steps clipped to land on record times are far shorter than the
    # step-size floor 1e-13, and they are accepted, not an underflow
    matrix = chain(3, math.pi, 1.0, 1.0)
    trajectory = propagate(matrix, uniform_excitation(3), uniform_grid(horizon, 2000))
    assert trajectory.total[-1] == pytest.approx(1.0, abs=1e-9)


def test_runge_kutta_step_underflow_raises_on_a_stiff_generator():
    # rates of order 1e16 drive rejected steps below the floor
    v = np.diag([-1e16, -1.0]).astype(complex)
    c0 = np.ones(2, dtype=complex)
    with pytest.raises(NumericsError, match="step size underflow"):
        dynamics._dp54(v[None], c0, np.array([1.0]))
    # the stack shares one step, so one stiff member sinks it to the floor
    normal = chain(2, 1.0, 0.9, 1.0).entries
    with pytest.raises(NumericsError, match="^Runge-Kutta step size underflow$"):
        dynamics._dp54(np.stack([normal, v]), c0, np.array([1.0]))
    assert dynamics._dp54(normal[None], c0, np.array([1.0])).shape == (1, 1, 2)


@settings(max_examples=30, deadline=None)
@given(r=st.integers(1, 4), n=st.integers(2, 7), xi=st.floats(0.0, 2 * math.pi),
       gamma_left=st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
       width=st.floats(0.0, 0.05), seed=st.integers(0, 2**16),
       horizon=st.floats(0.5, 20.0))
def test_runge_kutta_stack_agrees_with_each_member(r, n, xi, gamma_left,
                                                   width, seed, horizon):
    # cascaded (gamma_L = 0) and disordered chains of every length: one
    # RK pass over the stack against each member's matrix exponentials
    config = ChainConfig(n_atoms=n, xi=xi, gamma_left=gamma_left,
                         gamma_right=1.0)
    disorder = DisorderSpec.ensemble(width, r, seed)
    matrices = [build_chain(config, disorder, index) for index in range(r)]
    state = uniform_excitation(n)
    grid = uniform_grid(horizon, 201)
    picks = dynamics._check_points(grid.size)
    stack = dynamics._dp54(np.stack([m.entries for m in matrices]),
                           state.amplitudes, grid[picks])
    assert stack.shape == (r, picks.size, n)
    for matrix, rk_states in zip(matrices, stack):
        exact = propagate(matrix, state, grid, cross_check=False)
        assert np.max(np.abs(exact.amplitudes[picks] - rk_states)) < 1e-9


def test_propagate_raises_when_the_cross_check_disagrees(monkeypatch):
    matrix = chain(3, 1.0, 0.9, 1.0)
    state = uniform_excitation(3)
    grid = uniform_grid(5.0, 101)
    honest = dynamics._dp54
    # a NaN deviation is no agreement either
    last = float(grid[dynamics._check_points(grid.size)[-1]])
    for offset in (1e-6, math.nan):
        def perturbed(*args, **kwargs):
            states = honest(*args, **kwargs)
            states[:, -1] += offset
            return states

        monkeypatch.setattr(dynamics, "_dp54", perturbed)
        # a single trajectory has no realization to name, only the time
        with pytest.raises(IntegrityError,
                           match=r"\) at t = " + re.escape(repr(last)) + "$"):
            propagate(matrix, state, grid)
    propagate(matrix, state, grid, cross_check=False)


def test_propagate_grid_validation():
    matrix = chain(2, 1.0, 1.0, 1.0)
    state = uniform_excitation(2)
    with pytest.raises(ConfigError):
        propagate(matrix, state, np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(ConfigError):
        propagate(matrix, state, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ConfigError):
        propagate(matrix, state, np.array([0.0]))
    with pytest.raises(ConfigError):
        propagate(matrix, uniform_excitation(3), uniform_grid(1.0, 10))


def test_results_do_not_share_the_callers_grid():
    grid = np.linspace(0.0, 1.0, 5)
    trajectory = propagate(chain(2, 1.0, 0.9, 1.0), uniform_excitation(2),
                           grid, cross_check=False)
    config = ChainConfig(n_atoms=2, xi=1.0, gamma_left=0.9, gamma_right=1.0)
    ensemble = dynamics.run_ensemble(config, DisorderSpec.ensemble(0.01, 2, 0),
                                     grid)
    assert not np.shares_memory(grid, trajectory.times)
    assert not np.shares_memory(grid, ensemble.times)
    grid[1] = 99.0
    assert trajectory.times[1] == ensemble.times[1] == 0.25


def test_trajectory_accessors():
    matrix = chain(3, 1.5, 0.5, 1.0)
    grid = uniform_grid(5.0, 51)
    trajectory = propagate(matrix, uniform_excitation(3), grid)
    assert len(trajectory) == 51
    assert trajectory.n_atoms == 3
    assert trajectory.amplitudes.shape == (51, 3)
    assert np.array_equal(trajectory.times, grid)
    # column m - 1 is site m; populations are |c_m|^2 above the floor
    assert np.array_equal(trajectory.populations,
                          np.abs(trajectory.amplitudes) ** 2)
    assert np.array_equal(trajectory.amplitudes[0], uniform_excitation(3).amplitudes)


def test_intensity_is_population_loss_rate():
    matrix = chain(4, 2.7, 0.4, 1.0)
    grid = uniform_grid(8.0, 8001)
    trajectory = propagate(matrix, uniform_excitation(4), grid,
                           cross_check=False)
    dt = grid[1] - grid[0]
    dp_dt = np.gradient(trajectory.total, dt)
    inner = slice(2, -2)
    assert np.max(np.abs(trajectory.intensity[inner] + dp_dt[inner])) < 1e-5
    assert np.all(trajectory.intensity >= -1e-12)
    assert np.all(np.diff(trajectory.total) <= 1e-12)


def test_trajectory_intensity_matches_dissipator_form():
    matrix = chain(3, 1.0, 0.8, 1.0)
    state = uniform_excitation(3)
    grid = uniform_grid(1.0, 11)
    trajectory = propagate(matrix, state, grid, cross_check=False)
    c = state.amplitudes
    v = matrix.entries
    expected = np.real(c.conj() @ -(v + v.conj().T) @ c)
    assert expected == pytest.approx(trajectory.intensity[0], abs=1e-13)


def test_decoherence_free_even_chain_holds_population():
    matrix = chain(2, math.pi, 1.0, 1.0)
    grid = uniform_grid(1000.0, 5001)
    trajectory = propagate(matrix, uniform_excitation(2), grid)
    assert np.max(np.abs(trajectory.total - 1.0)) < 1e-9


def test_steady_state_even_chain_keeps_uniform_state():
    matrix = chain(2, math.pi, 1.0, 1.0)
    state = steady_state(matrix, uniform_excitation(2))
    assert np.allclose(state.populations, [0.5, 0.5], atol=1e-12)


def test_steady_state_odd_chain_dark_projection():
    matrix = chain(3, math.pi, 1.0, 1.0)
    state = steady_state(matrix, uniform_excitation(3))
    assert np.allclose(state.populations,
                       [4.0 / 27.0, 16.0 / 27.0, 4.0 / 27.0], atol=1e-10)


def test_steady_state_superradiant_chain_empties():
    # xi = 0, equal rates: uniform state is the fully bright mode
    matrix = chain(2, 0.0, 1.0, 1.0)
    state = steady_state(matrix, uniform_excitation(2))
    assert np.sum(state.populations) < 1e-18


def test_steady_state_cascaded_chain_is_exactly_empty():
    # gamma_L = 0 makes V defective (one eigenvector per Jordan block) but
    # nonsingular: null(V) is empty and nothing is propagated
    matrix = chain(3, math.pi, 0.0, 1.0)
    assert np.sum(steady_state(matrix, uniform_excitation(3)).populations) == 0.0


def test_steady_state_is_the_orthogonal_projection_onto_null_space():
    # half-spacing offsets make V complex and its null space too
    matrix = _build_coupling_matrix(np.array([0.0, 1.0, 2.5, 3.5]) * math.pi,
                                    1.0, 1.0)
    null = null_space(matrix.entries)
    assert null.shape[1] == 2
    c0 = np.array([0.1 + 0.5j, -0.3j, 0.4, 0.2 - 0.6j])
    state = steady_state(matrix, StateVector(c0))
    assert np.max(np.abs(state.amplitudes - null @ (null.conj().T @ c0))) < 1e-14


@pytest.mark.parametrize("n", [200, 201])
def test_steady_state_rank_tolerance_keeps_every_dark_mode(n):
    # the balanced pi chain is rank one: N - 1 dark modes, whose null
    # singular values sit below sigma_max * N * eps
    matrix = chain(n, math.pi, 1.0, 1.0)
    assert dynamics._null_space(matrix.entries).shape[0] == n - 1
    first = steady_state(matrix, uniform_excitation(n)).populations[0]
    closed = 1.0 / n if n % 2 == 0 else (n - 1) ** 2 / n ** 3
    assert first == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_steady_state_rank_tolerance_drops_quasi_dark_modes():
    # the smallest singular value here is only 1.6e-10 sigma_max, yet
    # about 1.8e3 times the rank tolerance: a decaying mode, not a dark one
    matrix = chain(400, math.pi, 0.99, 1.0)
    sigma = np.linalg.svd(matrix.entries, compute_uv=False)
    assert sigma[-1] < 1e-9 * sigma[0]
    state = steady_state(matrix, uniform_excitation(400))
    assert np.sum(state.populations) == 0.0


def mpmath_eigenvalues(matrix, dps):
    """Eigenvalues of V rebuilt from the chain's positions with dps digits."""
    with mpmath.workdps(dps):
        phi = [mpmath.mpf(float(p)) for p in matrix.positions]
        n = len(phi)
        v = mpmath.matrix(n, n)
        for m in range(n):
            for k in range(n):
                rate = matrix.gamma_left if k > m else matrix.gamma_right
                v[m, k] = -mpmath.mpf(rate) * mpmath.expj(-abs(phi[m] - phi[k]))
            v[m, m] = -(mpmath.mpf(matrix.gamma_left) + matrix.gamma_right) / 2
        return [complex(z) for z in mpmath.eig(v, left=False, right=False)]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 11), xi=st.floats(0.0, 10.0),
       gamma_left=st.floats(0.0, 1.0),
       shift=st.none() | st.tuples(st.integers(1, 11), st.floats(-0.5, 0.5)))
@example(n=3, xi=math.pi, gamma_left=1.0, shift=None)
@example(n=5, xi=math.pi, gamma_left=0.0, shift=None)
@example(n=5, xi=0.75 * math.pi, gamma_left=0.9, shift=(3, 0.3))
# a mode with Re(lambda) = -8.4e-18 and Im(lambda) = -1.2e-3: undamped in
# double precision, damped at 50 digits
@example(n=7, xi=2.8775518150403636, gamma_left=1.0,
         shift=(4, 0.09216393112503396))
def test_null_space_premises_of_the_projection(n, xi, gamma_left, shift):
    # steady_state projects orthogonally onto null(V); that is the t -> inf
    # state only if null(V) = null(V^dag) and no nonzero eigenvalue of V is
    # purely imaginary
    disorder = (DisorderSpec.single_site(min(shift[0], n), shift[1])
                if shift else None)
    matrix = build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=gamma_left,
                                     gamma_right=1.0), disorder)
    v = matrix.entries
    norm = np.linalg.norm(v, 2)
    for q in dynamics._null_space(v):
        assert np.linalg.norm(v.conj().T @ q) <= 1e-12 * norm
    eigvals = np.linalg.eigvals(v)
    scale = max(float(np.max(np.abs(eigvals))), matrix.gamma)
    undamped = ((np.abs(eigvals.real) <= 1e-9 * scale)
                & (np.abs(eigvals) > 1e-9 * scale))
    if np.any(undamped):
        # a decay rate below 1e-9 scale may still be below double
        # precision: settle it with 50 digits
        precise = np.array(mpmath_eigenvalues(matrix, 50))
        oscillating = np.abs(precise) > 1e-9 * scale
        assert np.all(precise.real[oscillating] < -1e-40 * scale)


def test_propagate_on_log_grid_reaches_dark_population():
    matrix = chain(3, math.pi, 1.0, 1.0)
    trajectory = propagate(matrix, uniform_excitation(3), log_grid(1e3, 60))
    assert trajectory.times[-1] == 1e3
    assert trajectory.total[-1] == pytest.approx(24.0 / 27.0, abs=1e-9)


def test_underflow_clamp_flags_deep_decay():
    matrix = chain(1, 0.0, 0.5, 0.5)
    grid = uniform_grid(800.0, 2001)
    trajectory = propagate(matrix, uniform_excitation(1), grid,
                           cross_check=False)
    assert trajectory.underflow_clamped
    assert trajectory.populations[-1, 0] == 0.0


def test_csv_export_format_and_determinism():
    matrix = chain(2, 1.0, 0.9, 1.0)
    grid = uniform_grid(2.0, 21)
    trajectory = propagate(matrix, uniform_excitation(2), grid)
    first = io.BytesIO()
    write_trajectory_csv(trajectory, first, {"n_atoms": 2, "tag": "demo"})
    text = first.getvalue().decode()
    lines = text.splitlines()
    assert lines[0] == "# n_atoms = 2"
    assert lines[1] == "# tag = demo"
    assert lines[2] == "t,P_1,P_2,P_tot,I_tot"
    assert len(lines) == 3 + 21
    # repr floats parse back exactly
    cells = lines[3].split(",")
    assert float(cells[0]) == 0.0
    assert float(cells[3]) == trajectory.total[0]
    second = io.BytesIO()
    write_trajectory_csv(trajectory, second, {"n_atoms": 2, "tag": "demo"})
    assert second.getvalue().decode() == text


def test_csv_export_marks_underflow():
    matrix = chain(1, 0.0, 0.5, 0.5)
    trajectory = propagate(matrix, uniform_excitation(1),
                           uniform_grid(800.0, 101), cross_check=False)
    out = io.BytesIO()
    write_trajectory_csv(trajectory, out)
    assert b"# underflow_clamped = true" in out.getvalue()


def test_json_export_round_trip():
    matrix = chain(2, 2.0, 0.3, 1.0)
    grid = uniform_grid(3.0, 31)
    trajectory = propagate(matrix, uniform_excitation(2), grid)
    out = io.BytesIO()
    write_trajectory_json(trajectory, out, {"note": "round trip"})
    payload = json.loads(out.getvalue())
    assert payload["metadata"] == {"note": "round trip"}
    assert payload["gamma"] == 1.0
    amps = np.array([[complex(re, im) for re, im in row]
                     for row in payload["amplitudes"]])
    assert np.max(np.abs(amps - trajectory.amplitudes)) == 0.0
    assert payload["times"] == [float(t) for t in grid]


def core_amplitudes(v, c0, grid):
    """The core's (R, K, N) amplitudes, which do not depend on w."""
    return core_tables(v, np.ones(v.shape[:2]), c0, grid)[0][..., :-2]


def expm_reference(v, c0, grid):
    """expm(V t_k) c0 at every grid time, one exponential per time."""
    return np.array([[expm(entries * t) @ c0 for t in grid] for entries in v])


def generator_stack():
    return np.stack([chain(4, 2.2, 0.7, 1.0).entries,
                     chain(4, math.pi, 0.9, 1.0).entries])


def test_core_matches_expm_on_log_grid():
    v = generator_stack()
    c0 = uniform_excitation(4).amplitudes
    grid = log_grid(horizon=100.0, points_per_decade=40)
    got = core_amplitudes(v, c0, grid)
    assert np.max(np.abs(got - expm_reference(v, c0, grid))) < 1e-12


def test_core_matches_expm_on_grid_shorter_than_two_chains():
    # K < 2N caps the powers at a single step
    v = np.stack([chain(6, 2.2, 0.7, 1.0).entries,
                  chain(6, math.pi, 0.9, 1.0).entries])
    c0 = uniform_excitation(6).amplitudes
    for grid in (np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
                 np.array([0.0, 950.0, 975.0, 1000.0])):
        got = core_amplitudes(v, c0, grid)
        assert np.max(np.abs(got - expm_reference(v, c0, grid))) < 1e-12


def test_core_never_merges_a_moved_time():
    v = generator_stack()
    c0 = uniform_excitation(4).amplitudes
    grid = uniform_grid(20.0, 2001)
    assert dynamics._is_uniform(grid)
    assert not dynamics._is_uniform(log_grid(horizon=100.0, points_per_decade=40))
    grid[700] += 1e-6
    assert not dynamics._is_uniform(grid)
    got = core_amplitudes(v, c0, grid)
    assert np.max(np.abs(got - expm_reference(v, c0, grid))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8),
       chains=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0)),
                       min_size=2, max_size=4),
       log=st.booleans(), horizon=st.floats(0.5, 20.0),
       points=st.integers(2, 2001))
@example(n=5, chains=[(math.pi, 0.9), (0.75 * math.pi, 0.9)], log=True,
         horizon=20.0, points=2001)
def test_stacked_generators_propagate_as_alone(n, chains, log, horizon,
                                               points):
    # the log grid runs to horizon**3 (up to 8000) with up to 41 points
    # per decade; the uniform grid to horizon
    grid = (log_grid(horizon ** 3, 1 + points // 50) if log
            else uniform_grid(horizon, points))
    matrices = [chain(n, xi, gamma_left, 1.0) for xi, gamma_left in chains]
    c0 = uniform_excitation(n)
    stacked = core_amplitudes(np.stack([m.entries for m in matrices]),
                              c0.amplitudes, grid)
    steps = np.diff(grid)
    for matrix, row in zip(matrices, stacked):
        trajectory = propagate(matrix, c0, grid, cross_check=False)
        assert np.array_equal(trajectory.amplitudes, row)
        total, intensity = trajectory.total, trajectory.intensity
        assert np.all(np.diff(total) <= 1e-12)
        # I_tot = -dP_tot/dt: the trapezoid rule over each step, whose
        # error |I''| h^3 / 12 is at most (2 ||V||_2)^3 h^3 / 12
        lost = total[:-1] - total[1:]
        trapezoid = steps * (intensity[:-1] + intensity[1:]) / 2.0
        bound = (2.0 * np.linalg.norm(matrix.entries, 2) * steps) ** 3 / 12.0
        assert np.all(np.abs(lost - trapezoid) <= bound + 1e-12)


@pytest.mark.parametrize("block", [1, 7, 32, 64])
def test_core_does_not_depend_on_the_block_size(monkeypatch, block):
    # _BLOCK sets the rows per block of the uniform grid; _BLOCK_ENTRIES
    # caps them too and sets the step exponentials per expm call of the
    # log grid, here to block at N = 4
    monkeypatch.setattr(dynamics, "_BLOCK", block)
    monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", block * 4 * 4)
    v = generator_stack()
    c0 = uniform_excitation(4).amplitudes
    for grid in (uniform_grid(20.0, 501),
                 log_grid(horizon=100.0, points_per_decade=40)):
        got = core_amplitudes(v, c0, grid)
        assert np.max(np.abs(got - expm_reference(v, c0, grid))) < 1e-12


def test_one_row_table_rounds_as_in_a_longer_table():
    # at N = 5 the core yields tables of 320 grid times, so K = 641 ends in
    # a one-row table; its P_tot and I_tot carry the bits of the same row
    # in the product of the whole (R, K, N + 2) array
    matrices = [chain(5, 0.5 * math.pi, 0.7, 1.0), chain(5, math.pi, 0.9, 1.0),
                chain(5, 2.2, 0.3, 1.0)]
    v, w, weights = dynamics._generators(matrices)
    c0 = uniform_excitation(5)
    grid = uniform_grid(40.0, 641)
    table, starts = core_tables(v, w, c0.amplitudes, grid)
    assert starts[-1] == 640
    whole = dynamics._observables(table, weights)[1]
    last = dynamics._observables(table[:, 640:], weights)[1]
    assert np.array_equal(last[:, 0], whole[:, -1])
    for matrix, observed in zip(matrices, whole):
        trajectory = propagate(matrix, c0, grid, cross_check=False)
        assert trajectory.total[-1] == observed[-1, 0]
        assert trajectory.intensity[-1] == observed[-1, 1]


def geometric_grid(size):
    """0 and size - 1 geometrically spaced times: the core's per-step path."""
    return np.concatenate(([0.0], np.geomspace(1e-2, 100.0, size - 1)))


@pytest.mark.parametrize("blocks", [1, 3, None])
def test_core_rows_across_chunk_ends(monkeypatch, blocks):
    # N = 4 on 256 or more points takes blocks of B = _BLOCK rows, so
    # _CHUNK_ENTRIES = blocks * B * (N + 2) makes chunks of that many
    # blocks; None keeps the default.  The grids end one row before, on
    # and one row after a chunk end.
    if blocks is not None:
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES",
                            blocks * dynamics._BLOCK * 6)
    matrices = [chain(4, 2.2, 0.7, 1.0), chain(4, math.pi, 0.9, 1.0)]
    v, w, _ = dynamics._generators(matrices)
    c0 = uniform_excitation(4).amplitudes
    for make in (lambda size: uniform_grid(0.04 * (size - 1), size),
                 geometric_grid):
        rows = core_tables(v, w, c0, make(2001))[1][1]
        if blocks is not None:
            assert rows == blocks * dynamics._BLOCK
        end = rows * max(2, -(-260 // rows))
        for size in (end - 1, end, end + 1):
            grid = make(size)
            table, starts = core_tables(v, w, c0, grid)
            assert starts == list(range(0, size, rows))
            reference = expm_reference(v, c0, grid)
            assert np.max(np.abs(table[..., :4] - reference)) < 1e-12
            right = np.einsum("rn,rkn->rk", w.conj(), reference)
            left = np.einsum("rn,rkn->rk", w, reference)
            assert np.max(np.abs(table[..., 4] - right)) < 1e-12
            assert np.max(np.abs(table[..., 5] - left)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), xi=st.floats(0.0, 10.0),
       gamma_left=st.floats(0.0, 1.0), gamma_right=st.floats(0.0, 1.0),
       shift=st.none() | st.tuples(st.integers(1, 8), st.floats(-0.9, 0.9)),
       log=st.booleans())
@example(n=5, xi=math.pi, gamma_left=0.9, gamma_right=1.0, shift=(3, 0.3),
         log=True)
def test_swapping_rates_and_reversing_sites_mirrors_populations(
        n, xi, gamma_left, gamma_right, shift, log):
    # the mirror x -> -x turns right-going emission into left-going and
    # takes site s with shift d to site n + 1 - s with shift -d
    assume(max(gamma_left, gamma_right) > 0.0)
    disorder = mirrored = DisorderSpec.none()
    if shift is not None:
        site, fraction = min(shift[0], n), shift[1]
        disorder = DisorderSpec.single_site(site, fraction)
        mirrored = DisorderSpec.single_site(n + 1 - site, -fraction)
    grid = log_grid(1e3, 40) if log else uniform_grid(20.0, 801)

    def populations(config, disorder):
        return propagate(build_chain(config, disorder), uniform_excitation(n),
                         grid, cross_check=False).populations

    forward = populations(ChainConfig(n, xi, gamma_left, gamma_right), disorder)
    backward = populations(ChainConfig(n, xi, gamma_right, gamma_left), mirrored)
    assert np.max(np.abs(forward - backward[:, ::-1])) <= 1e-12


def test_uniform_grid_costs_one_expm(monkeypatch):
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    matrix = chain(5, math.pi, 0.9, 1.0)
    propagate(matrix, uniform_excitation(5), uniform_grid(1500.0, 37501),
              cross_check=False)
    assert calls == [(2, 5, 5)]  # the step and the block exponential


def relative_error(got, reference):
    return np.max(np.abs(got - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("n", [2, 5, STORED_N])
def test_expm_matches_mpmath_across_chains_and_steps(n):
    # N = 11 reads its mpmath references from the file that
    # tests/expm_references.py writes; N = 2 and N = 5 evaluate them here
    stored = load_references() if n == STORED_N else None
    if stored is not None:
        assert sorted(stored) == sorted(EXPM_CASES)
    worst = 0.0
    for case in EXPM_CASES:
        gamma_left, xi, h = case
        a = chain(n, xi, gamma_left, 1.0).entries * h
        if stored is None:
            reference = mpmath_expm(a, EXPM_DPS)
        else:
            digest, reference = stored[case]
            assert digest == input_digest(a), f"stale reference for {case}"
            if case == LIVE_CASE:
                assert np.array_equal(reference, mpmath_expm(a, EXPM_DPS))
        worst = max(worst, relative_error(dynamics.expm(a), reference))
    assert worst < 5e-14


@pytest.mark.parametrize("n", [64, 200])
def test_expm_matches_the_geometric_closed_form(n):
    # at xi = 0 the chain's phases are exact; exp(V h) = X^T e^{lambda h} Y / N
    steps = np.logspace(-3, math.log10(300.0), 9)
    for gamma_left in (0.5, 0.9):
        v = chain(n, 0.0, gamma_left, 1.0).entries
        lam, x, y = geometric_modes(n, 0.0, gamma_left, 1.0)
        for h, got in zip(steps, dynamics.expm(v * steps[:, None, None])):
            reference = (x.T * np.exp(lam * h)) @ y / n
            # at most 0.63 of this bound, at N = 200, gamma_L = 0.9, h = 0.55
            assert (relative_error(got, reference)
                    <= 1e-14 + n * h * np.finfo(float).eps)


def test_expm_of_stiff_cascaded_chain():
    # gamma_L = 0: V is lower triangular, exp(300 V) spans 1e-66 .. 1e-47
    a = chain(11, math.pi, 0.0, 1.0).entries * 300.0
    got = dynamics.expm(a)
    assert relative_error(got, mpmath_expm(a, 40)) < 1e-15
    assert np.all(np.triu(got, 1) == 0.0)
    upper = chain(11, 0.75 * math.pi, 1.0, 0.0).entries * 300.0
    assert np.all(np.tril(dynamics.expm(upper), -1) == 0.0)


def test_expm_of_unscaled_cascaded_chain_has_exact_diagonal():
    # at this norm expm picks s = 0: no squaring, and still the exact
    # diagonal and zero triangle of the triangular treatment
    a = chain(5, math.pi, 0.0, 1.0).entries * 0.6
    got = dynamics.expm(a)
    assert np.array_equal(np.diagonal(got), np.exp(np.diagonal(a)))
    assert np.all(np.triu(got, 1) == 0.0)


@pytest.mark.filterwarnings("error")  # a zero matrix divides 0 by 0 in _ell
def test_expm_of_zero_and_diagonal_matrices_is_exact():
    assert np.array_equal(dynamics.expm(np.zeros((3, 4, 4), dtype=complex)),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))
    # a norm of 700 takes s > 0, a norm near 1 takes s = 0
    for diagonal in ([0.3 + 1.0j, -2.0, 5e-3, -700.0],
                     [0.3 + 1.0j, -0.2, 5e-3, -0.7]):
        assert np.array_equal(dynamics.expm(np.diag(diagonal)),
                              np.diag(np.exp(diagonal)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [1e300, math.inf, math.nan])
def test_expm_refuses_a_power_norm_that_is_not_finite(entry):
    # A^2 overflows, or A holds inf or NaN: no scaling 2^-s is finite
    stack = np.array([np.eye(3), [[-1.0, entry, 0.0], [0.0, -1.0, 0.0],
                                  [entry, 0.0, -1.0]]])
    with pytest.raises(NumericsError, match="power norm"):
        dynamics.expm(stack)


def test_expm_of_a_matrix_does_not_depend_on_its_stack(monkeypatch):
    rng = np.random.default_rng(11)
    stack = []
    for norm in np.logspace(-3, math.log10(300.0), 48):
        v = chain(5, rng.uniform(0.1, 3.1), rng.choice([0.0, 0.9, 1.0]),
                  1.0).entries
        stack.append(v * (norm / np.max(np.abs(v).sum(axis=0))))
    stack = np.array(stack)
    together = dynamics.expm(stack)
    for i in range(stack.shape[0]):
        assert np.array_equal(together[i], dynamics.expm(stack[i:i + 1])[0])
    # every matrix takes r_13: a stack that needs no squaring, whatever
    # its norms, is one Pade evaluation and so one linear solve
    solve, calls = np.linalg.solve, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    small = stack[np.abs(stack).sum(axis=1).max(axis=1) <= 4.25]  # theta_13
    assert len(small) == 32
    # and, its norms of A^4 and A^6 bounding those of A^8 and A^10, it
    # takes the norms of A^4 and A^6 alone
    norms = []
    monkeypatch.setattr(dynamics, "_onenorm",
                        lambda m: norms.append(m) or np.abs(m).sum(axis=-2).max(axis=-1))
    dynamics.expm(small)
    assert len(calls) == 1
    assert len(norms) == 2


def test_staircase_total_population_stays_on_exact_exponential():
    # 37500 equal steps: the block exponential keeps rounding from adding up
    matrix = chain(5, math.pi, 0.9, 1.0)
    c0 = uniform_excitation(5).amplitudes
    trajectory = propagate(matrix, uniform_excitation(5),
                           uniform_grid(1500.0, 37501), cross_check=False)
    with mpmath.workdps(30):
        v = mpmath.matrix(matrix.entries.tolist())
        for t in (150.0, 500.0, 750.0, 1500.0):
            k = int(round(t / 0.04))
            exact = mpmath.expm(v * trajectory.times[k]) * mpmath.matrix(c0.tolist())
            total = float(sum(abs(exact[i]) ** 2 for i in range(5)))
            assert abs(trajectory.total[k] - total) < 2e-13


def reference_csv(trajectory, metadata):
    """The CSV as the row-by-row writer formats it."""
    lines = [f"# {key} = {value}\n" for key, value in metadata.items()]
    if trajectory.underflow_clamped:
        lines.append("# underflow_clamped = true\n")
    n = trajectory.n_atoms
    lines.append(",".join(["t"] + [f"P_{m}" for m in range(1, n + 1)]
                          + ["P_tot", "I_tot"]) + "\n")
    for k in range(len(trajectory)):
        row = [trajectory.times[k], *trajectory.populations[k],
               trajectory.total[k], trajectory.intensity[k]]
        lines.append(",".join(repr(float(x)) for x in row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_rows_across_the_write_chunk(offset):
    # six columns a row
    points = reprs._PASS // 6 + offset
    trajectory = propagate(chain(3, 1.0, 0.9, 1.0), uniform_excitation(3),
                           uniform_grid(5.0, points), cross_check=False)
    out = io.BytesIO()
    write_trajectory_csv(trajectory, out, {"n_atoms": 3})
    # compared as lists of lines: pytest diffs two long strings slowly
    lines = out.getvalue().decode().splitlines(True)
    assert lines == reference_csv(trajectory, {"n_atoms": 3}).splitlines(True)
    assert len(lines) == 2 + points


def test_write_csv_formats_a_repeated_column_once_per_chunk():
    rows = 2 * (reprs._PASS // 3) + 3
    twice = np.linspace(-1.0, 1.0, rows)
    twice[:4] = [-0.0, np.nan, np.inf, 5e-324]
    flags = (np.arange(rows) % 3 == 0).astype(int)
    other = np.geomspace(1e-300, 1e300, rows)
    out = io.BytesIO()
    with mock.patch.object(reprs, "cells", wraps=reprs.cells) as cells:
        reprs._write_csv(out, {"note": "repeated", "gamma": 1.0},
                            {"a": twice, "flag": flags, "b": other,
                             "a_again": twice})
    # one formatter call per chunk, on the three distinct columns, not four
    assert [len(call.args[0]) for call in cells.call_args_list] == [3, 3, 3]
    lines = ["# note = repeated\n", "# gamma = 1.0\n", "a,flag,b,a_again\n"]
    lines += [f"{float(a)!r},{int(f)},{float(b)!r},{float(a)!r}\n"
              for a, f, b in zip(twice, flags, other)]
    assert out.getvalue().decode().splitlines(True) == lines
    assert lines[3] == "-0.0,1,1e-300,-0.0\n"
    empty = io.BytesIO()
    reprs._write_csv(empty, {"n": 0}, {"x": np.zeros(0), "y": np.zeros(0)})
    assert empty.getvalue() == b"# n = 0\nx,y\n"
    # the clamp line follows the metadata, before the header
    clamped = io.BytesIO()
    reprs._write_csv(clamped, {"n": 0}, {"x": np.zeros(0)}, clamped=True)
    assert clamped.getvalue() == b"# n = 0\n# underflow_clamped = true\nx\n"


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)),
              elements=st.floats(width=64, allow_nan=True,
                                 allow_infinity=True, allow_subnormal=True)))
@example(np.array([[np.nan, -np.inf], [np.inf, -0.0], [0.0, 5e-324],
                   [-2.2250738585072014e-308, 1.7976931348623157e308],
                   [1e-320, -1e22]]))
def test_write_csv_cells_are_repr_and_parse_back_exactly(values):
    first, second = values[:, 0], values[:, 1]
    out = io.BytesIO()
    # seven rows of two distinct columns a block, so the examples cross
    # block boundaries
    with mock.patch.object(reprs, "_PASS", 14):
        reprs._write_csv(out, {}, {"x": first, "y": second, "x_again": first})
    header, *rows = out.getvalue().decode().splitlines()
    assert header == "x,y,x_again" and len(rows) == len(values)
    for row, (x, y) in zip(rows, values):
        cells = row.split(",")
        assert cells == [repr(float(x)), repr(float(y)), repr(float(x))]
        for cell, value in zip(cells, (x, y, x)):
            back = np.float64(float(cell))
            if np.isnan(value):
                assert np.isnan(back)
            else:
                assert back.view(np.uint64) == value.view(np.uint64)


@pytest.mark.parametrize("clamped", [False, True])
def test_json_export_equals_dump_of_whole_payload(clamped):
    # blocks of 64 times and of 16 rows of amplitudes, each array's last
    # block partial
    grid = uniform_grid(3.0, 2 * 64 + 3)
    trajectory = propagate(chain(2, 2.0, 0.3, 1.0), uniform_excitation(2),
                           grid, cross_check=False)
    if clamped:
        trajectory = dataclasses.replace(trajectory, underflow_clamped=True)
    # "marker" holds the string the writer puts in place of each array
    metadata = {"note": "chunks", "n_atoms": 2, "gamma": "1.0",
                "marker": "\0"}
    payload = {
        "metadata": dict(metadata),
        "gamma": trajectory.gamma,
        "underflow_clamped": trajectory.underflow_clamped,
        "times": [float(t) for t in trajectory.times],
        "amplitudes": [[[float(z.real), float(z.imag)] for z in row]
                       for row in trajectory.amplitudes],
    }
    want = io.StringIO()
    json.dump(payload, want, indent=None, sort_keys=True)
    want.write("\n")
    got = io.BytesIO()
    with mock.patch.object(reprs, "_PASS", 64):
        write_trajectory_json(trajectory, got, metadata)
    assert got.getvalue() == want.getvalue().encode()
