"""Acceptance gate: thirteen end-to-end checks of the whole package.

Each test exercises one headline behavior at its stated tolerance and
prints a single confirmation line; run with ``pytest -s`` to see them.
The detectors run with their frozen defaults throughout, the same ones
the command line interface records in its manifests.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from scipy.special import struve

from bessel import bessel
from chiralchain import (ChainConfig, DisorderSpec, build_chain, detect_bursts,
                         detect_plateaus, fit_decay_rate,
                         kernel_1d_reciprocal, kernel_2d, kernel_3d,
                         localization_metric, log_grid, propagate,
                         run_ensemble, steady_state, uniform_excitation,
                         uniform_grid)
from oracles import cascaded
from quadrature import oscillatory_integral, principal_value

GAMMA_IMBALANCE = 0.9  # gamma_L / gamma_R for the staircase regime
STAIRCASE_GRID = uniform_grid(1500.0, 37501)


def passed(number, label):
    print(f"criterion {number:02d} ({label}): PASS")


def cascaded_chain(n, xi):
    return build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=0.0,
                                   gamma_right=1.0))


def balanced_chain(n, xi):
    return build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=1.0,
                                   gamma_right=1.0))


def staircase_trajectory(n, disorder=None):
    config = ChainConfig(n_atoms=n, xi=math.pi, gamma_left=GAMMA_IMBALANCE,
                         gamma_right=1.0)
    matrix = build_chain(config, disorder)
    return propagate(matrix, uniform_excitation(n), STAIRCASE_GRID,
                     cross_check=False)


def test_criterion_01_cascaded_closed_forms():
    grid = uniform_grid(20.0, 2001)
    worst = 0.0
    for xi in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi):
        for n in (2, 3):
            got = propagate(cascaded_chain(n, xi), uniform_excitation(n), grid)
            expected = cascaded(xi * np.arange(n), grid).T
            worst = max(worst, float(np.max(np.abs(got.amplitudes - expected))))
    assert worst < 1e-9
    passed(1, "cascaded closed forms")


def test_criterion_02_superradiant_onset():
    grid = uniform_grid(0.1, 201)
    for n in (2, 3):
        trajectory = propagate(balanced_chain(n, 0.0), uniform_excitation(n),
                               grid)
        rate, r_squared = fit_decay_rate(trajectory, (0.0, 0.1))
        assert abs(rate - 2.0 * n) / (2.0 * n) < 0.05
        assert r_squared > 0.999
    passed(2, "superradiant onset rates")


def test_criterion_03_decoherence_free_pair():
    matrix = balanced_chain(2, math.pi)
    trajectory = propagate(matrix, uniform_excitation(2),
                           uniform_grid(1000.0, 20001))
    assert np.max(np.abs(trajectory.total - 1.0)) < 1e-9
    state = steady_state(matrix, uniform_excitation(2))
    assert np.allclose(state.populations, [0.5, 0.5], atol=1e-9)
    passed(3, "decoherence-free pair")


def test_criterion_04_odd_chain_steady_state():
    matrix = balanced_chain(3, math.pi)
    state = steady_state(matrix, uniform_excitation(3))
    expected = np.array([4.0, 16.0, 4.0]) / 27.0
    assert np.max(np.abs(state.populations - expected)) < 1e-8
    # the fully bright mode of the balanced pi chain and its decay rate
    bright = np.array([1.0, -1.0, 1.0], dtype=complex)
    assert np.max(np.abs(matrix.entries @ bright + 3.0 * bright)) < 1e-12
    ratios = []
    for n in range(2, 14):
        chain = balanced_chain(n, math.pi)
        first = steady_state(chain, uniform_excitation(n)).populations[0]
        # P1_inf = 1/N for even N and (N - 1)^2 / N^3 for odd N
        closed = 1.0 / n if n % 2 == 0 else (n - 1) ** 2 / n ** 3
        assert first == pytest.approx(closed, rel=5e-15, abs=0.0)
        if n % 2:
            assert first < 1.0 / n
            ratios.append(first * n)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    passed(4, "odd-chain steady state")


def test_criterion_05_cascaded_first_atom():
    grid = uniform_grid(20.0, 2001)
    for n, xi, gamma_r in ((2, 0.7, 1.0), (5, math.pi, 1.0), (8, 2.3, 0.6)):
        matrix = build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=0.0,
                                         gamma_right=gamma_r))
        trajectory = propagate(matrix, uniform_excitation(n), grid,
                               cross_check=False)
        expected = np.exp(-gamma_r * grid) / n
        assert np.max(np.abs(trajectory.population(1) - expected)) < 1e-10
    passed(5, "cascaded first-atom decay")


def test_criterion_06_mirror_symmetry():
    grid = uniform_grid(20.0, 801)
    for n in range(2, 13):
        for xi in (0.35, math.pi / 2.0, math.pi):
            trajectory = propagate(balanced_chain(n, xi),
                                   uniform_excitation(n), grid,
                                   cross_check=False)
            mirrored = trajectory.populations[:, ::-1]
            assert np.max(np.abs(trajectory.populations - mirrored)) < 1e-9
    passed(6, "mirror symmetry")


def test_criterion_07_monotone_dissipation():
    rng = np.random.default_rng(20240819)
    grid = uniform_grid(20.0, 501)
    for _ in range(500):
        n = int(rng.integers(2, 11))
        xi = float(rng.uniform(0.0, 2.0 * math.pi)) or 1e-9
        ratio = float(rng.uniform(0.0, 1.0))
        if rng.integers(0, 2):
            gl, gr = 1.0, ratio
        else:
            gl, gr = ratio, 1.0
        matrix = build_chain(ChainConfig(n_atoms=n, xi=xi, gamma_left=gl,
                                         gamma_right=gr))
        trajectory = propagate(matrix, uniform_excitation(n), grid,
                               cross_check=False)
        assert np.all(np.diff(trajectory.total) <= 1e-12)
        assert np.all(trajectory.intensity >= -1e-12)
    passed(7, "monotone dissipation")


def test_criterion_08_parity_plateaus():
    for n in (5, 7, 11):
        assert detect_plateaus(staircase_trajectory(n)).count >= 1
    for n in (4, 6, 10):
        assert detect_plateaus(staircase_trajectory(n)).count == 0
    passed(8, "plateau parity")


def test_criterion_09_burst_washout():
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=GAMMA_IMBALANCE,
                         gamma_right=1.0)
    grid = uniform_grid(1000.0, 25001)
    weak = run_ensemble(config, DisorderSpec.ensemble(0.005, 200, 7), grid)
    assert detect_bursts(weak).count >= 2
    strong = run_ensemble(config, DisorderSpec.ensemble(0.010, 200, 7), grid)
    assert detect_bursts(strong).count <= 1
    passed(9, "burst washout")


def test_criterion_10_disorder_controlled_plateaus():
    nodal = staircase_trajectory(5, DisorderSpec.single_site(3, 0.05))
    assert detect_plateaus(nodal).count == 0
    antinodal = staircase_trajectory(5, DisorderSpec.single_site(2, 0.05))
    assert detect_plateaus(antinodal).count >= 1
    edge = staircase_trajectory(4, DisorderSpec.single_site(1, 0.05))
    assert detect_plateaus(edge).count >= 1
    passed(10, "disorder-controlled plateaus")


def test_criterion_11_persistent_localization():
    config = ChainConfig(n_atoms=5, xi=0.75 * math.pi,
                         gamma_left=GAMMA_IMBALANCE, gamma_right=1.0)
    matrix = build_chain(config, DisorderSpec.single_site(3, 0.30))
    trajectory = propagate(matrix, uniform_excitation(5), log_grid(1e4, 400),
                           cross_check=False)
    retention, profile = localization_metric(trajectory)
    assert 0.70 <= retention <= 0.90
    share = (profile[1] + profile[2]) / sum(profile)
    assert share >= 0.90
    passed(11, "persistent localization")


def test_criterion_12_kernel_limits():
    for alignment in (0.0, 0.5, 1.0):
        decay, _, _ = kernel_3d(1e-4, alignment)
        assert abs(2.0 * decay - 1.0) < 1e-6
    for n in range(6):
        _, shift_at_node = kernel_1d_reciprocal(n * math.pi)
        assert abs(shift_at_node) < 1e-12
        decay_at_antinode, _ = kernel_1d_reciprocal(math.pi / 2.0 + n * math.pi)
        assert abs(decay_at_antinode) < 1e-12

    # dispersive part rebuilt from the absorptive part alone
    def absorptive(a):
        head = bessel("J1", a) / a if a > 0.0 else 0.5
        return 2.0 * (bessel("J0", a) - head)

    for xi in (0.5, 1.0, 2.0, 5.0):
        pv = principal_value(absorptive, xi, tol=1e-6)
        regular, _ = scipy.integrate.quad(
            lambda a: absorptive(a) / (a + xi), 0.0, 60.0, limit=300)
        tail = oscillatory_integral(lambda a: absorptive(a) / (a + xi), 60.0,
                                    tol=1e-8)
        rebuilt = -(pv + regular + tail) / math.pi
        closed = 2.0 * kernel_2d(xi)[1]
        assert abs(rebuilt - closed) < 1e-4
    passed(12, "kernel limits")


def test_criterion_13_special_functions():
    x = np.linspace(0.05, 50.0, 500)
    # J2 = (2/x) J1 - J0; Y2 is defined by the same recurrence
    j0, j1, j2 = (np.array([bessel(name, v) for v in x])
                  for name in ("J0", "J1", "J2"))
    assert np.max(np.abs(j2 - ((2.0 / x) * j1 - j0))) < 1e-10
    w = np.linspace(0.1, 50.0, 500)
    for v in w:
        wronskian = bessel("J1", v) * bessel("Y0", v) - bessel("J0", v) * bessel("Y1", v)
        assert abs(wronskian - 2.0 / (math.pi * v)) < 1e-9

    # each PV integrand is g(a) / (a - b), with g passed to principal_value;
    # J1(a) / (a (a - b)) has g(a) = J1(a) / a
    def weighted(a):
        return bessel("J1", a) / a if a > 0.0 else 0.5

    for b in (0.5, 1.0, 2.0, 5.0):
        lhs = principal_value(lambda a: bessel("J0", a), b, tol=1e-7)
        rhs = -(math.pi / 2.0) * (bessel("Y0", b) + struve(0, b))
        assert abs(lhs - rhs) < 1e-6

        lhs = principal_value(weighted, b, tol=1e-7)
        rhs = -(2.0 + math.pi * b * (bessel("Y1", b) + struve(1, b))) / (2.0 * b * b)
        assert abs(lhs - rhs) < 1e-6

        # J2(a) (1/(a - b) + 1/(a + b))
        def symmetrized(a, b=b):
            return 2.0 * a * bessel("J2", a) / (a + b)

        lhs = principal_value(symmetrized, b, tol=1e-7)
        rhs = -4.0 / (b * b) - math.pi * bessel("Y2", b)
        assert abs(lhs - rhs) < 1e-6
    passed(13, "special functions")
