"""Ensemble reduction, plateau and burst detectors, fits, localization."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from chiralchain import dynamics
from chiralchain.analysis import (BURST_PROMINENCE_FRACTION, PLATEAU_EPS_RATE,
                                  PLATEAU_WINDOW, EnsembleResult,
                                  PlateauInterval, _find_peaks,
                                  detect_bursts, detect_plateaus,
                                  detector_defaults,
                                  fit_decay_rate, localization_metric,
                                  run_ensemble)
from chiralchain.chain import ChainConfig, DisorderSpec, build_chain
from chiralchain.dynamics import (Trajectory, log_grid, propagate,
                                  uniform_excitation, uniform_grid)
from chiralchain.errors import (ConfigError, FitError, IntegrityError,
                                NumericsError, ResolutionError)
from core_tables import core_tables, full_observables


def staircase_trajectory(n, horizon=1500.0, points=37501):
    config = ChainConfig(n_atoms=n, xi=math.pi, gamma_left=0.9,
                         gamma_right=1.0)
    matrix = build_chain(config)
    grid = uniform_grid(horizon, points)
    return propagate(matrix, uniform_excitation(n), grid, cross_check=False)


def synthetic(times, total, intensity, gamma=1.0):
    """Single-site Trajectory with prescribed observables."""
    times = np.asarray(times, dtype=float)
    total = np.asarray(total, dtype=float)
    return Trajectory(times=times,
                      amplitudes=np.sqrt(total)[:, None].astype(complex),
                      populations=total[:, None],
                      total=total,
                      intensity=np.asarray(intensity, dtype=float),
                      gamma=gamma)


def test_ensemble_result_rejects_negative_std():
    t = np.array([0.0, 1.0])
    good = np.zeros(2)
    with pytest.raises(ConfigError):
        EnsembleResult(times=t, mean_total=good, std_total=np.array([0.0, -1e-3]),
                       mean_intensity=good, std_intensity=good,
                       n_realizations=2, seed=0)
    result = EnsembleResult(times=t, mean_total=good, std_total=good,
                            mean_intensity=good, std_intensity=good,
                            n_realizations=2, seed=0)
    assert not result.mean_total.flags.writeable


def test_run_ensemble_guards():
    config = ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    grid = uniform_grid(2.0, 41)
    with pytest.raises(ConfigError, match="ensemble"):
        run_ensemble(config, DisorderSpec.none(), grid)
    with pytest.raises(ConfigError, match="ensemble"):
        run_ensemble(config, DisorderSpec.single_site(2, 0.05), grid)
    with pytest.raises(ConfigError, match="2 realizations"):
        run_ensemble(config, DisorderSpec.ensemble(0.01, 1, 0), grid)


def test_run_ensemble_is_deterministic():
    config = ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.01, 6, 3)
    grid = uniform_grid(5.0, 151)
    first = run_ensemble(config, disorder, grid)
    second = run_ensemble(config, disorder, grid)
    assert np.array_equal(first.mean_total, second.mean_total)
    assert np.array_equal(first.std_intensity, second.std_intensity)
    assert first.n_realizations == 6 and first.seed == 3
    assert first.n_skipped == 0
    assert first.gamma == 1.0
    assert np.all(first.mean_total <= 1.0 + 1e-12)
    assert np.all(first.mean_total > 0.0)
    assert np.all(first.std_total >= 0.0)


def test_run_ensemble_zero_width_has_zero_spread():
    config = ChainConfig(n_atoms=2, xi=1.3, gamma_left=0.5, gamma_right=1.0)
    result = run_ensemble(config, DisorderSpec.ensemble(0.0, 4, 11),
                          uniform_grid(3.0, 61))
    assert np.all(result.std_total == 0.0)
    assert np.all(result.std_intensity == 0.0)
    clean = propagate(build_chain(config), uniform_excitation(2),
                      uniform_grid(3.0, 61), cross_check=False)
    assert np.max(np.abs(result.mean_total - clean.total)) == 0.0


# at 641 = 2 * 320 + 1 points the core's last table is one row
@pytest.mark.parametrize("realizations, points", [(6, 1251), (20, 641)])
def test_run_ensemble_matches_loop_of_propagate(monkeypatch, realizations,
                                                points):
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.01, realizations, 3)
    grid = uniform_grid(50.0, points)
    shapes = []
    honest = dynamics.expm

    def counting_expm(a):
        shapes.append(a.shape)
        return honest(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    result = run_ensemble(config, disorder, grid)
    # one call for the whole stack: the step and the block exponentials
    assert shapes == [(2 * realizations, 5, 5)]
    monkeypatch.undo()
    runs = [propagate(build_chain(config, disorder, index),
                      uniform_excitation(5), grid, cross_check=False)
            for index in range(realizations)]
    totals = np.array([run.total for run in runs])
    intensities = np.array([run.intensity for run in runs])
    # both consumers read the same tables of the core: bit for bit equal
    assert np.array_equal(result.mean_total, totals.mean(axis=0))
    assert np.array_equal(result.std_total, totals.std(axis=0, ddof=1))
    assert np.array_equal(result.mean_intensity, intensities.mean(axis=0))
    assert np.array_equal(result.std_intensity,
                          intensities.std(axis=0, ddof=1))


def test_run_ensemble_leaves_the_callers_grid_writeable():
    config = ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    grid = uniform_grid(3.0, 61)
    result = run_ensemble(config, DisorderSpec.ensemble(0.01, 2, 0), grid)
    assert grid.flags.writeable
    assert not result.times.flags.writeable
    assert np.array_equal(result.times, grid)


def test_run_ensemble_cross_checks_every_realization(monkeypatch):
    config = ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.01, 4, 5)
    grid = uniform_grid(5.0, 151)
    honest = dynamics._dp54
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return honest(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_dp54", counted)
    run_ensemble(config, disorder, grid, cross_check=True)
    assert len(calls) == 4

    def perturbed(*args, **kwargs):
        return honest(*args, **kwargs) + 1e-6

    monkeypatch.setattr(dynamics, "_dp54", perturbed)
    with pytest.raises(IntegrityError):
        run_ensemble(config, disorder, grid, cross_check=True)
    run_ensemble(config, disorder, grid, cross_check=False)


@pytest.mark.parametrize("tail", [0, 1, 2])
@pytest.mark.parametrize("realizations", [2, 20, 200])
def test_chunked_moments_equal_moments_of_full_arrays(realizations, tail):
    # at N = 5 the core yields tables of 320 grid times, so a tail of 1 makes
    # the last table one row, whose (R, 1) columns numpy would add pairwise
    config = ChainConfig(n_atoms=5, xi=0.5 * math.pi, gamma_left=0.7,
                         gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.02, realizations, 3)
    matrices = [build_chain(config, disorder, index)
                for index in range(realizations)]
    c0 = uniform_excitation(5)
    grid = uniform_grid(40.0, 2 * 320 + tail)
    totals, intensities, starts = full_observables(matrices, c0.amplitudes,
                                                   grid)
    assert grid.size - starts[-1] == (tail or 320)
    moments = dynamics._propagate_stack(matrices, c0, grid, cross_check=False)
    want = (totals.mean(axis=0), totals.std(axis=0, ddof=1),
            intensities.mean(axis=0), intensities.std(axis=0, ddof=1))
    for got, expected in zip(moments, want):
        assert np.array_equal(got, expected)


def test_cross_check_spans_chunks(monkeypatch):
    config = ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.01, 4, 5)
    grid = uniform_grid(5.0, 2001)
    v, w, _ = dynamics._generators(
        [build_chain(config, disorder, index) for index in range(4)])
    starts = core_tables(v, w, uniform_excitation(3).amplitudes, grid)[1]
    picks = dynamics._check_points(grid.size)
    # the re-solved times fall in several of the core's tables
    assert np.unique(np.searchsorted(starts, picks, side="right")).size > 1
    honest = dynamics._dp54
    checked = []

    def counted(v, c0, times, **kwargs):
        checked.append(times)
        return honest(v, c0, times, **kwargs)

    monkeypatch.setattr(dynamics, "_dp54", counted)
    run_ensemble(config, disorder, grid, cross_check=True)
    assert len(checked) == 4
    assert all(np.array_equal(times, grid[picks]) for times in checked)

    def perturbed(*args, **kwargs):
        return honest(*args, **kwargs) + 1e-6

    monkeypatch.setattr(dynamics, "_dp54", perturbed)
    with pytest.raises(IntegrityError):
        run_ensemble(config, disorder, grid, cross_check=True)


def test_run_ensemble_memory_does_not_grow_with_grid():
    # peak traced memory beyond the four returned (K,) moment arrays
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    disorder = DisorderSpec.ensemble(0.005, 20, 7)
    run_ensemble(config, disorder, uniform_grid(10.0, 101))
    transient = []
    for points in (5001, 50001):
        grid = uniform_grid(0.04 * (points - 1), points)
        tracemalloc.start()
        try:
            result = run_ensemble(config, disorder, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transient.append(peak - 4 * result.mean_total.nbytes)
    assert transient[1] <= 1.5 * transient[0]


def test_staircase_plateau_intensity_in_extended_precision():
    # on the plateaus, I_tot/P_tot < 1e-5, the dense -2 Re(c^dag V c)
    # cancelled terms of size gamma |c|^2 and was off by up to 4e-5
    trajectory = staircase_trajectory(5)
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=0.9,
                         gamma_right=1.0)
    positions = build_chain(config).positions
    rows = np.flatnonzero(trajectory.intensity < 1e-5 * trajectory.total)
    assert rows.size > 1000
    worst = 0.0
    with mpmath.workdps(50):
        w = [mpmath.exp(-1j * mpmath.mpf(float(phi))) for phi in positions]
        for k in rows:
            c = [mpmath.mpc(complex(x)) for x in trajectory.amplitudes[k]]
            right = sum(mpmath.conj(wm) * cm for wm, cm in zip(w, c))
            left = sum(wm * cm for wm, cm in zip(w, c))
            exact = (config.gamma_right * abs(right) ** 2
                     + config.gamma_left * abs(left) ** 2)
            error = abs(trajectory.intensity[k] - exact) / exact
            worst = max(worst, float(error))
    assert worst < 1e-9
    assert detect_plateaus(trajectory).count == 11


def test_plateaus_found_for_odd_not_even():
    odd = detect_plateaus(staircase_trajectory(5))
    assert odd.count >= 1
    assert odd.eps_rate == PLATEAU_EPS_RATE
    assert odd.window == PLATEAU_WINDOW
    for interval in odd.intervals:
        assert interval.duration >= odd.min_duration
        assert 0.0 < interval.mean_level <= 1.0
    even = detect_plateaus(staircase_trajectory(4))
    assert even.count == 0
    payload = dataclasses.asdict(odd)
    assert payload["eps_rate"] == PLATEAU_EPS_RATE
    assert len(payload["intervals"]) == odd.count
    assert set(payload["intervals"][0]) == {"t_start", "t_end", "mean_level"}


def test_plateau_window_coverage_and_resolution():
    short = staircase_trajectory(3, horizon=10.0, points=501)
    with pytest.raises(ConfigError, match="cover"):
        detect_plateaus(short)
    sparse = staircase_trajectory(3, horizon=1500.0, points=3001)
    with pytest.raises(ResolutionError):
        detect_plateaus(sparse)
    with pytest.raises(ConfigError):
        detect_plateaus(short, window=(5.0, 5.0))
    for bad in ({"eps_rate": -1.0}, {"eps_rate": math.nan},
                {"min_duration": math.nan}):
        with pytest.raises(ConfigError, match="positive"):
            detect_plateaus(short, window=(0.5, 8.0), **bad)


def test_plateau_population_floor():
    times = np.linspace(0.0, 1500.0, 37501)
    quiet = np.full(times.size, 1e-8)
    zero = np.zeros(times.size)
    assert detect_plateaus(synthetic(times, quiet, zero)).count == 0
    loud = np.full(times.size, 1e-3)
    report = detect_plateaus(synthetic(times, loud, zero))
    assert report.count == 1
    # one run spanning the whole window, edges quantized to the grid
    assert report.intervals[0].duration > 1499.0


def loop_plateaus(times, total, slow, min_duration):
    """Plateau intervals from a plain walk over the slow mask."""
    intervals, start = [], None
    for i in range(slow.size):
        if slow[i] and start is None:
            start = i
        elif not slow[i] and start is not None:
            intervals.append((start, i - 1))
            start = None
    if start is not None:
        intervals.append((start, slow.size - 1))
    return tuple(PlateauInterval(t_start=float(times[a]), t_end=float(times[b]),
                                 mean_level=float(np.mean(total[a:b + 1])))
                 for a, b in intervals if times[b] - times[a] >= min_duration)


def test_plateau_runs_equal_the_plain_loop():
    times = np.linspace(0.0, 100.0, 2001)
    total = 0.5 * np.exp(-times / 300.0)
    rng = np.random.default_rng(9)
    # the whole grid, and a window inside it
    for window in ((0.0, 100.0), (10.0, 90.0)):
        inside = (times >= window[0]) & (times <= window[1])
        count = np.count_nonzero(inside)
        masks = [np.ones(count, bool), np.zeros(count, bool),
                 np.arange(count) % 2 == 0, np.arange(count) % 3 != 1]
        for _ in range(20):
            # random runs, with slow runs of 5 to 29 samples touching the
            # window's first and last sample
            mask = np.repeat(rng.random(count) < 0.5,
                             rng.integers(1, 40, count))[:count]
            mask[:rng.integers(5, 30)] = True
            mask[-rng.integers(5, 30):] = True
            masks.append(mask)
        for k, mask in enumerate(masks):
            slow = np.zeros(times.size, bool)
            slow[inside] = mask
            trajectory = synthetic(times, total, np.where(slow, 0.0, total))
            for min_duration in (0.04, 0.12, 1.0):
                report = detect_plateaus(trajectory, min_duration=min_duration,
                                         window=window)
                assert report.intervals == loop_plateaus(
                    times[inside], total[inside], mask, min_duration)
                if k >= 4 and min_duration < 0.2:
                    assert report.intervals[0].t_start == times[inside][0]
                    assert report.intervals[-1].t_end == times[inside][-1]


def bump(times, center, height, width=8.0):
    return height * np.exp(-((times - center) / width) ** 2)


def test_burst_detector_counts_prominent_peaks():
    times = np.linspace(0.0, 1000.0, 20001)
    curve = (bump(times, 100.0, 1.0) + bump(times, 300.0, 0.6)
             + bump(times, 600.0, 0.1))
    report = detect_bursts((times, curve))
    assert report.count == 2
    assert report.min_prominence == pytest.approx(BURST_PROMINENCE_FRACTION,
                                                  rel=1e-6)
    assert [round(p.t_peak) for p in report.peaks] == [100, 300]
    assert report.peaks[0].height == pytest.approx(1.0, rel=1e-6)
    lowered = detect_bursts((times, curve), min_prominence=0.05)
    assert lowered.count == 3
    narrowed = detect_bursts((times, curve), window=(0.5, 250.0))
    assert narrowed.count == 1
    payload = dataclasses.asdict(report)
    assert len(payload["peaks"]) == 2
    assert payload["window"] == (0.5, 1000.0)


def test_detectors_fill_unset_parameters_from_detector_defaults():
    gamma = 2.0
    defaults = detector_defaults(gamma)
    times = uniform_grid(750.0, 30001)
    total = np.exp(-1e-5 * times)
    plateaus = detect_plateaus(synthetic(times, total, 1e-5 * total, gamma))
    assert (plateaus.eps_rate, plateaus.min_duration, plateaus.window) == (
        defaults["plateau"]["eps_rate"], defaults["plateau"]["min_duration"],
        defaults["plateau"]["window"])
    curve = bump(times, 100.0, 1.0)
    bursts = detect_bursts((times, curve), gamma=gamma)
    assert bursts.window == defaults["burst"]["window"] == (0.25, 500.0)
    assert bursts.min_prominence == pytest.approx(
        defaults["burst"]["prominence_fraction"], rel=1e-12)


def test_burst_detector_gamma_scales_window():
    # gamma = 2 halves the default window, dropping the late peak
    times = np.linspace(0.0, 1000.0, 40001)
    curve = bump(times, 100.0, 1.0) + bump(times, 700.0, 0.9)
    assert detect_bursts((times, curve)).count == 2
    assert detect_bursts((times, curve), gamma=2.0).count == 1


def test_burst_detector_input_guards():
    times = np.linspace(0.0, 1000.0, 20001)
    with pytest.raises(ConfigError, match="matching"):
        detect_bursts((times, times[:-1]))
    with pytest.raises(ConfigError, match="cover"):
        detect_bursts((times[:100], np.zeros(100)))
    with pytest.raises(ResolutionError):
        detect_bursts((times[::100], np.zeros(201)))
    for bad in (0.0, math.nan):
        with pytest.raises(ConfigError, match="positive"):
            detect_bursts((times, np.zeros(times.size)), min_prominence=bad)


def assert_peaks_match_scipy(x, min_prominence):
    from scipy.signal import find_peaks
    indices, properties = find_peaks(x, prominence=min_prominence)
    got_indices, got_prominences = _find_peaks(x, min_prominence)
    assert np.array_equal(got_indices, indices)
    assert np.array_equal(got_prominences, properties["prominences"])


def test_find_peaks_matches_scipy_on_random_signals():
    # float noise and walks, and small integers for flat tops of every width
    rng = np.random.default_rng(20)
    for trial in range(3000):
        size = int(rng.integers(0, 200))
        kind = trial % 3
        if kind == 0:
            x = rng.random(size)
        elif kind == 1:
            x = rng.standard_normal(size).cumsum()
        else:
            x = rng.integers(0, 4, size).astype(float)
        assert_peaks_match_scipy(x, float(rng.choice([1e-12, 0.3, 1.0, 2.5])))
    # flat ends, a flat top at each end, signals of 12 500 rising and
    # falling peaks, and runs of equal-height peaks
    assert_peaks_match_scipy(np.array([2.0, 2.0, 1.0, 3.0, 3.0]), 0.5)
    assert_peaks_match_scipy(np.array([1.0, 2.0, 2.0, 2.0, 1.0, 1.0]), 0.5)
    for slope in (1e-6, -1e-6):
        assert_peaks_match_scipy(
            np.tile([0.0, 1.0], 12500) + slope * np.arange(25000), 1e-9)
    equal = np.tile([0.0, 1.0, 0.5, 1.0, 0.2, 1.0, 0.0, 2.0, 1.0, 2.0], 500)
    for signal in (equal, equal[::-1], np.tile([0.0, 1.0], 500)):
        for min_prominence in (1e-9, 0.6, 1.5):
            assert_peaks_match_scipy(signal, min_prominence)


def test_find_peaks_matches_scipy_on_chain_intensities():
    trajectory = staircase_trajectory(5, horizon=1000.0, points=20001)
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=0.9, gamma_right=1.0)
    ensemble = run_ensemble(config, DisorderSpec.ensemble(0.005, 4, 3),
                            uniform_grid(1000.0, 20001))
    for curve in (trajectory.intensity, ensemble.mean_intensity):
        for fraction in (1e-6, 1e-3, 0.05, BURST_PROMINENCE_FRACTION):
            assert_peaks_match_scipy(curve, fraction * float(np.max(curve)))


def test_fit_decay_rate_recovers_exponential():
    matrix = build_chain(ChainConfig(n_atoms=1, xi=0.0, gamma_left=0.5,
                                     gamma_right=0.5))
    trajectory = propagate(matrix, uniform_excitation(1),
                           uniform_grid(5.0, 501), cross_check=False)
    rate, r_squared = fit_decay_rate(trajectory, (0.0, 5.0))
    assert rate == pytest.approx(1.0, rel=1e-10)
    assert r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_rate_error_paths():
    matrix = build_chain(ChainConfig(n_atoms=1, xi=0.0, gamma_left=0.5,
                                     gamma_right=0.5))
    trajectory = propagate(matrix, uniform_excitation(1),
                           uniform_grid(800.0, 2001), cross_check=False)
    with pytest.raises(FitError, match="degenerate"):
        fit_decay_rate(trajectory, (2.0, 2.0))
    with pytest.raises(FitError, match="10 grid points"):
        fit_decay_rate(trajectory, (0.0, 0.5))
    with pytest.raises(FitError, match="positive"):
        fit_decay_rate(trajectory, (700.0, 800.0))  # clamped to exact zero


def test_localization_metric_on_conserving_chain():
    matrix = build_chain(ChainConfig(n_atoms=2, xi=math.pi, gamma_left=1.0,
                                     gamma_right=1.0))
    trajectory = propagate(matrix, uniform_excitation(2),
                           log_grid(1e4, 100), cross_check=False)
    retention, profile = localization_metric(trajectory)
    assert retention == pytest.approx(1.0, abs=1e-9)
    assert profile == pytest.approx([0.5, 0.5], abs=1e-9)


def test_localization_metric_guards():
    matrix = build_chain(ChainConfig(n_atoms=2, xi=math.pi, gamma_left=1.0,
                                     gamma_right=1.0))
    trajectory = propagate(matrix, uniform_excitation(2),
                           log_grid(1e4, 100), cross_check=False)
    with pytest.raises(ConfigError, match="t_ref < t_far"):
        localization_metric(trajectory, t_ref=50.0, t_far=50.0)
    short = propagate(matrix, uniform_excitation(2), uniform_grid(10.0, 101),
                      cross_check=False)
    with pytest.raises(ConfigError, match="ends at"):
        localization_metric(short)
    lone = build_chain(ChainConfig(n_atoms=1, xi=0.0, gamma_left=1.0,
                                   gamma_right=1.0))
    decayed = propagate(lone, uniform_excitation(1), log_grid(1e4, 100),
                        cross_check=False)
    with pytest.raises(NumericsError, match="retention undefined"):
        localization_metric(decayed)
