"""Detectors, decay-rate fits and localization for chain trajectories.

The detectors read a Trajectory, and the burst detector also the mean
intensity of an EnsembleResult; dynamics makes both.

Detectors and their calibration
-------------------------------
A chain at xi = pi with nearly balanced rates (gamma_L = 0.9 gamma_R)
separates into one superradiant mode and N-1 quasi-dark modes whose decay
rates sit near 1e-3 gamma.  After the superradiant transient the two
parities behave very differently:

* even N decays as a single slow exponential, with the instantaneous
  rate lambda(t) = I_tot/P_tot pinned in a narrow band (measured floors
  on gamma*t in [5, 1500]: about 1.2e-3 for N=4, 7.8e-4 for N=6,
  4.5e-4 for N=10);
* odd N alternates flat stretches, where lambda(t) falls below 1e-5,
  with sharp drops where it rises by two decades, producing a staircase
  in P_tot and pulsed emission in I_tot.

The plateau detector therefore uses a rate threshold of 2e-4 gamma:
comfortably above every odd-parity flat stretch (and above the flats
produced by ordering-compatible single-site shifts, whose rates measure
near 1e-4) and comfortably below every even-parity band.  A plateau is a
maximal run with lambda(t) < eps_rate lasting at least min_duration.
The staircase period scales inversely with the rate imbalance, so for
the near-balanced regime the structure lives at gamma*t of order 30 to
1000 and the default window extends to 1500/gamma.

Burst peaks are local maxima of I_tot with topographic prominence at
least 40% of the window maximum.  The slow even-parity exponential
carries small ripples with relative prominence near 8%, while genuine
odd-parity bursts measure 45% and higher; position-fluctuation ensembles
at 1% width retain exactly one peak above the threshold (second-largest
relative prominence across seeds: at most 0.35), while 0.5% ensembles
retain at least two (second-largest: at least 0.49).  Both detectors
refuse grids with fewer than 20 samples per unit gamma*t inside the
window, and both record their resolved parameters for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dynamics import EnsembleResult, Trajectory
from .errors import ConfigError, FitError, NumericsError, ResolutionError

__all__ = [
    "PlateauInterval",
    "PlateauReport",
    "BurstPeak",
    "BurstReport",
    "detector_defaults",
    "detect_plateaus",
    "detect_bursts",
    "fit_decay_rate",
    "localization_metric",
]

# frozen detector defaults, in units of gamma and 1/gamma; detector_defaults
# scales them to a rate
PLATEAU_EPS_RATE = 2e-4
PLATEAU_MIN_DURATION = 1.0
PLATEAU_WINDOW = (0.5, 1500.0)
PLATEAU_POPULATION_FLOOR = 1e-6
BURST_PROMINENCE_FRACTION = 0.40
BURST_WINDOW = (0.5, 1000.0)
MIN_POINTS_PER_UNIT_TIME = 20.0


def detector_defaults(gamma: float) -> dict:
    """The default detector parameters at rate gamma, as manifests record them.

    Rates scale with gamma and times with 1/gamma; windows are tuples.
    """
    return {
        "plateau": {
            "eps_rate": PLATEAU_EPS_RATE * gamma,
            "min_duration": PLATEAU_MIN_DURATION / gamma,
            "window": (PLATEAU_WINDOW[0] / gamma, PLATEAU_WINDOW[1] / gamma),
        },
        "burst": {
            "prominence_fraction": BURST_PROMINENCE_FRACTION,
            "window": (BURST_WINDOW[0] / gamma, BURST_WINDOW[1] / gamma),
        },
    }


@dataclass(frozen=True)
class PlateauInterval:
    t_start: float
    t_end: float
    mean_level: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class PlateauReport:
    """Maximal slow-decay intervals plus the parameters that found them."""

    intervals: tuple
    eps_rate: float
    min_duration: float
    window: tuple
    gamma: float

    @property
    def count(self) -> int:
        return len(self.intervals)


def _window_mask(times: np.ndarray, window: tuple, gamma: float) -> np.ndarray:
    t_lo, t_hi = window
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)) or t_lo >= t_hi:
        raise ConfigError(f"bad window {window!r}")
    if times[0] > t_lo or times[-1] < t_hi * (1.0 - 1e-12):
        raise ConfigError(
            f"trajectory spans [{float(times[0])!r}, {float(times[-1])!r}] "
            f"and does not cover the window {window!r}")
    mask = (times >= t_lo) & (times <= t_hi)
    span = (t_hi - t_lo) * gamma
    if np.count_nonzero(mask) < MIN_POINTS_PER_UNIT_TIME * span:
        raise ResolutionError(
            f"grid has fewer than {MIN_POINTS_PER_UNIT_TIME:g} points per "
            f"unit gamma*t across the window {window!r}")
    return mask


def detect_plateaus(trajectory: Trajectory,
                    eps_rate: Optional[float] = None,
                    min_duration: Optional[float] = None,
                    window: Optional[tuple] = None) -> PlateauReport:
    """Find maximal intervals of slow decay in P_tot.

    The instantaneous rate lambda(t) = I_tot/P_tot (exact for this model,
    no numerical differentiation) is compared against eps_rate; a plateau
    is a maximal run below threshold lasting at least min_duration.
    Samples with P_tot below 1e-6 never count toward a plateau.  Unset
    parameters come from detector_defaults(trajectory.gamma).
    """
    gamma = trajectory.gamma
    defaults = detector_defaults(gamma)["plateau"]
    eps_rate = defaults["eps_rate"] if eps_rate is None else eps_rate
    min_duration = (defaults["min_duration"] if min_duration is None
                    else min_duration)
    window = defaults["window"] if window is None else window
    if not (eps_rate > 0.0 and min_duration > 0.0):
        raise ConfigError("eps_rate and min_duration must be positive")
    mask = _window_mask(trajectory.times, window, gamma)
    times = trajectory.times[mask]
    total = trajectory.total[mask]
    rate = trajectory.intensity[mask] / np.maximum(total, 1e-300)
    slow = (rate < eps_rate) & (total >= PLATEAU_POPULATION_FLOOR)

    # runs of slow samples: +1 where one starts, -1 after one ends
    edges = np.diff(np.concatenate(([0], slow.astype(int), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    kept = tuple(PlateauInterval(t_start=float(times[a]), t_end=float(times[b]),
                                 mean_level=float(np.mean(total[a:b + 1])))
                 for a, b in zip(starts, ends)
                 if times[b] - times[a] >= min_duration)
    return PlateauReport(intervals=kept, eps_rate=float(eps_rate),
                         min_duration=float(min_duration),
                         window=(float(window[0]), float(window[1])),
                         gamma=gamma)


@dataclass(frozen=True)
class BurstPeak:
    t_peak: float
    height: float
    prominence: float


@dataclass(frozen=True)
class BurstReport:
    """Prominent emission peaks plus the parameters that found them."""

    peaks: tuple
    min_prominence: float
    window: tuple
    gamma: float

    @property
    def count(self) -> int:
        return len(self.peaks)


BurstSource = Union[Trajectory, EnsembleResult, tuple]


def detect_bursts(source: BurstSource,
                  min_prominence: Optional[float] = None,
                  window: Optional[tuple] = None,
                  gamma: Optional[float] = None) -> BurstReport:
    """Find prominent local maxima of the emitted intensity.

    Accepts a Trajectory, an EnsembleResult (mean intensity), or a plain
    (times, intensity) pair; the pair form needs gamma when the defaults
    should scale with a rate other than 1.  Unset parameters come from
    detector_defaults(gamma): the window, and min_prominence as the
    prominence fraction (40%) of the maximum intensity inside the window.
    """
    if isinstance(source, Trajectory):
        times, intensity_curve = source.times, source.intensity
        gamma = source.gamma if gamma is None else gamma
    elif isinstance(source, EnsembleResult):
        times, intensity_curve = source.times, source.mean_intensity
        gamma = source.gamma if gamma is None else gamma
    else:
        times, intensity_curve = source
        times = np.asarray(times, dtype=float)
        intensity_curve = np.asarray(intensity_curve, dtype=float)
        if times.shape != intensity_curve.shape or times.ndim != 1:
            raise ConfigError("times and intensity must be matching 1D arrays")
        gamma = 1.0 if gamma is None else gamma
    defaults = detector_defaults(gamma)["burst"]
    window = defaults["window"] if window is None else window
    mask = _window_mask(times, window, gamma)
    t_w = times[mask]
    i_w = intensity_curve[mask]
    if min_prominence is None:
        min_prominence = defaults["prominence_fraction"] * float(np.max(i_w))
    if not min_prominence > 0.0:
        raise ConfigError("min_prominence must be positive")
    indices, prominences = _find_peaks(i_w, min_prominence)
    peaks = tuple(
        BurstPeak(t_peak=float(t_w[i]), height=float(i_w[i]),
                  prominence=float(p))
        for i, p in zip(indices.tolist(), prominences.tolist()))
    return BurstReport(peaks=peaks, min_prominence=float(min_prominence),
                       window=(float(window[0]), float(window[1])),
                       gamma=float(gamma))


def _find_peaks(x: np.ndarray, min_prominence: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the peaks of x with prominence >= min_prominence.

    A peak is a strict local maximum; a flat top counts once, at its
    middle sample rounded down, and the two ends of x are never peaks (the
    rules of scipy.signal.find_peaks).  The prominence is the height above
    the higher of the two lowest points reached walking left and right
    until a strictly higher sample or the end of x.  Such a walk stops
    only at a higher peak or at an end, so it runs over the peaks and the
    minima of x between neighbouring peaks: one stack pass per side finds
    the lowest of those minima for every peak.
    """
    x = np.asarray(x, dtype=float)
    empty = np.empty(0, dtype=np.intp), np.empty(0)
    if x.size < 3:
        return empty
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    ends = np.append(starts[1:] - 1, x.size - 1)
    level = x[starts]
    top = 1 + np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:]))
    peaks = (starts[top] + ends[top]) // 2
    if peaks.size == 0:
        return empty
    heights = x[peaks]
    # valleys[j]: min of x from peak j - 1 (or the start) up to peak j (or the end)
    valleys = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    prominences = heights - np.maximum(
        _bases(heights, valleys), _bases(heights[::-1], valleys[::-1])[::-1])
    keep = prominences >= min_prominence
    return peaks[keep], prominences[keep]


def _bases(heights: np.ndarray, valleys: np.ndarray) -> np.ndarray:
    """Lowest valley walked over from each peak leftwards, up to a strictly
    higher peak or the start; valleys[j] lies just left of peak j.

    The stack holds the peaks that no later peak has yet matched or
    exceeded, in strictly falling height, each with the lowest valley
    between it and the stack entry below it.
    """
    stack: list = []
    bases = []
    for height, low in zip(heights.tolist(), valleys.tolist()):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        stack.append((height, low))
        bases.append(low)
    return np.array(bases)


def fit_decay_rate(trajectory: Trajectory, window: tuple) -> tuple:
    """Least-squares exponential rate of P_tot over the window.

    Returns (rate, r_squared) from a degree-1 fit of ln P_tot against t;
    the rate is reported positive for decay.  Requires at least 10 grid
    points and strictly positive P_tot inside the window.
    """
    t_lo, t_hi = window
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)) or t_lo >= t_hi:
        raise FitError(f"degenerate window {window!r}")
    mask = (trajectory.times >= t_lo) & (trajectory.times <= t_hi)
    if np.count_nonzero(mask) < 10:
        raise FitError(
            f"window {window!r} holds fewer than 10 grid points")
    total = trajectory.total[mask]
    if np.any(total <= 0.0):
        raise FitError("P_tot must be positive throughout the fit window")
    times = trajectory.times[mask]
    log_p = np.log(total)
    slope, intercept = np.polyfit(times, log_p, 1)
    fitted = slope * times + intercept
    ss_res = float(np.sum((log_p - fitted) ** 2))
    ss_tot = float(np.sum((log_p - log_p.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r_squared)


def localization_metric(trajectory: Trajectory,
                        t_ref: Optional[float] = None,
                        t_far: Optional[float] = None) -> tuple:
    """Late-time excitation retention and where it sits.

    retention = P_tot(t_far) / P_tot(t_ref), evaluated at the grid points
    nearest the requested times (defaults 100/gamma and 1e4/gamma); the
    site profile is the population vector at t_far.  A reference
    population below 1e-12 leaves retention undefined.
    """
    gamma = trajectory.gamma
    if t_ref is None:
        t_ref = 100.0 / gamma
    if t_far is None:
        t_far = 1e4 / gamma
    if not 0.0 <= t_ref < t_far:
        raise ConfigError(f"need 0 <= t_ref < t_far, got {t_ref!r}, {t_far!r}")
    if trajectory.times[-1] < t_far * (1.0 - 1e-12):
        raise ConfigError(
            f"trajectory ends at {float(trajectory.times[-1])!r}, "
            f"before t_far={t_far!r}")
    i_ref = int(np.argmin(np.abs(trajectory.times - t_ref)))
    i_far = int(np.argmin(np.abs(trajectory.times - t_far)))
    p_ref = float(trajectory.total[i_ref])
    p_far = float(trajectory.total[i_far])
    if p_ref < 1e-12:
        raise NumericsError(
            f"reference population {p_ref!r} too small, retention undefined",
            estimate=p_ref)
    profile = [float(p) for p in trajectory.populations[i_far]]
    return p_far / p_ref, profile
