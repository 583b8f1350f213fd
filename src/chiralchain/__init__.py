"""Single-excitation dissipative dynamics of chirally coupled atom chains.

The package simulates how one shared excitation decays out of a chain of
two-level atoms coupled to a one-dimensional reservoir with independently
tunable left- and right-propagating emission rates, and provides the
resonant dipole-dipole coupling kernels for 1D (chiral and reciprocal),
2D, and 3D reservoirs in a common convention.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    BURST_PROMINENCE_FRACTION,
    BURST_WINDOW,
    MIN_POINTS_PER_UNIT_TIME,
    PLATEAU_EPS_RATE,
    PLATEAU_MIN_DURATION,
    PLATEAU_POPULATION_FLOOR,
    PLATEAU_WINDOW,
    BurstPeak,
    BurstReport,
    EnsembleResult,
    PlateauInterval,
    PlateauReport,
    detect_bursts,
    detect_plateaus,
    fit_decay_rate,
    localization_metric,
    run_ensemble,
)
from .chain import (
    ChainConfig,
    CouplingMatrix,
    DisorderSpec,
    build_chain,
    build_coupling_matrix,
    build_positions,
    load_config_file,
    parse_config_text,
)
from .dynamics import (
    StateVector,
    Trajectory,
    log_grid,
    propagate,
    steady_state,
    uniform_excitation,
    uniform_grid,
    write_trajectory_csv,
    write_trajectory_json,
)
from .errors import (
    ChiralChainError,
    ConfigError,
    DomainError,
    FitError,
    IntegrityError,
    NumericsError,
    ResolutionError,
)
from .kernels import chiral_fg, kernel_1d_reciprocal, kernel_2d, kernel_3d
from .specfun import bessel_j, bessel_y

__all__ = [
    "BURST_PROMINENCE_FRACTION",
    "BURST_WINDOW",
    "BurstPeak",
    "BurstReport",
    "ChainConfig",
    "ChiralChainError",
    "ConfigError",
    "CouplingMatrix",
    "DisorderSpec",
    "DomainError",
    "EnsembleResult",
    "FitError",
    "IntegrityError",
    "MIN_POINTS_PER_UNIT_TIME",
    "NumericsError",
    "PLATEAU_EPS_RATE",
    "PLATEAU_MIN_DURATION",
    "PLATEAU_POPULATION_FLOOR",
    "PLATEAU_WINDOW",
    "PlateauInterval",
    "PlateauReport",
    "ResolutionError",
    "StateVector",
    "Trajectory",
    "__version__",
    "bessel_j",
    "bessel_y",
    "build_chain",
    "build_coupling_matrix",
    "build_positions",
    "chiral_fg",
    "detect_bursts",
    "detect_plateaus",
    "fit_decay_rate",
    "kernel_1d_reciprocal",
    "kernel_2d",
    "kernel_3d",
    "load_config_file",
    "localization_metric",
    "log_grid",
    "parse_config_text",
    "propagate",
    "run_ensemble",
    "steady_state",
    "uniform_excitation",
    "uniform_grid",
    "write_trajectory_csv",
    "write_trajectory_json",
]
