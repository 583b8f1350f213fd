"""Chain geometry, positional disorder, and the non-Hermitian coupling matrix.

Atoms sit on a line at phase positions phi_m = (m - 1) * xi plus optional
per-atom offsets, with xi = k * d the light-propagation phase across one
nominal spacing.  All offsets (single-site shifts and ensemble
fluctuations) are expressed as fractions of xi.

The single-excitation amplitudes evolve under dc/dt = V c with

    V[u][u] = -(gamma_L + gamma_R) / 2
    V[u][v] = -gamma_L * exp(-i |phi_u - phi_v|)   for u < v
    V[u][v] = -gamma_R * exp(-i |phi_u - phi_v|)   for u > v,

so information travels rightward with rate gamma_R and leftward with
gamma_L; gamma_L = 0 is the fully unidirectional (cascaded) limit, where
V is lower triangular.

build_chain is the one builder of V, from a chain, its disorder and a
realization index, and load_config_file the one reader of config files.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "ChainConfig",
    "DisorderSpec",
    "CouplingMatrix",
    "build_chain",
    "load_config_file",
]

# Positions may coincide (Dicke clustering, e.g. xi = 0) but must never
# cross; a tiny slack absorbs rounding in the offset arithmetic.
_ORDERING_SLACK = 1e-12


# the fields of a chain and of each disorder mode, with their types in
# to_dict: records are checked against them, and config keys built from them
_CHAIN_FIELDS = {"n_atoms": int, "xi_over_pi": float, "gamma_left": float,
                 "gamma_right": float}
_DISORDER_FIELDS = {
    "none": {},
    "single_site": {"site": int, "shift_fraction": float},
    "ensemble": {"fluctuation_fraction": float, "n_realizations": int,
                 "seed": int},
}


@dataclass(frozen=True)
class ChainConfig:
    """Static description of a chain: size, spacing phase, and rates.

    xi >= 0; xi = 0 collapses every atom onto one point (the Dicke
    limit), which the dynamics support even though the chain is then
    degenerate.
    """

    n_atoms: int
    xi: float
    gamma_left: float
    gamma_right: float

    def __post_init__(self):
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 1:
            raise ConfigError(f"n_atoms must be a positive int, got {self.n_atoms!r}")
        if not math.isfinite(self.xi) or self.xi < 0.0:
            raise ConfigError(f"xi must be finite and >= 0, got {self.xi!r}")
        for name in ("gamma_left", "gamma_right"):
            g = getattr(self, name)
            if not math.isfinite(g) or g < 0.0:
                raise ConfigError(f"{name} must be finite and >= 0, got {g!r}")
        if self.gamma_left == 0.0 and self.gamma_right == 0.0:
            raise ConfigError("gamma_left and gamma_right cannot both vanish")

    @property
    def gamma(self) -> float:
        """Time-unit rate: the larger of the two directional rates."""
        return max(self.gamma_left, self.gamma_right)

    def to_dict(self) -> dict:
        """The config-file keys of this chain, which from_dict reads back.

        An xi typed as q * pi (every CLI run) reads back exactly; for about
        13% of other xi no double q has q * pi == xi, and xi / pi reads back
        1 ulp off.
        """
        return {"n_atoms": int(self.n_atoms),
                "xi_over_pi": _over_pi(self.xi),
                "gamma_left": float(self.gamma_left),
                "gamma_right": float(self.gamma_right)}

    @classmethod
    def from_dict(cls, record: dict) -> "ChainConfig":
        """The chain of a to_dict record, xi = xi_over_pi * pi; keys of
        other records (such as disorder.*) are ignored."""
        missing = [key for key in _CHAIN_FIELDS if key not in record]
        if missing:
            raise ConfigError(f"missing required config keys: {', '.join(missing)}")
        return cls(n_atoms=record["n_atoms"], xi=record["xi_over_pi"] * math.pi,
                   gamma_left=record["gamma_left"],
                   gamma_right=record["gamma_right"])


def _over_pi(xi: float) -> float:
    """The shortest decimal q with q * pi == xi, as typed, else xi / pi
    (which gives 0.08500000000000002 for xi = 0.085 * pi)."""
    ratio = float(xi) / math.pi
    for digits in range(1, 18):
        q = float(f"{ratio:.{digits}g}")
        if q * math.pi == xi:
            return q
    return ratio


@dataclass(frozen=True)
class DisorderSpec:
    """Positional disorder: none, one shifted site, or an ensemble.

    mode 'single_site' shifts the 1-based ``site`` by ``shift_fraction``
    of xi.  mode 'ensemble' draws an independent uniform offset in
    [-w, +w] (w = fluctuation_fraction, in units of xi) for every atom
    and every realization; w < 0.5 guarantees atoms never cross.
    Realizations are reproducible: the draw for realization r depends
    only on (seed, r) and the atom order.  A field the mode does not read
    must be None.
    """

    mode: str = "none"
    site: Optional[int] = None
    shift_fraction: Optional[float] = None
    fluctuation_fraction: Optional[float] = None
    n_realizations: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in _DISORDER_FIELDS:
            raise ConfigError(f"unknown disorder mode {self.mode!r}")
        reads = _DISORDER_FIELDS[self.mode]
        # a field the mode does not read would be kept here but run as
        # nothing and left out of to_dict, so of the manifest
        unread = [f.name for f in fields(self)
                  if f.name not in ("mode", *reads)
                  and getattr(self, f.name) is not None]
        if unread:
            raise ConfigError(f"disorder mode {self.mode!r} does not read "
                              + ", ".join(unread))
        missing = [name for name in reads if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"{self.mode} disorder needs " + ", ".join(missing))
        for name, kind in reads.items():
            value = getattr(self, name)
            if kind is int and not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            if kind is float and not (isinstance(value, numbers.Real)
                                      and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite float, got {value!r}")
        if self.mode == "single_site" and self.site < 1:
            raise ConfigError(f"site must be a 1-based index, got {self.site!r}")
        if self.mode == "ensemble":
            w = self.fluctuation_fraction
            if not 0.0 <= w < 0.5:
                raise ConfigError(
                    f"fluctuation_fraction must lie in [0, 0.5), got {w!r}")
            if self.n_realizations < 1:
                raise ConfigError("n_realizations must be positive, "
                                  f"got {self.n_realizations!r}")
            # numpy seeds a generator with non-negative integers only
            if self.seed < 0:
                raise ConfigError(f"seed must be non-negative, got {self.seed!r}")

    @classmethod
    def none(cls) -> "DisorderSpec":
        return cls(mode="none")

    @classmethod
    def single_site(cls, site: int, shift_fraction: float) -> "DisorderSpec":
        return cls(mode="single_site", site=site, shift_fraction=shift_fraction)

    @classmethod
    def ensemble(cls, fluctuation_fraction: float, n_realizations: int,
                 seed: int) -> "DisorderSpec":
        return cls(mode="ensemble", fluctuation_fraction=fluctuation_fraction,
                   n_realizations=n_realizations, seed=seed)

    def to_dict(self) -> dict:
        """mode plus the fields that mode reads, keyed as in a config file
        without the ``disorder.`` prefix."""
        return {"mode": self.mode,
                **{key: cast(getattr(self, key))
                   for key, cast in _DISORDER_FIELDS[self.mode].items()}}


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """The non-Hermitian single-excitation generator V plus its provenance.

    entries is the dense complex matrix at the phase positions (both
    read-only); diagonal entries all equal -(gamma_left + gamma_right)/2,
    each upper off-diagonal entry has modulus gamma_left and each lower
    one gamma_right, and V + V^dagger is negative semidefinite of rank
    <= 2 (one collective channel per propagation direction).
    """

    entries: np.ndarray
    gamma_left: float
    gamma_right: float
    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        # copies: freezing the caller's own arrays would lock them too
        for name in ("entries", "positions"):
            arr = np.array(getattr(self, name))
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False

    @property
    def n_atoms(self) -> int:
        return self.entries.shape[0]

    @property
    def gamma(self) -> float:
        return max(self.gamma_left, self.gamma_right)


def build_chain(config: ChainConfig, disorder: DisorderSpec | None = None,
                realization_index: int = 0) -> CouplingMatrix:
    """V of one realization, at phase positions phi_m = (m - 1 + offset_m) * xi.

    Offsets come from the disorder.  Raises ConfigError if any two atoms
    would swap order (coincident positions are allowed) or a position
    overflows.
    """
    if disorder is None:
        disorder = DisorderSpec.none()
    if (not isinstance(realization_index, (int, np.integer))
            or realization_index < 0):
        raise ConfigError(
            f"realization_index must be an integer >= 0, got {realization_index!r}")
    n = config.n_atoms
    offsets = np.zeros(n)
    if disorder.mode == "single_site":
        if disorder.site > n:
            raise ConfigError(
                f"site {disorder.site} exceeds chain length {n}")
        offsets[disorder.site - 1] += disorder.shift_fraction
    elif disorder.mode == "ensemble":
        if realization_index >= disorder.n_realizations:
            raise ConfigError(
                f"realization_index {realization_index} out of range "
                f"for {disorder.n_realizations} realizations")
        rng = np.random.default_rng((disorder.seed, realization_index))
        w = disorder.fluctuation_fraction
        offsets += rng.uniform(-w, w, size=n)
    with np.errstate(over="ignore"):  # refused just below
        positions = (np.arange(n) + offsets) * config.xi
    if not np.all(np.isfinite(positions)):
        raise ConfigError("positions must be finite; xi * n_atoms overflows")
    if np.any(np.diff(positions) < -_ORDERING_SLACK * max(config.xi, 1.0)):
        raise ConfigError(
            "offsets reorder the chain; positions must stay non-decreasing")
    return _build_coupling_matrix(positions, config.gamma_left,
                                  config.gamma_right)


def _build_coupling_matrix(positions: np.ndarray, gamma_left: float,
                           gamma_right: float) -> CouplingMatrix:
    """V at positions build_chain has checked (finite, non-decreasing) and
    rates ChainConfig has checked (finite, >= 0, not both zero)."""
    n = positions.size
    sep = np.abs(positions[:, None] - positions[None, :])
    phase = np.exp(-1j * sep)
    v = np.where(np.triu(np.ones((n, n), dtype=bool), 1),
                 -gamma_left * phase, -gamma_right * phase)
    np.fill_diagonal(v, -0.5 * (gamma_left + gamma_right))
    return CouplingMatrix(entries=v, gamma_left=gamma_left,
                          gamma_right=gamma_right, positions=positions)


# ---------------------------------------------------------------------------
# key = value configuration files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {**_CHAIN_FIELDS, "disorder.mode": str,
                **{f"disorder.{key}": kind
                   for reads in _DISORDER_FIELDS.values()
                   for key, kind in reads.items()}}


def load_config_file(path) -> tuple[ChainConfig, DisorderSpec]:
    """Read a file of ``key = value`` lines (with # comments) into configs.

    Required keys: n_atoms, xi_over_pi, gamma_left, gamma_right.  The
    disorder.* keys are optional and default to mode none.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as error:
        reason = error.strerror if isinstance(error, OSError) else "not UTF-8 text"
        raise ConfigError(f"cannot read config file {path!r}: {reason}") from error
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    disorder = {key.removeprefix("disorder."): value
                for key, value in values.items() if key.startswith("disorder.")}
    return ChainConfig.from_dict(values), DisorderSpec(**disorder)
