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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "ChainConfig",
    "DisorderSpec",
    "CouplingMatrix",
    "build_positions",
    "build_coupling_matrix",
    "build_chain",
    "parse_config_text",
    "load_config_file",
]

# Positions may coincide (Dicke clustering, e.g. xi = 0) but must never
# cross; a tiny slack absorbs rounding in the offset arithmetic.
_ORDERING_SLACK = 1e-12


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
        _check_rates(self.gamma_left, self.gamma_right)

    @property
    def gamma(self) -> float:
        """Time-unit rate: the larger of the two directional rates."""
        return max(self.gamma_left, self.gamma_right)

    def to_dict(self) -> dict:
        """The config-file keys of this chain, as parse_config_text reads them.

        An xi typed as q * pi (every CLI run) reads back exactly; for about
        13% of other xi no double q has q * pi == xi, and xi / pi reads back
        1 ulp off.
        """
        return {"n_atoms": int(self.n_atoms),
                "xi_over_pi": _over_pi(self.xi),
                "gamma_left": float(self.gamma_left),
                "gamma_right": float(self.gamma_right)}


def _check_rates(gamma_left: float, gamma_right: float) -> None:
    for name, g in (("gamma_left", gamma_left), ("gamma_right", gamma_right)):
        if not math.isfinite(g) or g < 0.0:
            raise ConfigError(f"{name} must be finite and >= 0, got {g!r}")
    if gamma_left == 0.0 and gamma_right == 0.0:
        raise ConfigError("gamma_left and gamma_right cannot both vanish")


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
    only on (seed, r) and the atom order.
    """

    mode: str = "none"
    site: Optional[int] = None
    shift_fraction: Optional[float] = None
    fluctuation_fraction: Optional[float] = None
    n_realizations: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("none", "single_site", "ensemble"):
            raise ConfigError(f"unknown disorder mode {self.mode!r}")
        if self.mode == "single_site":
            if self.site is None or self.shift_fraction is None:
                raise ConfigError("single_site disorder needs site and shift_fraction")
            if not isinstance(self.site, (int, np.integer)) or self.site < 1:
                raise ConfigError(f"site must be a 1-based index, got {self.site!r}")
            if not math.isfinite(self.shift_fraction):
                raise ConfigError("shift_fraction must be finite")
        if self.mode == "ensemble":
            if (self.fluctuation_fraction is None or self.n_realizations is None
                    or self.seed is None):
                raise ConfigError(
                    "ensemble disorder needs fluctuation_fraction, "
                    "n_realizations, and seed")
            w = self.fluctuation_fraction
            if not math.isfinite(w) or w < 0.0 or w >= 0.5:
                raise ConfigError(
                    f"fluctuation_fraction must lie in [0, 0.5), got {w!r}")
            if (not isinstance(self.n_realizations, (int, np.integer))
                    or self.n_realizations < 1):
                raise ConfigError("n_realizations must be a positive integer, "
                                  f"got {self.n_realizations!r}")
            # numpy seeds a generator with non-negative integers only
            if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
                raise ConfigError(
                    f"seed must be a non-negative integer, got {self.seed!r}")

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
        if self.mode == "single_site":
            return {"mode": self.mode, "site": int(self.site),
                    "shift_fraction": float(self.shift_fraction)}
        if self.mode == "ensemble":
            return {"mode": self.mode,
                    "fluctuation_fraction": float(self.fluctuation_fraction),
                    "n_realizations": int(self.n_realizations),
                    "seed": int(self.seed)}
        return {"mode": self.mode}


def build_positions(config: ChainConfig,
                    disorder: DisorderSpec | None = None,
                    realization_index: int = 0) -> np.ndarray:
    """Phase positions phi_m = (m - 1 + offset_m) * xi for one realization.

    Offsets come from the disorder.  Raises ConfigError if any two atoms
    would swap order (coincident positions are allowed).
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
    positions = (np.arange(n) + offsets) * config.xi
    if np.any(np.diff(positions) < -_ORDERING_SLACK * max(config.xi, 1.0)):
        raise ConfigError(
            "offsets reorder the chain; positions must stay non-decreasing")
    return positions


@dataclass(frozen=True)
class CouplingMatrix:
    """The non-Hermitian single-excitation generator V plus its provenance.

    entries is the dense complex matrix (read-only); diagonal entries all
    equal -(gamma_left + gamma_right)/2, each upper off-diagonal entry has
    modulus gamma_left and each lower one gamma_right, and V + V^dagger
    is negative semidefinite of rank <= 2 (one collective channel per
    propagation direction).
    """

    entries: np.ndarray
    gamma_left: float
    gamma_right: float
    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries.flags.writeable = False
        self.positions.flags.writeable = False

    @property
    def n_atoms(self) -> int:
        return self.entries.shape[0]

    @property
    def gamma(self) -> float:
        return max(self.gamma_left, self.gamma_right)

    def dissipator(self) -> np.ndarray:
        """-(V + V^dagger), the positive-semidefinite emission form."""
        return -(self.entries + self.entries.conj().T)


def build_coupling_matrix(positions: np.ndarray, gamma_left: float,
                          gamma_right: float) -> CouplingMatrix:
    """Assemble V from phase positions and the two directional rates."""
    # a copy, since CouplingMatrix freezes it
    pos = np.array(positions, dtype=float)
    if pos.ndim != 1 or pos.size < 1:
        raise ConfigError("positions must be a non-empty 1D array")
    if not np.all(np.isfinite(pos)):
        raise ConfigError("positions must be finite")
    if np.any(np.diff(pos) < -_ORDERING_SLACK * max(abs(pos).max(), 1.0)):
        raise ConfigError("positions must be non-decreasing")
    _check_rates(gamma_left, gamma_right)
    n = pos.size
    sep = np.abs(pos[:, None] - pos[None, :])
    phase = np.exp(-1j * sep)
    v = np.where(np.triu(np.ones((n, n), dtype=bool), 1),
                 -gamma_left * phase, -gamma_right * phase)
    np.fill_diagonal(v, -0.5 * (gamma_left + gamma_right))
    return CouplingMatrix(entries=v, gamma_left=gamma_left,
                          gamma_right=gamma_right, positions=pos)


def build_chain(config: ChainConfig, disorder: DisorderSpec | None = None,
                realization_index: int = 0) -> CouplingMatrix:
    """Positions plus matrix in one step."""
    positions = build_positions(config, disorder, realization_index)
    return build_coupling_matrix(positions, config.gamma_left,
                                 config.gamma_right)


# ---------------------------------------------------------------------------
# key = value configuration files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "n_atoms": int,
    "xi_over_pi": float,
    "gamma_left": float,
    "gamma_right": float,
    "disorder.mode": str,
    "disorder.site": int,
    "disorder.shift_fraction": float,
    "disorder.fluctuation_fraction": float,
    "disorder.n_realizations": int,
    "disorder.seed": int,
}


def parse_config_text(text: str) -> tuple[ChainConfig, DisorderSpec]:
    """Parse ``key = value`` lines (with # comments) into config objects.

    Required keys: n_atoms, xi_over_pi, gamma_left, gamma_right.  The
    disorder.* keys are optional and default to mode none.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    missing = [k for k in ("n_atoms", "xi_over_pi", "gamma_left", "gamma_right")
               if k not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    config = ChainConfig(
        n_atoms=values["n_atoms"],                       # type: ignore[arg-type]
        xi=float(values["xi_over_pi"]) * math.pi,        # type: ignore[arg-type]
        gamma_left=values["gamma_left"],                 # type: ignore[arg-type]
        gamma_right=values["gamma_right"],               # type: ignore[arg-type]
    )
    mode = values.get("disorder.mode", "none")
    disorder = DisorderSpec(
        mode=mode,                                       # type: ignore[arg-type]
        site=values.get("disorder.site"),                # type: ignore[arg-type]
        shift_fraction=values.get("disorder.shift_fraction"),       # type: ignore[arg-type]
        fluctuation_fraction=values.get("disorder.fluctuation_fraction"),  # type: ignore[arg-type]
        n_realizations=values.get("disorder.n_realizations"),       # type: ignore[arg-type]
        seed=values.get("disorder.seed"),                # type: ignore[arg-type]
    )
    return config, disorder


def load_config_file(path) -> tuple[ChainConfig, DisorderSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
