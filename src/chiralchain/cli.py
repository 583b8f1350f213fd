"""Command-line front end: simulation runs, figure presets, kernel tables.

Four subcommands: ``simulate`` (one trajectory), ``figure`` (preset
parameter sets emitting every curve of a named figure), ``kernel``
(dipole-dipole kernel tables over a xi range), and ``ensemble``
(position-fluctuation statistics).

Every run writes its data as CSV with ``#``-prefixed metadata lines and
a ``manifest.json`` recording the resolved parameters that the run
reads, the detector defaults (except for kernel tables), and the sha256
of each output, so any result can be reproduced bitwise from its
manifest.  Each file is hashed as it streams to disk.  Data files never
embed timestamps.  With ``--stdout`` the writer of the primary data
file streams it to standard output and nothing is written.

Exit codes: 0 on success, 2 for configuration and domain errors, 3 for
IntegrityError (the matrix-exponential and Runge-Kutta backends disagree)
and NumericsError (the Runge-Kutta step size underflows).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import __version__
from .analysis import detect_bursts, detector_defaults
from .chain import ChainConfig, DisorderSpec, build_chain, load_config_file
from .dynamics import (_MAX_POINTS, EnsembleResult, _write_csv, log_grid,
                       propagate, run_ensemble, steady_state,
                       uniform_excitation, uniform_grid,
                       write_trajectory_csv, write_trajectory_json)
from .errors import (ChiralChainError, ConfigError, IntegrityError,
                     NumericsError, ResolutionError)
from .kernels import chiral_fg, kernel_1d_reciprocal, kernel_2d, kernel_3d

__all__ = ["main", "build_parser"]

OUTDIR_ENV = "CHIRALCHAIN_OUTDIR"
DEFAULT_SEED = 7


def _repr_float(x: float) -> str:
    return repr(float(x))


def _resolve_outdir(arg: Optional[str]) -> str:
    if arg:
        return arg
    return os.environ.get(OUTDIR_ENV, ".")


class _DigestWriter:
    """Text stream that writes UTF-8 into a binary file and hashes it.

    tell() is the number of bytes written so far; bench/tracing.py reads
    it around each trajectory writer.
    """

    def __init__(self, fh):
        self._fh = fh
        self.sha256 = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._fh.write(data)
        self.sha256.update(data)
        self.bytes += len(data)
        return len(text)

    def tell(self) -> int:
        return self.bytes


def _write_run(outdir: str, command: str, parameters: dict,
               gamma: Optional[float], writers: dict, started: float,
               stdout: bool = False) -> None:
    """Write each output file plus a manifest with hashes and duration.

    Each writer streams into its file through a _DigestWriter, so no
    output is held whole in memory.  The manifest records the detector
    defaults for gamma, or none when gamma is None.  With stdout set,
    only the first writer runs, into standard output, and no file is
    written.
    """
    if stdout:
        next(iter(writers.values()))(sys.stdout)
        return
    os.makedirs(outdir, exist_ok=True)
    outputs = []
    for name, writer in writers.items():
        with open(os.path.join(outdir, name), "wb") as fh:
            stream = _DigestWriter(fh)
            writer(stream)
        outputs.append({
            "path": name,
            "sha256": stream.sha256.hexdigest(),
            "bytes": stream.bytes,
        })
    manifest = {
        "tool": "chiralchain",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
    }
    if gamma is not None:
        manifest["detector_defaults"] = detector_defaults(gamma)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _data_metadata(config: ChainConfig, disorder: DisorderSpec,
                   grid: Optional[dict] = None) -> dict:
    """The # key = value lines of a data file, from the manifest records.

    The config keys, the disorder keys prefixed disorder_, the grid keys
    and gamma, in that order; floats are written as repr(float(x)).
    """
    records = {**config.to_dict(),
               **{f"disorder_{key}": value
                  for key, value in disorder.to_dict().items()},
               **(grid or {}), "gamma": config.gamma}
    return {key: _repr_float(value) if isinstance(value, float) else value
            for key, value in records.items()}


# ---------------------------------------------------------------------------
# config assembly shared by simulate and ensemble
# ---------------------------------------------------------------------------

def _given(**flags) -> dict:
    """The flags that were given, under the keys they are passed with."""
    return {key: value for key, value in flags.items() if value is not None}


def _merge_config(args) -> tuple:
    """The chain from the config file (if given) and flags, flags winning
    field by field, and the file's disorder, which each command resolves.

    Fields go by the keys of ChainConfig.to_dict.
    """
    fields = {"n_atoms": 2, "xi_over_pi": 0.0, "gamma_left": 1.0,
              "gamma_right": 1.0}
    disorder = DisorderSpec.none()
    if args.config:
        config, disorder = load_config_file(args.config)
        fields = config.to_dict()
    fields.update(_given(n_atoms=args.n, xi_over_pi=args.xi_over_pi,
                         gamma_left=args.gamma_l, gamma_right=args.gamma_r))
    return ChainConfig.from_dict(fields), disorder


def _grid(args) -> tuple:
    """The time grid of a run and its record; ensemble runs have no log grid."""
    if getattr(args, "log_grid", False):
        return (log_grid(horizon=args.horizon,
                         points_per_decade=args.points_per_decade),
                {"grid": "log", "horizon": args.horizon,
                 "points_per_decade": args.points_per_decade})
    return (uniform_grid(horizon=args.horizon, points=args.points),
            {"grid": "uniform", "horizon": args.horizon, "points": args.points})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    started = time.monotonic()
    config, disorder = _merge_config(args)
    if args.shift_site is not None or args.shift is not None:
        if args.shift_site is None or args.shift is None:
            raise ConfigError(
                "--shift-site and --shift must be given together")
        disorder = DisorderSpec.single_site(args.shift_site, args.shift)
    elif disorder.mode == "ensemble":
        raise ConfigError(
            "simulate does not run the config file's disorder mode "
            "'ensemble'; run ensemble, or replace it with --shift-site "
            "and --shift")
    grid, grid_record = _grid(args)
    trajectory = propagate(build_chain(config, disorder),
                           uniform_excitation(config.n_atoms), grid,
                           cross_check=not args.no_cross_check)
    metadata = _data_metadata(config, disorder, grid_record)
    writers = {"trajectory.csv":
               lambda fh: write_trajectory_csv(trajectory, fh, metadata)}
    if args.json:
        writers["trajectory.json"] = (
            lambda fh: write_trajectory_json(trajectory, fh, metadata))
    parameters = {"config": config.to_dict(), "disorder": disorder.to_dict(),
                  "grid": grid_record, "cross_check": not args.no_cross_check}
    _write_run(_resolve_outdir(args.outdir), "simulate", parameters,
               config.gamma, writers, started, args.stdout)
    return 0


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def _write_ensemble_csv(result: EnsembleResult, stream, metadata: dict) -> None:
    _write_csv(stream, list(metadata.items()),
               ["t", "mean_P_tot", "std_P_tot", "mean_I_tot", "std_I_tot"],
               [result.times, result.mean_total, result.std_total,
                result.mean_intensity, result.std_intensity])


def cmd_ensemble(args) -> int:
    started = time.monotonic()
    config, disorder = _merge_config(args)
    if disorder.mode == "single_site":
        raise ConfigError(
            "ensemble does not run the config file's disorder mode "
            "'single_site'; run simulate")
    fields = {"mode": "ensemble", "fluctuation_fraction": 0.005,
              "n_realizations": 200, "seed": DEFAULT_SEED}
    if disorder.mode == "ensemble":
        fields.update(disorder.to_dict())
    fields.update(_given(fluctuation_fraction=args.fluct,
                         n_realizations=args.realizations, seed=args.seed))
    disorder = DisorderSpec(**fields)
    grid, grid_record = _grid(args)
    result = run_ensemble(config, disorder, grid)
    metadata = _data_metadata(config, disorder, grid_record)

    def write_report(fh):
        try:
            report = asdict(detect_bursts(result))
        except (ConfigError, ResolutionError) as error:
            # a grid too short or too coarse for the detector
            window = detector_defaults(config.gamma)["burst"]["window"]
            report = {"skipped": str(error), "window": window}
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    writers = {"ensemble.csv":
               lambda fh: _write_ensemble_csv(result, fh, metadata),
               "bursts.json": write_report}
    parameters = {"config": config.to_dict(), "disorder": disorder.to_dict(),
                  "grid": grid_record}
    _write_run(_resolve_outdir(args.outdir), "ensemble", parameters,
               config.gamma, writers, started, args.stdout)
    return 0


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _parse_xi_range(spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            parts = [float(p) for p in spec.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, step, stop = parts
            if not (step > 0.0 and start <= stop):
                raise ValueError
            steps = (stop - start) / step
            if not all(map(math.isfinite, (start, step, stop, steps))):
                raise ValueError
            # every value up to stop; the slack keeps a stop that lies on
            # the grid but reads a rounding error short of it
            count = int(math.floor(steps + 1e-9)) + 1
            if count > _MAX_POINTS:
                raise ValueError
            return start + step * np.arange(count)
        if "," in spec:
            return np.array([float(p) for p in spec.split(",")])
        return np.array([float(spec)])
    except ValueError as exc:
        raise ConfigError(
            f"bad xi range {spec!r}; use start:step:stop of at most "
            f"{_MAX_POINTS} points, a comma list, or a single value") from exc


def _kernel_table(args, xi_values: np.ndarray) -> tuple:
    """The parameters --dim reads, and the header and columns of its table,
    from one call of its kernel."""
    if args.dim == "1":
        decay, shift = kernel_1d_reciprocal(xi_values)
        return {}, ["xi", "decay", "shift"], [xi_values, decay, shift]
    if args.dim == "1chiral":
        f, g = chiral_fg(xi_values, args.gamma_l, args.gamma_r)
        # F_re and G_re repeat decay and shift: the same arrays, formatted once
        decay, shift = f.real, g.real
        return ({"gamma_left": args.gamma_l, "gamma_right": args.gamma_r},
                ["xi", "decay", "shift", "F_re", "F_im", "G_re", "G_im"],
                [xi_values, decay, shift, decay, f.imag, shift, g.imag])
    kernel = kernel_2d if args.dim == "2" else kernel_3d
    decay, shift, divergent = kernel(xi_values, args.alignment)
    return ({"alignment": args.alignment},
            ["xi", "decay", "shift", "shift_divergent"],
            [xi_values, decay, shift, divergent.astype(int)])


def cmd_kernel(args) -> int:
    started = time.monotonic()
    read, header, columns = _kernel_table(args, _parse_xi_range(args.xi))
    # the table and the manifest record only what this dimension reads
    metadata = {"dimension": args.dim,
                **{key: _repr_float(value) for key, value in read.items()}}
    parameters = {"dimension": args.dim, "xi": args.xi, **read}

    def write_table(fh):
        _write_csv(fh, list(metadata.items()), header, columns)

    _write_run(_resolve_outdir(args.outdir), "kernel", parameters, None,
               {"kernel.csv": write_table}, started, args.stdout)
    return 0


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

GAMMA_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _traj_curve(n: int, xi_over_pi: float, gl: float, gr: float, grid,
                disorder: DisorderSpec = DisorderSpec.none()) -> tuple:
    """One curve of a figure: its writer and the gnuplot column of P_tot.

    The writer builds the chain, propagates and writes the curve.  The
    trajectory exists only while its file is written, so a figure holds
    one trajectory at a time.  I_tot is the column after P_tot.
    """
    config = ChainConfig.from_dict({"n_atoms": n, "xi_over_pi": xi_over_pi,
                                    "gamma_left": gl, "gamma_right": gr})

    def write(fh):
        trajectory = propagate(build_chain(config, disorder),
                               uniform_excitation(n), grid, cross_check=False)
        write_trajectory_csv(trajectory, fh, _data_metadata(config, disorder))

    return write, n + 2


def _figure_fig2() -> dict:
    grid = uniform_grid(20.0, 4001)
    curves = {}
    for n in (2, 3):
        for tag, xi_over_pi in (("xi0", 0.0), ("xipi", 1.0)):
            curves[f"fig2_N{n}_{tag}.csv"] = _traj_curve(
                n, xi_over_pi, 0.0, 1.0, grid)
    return curves


def _figure_fig3() -> dict:
    curves = {}
    grid_a = uniform_grid(20.0, 4001)
    grid_b = uniform_grid(100.0, 2501)
    for n in (2, 3):
        for gl in GAMMA_SWEEP:
            tag = f"gl{gl:.1f}"
            curves[f"fig3a_N{n}_{tag}.csv"] = _traj_curve(
                n, 0.0, gl, 1.0, grid_a)
            curves[f"fig3b_N{n}_{tag}.csv"] = _traj_curve(
                n, 1.0, gl, 1.0, grid_b)

    def write_c(fh):
        sizes = np.arange(2, 14)
        p1_inf = []
        for n in sizes.tolist():
            config = ChainConfig(n_atoms=n, xi=math.pi,
                                 gamma_left=1.0, gamma_right=1.0)
            state = steady_state(build_chain(config), uniform_excitation(n))
            p1_inf.append(state.populations[0])
        _write_csv(fh, [("xi_over_pi", 1.0), ("gamma_left", 1.0),
                        ("gamma_right", 1.0)],
                   ["N", "P1_inf"], [sizes, np.array(p1_inf)])

    # a table over N, not a curve over time: the script leaves it out
    curves["fig3c.csv"] = (write_c, None)
    return curves


def _figure_fig4() -> dict:
    curves = {}
    grid_a = uniform_grid(40.0, 2001)
    grid_b = uniform_grid(1500.0, 37501)
    for n in (2, 3, 4, 5, 6, 7, 10, 11):
        curves[f"fig4a_N{n}.csv"] = _traj_curve(n, 1.0, 0.0, 1.0, grid_a)
        curves[f"fig4b_N{n}.csv"] = _traj_curve(n, 1.0, 0.9, 1.0, grid_b)
    return curves


def _figure_fig5() -> dict:
    curves = {}
    grid = uniform_grid(1000.0, 25001)
    for n in (4, 5):
        write, total = _traj_curve(n, 1.0, 0.9, 1.0, grid)
        curves[f"fig5a_N{n}.csv"] = (write, total + 1)  # I_tot
    config = ChainConfig(n_atoms=5, xi=math.pi, gamma_left=0.9,
                         gamma_right=1.0)
    for tag, width in (("0.5pct", 0.005), ("1pct", 0.010)):
        disorder = DisorderSpec.ensemble(width, 200, DEFAULT_SEED)
        curves[f"fig5b_fluct{tag}.csv"] = (
            lambda fh, d=disorder: _write_ensemble_csv(
                run_ensemble(config, d, grid), fh, _data_metadata(config, d)),
            4)  # mean_I_tot
    return curves


def _figure_fig6() -> dict:
    grid = uniform_grid(1500.0, 37501)
    return {
        "fig6a_N5_shift3.csv": _traj_curve(
            5, 1.0, 0.9, 1.0, grid, DisorderSpec.single_site(3, 0.05)),
        "fig6b_N5_shift2.csv": _traj_curve(
            5, 1.0, 0.9, 1.0, grid, DisorderSpec.single_site(2, 0.05)),
        "fig6c_N4_shift1.csv": _traj_curve(
            4, 1.0, 0.9, 1.0, grid, DisorderSpec.single_site(1, 0.05)),
    }


def _figure_fig7() -> dict:
    grid = log_grid(horizon=1e4, points_per_decade=400)
    return {
        "fig7_N5_shift3_30pct.csv": _traj_curve(
            5, 0.75, 0.9, 1.0, grid, DisorderSpec.single_site(3, 0.30)),
    }


# figure name -> builder of {file name: (writer, gnuplot column or None)}
_FIGURE_BUILDERS = {
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
}

_FIGURE_LOG_Y = {"fig4", "fig5", "fig6", "fig7"}


def _gnuplot_script(name: str, columns: dict) -> str:
    """The script plotting each file's column; a None column is left out."""
    lines = [
        f"# gnuplot script for {name}; run: gnuplot {name}.gp",
        'set datafile separator ","',
        "set key outside right",
        'set xlabel "gamma t"',
    ]
    if name in _FIGURE_LOG_Y:
        lines.append("set logscale y")
        lines.append("set format y '10^{%T}'")
    if name == "fig5":
        lines.append('set ylabel "I_tot"')
    else:
        lines.append('set ylabel "P_tot"')
    plot_parts = []
    for fn in sorted(columns):
        if columns[fn] is None:
            continue
        title = fn[:-4].replace("_", " ")
        plot_parts.append(
            f"'{fn}' using 1:{columns[fn]} with lines title '{title}'")
    if name == "fig3":
        lines.append("# fig3c.csv (N,P1_inf) suits a separate point plot:")
        lines.append("#   plot 'fig3c.csv' using 1:2 with points")
    if plot_parts:
        lines.append("plot \\")
        for i, part in enumerate(plot_parts):
            sep = ", \\" if i < len(plot_parts) - 1 else ""
            lines.append("  " + part + sep)
    lines.append("pause -1 'press enter to close'")
    return "\n".join(lines) + "\n"


def cmd_figure(args) -> int:
    started = time.monotonic()
    name = args.name
    curves = _FIGURE_BUILDERS[name]()
    writers = {fn: write for fn, (write, _) in curves.items()}
    script = _gnuplot_script(
        name, {fn: column for fn, (_, column) in curves.items()})
    writers[f"{name}.gp"] = lambda fh: fh.write(script)
    outdir = os.path.join(_resolve_outdir(args.outdir), name)
    parameters = {"figure": name}
    _write_run(outdir, "figure", parameters, 1.0, writers, started)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralchain",
        description="Dissipative dynamics of a chiral-coupled atomic chain "
                    "(single excitation, uniform initial state).")
    parser.add_argument("--version", action="version",
                        version=f"chiralchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_config(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--n", type=int, help="number of atoms")
        p.add_argument("--xi-over-pi", type=float, dest="xi_over_pi",
                       help="inter-atomic phase xi as a multiple of pi")
        p.add_argument("--gamma-l", type=float, dest="gamma_l",
                       help="leftward coupling rate")
        p.add_argument("--gamma-r", type=float, dest="gamma_r",
                       help="rightward coupling rate")
        p.add_argument("--outdir", help=f"output directory "
                       f"(default: ${OUTDIR_ENV} or '.')")
        p.add_argument("--stdout", action="store_true",
                       help="write data to stdout, no files")

    sim = sub.add_parser("simulate", help="propagate one configuration")
    add_common_config(sim)
    sim.add_argument("--shift-site", type=int, dest="shift_site",
                     help="1-based site for a deterministic shift")
    sim.add_argument("--shift", type=float,
                     help="shift as a (signed) fraction of xi")
    sim.add_argument("--horizon", type=float, default=20.0,
                     help="final time in units of 1/gamma (default 20)")
    sim.add_argument("--points", type=int, default=2000,
                     help="uniform grid points (default 2000)")
    sim.add_argument("--log-grid", action="store_true", dest="log_grid",
                     help="log-spaced grid from 0.01/gamma to the horizon")
    sim.add_argument("--points-per-decade", type=int, default=400,
                     dest="points_per_decade",
                     help="log grid density (default 400)")
    sim.add_argument("--json", action="store_true",
                     help="also write complex amplitudes as JSON")
    sim.add_argument("--no-cross-check", action="store_true",
                     dest="no_cross_check",
                     help="skip the Runge-Kutta integrity check")
    sim.set_defaults(func=cmd_simulate)

    fig = sub.add_parser("figure", help="emit every curve of a named figure")
    fig.add_argument("name", choices=tuple(_FIGURE_BUILDERS))
    fig.add_argument("--outdir", help=f"parent directory "
                     f"(default: ${OUTDIR_ENV} or '.')")
    fig.set_defaults(func=cmd_figure)

    ker = sub.add_parser("kernel", help="tabulate dipole-dipole kernels")
    ker.add_argument("--dim", required=True,
                     choices=("1", "1chiral", "2", "3"))
    ker.add_argument("--xi", required=True,
                     help="single value, comma list, or start:step:stop")
    ker.add_argument("--alignment", type=float, default=0.0,
                     help="dipole alignment cosine for 2D/3D (default 0)")
    ker.add_argument("--gamma-l", type=float, default=0.5, dest="gamma_l",
                     help="1chiral left rate (default 0.5)")
    ker.add_argument("--gamma-r", type=float, default=0.5, dest="gamma_r",
                     help="1chiral right rate (default 0.5)")
    ker.add_argument("--outdir", help=f"output directory "
                     f"(default: ${OUTDIR_ENV} or '.')")
    ker.add_argument("--stdout", action="store_true",
                     help="write the table to stdout, no files")
    ker.set_defaults(func=cmd_kernel)

    ens = sub.add_parser("ensemble",
                         help="position-fluctuation ensemble statistics")
    add_common_config(ens)
    ens.add_argument("--fluct", type=float,
                     help="fluctuation half-width as fraction of xi "
                          "(default 0.005)")
    ens.add_argument("--realizations", type=int,
                     help="ensemble size (default 200)")
    ens.add_argument("--seed", type=int,
                     help=f"ensemble seed (default {DEFAULT_SEED})")
    ens.add_argument("--horizon", type=float, default=1000.0,
                     help="final time in units of 1/gamma (default 1000)")
    ens.add_argument("--points", type=int, default=25001,
                     help="uniform grid points (default 25001)")
    ens.set_defaults(func=cmd_ensemble)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IntegrityError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ChiralChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
