"""Command-line front end: simulation runs, figure presets, kernel tables.

Four subcommands: ``simulate`` (one trajectory), ``figure`` (every
curve of a named figure), ``kernel`` (dipole-dipole kernel tables over a
xi range), and ``ensemble`` (position-fluctuation statistics).

Every run writes its data as CSV with ``#``-prefixed metadata lines and
a ``manifest.json`` recording the resolved parameters that the run
reads, the detector defaults (except for kernel tables), and the sha256
of each output, so any result can be reproduced bitwise from its
manifest.  A simulate or ensemble run, and each figure curve, runs one
record: the config, disorder, grid and cross_check of a simulate or
ensemble manifest, and writes its result's table, whose columns dynamics
defines.  A figure is data: its curves, whose records its manifest lists
under ``curves``, and its other tables with their script notes.  Each
file is hashed as it streams to disk.  Data files never embed
timestamps.  With ``--stdout`` the writer of the primary data file
streams it to standard output and nothing is written.

Exit codes: 0 on success, 2 for configuration and domain errors, 3 for
IntegrityError (the matrix-exponential and Runge-Kutta backends disagree)
and NumericsError (a Runge-Kutta step underflows or an expm step overflows).
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
from .dynamics import (_MAX_POINTS, EnsembleResult, Trajectory, _write_csv,
                       log_grid, propagate, run_ensemble, steady_state,
                       uniform_excitation, uniform_grid,
                       write_trajectory_csv, write_trajectory_json)
from .errors import (ChiralChainError, ConfigError, NumericsError,
                     ResolutionError)
from .kernels import chiral_fg, kernel_1d_reciprocal, kernel_2d, kernel_3d

__all__ = ["main", "build_parser"]

OUTDIR_ENV = "CHIRALCHAIN_OUTDIR"
DEFAULT_SEED = 7


def _resolve_outdir(arg: Optional[str]) -> str:
    return arg or os.environ.get(OUTDIR_ENV, ".")


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
    return {key: repr(float(value)) if isinstance(value, float) else value
            for key, value in records.items()}


# ---------------------------------------------------------------------------
# records: config assembly, and the one path from a record to a run
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


def _uniform(horizon: float, points: int) -> dict:
    return {"grid": "uniform", "horizon": horizon, "points": points}


def _grid_record(args) -> dict:
    """The time grid record of a run: its kind, and the keyword arguments
    of uniform_grid or log_grid.  Ensemble runs have no log grid."""
    if getattr(args, "log_grid", False):
        return {"grid": "log", "horizon": args.horizon,
                "points_per_decade": args.points_per_decade}
    return _uniform(args.horizon, args.points)


def _run(record: dict) -> tuple:
    """The chain, disorder and result of the run that a record describes.

    record has the keys of a simulate or ensemble manifest's parameters:
    config and disorder under their to_dict keys, the grid record and
    cross_check.  An ensemble disorder runs run_ensemble; any other
    propagates the uniform excitation of one chain.
    """
    config = ChainConfig.from_dict(record["config"])
    disorder = DisorderSpec(**record["disorder"])
    grid = dict(record["grid"])
    times = (log_grid if grid.pop("grid") == "log" else uniform_grid)(**grid)
    if disorder.mode == "ensemble":
        result = run_ensemble(config, disorder, times,
                              cross_check=record["cross_check"])
    else:
        result = propagate(build_chain(config, disorder),
                           uniform_excitation(config.n_atoms), times,
                           cross_check=record["cross_check"])
    return config, disorder, result


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
    parameters = {"config": config.to_dict(), "disorder": disorder.to_dict(),
                  "grid": _grid_record(args),
                  "cross_check": not args.no_cross_check}
    config, disorder, trajectory = _run(parameters)
    metadata = _data_metadata(config, disorder, parameters["grid"])
    writers = {"trajectory.csv":
               lambda fh: write_trajectory_csv(trajectory, fh, metadata)}
    if args.json:
        writers["trajectory.json"] = (
            lambda fh: write_trajectory_json(trajectory, fh, metadata))
    _write_run(_resolve_outdir(args.outdir), "simulate", parameters,
               config.gamma, writers, started, args.stdout)
    return 0


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

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
    # no Runge-Kutta check: forced on, it takes the README run from 0.36
    # to 1.09 s in process
    parameters = {"config": config.to_dict(),
                  "disorder": DisorderSpec(**fields).to_dict(),
                  "grid": _grid_record(args), "cross_check": False}
    config, disorder, result = _run(parameters)
    metadata = _data_metadata(config, disorder, parameters["grid"])

    def write_report(fh):
        try:
            report = asdict(detect_bursts(result))
        except (ConfigError, ResolutionError) as error:
            # a grid too short or too coarse for the detector
            window = detector_defaults(config.gamma)["burst"]["window"]
            report = {"skipped": str(error), "window": window}
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    writers = {"ensemble.csv": lambda fh: _write_csv(
                   fh, metadata, result.table(), result.underflow_clamped),
               "bursts.json": write_report}
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
    """The parameters --dim reads, and its table (header name -> column),
    from one call of its kernel."""
    if args.dim == "1":
        decay, shift = kernel_1d_reciprocal(xi_values)
        return {}, {"xi": xi_values, "decay": decay, "shift": shift}
    if args.dim == "1chiral":
        f, g = chiral_fg(xi_values, args.gamma_l, args.gamma_r)
        # F_re and G_re repeat decay and shift: the same arrays, formatted once
        decay, shift = f.real, g.real
        return ({"gamma_left": args.gamma_l, "gamma_right": args.gamma_r},
                {"xi": xi_values, "decay": decay, "shift": shift,
                 "F_re": decay, "F_im": f.imag, "G_re": shift, "G_im": g.imag})
    kernel = kernel_2d if args.dim == "2" else kernel_3d
    decay, shift, divergent = kernel(xi_values, args.alignment)
    return ({"alignment": args.alignment},
            {"xi": xi_values, "decay": decay, "shift": shift,
             "shift_divergent": divergent.astype(int)})


def cmd_kernel(args) -> int:
    started = time.monotonic()
    read, table = _kernel_table(args, _parse_xi_range(args.xi))
    # the table and the manifest record only what this dimension reads
    metadata = {"dimension": args.dim,
                **{key: repr(float(value)) for key, value in read.items()}}
    parameters = {"dimension": args.dim, "xi": args.xi, **read}
    _write_run(_resolve_outdir(args.outdir), "kernel", parameters, None,
               {"kernel.csv": lambda fh: _write_csv(fh, metadata, table)},
               started, args.stdout)
    return 0


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _curve(n: int, xi_over_pi: float, gamma_left: float, grid: dict,
           disorder: dict = DisorderSpec.none().to_dict(),
           column: str = "P_tot") -> dict:
    """The record of one figure curve: the parameters of its simulate or
    ensemble run, with gamma_R = 1 and the check, and the plotted column."""
    return {"config": {"n_atoms": n, "xi_over_pi": xi_over_pi,
                       "gamma_left": gamma_left, "gamma_right": 1.0},
            "disorder": disorder, "grid": grid, "cross_check": True,
            "column": column}


def _write_fig3c(fh) -> None:
    """fig3c.csv: the first-site steady-state population over N, a table
    over N rather than a curve over time."""
    sizes = np.arange(2, 14)
    p1_inf = []
    for n in sizes.tolist():
        config = ChainConfig(n_atoms=n, xi=math.pi,
                             gamma_left=1.0, gamma_right=1.0)
        state = steady_state(build_chain(config), uniform_excitation(n))
        p1_inf.append(state.populations[0])
    _write_csv(fh, {"xi_over_pi": 1.0, "gamma_left": 1.0, "gamma_right": 1.0},
               {"N": sizes, "P1_inf": np.array(p1_inf)})


# figure name -> (log-y, {file: curve record}, {file: (writer, script note)}
# of its tables that are not curves over time)
_FIGURES = {
    "fig2": (False, {
        f"fig2_N{n}_{tag}.csv": _curve(n, xi_over_pi, 0.0,
                                       _uniform(20.0, 4001))
        for n in (2, 3) for tag, xi_over_pi in (("xi0", 0.0), ("xipi", 1.0))},
        {}),
    "fig3": (False, {
        f"fig3{part}_N{n}_gl{gl:.1f}.csv": _curve(n, xi_over_pi, gl, grid)
        for n in (2, 3) for gl in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        for part, xi_over_pi, grid in (("a", 0.0, _uniform(20.0, 4001)),
                                       ("b", 1.0, _uniform(100.0, 2501)))},
        {"fig3c.csv": (_write_fig3c, [
            "# fig3c.csv (N,P1_inf) suits a separate point plot:",
            "#   plot 'fig3c.csv' using 1:2 with points"])}),
    "fig4": (True, {
        f"fig4{part}_N{n}.csv": _curve(n, 1.0, gl, grid)
        for n in (2, 3, 4, 5, 6, 7, 10, 11)
        for part, gl, grid in (("a", 0.0, _uniform(40.0, 2001)),
                               ("b", 0.9, _uniform(1500.0, 37501)))}, {}),
    "fig5": (True, {
        **{f"fig5a_N{n}.csv": _curve(n, 1.0, 0.9, _uniform(1000.0, 25001),
                                     column="I_tot") for n in (4, 5)},
        **{f"fig5b_fluct{tag}.csv": _curve(
            5, 1.0, 0.9, _uniform(1000.0, 25001),
            DisorderSpec.ensemble(width, 200, DEFAULT_SEED).to_dict(),
            "mean_I_tot")
           for tag, width in (("0.5pct", 0.005), ("1pct", 0.010))}}, {}),
    "fig6": (True, {
        f"fig6{part}_N{n}_shift{site}.csv": _curve(
            n, 1.0, 0.9, _uniform(1500.0, 37501),
            DisorderSpec.single_site(site, 0.05).to_dict())
        for part, n, site in (("a", 5, 3), ("b", 5, 2), ("c", 4, 1))}, {}),
    "fig7": (True, {
        "fig7_N5_shift3_30pct.csv": _curve(
            5, 0.75, 0.9, {"grid": "log", "horizon": 1e4,
                           "points_per_decade": 400},
            DisorderSpec.single_site(3, 0.30).to_dict())}, {}),
}


def _curve_writer(record: dict):
    """The writer of a figure curve: it runs the record and writes the
    table, so a run exists only while its file is written and a figure
    holds one at a time.  The # lines leave out the grid."""
    def write(fh):
        config, disorder, result = _run(record)
        _write_csv(fh, _data_metadata(config, disorder), result.table(),
                   result.underflow_clamped)
    return write


def _column(record: dict) -> int:
    """The 1-based index of a curve's plotted column in its file."""
    header = (EnsembleResult.header() if record["disorder"]["mode"] == "ensemble"
              else Trajectory.header(record["config"]["n_atoms"]))
    return header.index(record["column"]) + 1


def _gnuplot_script(name: str, log_y: bool, curves: dict, tables: dict) -> str:
    """The script plotting each curve's column, with the notes of the other
    tables; the y label is that column, one for the whole figure (an
    ensemble's mean_ left out)."""
    (label,) = {record["column"].removeprefix("mean_")
                for record in curves.values()}
    plots = [f"'{fn}' using 1:{_column(curves[fn])} with lines "
             f"title '{fn[:-4].replace('_', ' ')}'" for fn in sorted(curves)]
    lines = [
        f"# gnuplot script for {name}; run: gnuplot {name}.gp",
        'set datafile separator ","',
        "set key outside right",
        'set xlabel "gamma t"',
        *(["set logscale y", "set format y '10^{%T}'"] if log_y else []),
        f'set ylabel "{label}"',
        *(line for _, note in tables.values() for line in note),
        "plot \\\n  " + ", \\\n  ".join(plots),
        "pause -1 'press enter to close'",
    ]
    return "\n".join(lines) + "\n"


def cmd_figure(args) -> int:
    started = time.monotonic()
    name = args.name
    log_y, curves, tables = _FIGURES[name]
    writers = {fn: _curve_writer(record) for fn, record in curves.items()}
    writers.update({fn: write for fn, (write, _) in tables.items()})
    script = _gnuplot_script(name, log_y, curves, tables)
    writers[f"{name}.gp"] = lambda fh: fh.write(script)
    outdir = os.path.join(_resolve_outdir(args.outdir), name)
    parameters = {"figure": name, "curves": curves}
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
    fig.add_argument("name", choices=tuple(_FIGURES))
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
    except ChiralChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # IntegrityError is a NumericsError
        return 3 if isinstance(exc, NumericsError) else 2


if __name__ == "__main__":
    sys.exit(main())
