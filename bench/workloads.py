"""The benchmark's workloads: what each one runs and how its output is checked.

Each workload has a timed part and an untimed check.  The timed part calls
chiralchain through a public entry point (``chiralchain.cli.main`` for the
command-line runs, the package API for the large chain) and ends when the
outputs are written.  The check compares those outputs with references
that never call ``propagate``:

* the dynamics against an eigendecomposition of V, assembled here from the
  model equations, at sampled grid times;
* the kernels against scipy.special and the closed forms, and a few
  stored values of the commit that defined the benchmark;
* the physics: populations that add up, an ensemble mean that never grows
  and whose decay rate is the emitted intensity, the detector outcomes
  the paper's figures rest on.

Checks use tolerances, not hashes, so a change that reorders floating-point
sums still passes.  Rounding errors scale with the largest value of a
column, not with each value, so no tolerance is tighter than a share of
the column's largest value.  Stored values are held to the same tolerances
as the independent references: they pin the references, not the
program's rounding.  Each tolerance sits far above a few units in the last
place of the column's scale and below a relative perturbation of 1e-6,
which ``selftest.py`` proves for every checker in both directions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

import chiralchain
import chiralchain.cli

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Sizes resized from the CLI defaults so that several samples fit in one run.
ENSEMBLE_REALIZATIONS = 20
LARGE_CHAIN_ATOMS = 200

STAIRCASE_ARGV = ["simulate", "--n", "5", "--xi-over-pi", "1", "--gamma-l", "0.9",
                  "--gamma-r", "1", "--horizon", "1500", "--points", "37501"]
LONG_HORIZON_ARGV = ["simulate", "--n", "5", "--xi-over-pi", "0.75", "--gamma-l", "0.9",
                     "--gamma-r", "1", "--shift-site", "3", "--shift", "0.30",
                     "--log-grid", "--horizon", "1e4", "--json"]
KERNEL_DIMS = ("2", "3", "1chiral")
KERNEL_XI = "0.01:0.005:50"
KERNEL_ALIGNMENT = 0.5

# Relative tolerances against the references (see the module docstring).
TOL_POPULATION = 1e-9     # populations, P_tot and their ensemble moments
TOL_AMPLITUDE = 1e-9      # complex amplitudes, relative to the initial norm
TOL_INTENSITY = 1e-8      # I_tot, relative to its largest value
TOL_STD = 1e-6            # ensemble standard deviations, relative to their largest value
TOL_KERNEL = 1e-9         # kernel values, relative to max(|value|, 1)
TOL_EMITTED = 5e-5        # population lost against emitted intensity, absolute (Simpson's rule)
TOL_GRID = 1e-10          # time and xi grids
TOL_MONOTONE = 1e-12      # slack of "never increases" and ">= 0", relative to the largest value
RELATIVE_FLOOR = 1e-4     # elementwise scales never drop below this share of the largest |value|
CHECK_ROWS = 64           # grid rows compared against the eigendecomposition


class CheckFailed(Exception):
    """The output of a sample disagrees with its reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[str, int], object]
    check: Callable[[object, int], None]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def coupling_matrix(positions, gamma_left: float, gamma_right: float) -> np.ndarray:
    """V from the model equations: leftward rates above the diagonal."""
    pos = np.asarray(positions, dtype=float)
    index = np.arange(pos.size)
    rates = np.where(np.less.outer(index, index), gamma_left, gamma_right)
    v = -rates * np.exp(-1j * np.abs(np.subtract.outer(pos, pos)))
    v[index, index] = -0.5 * (gamma_left + gamma_right)
    return v


def eigen_amplitudes(v: np.ndarray, times) -> np.ndarray:
    """c(t) = W exp(Lambda t) W^-1 c(0) for the uniform initial state, shape (T, N)."""
    n = v.shape[0]
    eigvals, eigvecs = np.linalg.eig(v)
    cond = np.linalg.cond(eigvecs)
    if cond > 1e8:
        raise CheckFailed(f"eigenbasis of V is ill-conditioned (cond {cond:.1e})")
    coeffs = np.linalg.solve(eigvecs, np.full(n, 1.0 / math.sqrt(n), dtype=complex))
    return (np.exp(np.outer(times, eigvals)) * coeffs) @ eigvecs.T


def observables(v: np.ndarray, amps: np.ndarray):
    """Site populations, P_tot and I_tot = -c^dag (V + V^dag) c."""
    pops = np.abs(amps) ** 2
    intensity = -np.einsum("ki,ij,kj->k", amps.conj(), v + v.conj().T, amps).real
    return pops, pops.sum(axis=1), intensity


def disorder_positions(n: int, xi: float, width: float, seed: int, index: int) -> np.ndarray:
    """One realization of the documented ensemble draw: uniform offsets in units of xi."""
    offsets = np.random.default_rng((seed, index)).uniform(-width, width, size=n)
    return (np.arange(n) + offsets) * xi


def check_rows(size: int, seed: int) -> np.ndarray:
    """Seed-chosen grid rows to compare, always with the first and the last."""
    picks = np.random.default_rng(seed).choice(size, min(CHECK_ROWS, size), replace=False)
    return np.union1d(picks, [0, size - 1])


def expect_close(label: str, got, want, rtol: float, scale=None) -> None:
    """Fail unless |got - want| <= rtol * scale.

    The default scale is |want| elementwise, but never less than
    RELATIVE_FLOOR times the largest |want|.
    """
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{label}: shape {got.shape} != {want.shape}")
    if scale is None:
        magnitude = np.abs(want)
        scale = np.maximum(magnitude, RELATIVE_FLOOR * np.max(magnitude, initial=0.0))
    bound = rtol * scale
    excess = np.abs(got - want) - bound
    if not np.all(excess <= 0.0):
        worst = int(np.argmax(excess))
        raise CheckFailed(
            f"{label}: off by {np.abs(got - want).flat[worst]:.3e} at flat index "
            f"{worst} (allowed {np.broadcast_to(bound, want.shape).flat[worst]:.3e})")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def stored(key: str) -> dict:
    """Values stored from the commit that defined the benchmark."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[key]


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def check_manifest(outdir: str, expected: list) -> None:
    """The run's manifest lists exactly the expected files, with their true
    sizes and digests."""
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = sorted(entry["path"] for entry in manifest["outputs"])
    expect(listed == sorted(expected), f"{outdir}: manifest lists {listed}")
    for entry in manifest["outputs"]:
        with open(os.path.join(outdir, entry["path"]), "rb") as fh:
            data = fh.read()
        expect(len(data) == entry["bytes"]
               and hashlib.sha256(data).hexdigest() == entry["sha256"],
               f"{entry['path']}: size or sha256 differs from the manifest")


def output_bytes(outdirs: list) -> int:
    """Bytes of data written, as the manifests record them."""
    total = 0
    for outdir in outdirs:
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            total += sum(entry["bytes"] for entry in json.load(fh)["outputs"])
    return total


def read_csv(path: str):
    """Header and float rows of a CSV written with # metadata lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return lines[0].strip().split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def read_grid(path: str, header: list, rows: int):
    got_header, data = read_csv(path)
    expect(got_header == header, f"{path}: header {got_header}")
    expect(data.shape == (rows, len(header)), f"{path}: shape {data.shape}")
    return data


# ---------------------------------------------------------------------------
# staircase: the 37501-point README run
# ---------------------------------------------------------------------------

def _run_cli(argv: list, outdir: str) -> None:
    code = chiralchain.cli.main(argv + ["--outdir", outdir])
    if code != 0:
        raise RuntimeError(f"chiralchain {argv[0]} exited with code {code}")


def run_staircase(outdir: str, seed: int) -> list:
    _run_cli(STAIRCASE_ARGV, outdir)
    return [outdir]


def count_plateaus(times, total, intensity) -> int:
    """Runs where I_tot/P_tot < 2e-4 for at least 1/gamma inside [0.5, 1500],
    counting only P_tot >= 1e-6 (the frozen plateau-detector definition)."""
    inside = (times >= 0.5) & (times <= 1500.0)
    t = times[inside]
    slow = (intensity[inside] / np.maximum(total[inside], 1e-300) < 2e-4) & (total[inside] >= 1e-6)
    edges = np.diff(np.concatenate(([0], slow.astype(int), [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    return int(np.count_nonzero(t[ends] - t[starts] >= 1.0))


def check_staircase(outdirs: list, seed: int) -> None:
    outdir = outdirs[0]
    check_manifest(outdir, ["trajectory.csv"])
    n = 5
    header = ["t"] + [f"P_{m}" for m in range(1, n + 1)] + ["P_tot", "I_tot"]
    data = read_grid(os.path.join(outdir, "trajectory.csv"), header, 37501)
    times, pops, total, intensity = data[:, 0], data[:, 1:n + 1], data[:, n + 1], data[:, n + 2]
    expect_close("t", times, np.linspace(0.0, 1500.0, 37501), TOL_GRID, scale=1500.0)
    expect_close("P_tot vs sum of P_m", total, pops.sum(axis=1), TOL_POPULATION)

    v = coupling_matrix(np.arange(n) * math.pi, 0.9, 1.0)
    rows = check_rows(times.size, seed)
    ref_pops, ref_total, ref_intensity = observables(v, eigen_amplitudes(v, times[rows]))
    expect_close("P_m vs eigendecomposition", pops[rows], ref_pops, TOL_POPULATION)
    expect_close("P_tot vs eigendecomposition", total[rows], ref_total, TOL_POPULATION)
    expect_close("I_tot vs eigendecomposition", intensity[rows], ref_intensity,
                 TOL_INTENSITY, scale=np.max(ref_intensity))
    plateaus = count_plateaus(times, total, intensity)
    expect(plateaus == 11, f"{plateaus} staircase plateaus, expected 11")


# ---------------------------------------------------------------------------
# ensemble: position-disorder ensemble with its burst report
# ---------------------------------------------------------------------------

def run_ensemble(outdir: str, seed: int) -> list:
    _run_cli(["ensemble", "--n", "5", "--xi-over-pi", "1", "--gamma-l", "0.9",
              "--gamma-r", "1", "--fluct", "0.005",
              "--realizations", str(ENSEMBLE_REALIZATIONS), "--seed", str(seed)], outdir)
    return [outdir]


def check_ensemble(outdirs: list, seed: int) -> None:
    outdir = outdirs[0]
    check_manifest(outdir, ["ensemble.csv", "bursts.json"])
    header = ["t", "mean_P_tot", "std_P_tot", "mean_I_tot", "std_I_tot"]
    data = read_grid(os.path.join(outdir, "ensemble.csv"), header, 25001)
    times, mean_p, std_p, mean_i, std_i = data.T
    expect_close("t", times, np.linspace(0.0, 1000.0, 25001), TOL_GRID, scale=1000.0)

    rows = check_rows(times.size, seed)
    totals, intensities = [], []
    for index in range(ENSEMBLE_REALIZATIONS):
        v = coupling_matrix(disorder_positions(5, math.pi, 0.005, seed, index), 0.9, 1.0)
        _, total, intensity = observables(v, eigen_amplitudes(v, times[rows]))
        totals.append(total)
        intensities.append(intensity)
    totals, intensities = np.array(totals), np.array(intensities)
    expect_close("mean P_tot vs eigendecomposition", mean_p[rows], totals.mean(axis=0),
                 TOL_POPULATION)
    expect_close("std P_tot vs eigendecomposition", std_p[rows], totals.std(axis=0, ddof=1),
                 TOL_STD, scale=np.max(totals.std(axis=0, ddof=1)))
    expect_close("mean I_tot vs eigendecomposition", mean_i[rows], intensities.mean(axis=0),
                 TOL_INTENSITY, scale=np.max(intensities.mean(axis=0)))
    expect_close("std I_tot vs eigendecomposition", std_i[rows],
                 intensities.std(axis=0, ddof=1), TOL_STD,
                 scale=np.max(intensities.std(axis=0, ddof=1)))

    i_scale = np.max(np.abs(mean_i))
    expect(np.all(np.diff(mean_p) <= TOL_MONOTONE * mean_p[0]), "mean P_tot increases somewhere")
    expect(np.all(mean_i >= -TOL_MONOTONE * i_scale), "mean I_tot is negative somewhere")
    # P_tot(0) - P_tot(t) against the integral of I_tot, by Simpson's rule on even rows
    dt = times[1] - times[0]
    emitted = np.cumsum((mean_i[:-2:2] + 4.0 * mean_i[1:-1:2] + mean_i[2::2]) * dt / 3.0)
    expect_close("P_tot(0) - P_tot(t) vs integral of I_tot", mean_p[0] - mean_p[2::2],
                 emitted, TOL_EMITTED, scale=1.0)

    values = stored("ensemble")
    if seed == values["seed"] and ENSEMBLE_REALIZATIONS == values["realizations"]:
        picks = values["rows"]
        expect_close("mean P_tot vs stored", mean_p[picks], values["mean_P_tot"],
                     TOL_POPULATION)
        expect_close("mean I_tot vs stored", mean_i[picks], values["mean_I_tot"],
                     TOL_INTENSITY, scale=np.max(np.abs(values["mean_I_tot"])))

    with open(os.path.join(outdir, "bursts.json"), encoding="utf-8") as fh:
        peaks = json.load(fh)["peaks"]
    expect(len(peaks) >= 2, f"{len(peaks)} emission bursts, expected at least 2")
    for peak in peaks:
        k = int(round(peak["t_peak"] / 0.04))
        slack = TOL_INTENSITY * i_scale
        expect(0.5 <= peak["t_peak"] <= 1000.0 and abs(times[k] - peak["t_peak"]) < 1e-9
               and abs(mean_i[k] - peak["height"]) <= slack
               and mean_i[k] >= max(mean_i[k - 1], mean_i[k + 1]) - slack,
               f"burst at t = {peak['t_peak']} is not a local maximum of mean I_tot")


# ---------------------------------------------------------------------------
# large_chain: one disordered N = 200 chain through the Python API
# ---------------------------------------------------------------------------

def run_large_chain(outdir: str, seed: int):
    n = LARGE_CHAIN_ATOMS
    config = chiralchain.ChainConfig(n_atoms=n, xi=math.pi / 2, gamma_left=0.9,
                                     gamma_right=1.0)
    matrix = chiralchain.build_chain(config, chiralchain.DisorderSpec.ensemble(0.005, 1, seed), 0)
    return chiralchain.propagate(matrix, chiralchain.uniform_excitation(n),
                                 chiralchain.uniform_grid(20.0, 2001))


def check_large_chain(trajectory, seed: int) -> None:
    n = LARGE_CHAIN_ATOMS
    times = np.asarray(trajectory.times)
    expect(times.shape == (2001,), f"grid shape {times.shape}")
    expect(np.shape(trajectory.amplitudes) == (2001, n),
           f"amplitudes shape {np.shape(trajectory.amplitudes)}")
    expect_close("t", times, np.linspace(0.0, 20.0, 2001), TOL_GRID, scale=20.0)
    v = coupling_matrix(disorder_positions(n, math.pi / 2, 0.005, seed, 0), 0.9, 1.0)
    rows = check_rows(times.size, seed)
    amps = eigen_amplitudes(v, times[rows])
    ref_pops, ref_total, ref_intensity = observables(v, amps)
    expect_close("amplitudes vs eigendecomposition", trajectory.amplitudes[rows], amps,
                 TOL_AMPLITUDE, scale=1.0 / math.sqrt(n))
    expect_close("P_tot vs eigendecomposition", trajectory.total[rows], ref_total,
                 TOL_POPULATION)
    expect_close("I_tot vs eigendecomposition", trajectory.intensity[rows], ref_intensity,
                 TOL_INTENSITY, scale=np.max(ref_intensity))
    expect_close("P_m vs |c_m|^2", trajectory.populations,
                 np.abs(trajectory.amplitudes) ** 2, TOL_POPULATION)


# ---------------------------------------------------------------------------
# long_horizon: the README log-grid run to 1e4 with JSON amplitudes
# ---------------------------------------------------------------------------

def run_long_horizon(outdir: str, seed: int) -> list:
    _run_cli(LONG_HORIZON_ARGV, outdir)
    return [outdir]


def check_long_horizon(outdirs: list, seed: int) -> None:
    outdir = outdirs[0]
    check_manifest(outdir, ["trajectory.csv", "trajectory.json"])
    n = 5
    header = ["t"] + [f"P_{m}" for m in range(1, n + 1)] + ["P_tot", "I_tot"]
    data = read_grid(os.path.join(outdir, "trajectory.csv"), header, 2402)
    times, pops, total, intensity = data[:, 0], data[:, 1:n + 1], data[:, n + 1], data[:, n + 2]
    want_times = np.concatenate(([0.0], np.logspace(-2.0, 4.0, 2401)))
    expect_close("t", times, want_times, TOL_GRID)
    with open(os.path.join(outdir, "trajectory.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    expect_close("JSON times", np.array(payload["times"]), times, TOL_GRID)
    amps_pairs = np.array(payload["amplitudes"], dtype=float)
    expect(amps_pairs.shape == (2402, n, 2), f"JSON amplitudes shape {amps_pairs.shape}")
    amps = amps_pairs[..., 0] + 1j * amps_pairs[..., 1]

    v = coupling_matrix((np.arange(n) + np.array([0.0, 0.0, 0.3, 0.0, 0.0])) * 0.75 * math.pi,
                        0.9, 1.0)
    rows = check_rows(times.size, seed)
    ref_amps = eigen_amplitudes(v, times[rows])
    ref_pops, ref_total, ref_intensity = observables(v, ref_amps)
    expect_close("JSON amplitudes vs eigendecomposition", amps[rows], ref_amps,
                 TOL_AMPLITUDE, scale=1.0 / math.sqrt(n))
    expect_close("P_m vs |c_m|^2 of the JSON amplitudes", pops, np.abs(amps) ** 2,
                 TOL_POPULATION)
    expect_close("P_tot vs eigendecomposition", total[rows], ref_total, TOL_POPULATION)
    expect_close("I_tot vs eigendecomposition", intensity[rows], ref_intensity,
                 TOL_INTENSITY, scale=np.max(ref_intensity))
    retention = total[np.argmin(np.abs(times - 1e4))] / total[np.argmin(np.abs(times - 100.0))]
    expect(0.70 <= retention <= 0.90, f"retention {retention:.4f} outside [0.70, 0.90]")


# ---------------------------------------------------------------------------
# kernel_tables: 2D, 3D and chiral 1D kernels over 9999 separations
# ---------------------------------------------------------------------------

def run_kernel_tables(outdir: str, seed: int) -> list:
    outdirs = []
    for dim in KERNEL_DIMS:
        sub = os.path.join(outdir, f"dim{dim}")
        _run_cli(["kernel", "--dim", dim, "--xi", KERNEL_XI,
                  "--alignment", str(KERNEL_ALIGNMENT)], sub)
        outdirs.append(sub)
    return outdirs


def kernel_reference(dim: str, xi: np.ndarray) -> np.ndarray:
    """Expected columns after xi, from scipy.special and the closed forms."""
    a2 = KERNEL_ALIGNMENT ** 2
    if dim == "2":
        f = 2.0 * (special.jv(0, xi) - special.jv(1, xi) / xi + a2 * special.jv(2, xi))
        g = (2.0 * special.yv(0, xi) - 2.0 * special.yv(1, xi) / xi + 2.0 * a2 * special.yv(2, xi)
             - 4.0 / (math.pi * xi ** 2) * (1.0 - 2.0 * a2))
        return np.column_stack([0.5 * f, 0.5 * g, np.zeros_like(xi)])
    if dim == "3":
        s, c = np.sin(xi), np.cos(xi)
        gamma = 1.5 * ((1 - a2) * s / xi + (1 - 3 * a2) * (c / xi ** 2 - s / xi ** 3))
        omega = 0.75 * (-(1 - a2) * c / xi + (1 - 3 * a2) * (s / xi ** 2 + c / xi ** 3))
        return np.column_stack([0.5 * gamma, omega, np.zeros_like(xi)])
    rate = 0.5  # the CLI's default gamma_left = gamma_right
    f = 0.5 * (rate * np.exp(1j * xi) + rate * np.exp(-1j * xi))
    g = -0.5j * (rate * np.exp(1j * xi) - rate * np.exp(-1j * xi))
    return np.column_stack([f.real, g.real, f.real, f.imag, g.real, g.imag])


KERNEL_HEADERS = {
    "2": ["xi", "decay", "shift", "shift_divergent"],
    "3": ["xi", "decay", "shift", "shift_divergent"],
    "1chiral": ["xi", "decay", "shift", "F_re", "F_im", "G_re", "G_im"],
}


def check_kernel_tables(outdirs: list, seed: int) -> None:
    want_xi = 0.01 + 0.005 * np.arange(9999)
    for dim, outdir in zip(KERNEL_DIMS, outdirs):
        check_manifest(outdir, ["kernel.csv"])
        data = read_grid(os.path.join(outdir, "kernel.csv"), KERNEL_HEADERS[dim], 9999)
        expect_close(f"dim {dim} xi", data[:, 0], want_xi, TOL_GRID)
        want = kernel_reference(dim, want_xi)
        expect_close(f"dim {dim} values", data[:, 1:], want, TOL_KERNEL,
                     scale=np.maximum(np.abs(want), 1.0))
        values = stored("kernel")[dim]
        want = np.array(values["values"])
        expect_close(f"dim {dim} values vs stored", data[values["rows"]], want, TOL_KERNEL,
                     scale=np.maximum(np.abs(want), 1.0))


# Why each workload exists, and why only ensemble and kernel_tables are gated,
# is written in bench/NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload("staircase", run_staircase, check_staircase),
    Workload("ensemble", run_ensemble, check_ensemble),
    Workload("large_chain", run_large_chain, check_large_chain),
    Workload("long_horizon", run_long_horizon, check_long_horizon),
    Workload("kernel_tables", run_kernel_tables, check_kernel_tables),
)}
