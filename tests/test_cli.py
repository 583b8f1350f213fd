"""End-to-end command line checks, run in process through main()."""

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import chiralchain
from chiralchain import dynamics, reprs
from chiralchain.chain import ChainConfig, DisorderSpec, build_chain
from chiralchain.cli import _parse_xi_range, main
from chiralchain.dynamics import (_MAX_POINTS, run_ensemble, steady_state,
                                  uniform_excitation, uniform_grid)
from chiralchain.errors import ConfigError, NumericsError
from chiralchain.kernels import chiral_fg, kernel_1d_reciprocal, kernel_2d, kernel_3d


def read_csv_columns(text):
    rows = [line for line in text.splitlines() if line and not
            line.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(cell) for cell in row.split(",")]
                     for row in rows[1:]])
    return header, data


def test_simulate_stdout_decoherence_free(capsys):
    code = main(["simulate", "--n", "2", "--xi-over-pi", "1",
                 "--gamma-l", "1", "--gamma-r", "1",
                 "--horizon", "50", "--points", "501", "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    assert header == ["t", "P_1", "P_2", "P_tot", "I_tot"]
    assert data.shape == (501, 5)
    assert np.max(np.abs(data[:, 3] - 1.0)) < 1e-9


def test_simulate_writes_files_and_manifest(tmp_path):
    code = main(["simulate", "--n", "3", "--xi-over-pi", "0.5",
                 "--gamma-l", "0.4", "--gamma-r", "1",
                 "--horizon", "5", "--points", "101", "--json",
                 "--outdir", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "chiralchain"
    assert manifest["command"] == "simulate"
    assert manifest["parameters"]["config"]["n_atoms"] == 3
    assert manifest["parameters"]["config"]["gamma_left"] == 0.4
    assert manifest["parameters"]["disorder"] == {"mode": "none"}
    assert manifest["detector_defaults"]["plateau"]["eps_rate"] == 2e-4
    names = {entry["path"] for entry in manifest["outputs"]}
    assert names == {"trajectory.csv", "trajectory.json"}
    for entry in manifest["outputs"]:
        blob = (tmp_path / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]
    payload = json.loads((tmp_path / "trajectory.json").read_text())
    assert len(payload["times"]) == 101


def test_simulate_output_is_deterministic(tmp_path):
    args = ["simulate", "--n", "4", "--xi-over-pi", "0.75",
            "--gamma-l", "0.9", "--gamma-r", "1",
            "--horizon", "10", "--points", "201"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "trajectory.csv").read_bytes()
    second = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert first == second


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_atoms = 3\n"
                   "xi_over_pi = 1.0\n"
                   "gamma_left = 1.0  # comment survives parsing\n"
                   "gamma_right = 1.0\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--n", "2",
                 "--horizon", "5", "--points", "51", "--outdir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # flag wins over the file for n, file supplies the rest
    assert manifest["parameters"]["config"]["n_atoms"] == 2
    assert manifest["parameters"]["config"]["xi_over_pi"] == 1.0
    header, _ = read_csv_columns((out / "trajectory.csv").read_text())
    assert header == ["t", "P_1", "P_2", "P_tot", "I_tot"]


def test_simulate_shift_site(tmp_path):
    code = main(["simulate", "--n", "5", "--xi-over-pi", "1",
                 "--gamma-l", "0.9", "--gamma-r", "1",
                 "--shift-site", "3", "--shift", "0.05",
                 "--horizon", "5", "--points", "51",
                 "--outdir", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    disorder = manifest["parameters"]["disorder"]
    assert disorder["mode"] == "single_site"
    assert disorder["site"] == 3
    assert disorder["shift_fraction"] == 0.05


def test_kernel_stdout_row_count_and_columns(capsys):
    code = main(["kernel", "--dim", "1", "--xi", "0:0.25:2", "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    assert header == ["xi", "decay", "shift"]
    assert data.shape == (9, 3)
    assert data[0, 1] == pytest.approx(0.5)  # contact decay
    assert data[0, 0] == 0.0 and data[-1, 0] == 2.0


def test_kernel_chiral_columns(capsys):
    code = main(["kernel", "--dim", "1chiral", "--xi", "3.14159",
                 "--gamma-l", "0.2", "--gamma-r", "0.8", "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    assert header == ["xi", "decay", "shift", "F_re", "F_im", "G_re", "G_im"]
    assert data.shape == (1, 7)


def test_kernel_chiral_equal_rates_write_exact_zeros(capsys):
    # the default rates are equal: F and G are real, and their imaginary
    # columns read 0.0 with no -0.0 cell anywhere in the table
    code = main(["kernel", "--dim", "1chiral", "--xi", "0:0.01:10", "--stdout"])
    assert code == 0
    text = capsys.readouterr().out
    header, data = read_csv_columns(text)
    assert data.shape == (1001, 7)
    assert not data[:, header.index("F_im")].any()
    assert not data[:, header.index("G_im")].any()
    cells = [cell for line in text.splitlines() if not line.startswith("#")
             for cell in line.split(",")]
    assert "-0.0" not in cells


def test_kernel_3d_contact_divergence_flag(capsys):
    code = main(["kernel", "--dim", "3", "--xi", "0,1,2",
                 "--alignment", "0.5", "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    assert header == ["xi", "decay", "shift", "shift_divergent"]
    assert data.shape == (3, 4)
    assert data[0, 3] == 1.0 and data[1, 3] == 0.0
    assert data[0, 1] == pytest.approx(0.5)  # contact decay, same scale as 1D


@pytest.mark.parametrize("dim", ["2", "3"])
def test_kernel_tiny_separations_flag_the_shift(dim, capsys):
    code = main(["kernel", "--dim", dim, "--xi", "0,1e-200,1e-160,1",
                 "--alignment", "0.5", "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    assert data.shape == (4, 4)
    # the 3D shift overflows below contact too; the pole-free 2D form
    # diverges only at contact
    flagged = 1 if dim == "2" else 3
    assert data[:, 3].tolist() == [1.0] * flagged + [0.0] * (4 - flagged)
    assert np.all(np.isnan(data[:flagged, 2]))
    assert np.all(np.isfinite(data[flagged:, 2]))
    assert np.allclose(data[:3, 1], 0.5, rtol=0.0, atol=1e-12)


def test_kernel_2d_table_against_scipy(capsys):
    from scipy import special
    code = main(["kernel", "--dim", "2", "--xi", "0.01:0.005:50",
                 "--alignment", "0.5", "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    assert data.shape == (9999, 4)
    xi, a2 = data[:, 0], 0.25
    f = 2.0 * (special.jv(0, xi) - special.jv(1, xi) / xi + a2 * special.jv(2, xi))
    g = (2.0 * special.yv(0, xi) - 2.0 * special.yv(1, xi) / xi
         + 2.0 * a2 * special.yv(2, xi) - 4.0 / (math.pi * xi ** 2) * (1.0 - 2.0 * a2))
    assert np.max(np.abs(data[:, 1] - 0.5 * f)) < 1e-12
    assert np.max(np.abs(data[:, 2] - 0.5 * g)) < 1e-10
    assert not data[:, 3].any()


def test_kernel_2d_row_at_a_large_separation(capsys):
    from scipy import special
    code = main(["kernel", "--dim", "2", "--xi", "300", "--alignment", "0.5",
                 "--stdout"])
    assert code == 0
    header, data = read_csv_columns(capsys.readouterr().out)
    xi, a2 = 300.0, 0.25
    decay = special.jv(0, xi) - special.jv(1, xi) / xi + a2 * special.jv(2, xi)
    shift = (special.yv(0, xi) - special.yv(1, xi) / xi + a2 * special.yv(2, xi)
             - 2.0 / (math.pi * xi ** 2) * (1.0 - 2.0 * a2))
    assert data.shape == (1, 4)
    assert abs(data[0, 1] - decay) < 1e-12
    assert abs(data[0, 2] - shift) < 1e-10


def test_xi_range_never_passes_stop():
    assert _parse_xi_range("0:1:2.6").tolist() == [0.0, 1.0, 2.0]
    assert _parse_xi_range("0:1:3").tolist() == [0.0, 1.0, 2.0, 3.0]


def test_xi_range_point_cap():
    # one point over the cap is refused before any array is made
    with pytest.raises(ConfigError, match="bad xi range"):
        _parse_xi_range(f"0:1:{_MAX_POINTS}")


@pytest.mark.parametrize("spec,count,last", [("0.01:0.005:50", 9999, 50.0),
                                             ("0.01:0.01:6.28", 628, 6.28)])
def test_xi_range_counts(spec, count, last):
    values = _parse_xi_range(spec)
    assert values.size == count
    assert values[-1] == pytest.approx(last, abs=1e-12)


def test_cli_import_leaves_heavy_scipy_modules_out(tmp_path):
    # importing the CLI and running simulate (cross-check on), an ensemble
    # with a burst report and a 2D kernel table load no scipy module
    src = os.path.dirname(os.path.dirname(chiralchain.__file__))
    runs = [
        ["simulate", "--n", "5", "--xi-over-pi", "1", "--gamma-l", "0.9",
         "--gamma-r", "1", "--horizon", "100", "--points", "2501"],
        ["ensemble", "--n", "5", "--xi-over-pi", "1", "--gamma-l", "0.9",
         "--gamma-r", "1", "--fluct", "0.005", "--realizations", "3",
         "--horizon", "1000", "--points", "20001"],
        ["kernel", "--dim", "2", "--xi", "0.01:0.005:50"],
    ]
    code = (
        "import json, sys\n"
        "import chiralchain.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = [scipy_modules()]\n"
        f"for index, argv in enumerate({runs!r}):\n"
        f"    outdir = {str(tmp_path)!r} + '/run' + str(index)\n"
        "    assert chiralchain.cli.main(argv + ['--outdir', outdir]) == 0\n"
        "    loaded.append(scipy_modules())\n"
        "print(json.dumps(loaded))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out) == [[], [], [], []]
    bursts = json.loads((tmp_path / "run1" / "bursts.json").read_text())
    assert "peaks" in bursts


def test_kernel_writes_manifest(tmp_path):
    code = main(["kernel", "--dim", "2", "--xi", "0.5,1.0",
                 "--alignment", "1", "--outdir", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "kernel"
    assert manifest["parameters"]["dimension"] == "2"
    assert (tmp_path / "kernel.csv").exists()


def test_ensemble_small_run_skips_burst_report(tmp_path):
    code = main(["ensemble", "--n", "3", "--xi-over-pi", "1",
                 "--gamma-l", "0.9", "--gamma-r", "1",
                 "--fluct", "0.01", "--realizations", "2", "--seed", "5",
                 "--horizon", "5", "--points", "201",
                 "--outdir", str(tmp_path)])
    assert code == 0
    header, data = read_csv_columns((tmp_path / "ensemble.csv").read_text())
    assert header == ["t", "mean_P_tot", "std_P_tot", "mean_I_tot",
                      "std_I_tot"]
    assert data.shape == (201, 5)
    bursts = json.loads((tmp_path / "bursts.json").read_text())
    assert "skipped" in bursts
    assert "np." not in bursts["skipped"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["disorder"]["n_realizations"] == 2


def test_ensemble_coarse_grid_skips_burst_report(tmp_path):
    # the grid covers the burst window with 1 point per unit gamma*t, not 20
    code = main(["ensemble", "--n", "3", "--xi-over-pi", "1",
                 "--gamma-l", "0.9", "--gamma-r", "1",
                 "--fluct", "0.01", "--realizations", "2", "--seed", "5",
                 "--horizon", "1000", "--points", "1001",
                 "--outdir", str(tmp_path)])
    assert code == 0
    _, data = read_csv_columns((tmp_path / "ensemble.csv").read_text())
    assert data.shape == (1001, 5)
    bursts = json.loads((tmp_path / "bursts.json").read_text())
    assert "points per unit gamma*t" in bursts["skipped"]
    assert bursts["window"] == [0.5, 1000.0]


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("CHIRALCHAIN_OUTDIR", str(tmp_path))
    code = main(["simulate", "--n", "2", "--xi-over-pi", "0",
                 "--horizon", "2", "--points", "21"])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_error_exit_codes(capsys):
    # half-specified disorder pair
    assert main(["simulate", "--n", "5", "--xi-over-pi", "1",
                 "--shift-site", "3", "--stdout"]) == 2
    assert "error:" in capsys.readouterr().err
    # negative separation rejected by the kernel domain check
    assert main(["kernel", "--dim", "1", "--xi", "-1", "--stdout"]) == 2
    # argparse rejects unknown subcommands and figure names itself
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


@pytest.mark.parametrize("argv", [
    ["ensemble", "--n", "3", "--xi-over-pi", "1", "--seed", "-1"],
    ["simulate", "--points", "100000000000000000"],
    ["ensemble", "--n", "3", "--xi-over-pi", "1",
     "--points", "100000000000000000"],
    ["simulate", "--log-grid", "--points-per-decade", "100000000000000000"],
])
def test_bad_seed_and_absurd_grids_exit_2_with_one_error_line(argv, tmp_path,
                                                              capsys):
    assert main([*argv, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--points", "11"],
    ["kernel", "--dim", "1", "--xi", "1"],
    ["figure", "fig2"],
], ids=["simulate", "kernel", "figure"])
def test_outdir_naming_a_file_exits_2_with_one_error_line(argv, tmp_path, capsys):
    path = tmp_path / "file"
    path.write_text("")
    assert main([*argv, "--outdir", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory '{path}")
    assert err.count("\n") == 1


def test_short_horizon_passes_the_cross_check(tmp_path):
    # steps clipped to 5e-16 to land on the record times are no underflow
    assert main(["simulate", "--n", "3", "--xi-over-pi", "1", "--points",
                 "2000", "--horizon", "1e-12", "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["cross_check"] is True


@pytest.mark.parametrize("failure", ["integrity", "numerics"])
def test_failed_cross_check_exits_3_without_a_manifest(failure, monkeypatch,
                                                       tmp_path, capsys):
    honest = dynamics._dp54

    def rk(*args, **kwargs):
        if failure == "numerics":
            raise NumericsError("Runge-Kutta step size underflow")
        return honest(*args, **kwargs) + 1e-6

    monkeypatch.setattr(dynamics, "_dp54", rk)
    assert main(["simulate", "--n", "3", "--xi-over-pi", "0.5",
                 "--horizon", "5", "--points", "101",
                 "--outdir", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["--horizon", "1e308"],
    ["--horizon", "1e300", "--points", "3"],
    ["--log-grid", "--points-per-decade", "1", "--horizon", "1e300"],
    ["--gamma-l", "1e300"],
], ids=["horizon", "three_points", "log_grid", "rate"])
def test_overflowing_steps_exit_3_with_one_error_line(argv, tmp_path, capsys):
    # V h overflows in expm's powers, which refuse it before the scaling;
    # a warning would be a second line, so here it is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", *argv, "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: expm: ") and err.count("\n") == 1
    assert not (tmp_path / "manifest.json").exists()


def test_every_figure_curve_runs_the_check():
    from chiralchain import cli
    records = [record for _, curves, _ in cli._FIGURES.values()
               for record in curves.values()]
    assert records and all(record["cross_check"] is True for record in records)


@pytest.mark.parametrize("argv,keys,comments", [
    (["--dim", "1", "--alignment", "0.5"], {"dimension", "xi"},
     ["# dimension = 1"]),
    (["--dim", "2"], {"dimension", "xi", "alignment"},
     ["# dimension = 2", "# alignment = 0.0"]),
    (["--dim", "1chiral", "--alignment", "0.5", "--gamma-l", "0.2"],
     {"dimension", "xi", "gamma_left", "gamma_right"},
     ["# dimension = 1chiral", "# gamma_left = 0.2", "# gamma_right = 0.5"]),
])
def test_kernel_manifest_records_only_what_the_dimension_reads(
        tmp_path, argv, keys, comments):
    assert main(["kernel", *argv, "--xi", "0.5,1.0",
                 "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["parameters"]) == keys
    assert "detector_defaults" not in manifest
    text = (tmp_path / "kernel.csv").read_text()
    assert [line for line in text.splitlines() if line.startswith("#")] == comments


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_kernel_rows_across_the_write_chunk_keep_integer_flags(offset, capsys):
    # four columns a row
    count = reprs._PASS // 4 + offset
    # contact at xi = 0 sets the divergence flag in the first row only
    assert main(["kernel", "--dim", "3", "--xi", f"0:0.001:{count - 1}e-3",
                 "--stdout"]) == 0
    header, *rows = [line.split(",") for line in
                     capsys.readouterr().out.splitlines()
                     if not line.startswith("#")]
    assert header == ["xi", "decay", "shift", "shift_divergent"]
    assert len(rows) == count
    assert [row[3] for row in rows] == ["1"] + ["0"] * (count - 1)
    xi = 0.001 * np.arange(count)
    assert [float(row[0]) for row in rows] == xi.tolist()


def row_by_row(text, header, columns):
    """text's # lines, then the table as a plain per-row repr writer gives it.

    Float columns are written as repr(float(x)), integer columns as
    str(int(x)); the lines are returned with their newlines.
    """
    lines = [line for line in text.splitlines(True) if line.startswith("#")]
    lines.append(",".join(header) + "\n")
    for k in range(len(columns[0])):
        lines.append(",".join(
            str(int(column[k])) if column.dtype.kind == "i"
            else repr(float(column[k])) for column in columns) + "\n")
    return lines


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_ensemble_csv_across_the_write_chunk_equals_row_by_row(offset, capsys):
    # five columns a row
    points = reprs._PASS // 5 + offset
    assert main(["ensemble", "--n", "3", "--xi-over-pi", "1", "--gamma-l",
                 "0.9", "--gamma-r", "1", "--fluct", "0.01",
                 "--realizations", "4", "--seed", "5", "--horizon", "20",
                 "--points", str(points), "--stdout"]) == 0
    text = capsys.readouterr().out
    result = run_ensemble(
        ChainConfig(n_atoms=3, xi=math.pi, gamma_left=0.9, gamma_right=1.0),
        DisorderSpec(mode="ensemble", fluctuation_fraction=0.01,
                     n_realizations=4, seed=5),
        uniform_grid(20.0, points))
    # compared as lists of lines: pytest diffs two long strings slowly
    lines = text.splitlines(True)
    assert lines == row_by_row(
        text, ["t", "mean_P_tot", "std_P_tot", "mean_I_tot", "std_I_tot"],
        [result.times, result.mean_total, result.std_total,
         result.mean_intensity, result.std_intensity])
    assert len(lines) == len(comment_lines(text)) + 1 + points


def kernel_reference(dim, xi):
    """Header and columns of a kernel table, straight from its kernel."""
    if dim == "1":
        decay, shift = kernel_1d_reciprocal(xi)
        return ["xi", "decay", "shift"], [xi, decay, shift]
    if dim == "1chiral":
        f, g = chiral_fg(xi, 0.3, 0.9)
        return (["xi", "decay", "shift", "F_re", "F_im", "G_re", "G_im"],
                [xi, f.real, g.real, f.real, f.imag, g.real, g.imag])
    kernel = kernel_2d if dim == "2" else kernel_3d
    decay, shift, divergent = kernel(xi, 0.0)
    return (["xi", "decay", "shift", "shift_divergent"],
            [xi, decay, shift, divergent.astype(int)])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("argv", [
    ["--dim", "1"],
    ["--dim", "1chiral", "--gamma-l", "0.3", "--gamma-r", "0.9"],
    ["--dim", "2"],
    ["--dim", "3"],
], ids=["1", "1chiral", "2", "3"])
def test_kernel_table_across_the_write_chunk_equals_row_by_row(
        argv, offset, capsys):
    # the distinct columns of a row: 1chiral repeats decay and shift
    width = {"1": 3, "1chiral": 5, "2": 4, "3": 4}[argv[1]]
    count = reprs._PASS // width + offset
    spec = f"0.01:0.005:{0.01 + 0.005 * (count - 1)!r}"
    xi = _parse_xi_range(spec)
    assert xi.size == count
    assert main(["kernel", *argv, "--xi", spec, "--stdout"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines(True)
    assert lines == row_by_row(text, *kernel_reference(argv[1], xi))
    assert len(lines) == len(comment_lines(text)) + 1 + count


@pytest.mark.parametrize("argv", [
    ["ensemble", "--n", "3", "--xi-over-pi", "1", "--gamma-l", "0.9",
     "--gamma-r", "1", "--realizations", "4", "--horizon", "20",
     "--points", "5001"],
    ["kernel", "--dim", "2", "--xi", "0.01:0.005:50"],
    ["simulate", "--n", "3", "--horizon", "10", "--points", "4099",
     "--json"],
    ["figure", "fig2"],
])
def test_manifest_digests_match_the_files(tmp_path, argv):
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    outdir = tmp_path / "fig2" if argv[0] == "figure" else tmp_path
    manifest = json.loads((outdir / "manifest.json").read_text())
    written = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
    assert sorted(entry["path"] for entry in manifest["outputs"]) == written
    for entry in manifest["outputs"]:
        blob = (outdir / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


SHIFT_RUN = ["simulate", "--n", "5", "--xi-over-pi", "0.75", "--gamma-l", "0.9",
             "--gamma-r", "1", "--shift-site", "3", "--shift", "0.3",
             "--horizon", "20", "--points", "401"]
ENSEMBLE_RUN = ["ensemble", "--n", "4", "--xi-over-pi", "1", "--gamma-l", "0.9",
                "--gamma-r", "1", "--fluct", "0.01", "--realizations", "6",
                "--seed", "3", "--horizon", "20", "--points", "401"]


def comment_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


@pytest.mark.parametrize("argv", [SHIFT_RUN, ENSEMBLE_RUN])
def test_manifest_grid_records_numbers(tmp_path, argv):
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    grid = manifest["parameters"]["grid"]
    assert grid == {"grid": "uniform", "horizon": 20.0, "points": 401}
    assert isinstance(grid["horizon"], float)


def write_config(path, parameters):
    """A manifest record's config and disorder as a --config file."""
    path.write_text("".join(
        [f"{key} = {value}\n" for key, value in parameters["config"].items()]
        + [f"disorder.{key} = {value}\n"
           for key, value in parameters["disorder"].items()]))


@pytest.mark.parametrize("argv", [SHIFT_RUN + ["--json"], ENSEMBLE_RUN])
def test_manifest_parameters_rerun_as_a_config_file(tmp_path, argv):
    """config and disorder written back as a --config file reproduce the run."""
    assert main(argv + ["--outdir", str(tmp_path / "first")]) == 0
    first = json.loads((tmp_path / "first" / "manifest.json").read_text())
    parameters = first["parameters"]
    cfg = tmp_path / "run.cfg"
    write_config(cfg, parameters)
    grid = parameters["grid"]
    rerun = [argv[0], "--config", str(cfg), "--horizon", str(grid["horizon"]),
             "--points", str(grid["points"]), *[f for f in argv if f == "--json"],
             "--outdir", str(tmp_path / "again")]
    assert main(rerun) == 0
    again = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert again["parameters"] == parameters
    assert ({e["path"]: e["sha256"] for e in again["outputs"]}
            == {e["path"]: e["sha256"] for e in first["outputs"]})


def test_ensemble_manifest_records_the_check_it_runs(tmp_path, monkeypatch):
    from chiralchain import cli
    full = cli.run_ensemble
    checks = []

    def recording(config, disorder, grid, cross_check):
        checks.append(cross_check)
        return full(config, disorder, grid, cross_check=cross_check)

    monkeypatch.setattr(cli, "run_ensemble", recording)
    assert main(ENSEMBLE_RUN + ["--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert checks == [manifest["parameters"]["cross_check"]] == [False]


@pytest.mark.parametrize("name", ["fig2", "fig6"])
def test_figure_manifest_reruns_its_curves(tmp_path, name):
    """A figure manifest has one record per curve file, and a curve's
    record, rerun through simulate --config with its grid flags, writes
    the rows of the figure's file."""
    assert main(["figure", name, "--outdir", str(tmp_path)]) == 0
    outdir = tmp_path / name
    names = sorted(p.name for p in outdir.iterdir())
    assert {f"{name}.gp", "manifest.json"} <= set(names)
    assert "set datafile separator" in (outdir / f"{name}.gp").read_text()
    curves = json.loads((outdir / "manifest.json").read_text())[
        "parameters"]["curves"]
    csvs = [n for n in names if n.endswith(".csv")]
    assert sorted(curves) == csvs
    # fig2: N in {2, 3} x {xi0, xipi}; fig6: three shifted chains
    assert len(csvs) == {"fig2": 4, "fig6": 3}[name]
    filename = csvs[-1]
    record = curves[filename]
    assert record["disorder"]["mode"] == {"fig2": "none",
                                          "fig6": "single_site"}[name]
    cfg = tmp_path / "curve.cfg"
    write_config(cfg, record)
    grid = record["grid"]
    assert main(["simulate", "--config", str(cfg), "--no-cross-check",
                 "--horizon", str(grid["horizon"]), "--points",
                 str(grid["points"]), "--outdir", str(tmp_path / "rerun")]) == 0

    def rows(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("#")]

    assert rows(tmp_path / "rerun" / "trajectory.csv") == rows(outdir / filename)


def test_ensemble_csv_flags_population_underflow(tmp_path):
    # a cascaded chain's last sites empty below the floor within gamma t = 1000
    assert main(["ensemble", "--n", "3", "--xi-over-pi", "1", "--gamma-l", "0",
                 "--gamma-r", "1", "--realizations", "4", "--points", "10001",
                 "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / "ensemble.csv").read_text()
    assert comment_lines(text)[-1] == "# underflow_clamped = true"
    _, data = read_csv_columns(text)
    assert (data[:, 1] == 0.0).any()


def test_simulate_data_file_metadata(tmp_path):
    assert main(SHIFT_RUN + ["--json", "--outdir", str(tmp_path)]) == 0
    assert comment_lines((tmp_path / "trajectory.csv").read_text()) == [
        "# n_atoms = 5",
        "# xi_over_pi = 0.75",
        "# gamma_left = 0.9",
        "# gamma_right = 1.0",
        "# disorder_mode = single_site",
        "# disorder_site = 3",
        "# disorder_shift_fraction = 0.3",
        "# grid = uniform",
        "# horizon = 20.0",
        "# points = 401",
        "# gamma = 1.0",
    ]
    payload = json.loads((tmp_path / "trajectory.json").read_text())
    assert payload["metadata"] == {
        "n_atoms": 5, "xi_over_pi": "0.75", "gamma_left": "0.9",
        "gamma_right": "1.0", "disorder_mode": "single_site",
        "disorder_site": 3, "disorder_shift_fraction": "0.3",
        "grid": "uniform", "horizon": "20.0", "points": 401, "gamma": "1.0",
    }


def test_ensemble_data_file_metadata(tmp_path):
    assert main(ENSEMBLE_RUN + ["--outdir", str(tmp_path)]) == 0
    assert comment_lines((tmp_path / "ensemble.csv").read_text()) == [
        "# n_atoms = 4",
        "# xi_over_pi = 1.0",
        "# gamma_left = 0.9",
        "# gamma_right = 1.0",
        "# disorder_mode = ensemble",
        "# disorder_fluctuation_fraction = 0.01",
        "# disorder_n_realizations = 6",
        "# disorder_seed = 3",
        "# grid = uniform",
        "# horizon = 20.0",
        "# points = 401",
        "# gamma = 1.0",
    ]


def test_figure_ensemble_data_file_metadata(monkeypatch):
    from chiralchain import cli
    full = cli.run_ensemble
    # the preset's 200 realizations on the first grid times only
    monkeypatch.setattr(cli, "run_ensemble",
                        lambda config, disorder, grid, cross_check:
                        full(config, disorder, grid[:11],
                             cross_check=cross_check))
    stream = io.BytesIO()
    _, curves, _ = cli._FIGURES["fig5"]
    cli._curve_writer(curves["fig5b_fluct1pct.csv"])(stream)
    assert comment_lines(stream.getvalue().decode()) == [
        "# n_atoms = 5",
        "# xi_over_pi = 1.0",
        "# gamma_left = 0.9",
        "# gamma_right = 1.0",
        "# disorder_mode = ensemble",
        "# disorder_fluctuation_fraction = 0.01",
        "# disorder_n_realizations = 200",
        "# disorder_seed = 7",
        "# gamma = 1.0",
    ]


def test_fig3c_table():
    from chiralchain import cli
    stream = io.BytesIO()
    cli._write_fig3c(stream)
    lines = ["# xi_over_pi = 1.0", "# gamma_left = 1.0", "# gamma_right = 1.0",
             "N,P1_inf"]
    for n in range(2, 14):
        config = ChainConfig(n_atoms=n, xi=math.pi, gamma_left=1.0,
                             gamma_right=1.0)
        state = steady_state(build_chain(config), uniform_excitation(n))
        lines.append(f"{n},{float(state.populations[0])!r}")
    assert stream.getvalue().decode() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, data_file", [
    (["simulate", "--n", "3", "--horizon", "2", "--points", "21"], "trajectory.csv"),
    (ENSEMBLE_RUN, "ensemble.csv")])
def test_data_file_header_is_the_result_table(tmp_path, argv, data_file):
    from chiralchain import cli
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    header, _ = read_csv_columns((tmp_path / data_file).read_text())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    _, _, result = cli._run(manifest["parameters"])
    assert list(result.table()) == header


def test_curve_column_indexes_its_result_table():
    from chiralchain import cli
    for _, curves, _ in cli._FIGURES.values():
        for record in curves.values():
            # the curve's chain and disorder on a two-point grid
            _, _, result = cli._run({**record, "grid": cli._uniform(1.0, 2)})
            assert list(result.table())[cli._column(record) - 1] == record["column"]


def test_figure_scripts_plot_the_named_columns(tmp_path, monkeypatch):
    """Every `using 1:k` of a figure's script names P_tot in its file, or
    the intensity the fig5 curves plot, and every curve is plotted."""
    from chiralchain import cli
    # every curve on a few points to t = 1: the Runge-Kutta check that
    # each curve runs costs in proportion to the horizon
    short_uniform, short_log = cli.uniform_grid, cli.log_grid
    monkeypatch.setattr(cli, "uniform_grid",
                        lambda horizon, points: short_uniform(1.0, 11))
    monkeypatch.setattr(cli, "log_grid", lambda horizon, points_per_decade:
                        short_log(1.0, points_per_decade=2))
    expected = {"fig5a": "I_tot", "fig5b": "mean_I_tot"}
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
        assert main(["figure", name, "--outdir", str(tmp_path)]) == 0
        outdir = tmp_path / name
        script = (outdir / f"{name}.gp").read_text()
        plotted = re.findall(r"'([^']+\.csv)' using 1:(\d+) with lines", script)
        assert plotted
        for filename, column in plotted:
            header, _ = read_csv_columns((outdir / filename).read_text())
            assert header[int(column) - 1] == expected.get(filename[:5], "P_tot")
        curves = {p.name for p in outdir.glob("*.csv")} - {"fig3c.csv"}
        assert {filename for filename, _ in plotted} == curves


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "3", "--horizon", "2", "--points", "21", "--json"],
    ["ensemble", "--n", "3", "--realizations", "2", "--horizon", "2",
     "--points", "21"],
    ["kernel", "--dim", "2", "--xi", "0.5,1.0"],
], ids=["simulate", "ensemble", "kernel"])
def test_stdout_writes_the_primary_table_and_no_file(argv, tmp_path,
                                                     monkeypatch, capsysbinary):
    from chiralchain import cli

    def no_detector(*args, **kwargs):
        raise AssertionError("--stdout ran the burst detector")

    monkeypatch.setattr(cli, "detect_bursts", no_detector)
    outdir = tmp_path / "out"
    assert main(argv + ["--stdout", "--outdir", str(outdir)]) == 0
    out = capsysbinary.readouterr().out
    header, _ = read_csv_columns(out.decode())
    assert header[0] in ("t", "xi")
    assert not outdir.exists()
    # the bytes of the primary file that the same run writes
    monkeypatch.undo()
    assert main(argv + ["--outdir", str(outdir)]) == 0
    primary = {"simulate": "trajectory.csv", "ensemble": "ensemble.csv",
               "kernel": "kernel.csv"}[argv[0]]
    assert (outdir / primary).read_bytes() == out
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["outputs"][0] == {"path": primary, "bytes": len(out),
                                      "sha256": hashlib.sha256(out).hexdigest()}


@pytest.mark.parametrize("argv", [
    ["kernel", "--dim", "1", "--xi", "0:1:inf", "--stdout"],
    ["kernel", "--dim", "1", "--xi", "0:1e-320:1", "--stdout"],
    ["kernel", "--dim", "1", "--xi", "0:inf:1", "--stdout"],
    # 1e17 and 1e11 points, over the cap
    ["kernel", "--dim", "1", "--xi", "0:1e-17:1", "--stdout"],
    ["kernel", "--dim", "1", "--xi", "0:1e-9:100", "--stdout"],
    ["simulate", "--n", "5", "--shift-site", "3", "--stdout"],
    # {tmp} is a directory holding a UTF-16 config file
    ["simulate", "--config", "{tmp}/missing.cfg", "--stdout"],
    ["simulate", "--config", "{tmp}", "--stdout"],
    ["simulate", "--config", "{tmp}/utf16.cfg", "--stdout"],
], ids=["inf-stop", "subnormal-step", "inf-step", "tiny-step", "1e11-points",
        "half-shift-pair", "config-missing", "config-directory", "config-utf16"])
def test_cli_process_reports_a_config_error_in_one_line(argv, tmp_path):
    (tmp_path / "utf16.cfg").write_bytes("n_atoms = 3\n".encode("utf-16"))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    paths = [arg for arg in argv if arg.startswith(str(tmp_path))]
    # a subprocess sees what pytest would capture: tracebacks and warnings
    src = os.path.dirname(os.path.dirname(chiralchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "chiralchain.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr
    assert run.stdout == ""
    # a path that cannot be read or written is named
    assert all(path in lines[0] for path in paths)
