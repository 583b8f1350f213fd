"""The output-digest check: its deviation report, and the cheap presets."""

import json

import pytest

from check_outputs import (HASHES, ROOT, deviations, digests, environment,
                           largest, run_presets)

HEADER = "# xi_over_pi = 1.0\nN,P1_inf,shift\n"


def test_deviation_report_finds_the_one_changed_cell(tmp_path):
    reference, actual = tmp_path / "reference.csv", tmp_path / "actual.csv"
    reference.write_text(HEADER + "2,0.5,nan\n3,0.25,-1.0\n")
    actual.write_text(HEADER + "2,0.5,nan\n3,0.5,-1.0\n")
    assert deviations(reference, actual) == [
        ("N", 0.0, 0.0), ("P1_inf", 0.25, 0.5), ("shift", 0.0, 0.0)]


def test_deviation_summary_names_the_largest_cells(tmp_path):
    reference, actual = tmp_path / "reference.csv", tmp_path / "actual.csv"
    reference.write_text(HEADER + "2,0.5,nan\n3,0.25,-1.0\n")
    actual.write_text(HEADER + "2,0.5,nan\n3,0.5,-1.0\n")
    other = tmp_path / "other.csv"
    other.write_text(HEADER + "2,0.5,nan\n3,0.25,-1.5\n")
    # a cell near zero that moves by rounding reads 2e-17 / 0.5, not 2/3
    near, moved = tmp_path / "near.csv", tmp_path / "moved.csv"
    near.write_text(HEADER + "2,0.5,nan\n3,1e-17,-1.0\n")
    moved.write_text(HEADER + "2,0.5,nan\n3,3e-17,-1.0\n")
    reports = {"a.csv": deviations(reference, actual),
               "b.csv": deviations(reference, other),
               "c.csv": deviations(near, moved)}
    assert largest(reports) == ("largest deviation: 0.5 absolute (b.csv,"
                                " column shift), 0.5 relative (a.csv,"
                                " column P1_inf)")


def test_the_list_records_what_decides_the_digests():
    recorded = json.loads(HASHES.read_text())
    here = environment()
    assert {"blas_core", "simd_targets"} <= set(here) <= set(recorded)
    assert all(isinstance(value, (str, int)) for value in here.values())


# the presets cheap enough for every test run, about 6 s together; the
# simulate runs cover propagate on a uniform and on a log grid, and on a
# cascaded (triangular) chain; the figures cover trajectory and ensemble
# curves, their I_tot and mean_I_tot columns, a log-grid curve, fig3c.csv
# and the gnuplot scripts
CHEAP_PRESETS = {"staircase", "local_unchecked", "cascaded", "ensemble",
                 "ensemble_tail", "kernel_1", "kernel_1chiral",
                 "kernel_1chiral_asym", "kernel_2", "kernel_3",
                 "kernel_2_small", "kernel_3_small", "figure_fig2",
                 "figure_fig3", "figure_fig5", "figure_fig7"}


def test_cheap_presets_write_the_recorded_bytes(tmp_path):
    recorded = json.loads(HASHES.read_text())
    here = environment()
    other = {key: (recorded.get(key), here[key])
             for key in ("numpy", "blas", "blas_core", "simd_targets")
             if recorded.get(key) != here[key]}
    if other:
        pytest.skip(f"digests recorded on another build (recorded, running): {other}")
    run_presets(ROOT / "src", tmp_path, CHEAP_PRESETS)
    expected = {name: digest for name, digest in recorded["files"].items()
                if name.split("/")[0] in CHEAP_PRESETS}
    assert digests(tmp_path) == expected
