"""The output-digest check: its deviation report, and the cheap presets."""

import json

import pytest

from check_outputs import (HASHES, ROOT, deviations, digests, environment,
                           run_presets)

HEADER = "# xi_over_pi = 1.0\nN,P1_inf,shift\n"


def test_deviation_report_finds_the_one_changed_cell(tmp_path):
    reference, actual = tmp_path / "reference.csv", tmp_path / "actual.csv"
    reference.write_text(HEADER + "2,0.5,nan\n3,0.25,-1.0\n")
    actual.write_text(HEADER + "2,0.5,nan\n3,0.5,-1.0\n")
    assert deviations(reference, actual) == [
        ("N", 0.0, 0.0), ("P1_inf", 0.25, 0.5), ("shift", 0.0, 0.0)]


# the presets cheap enough for every test run, about 5 s together; the
# simulate runs cover propagate on a uniform and on a log grid, and on a
# cascaded (triangular) chain
CHEAP_PRESETS = {"staircase", "local_unchecked", "cascaded", "ensemble",
                 "ensemble_tail", "kernel_1", "kernel_1chiral",
                 "kernel_1chiral_asym", "kernel_2", "kernel_3",
                 "kernel_2_small", "kernel_3_small"}


def test_cheap_presets_write_the_recorded_bytes(tmp_path):
    recorded = json.loads(HASHES.read_text())
    here = environment()
    other = {key: (recorded.get(key), here[key]) for key in ("numpy", "blas")
             if recorded.get(key) != here[key]}
    if other:
        pytest.skip(f"digests recorded on another build (recorded, running): {other}")
    run_presets(ROOT / "src", tmp_path, CHEAP_PRESETS)
    expected = {name: digest for name, digest in recorded["files"].items()
                if name.split("/")[0] in CHEAP_PRESETS}
    assert digests(tmp_path) == expected
