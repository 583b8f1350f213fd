"""The deviation report of the output-digest check."""

from check_outputs import deviations

HEADER = "# xi_over_pi = 1.0\nN,P1_inf,shift\n"


def test_deviation_report_finds_the_one_changed_cell(tmp_path):
    reference, actual = tmp_path / "reference.csv", tmp_path / "actual.csv"
    reference.write_text(HEADER + "2,0.5,nan\n3,0.25,-1.0\n")
    actual.write_text(HEADER + "2,0.5,nan\n3,0.5,-1.0\n")
    assert deviations(reference, actual) == [
        ("N", 0.0, 0.0), ("P1_inf", 0.25, 0.5), ("shift", 0.0, 0.0)]
