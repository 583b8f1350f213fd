"""Check that the preset command-line runs still write the same bytes.

    python tests/check_outputs.py                  # compare with the list
    python tests/check_outputs.py --against REV    # deviations against REV
    python tests/check_outputs.py --write          # record a new list

runs every preset of PRESETS with the package under ``src/`` next to this
file, one BLAS thread, into a temporary directory, and compares the
sha256 of every file but the manifests with ``output_hashes.json``.  For each file whose digest differs it reruns the
preset that wrote it from the ``src/`` of git revision REV (default HEAD)
and prints the largest absolute and relative deviation of every column:
the CSV columns by header, and the numbers of a JSON file by key.

The digests depend on the numpy and BLAS build as well as on the code, so
the list records the numpy version, the BLAS library and the thread
count, and a run on another build says so next to any difference.  All
presets take about 20 s on one 2-core x86-64 host; pytest does not
collect this file, but tests/test_check_outputs.py runs the kernel
presets, the ensembles, staircase, cascaded and local_unchecked (about
5 s) against the same list.
Exit status: 0 when every digest matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASHES = HERE / "output_hashes.json"
BLAS_THREADS = 1
_KERNEL_XI = ["--xi", "0.01:0.005:50"]
_LOCAL = ["simulate", "--n", "5", "--xi-over-pi", "0.75",
          "--gamma-l", "0.9", "--gamma-r", "1", "--shift-site", "3",
          "--shift", "0.30", "--log-grid", "--horizon", "1e4", "--json"]
# (output directory, command line) of each preset
PRESETS = [
    ("staircase", ["simulate", "--n", "5", "--xi-over-pi", "1",
                   "--gamma-l", "0.9", "--gamma-r", "1",
                   "--horizon", "1500", "--points", "37501"]),
    ("local", _LOCAL),
    # the same data files as local: the cross-check never changes them
    ("local_unchecked", [*_LOCAL, "--no-cross-check"]),
    ("ensemble", ["ensemble", "--n", "5", "--xi-over-pi", "1",
                  "--gamma-l", "0.9", "--gamma-r", "1", "--fluct", "0.005",
                  "--realizations", "200", "--seed", "7"]),
    # 641 = 2 * 320 + 1 grid times: the core's last table at N = 5 is one row
    ("ensemble_tail", ["ensemble", "--n", "5", "--xi-over-pi", "1",
                       "--gamma-l", "0.9", "--gamma-r", "1", "--fluct", "0.005",
                       "--realizations", "200", "--seed", "7",
                       "--horizon", "64", "--points", "641"]),
    # gamma_L = 0: V is lower triangular, and both its exponentials have s = 0
    ("cascaded", ["simulate", "--n", "4", "--xi-over-pi", "1",
                  "--gamma-l", "0", "--gamma-r", "1",
                  "--horizon", "40", "--points", "2001"]),
    ("kernel_1", ["kernel", "--dim", "1", *_KERNEL_XI]),
    ("kernel_1chiral", ["kernel", "--dim", "1chiral", *_KERNEL_XI]),
    ("kernel_1chiral_asym", ["kernel", "--dim", "1chiral", *_KERNEL_XI,
                             "--gamma-l", "0.3", "--gamma-r", "0.9"]),
    ("kernel_2", ["kernel", "--dim", "2", *_KERNEL_XI]),
    ("kernel_3", ["kernel", "--dim", "3", *_KERNEL_XI]),
    # small separations, where the kernels take their series branches
    *((f"kernel_{dim}_small", ["kernel", "--dim", dim, "--xi", "0.0001:0.0001:1.2",
                                "--alignment", "0.5"]) for dim in ("2", "3")),
] + [(f"figure_fig{k}", ["figure", f"fig{k}"]) for k in range(2, 8)]


def environment() -> dict:
    """What besides the code decides the digests."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS}


def run_presets(src: Path, outdir: Path, names=None) -> None:
    """The presets named (default all), each in a fresh interpreter
    importing from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    for name, argv in PRESETS:
        if names is not None and name not in names:
            continue
        subprocess.run([sys.executable, "-m", "chiralchain.cli", *argv,
                        "--outdir", str(outdir / name)], env=env, check=True)


def digests(outdir: Path) -> dict:
    """{path relative to outdir: sha256} of every file but the manifests."""
    return {path.relative_to(outdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def _json_numbers(value, name: str, columns: dict) -> None:
    """Append every number under value to columns[key path], [] per list."""
    if isinstance(value, dict):
        for key, item in value.items():
            _json_numbers(item, f"{name}.{key}" if name else key, columns)
    elif isinstance(value, list):
        for item in value:
            _json_numbers(item, name + "[]", columns)
    elif isinstance(value, (int, float)):
        columns.setdefault(name, []).append(float(value))


def columns(path: Path) -> dict:
    """{column: float array} of a CSV table (# lines skipped) or JSON file."""
    if path.suffix == ".json":
        found = {}
        _json_numbers(json.loads(path.read_text()), "", found)
        return {name: np.array(values) for name, values in found.items()}
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh
                if not line.startswith("#")]
    if not rows:
        return {}
    table = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return dict(zip(rows[0], table.T))


def deviations(reference: Path, actual: Path) -> list:
    """(column, largest absolute, largest relative deviation) per column.

    The relative deviation of two values is |a - b| / max(|a|, |b|).  Two
    NaNs agree; a column that one file lacks, or whose length differs,
    deviates by inf.
    """
    expected, found = columns(reference), columns(actual)
    report = []
    for name in list(expected) + [key for key in found if key not in expected]:
        a, b = expected.get(name), found.get(name)
        if a is None or b is None or a.shape != b.shape:
            report.append((name, math.inf, math.inf))
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            diff = np.where(same, 0.0, np.abs(a - b))
            rel = np.where(same, 0.0, diff / np.fmax(np.abs(a), np.abs(b)))
        diff, rel = np.nan_to_num(diff, nan=math.inf), np.nan_to_num(rel, nan=math.inf)
        report.append((name, float(diff.max(initial=0.0)),
                       float(rel.max(initial=0.0))))
    return report


def reference_outputs(rev: str, workdir: Path, names: set) -> Path:
    """Run the named presets from the src/ of git revision rev; their
    output directory."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(workdir)], input=archive, check=True)
    run_presets(workdir / "src", workdir / "out", names)
    return workdir / "out"


def compare(recorded: dict, found: dict, outdir: Path, against: str,
            workdir: Path) -> int:
    files = recorded["files"]
    changed = sorted(name for name in files.keys() | found.keys()
                     if files.get(name) != found.get(name))
    reference = None
    presets = {name.split("/")[0] for name in changed
               if name in files and name in found}
    if presets:
        print(f"running {', '.join(sorted(presets))} from {against}"
              " for the deviations")
        try:
            reference = reference_outputs(against, workdir, presets)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"no reference outputs from {against}: {exc}")
    for name in changed:
        if name not in found:
            print(f"{name}: not written by this run")
        elif name not in files:
            print(f"{name}: not in {HASHES.name}")
        else:
            print(f"{name}: sha256 differs")
            if reference is not None and Path(name).suffix in (".csv", ".json"):
                print(f"    {'column':<24} {'max abs':>10} {'max rel':>10}")
                for column, absolute, relative in deviations(
                        reference / name, outdir / name):
                    print(f"    {column:<24} {absolute:>10.3g} {relative:>10.3g}")
    unchanged = sum(found.get(name) == digest for name, digest in files.items())
    print(f"{unchanged} of {len(files)} recorded files unchanged")
    here = environment()
    was = {key: recorded.get(key) for key in here}
    if changed and was != here:
        print(f"note: the list was recorded with {was} and this run has {here};"
              " the numpy or BLAS build may account for the differences")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record this run's digests in {HASHES.name}")
    parser.add_argument("--against", default="HEAD",
                        help="git revision whose outputs a differing file is "
                             "compared with (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        run_presets(ROOT / "src", outdir)
        found = digests(outdir)
        if args.write:
            HASHES.write_text(json.dumps({**environment(), "files": found},
                                         indent=1, sort_keys=True) + "\n")
            print(f"recorded {len(found)} digests in {HASHES}")
            return 0
        recorded = json.loads(HASHES.read_text())
        workdir = Path(tmp) / "reference"
        workdir.mkdir()
        return compare(recorded, found, outdir, args.against, workdir)


if __name__ == "__main__":
    sys.exit(main())
