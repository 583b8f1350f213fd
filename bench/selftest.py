"""Self-test of the benchmark: every checker accepts the output as written and
as a legitimate rewrite might write it, and rejects it after a small
perturbation.

    python3 bench/selftest.py

Run it from the root of a source checkout.  It runs each workload once.
Then it moves every output value by up to four units in the last place of
its column's largest value, as a change that reorders floating-point sums
would, and requires the workload's check to pass.  Then, for each output
file, it scales the main value column by 1 + 1e-6, or drops one row, and
requires the check to fail.  After each edit it re-records the files'
sizes and digests in the manifest, as the program would.  It also requires
BENCHMARK.json to name only workloads that run.py knows and exactly the
metrics it reports.
Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys

import numpy as np

SCALE = 1.0 + 1e-6
ULPS = 4
SEED = 7


def rehash(outdir: str) -> None:
    path = os.path.join(outdir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for entry in manifest["outputs"]:
        with open(os.path.join(outdir, entry["path"]), "rb") as fh:
            data = fh.read()
        entry["bytes"] = len(data)
        entry["sha256"] = hashlib.sha256(data).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def edit_csv(path: str, column: str = None) -> None:
    """Scale `column` in every data row, or with no column drop the middle row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[head].strip().split(",")
    if column is None:
        del lines[(head + 1 + len(lines)) // 2]
    else:
        j = header.index(column)
        for i in range(head + 1, len(lines)):
            cells = lines[i].rstrip("\n").split(",")
            cells[j] = repr(float(cells[j]) * SCALE)
            lines[i] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def edit_json(path: str, drop: bool) -> None:
    """Scale every amplitude, or drop the middle time point."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if drop:
        middle = len(payload["times"]) // 2
        del payload["times"][middle]
        del payload["amplitudes"][middle]
    else:
        payload["amplitudes"] = [[[re * SCALE, im * SCALE] for re, im in row]
                                 for row in payload["amplitudes"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def jitter(values, rng) -> np.ndarray:
    """Move each value by up to ULPS units in the last place of the largest |value|."""
    values = np.asarray(values, dtype=float)
    step = np.spacing(np.max(np.abs(values), initial=0.0))
    return values + step * rng.integers(-ULPS, ULPS + 1, size=values.shape)


def jitter_csv(path: str, rng) -> None:
    """Jitter every column of a CSV, keeping its # metadata lines and header."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    data = np.array([line.split(",") for line in lines[head + 1:]], dtype=float)
    columns = np.column_stack([jitter(data[:, j], rng) for j in range(data.shape[1])])
    rows = [",".join(repr(float(x)) for x in row) + "\n" for row in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:head + 1] + rows)


def jitter_json(path: str, rng) -> None:
    """Jitter the times and amplitudes of a trajectory, or the peaks of a burst report."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "peaks" in payload:
        for key in ("t_peak", "height", "prominence"):
            moved = jitter([peak[key] for peak in payload["peaks"]], rng)
            for peak, value in zip(payload["peaks"], moved):
                peak[key] = float(value)
    else:
        payload["times"] = jitter(payload["times"], rng).tolist()
        payload["amplitudes"] = jitter(payload["amplitudes"], rng).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def jitter_outputs(outdir: str, rng) -> None:
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        paths = [entry["path"] for entry in json.load(fh)["outputs"]]
    for relpath in paths:
        path = os.path.join(outdir, relpath)
        (jitter_csv if relpath.endswith(".csv") else jitter_json)(path, rng)


def jitter_trajectory(trajectory, rng):
    amps = trajectory.amplitudes
    scale = np.max(np.abs(amps))
    moved = (amps + np.spacing(scale) * rng.integers(-ULPS, ULPS + 1, size=amps.shape)
             + 1j * np.spacing(scale) * rng.integers(-ULPS, ULPS + 1, size=amps.shape))
    return dataclasses.replace(
        trajectory, times=jitter(trajectory.times, rng), amplitudes=moved,
        populations=jitter(trajectory.populations, rng), total=jitter(trajectory.total, rng),
        intensity=jitter(trajectory.intensity, rng))


# workload -> (file relative to the output directory, column scaled in it)
CSV_EDITS = {
    "staircase": [("trajectory.csv", "P_tot")],
    "ensemble": [("ensemble.csv", "mean_P_tot")],
    "long_horizon": [("trajectory.csv", "P_tot")],
    "kernel_tables": [(f"dim{dim}/kernel.csv", "decay") for dim in ("2", "3", "1chiral")],
}


def file_perturbations(workload_name: str) -> list:
    """(label, function applying it to an output directory) for a CLI workload."""
    cases = []
    for relpath, column in CSV_EDITS[workload_name]:
        for col in (column, None):
            label = f"{relpath}: " + (f"{col} x (1 + 1e-6)" if col else "middle row dropped")
            cases.append((label, lambda d, r=relpath, c=col: edit_csv(os.path.join(d, r), c)))
    if workload_name == "long_horizon":
        for drop in (False, True):
            label = "trajectory.json: " + ("middle row dropped" if drop else
                                           "amplitudes x (1 + 1e-6)")
            cases.append((label, lambda d, x=drop: edit_json(
                os.path.join(d, "trajectory.json"), x)))
    return cases


def copy_outputs(outdirs: list, src_root: str, dst_root: str) -> list:
    shutil.rmtree(dst_root, ignore_errors=True)
    shutil.copytree(src_root, dst_root)
    return [dst_root + d[len(src_root):] for d in outdirs]


def check_accepts(workload, output, label: str, failures: list) -> None:
    from workloads import CheckFailed
    try:
        workload.check(output, SEED)
    except CheckFailed as exc:
        failures.append(f"{workload.name}: rejected {label}: {exc}")
        return
    print(f"  accepted {label}")


def check_rejects(workload, output, label: str, failures: list) -> None:
    from workloads import CheckFailed
    try:
        workload.check(output, SEED)
    except CheckFailed as exc:
        print(f"  rejected as it should be: {label}: {exc}")
        return
    failures.append(f"{workload.name}: accepted a perturbed output ({label})")


def check_benchmark_json(failures: list) -> None:
    import run
    from workloads import WORKLOADS
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    pairs = [
        ("end_to_end", [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
         [(name, unit, better) for name, (unit, better) in run.END_TO_END.items()]),
        ("per_layer", [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
         [(name, unit, better) for name, unit, better, _ in run.PER_LAYER]),
    ]
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        failures.append(f"BENCHMARK.json names workloads run.py does not know: {unknown}")
    for key, listed, reported in pairs:
        if listed != reported:
            failures.append(f"BENCHMARK.json {key} differ from what run.py reports")


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from workloads import WORKLOADS, CheckFailed

    failures = []
    check_benchmark_json(failures)
    outroot = os.path.join(root, ".bench_out", "selftest")
    for workload in WORKLOADS.values():
        print(f"{workload.name}:")
        original = os.path.join(outroot, workload.name)
        shutil.rmtree(original, ignore_errors=True)
        output = workload.run(original, SEED)
        try:
            workload.check(output, SEED)
            print("  accepted as written")
        except CheckFailed as exc:
            failures.append(f"{workload.name}: rejected the unperturbed output: {exc}")
            continue
        rng = np.random.default_rng(SEED)
        jittered = f"every value moved by up to {ULPS} ulp of its column's scale"
        if isinstance(output, list):
            copy = original + "-perturbed"
            copies = copy_outputs(output, original, copy)
            for outdir in copies:
                jitter_outputs(outdir, rng)
                rehash(outdir)
            check_accepts(workload, copies, jittered, failures)
            for label, perturb in file_perturbations(workload.name):
                copies = copy_outputs(output, original, copy)
                perturb(copy)
                for outdir in copies:
                    rehash(outdir)
                check_rejects(workload, copies, label, failures)
        else:
            check_accepts(workload, jitter_trajectory(output, rng), jittered, failures)
            middle = len(output.times) // 2
            keep = [k for k in range(len(output.times)) if k != middle]
            perturbed = {
                "P_tot x (1 + 1e-6)": dataclasses.replace(output, total=output.total * SCALE),
                "middle row dropped": dataclasses.replace(
                    output, times=output.times[keep], amplitudes=output.amplitudes[keep],
                    populations=output.populations[keep], total=output.total[keep],
                    intensity=output.intensity[keep]),
            }
            for label, candidate in perturbed.items():
                check_rejects(workload, candidate, label, failures)
    shutil.rmtree(outroot, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
