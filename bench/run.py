"""chiralchain benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  The workloads and their checks are in ``workloads.py``.  One run
repeats the workload in this process for ``--seconds`` seconds, checking
every sample's outputs outside the timed region, then times fresh
interpreters importing ``chiralchain.cli``.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Detail (every sample, the environment, and
with ``--trace 1`` every span) goes to ``.bench_out/``.

BLAS runs on one thread whatever the caller's environment says, so that
CPU time equals wall time and runs started from different shells compare.

Times are scaled to a reference host speed.  Right before each sample and
each fresh interpreter, the run times a fixed calibration that does not
touch chiralchain; the gated ``wall_s`` and ``setup_s`` are medians of
``time * CALIBRATION_REFERENCE_S / calibration``.  The unscaled times are
printed next to them and kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREADS = "1"
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60
# Calibration seconds on the host that defined the benchmark, in its fast
# state; a time scaled by it reads as seconds on that host.
CALIBRATION_REFERENCE_S = 0.02

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "wall_s": ("s", "lower"),       # median scaled sample time, call until outputs written
    "setup_s": ("s", "lower"),      # median scaled time of a fresh interpreter importing chiralchain.cli
    "peak_rss_mb": ("MB", "lower"),  # peak resident memory of the run's process
    "ok_frac": ("fraction", "higher"),  # share of samples that ran and passed their check
}

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("cli.self_s", "s", "lower", "wall_s on staircase and ensemble"),
    ("cli.output_bytes", "bytes", "higher", "none; guards against shrunken outputs"),
    ("chain.build_s", "s", "lower", "wall_s on ensemble and large_chain"),
    ("chain.builds", "count", "lower", "wall_s on ensemble (realizations minus skipped)"),
    ("dynamics.propagate_s", "s", "lower",
     "wall_s on staircase, large_chain, long_horizon, and ensemble via run_ensemble"),
    ("dynamics.propagate_calls", "count", "lower", "wall_s on ensemble"),
    ("dynamics.propagate.self_s", "s", "lower",
     "wall_s on staircase, large_chain and long_horizon (step loop, observables, RK check)"),
    ("dynamics.expm_s", "s", "lower", "wall_s on large_chain; little on long_horizon and ensemble"),
    ("dynamics.expm_calls", "count", "lower", "wall_s on large_chain"),
    ("dynamics.write_csv_s", "s", "lower", "wall_s on staircase"),
    ("dynamics.csv_bytes", "bytes", "higher", "none; guards against shrunken CSV"),
    ("dynamics.write_json_s", "s", "lower", "wall_s on long_horizon"),
    ("dynamics.json_bytes", "bytes", "higher", "none; guards against shrunken JSON"),
    ("analysis.run_ensemble_s", "s", "lower", "wall_s and peak_rss_mb on ensemble"),
    ("analysis.run_ensemble.self_s", "s", "lower", "wall_s and peak_rss_mb on ensemble"),
    ("analysis.useful_ratio", "ratio", "higher", "wall_s on ensemble (0 where none is drawn)"),
    ("analysis.detect_s", "s", "lower", "none expected: under 1 ms on ensemble"),
    ("kernels.eval_s", "s", "lower", "wall_s on kernel_tables"),
    ("kernels.evals", "count", "lower", "wall_s on kernel_tables"),
    ("specfun.bessel_s", "s", "lower", "wall_s on kernel_tables"),
    ("specfun.bessel_calls", "count", "lower", "wall_s on kernel_tables"),
) + tuple(
    (f"setup.{module}_import_s", "s", "lower", "setup_s on every workload")
    for module in ("errors", "chain", "dynamics", "analysis", "specfun", "kernels",
                   "oracles", "cli")
) + (
    ("proc.cpu_s", "s", "lower", "not gated; shows a trade of a second core for wall_s"),
    ("proc.cpu_per_wall", "ratio", "higher", "not gated; 1.0 on one core"),
    ("trace.overhead_s", "s", "lower", "none; traced minus untraced median wall_s"),
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy loads; inherited by set-up runs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas.get('version', '?')}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def calibration_s() -> float:
    """Seconds for a fixed piece of work that does not touch chiralchain.

    A pure-Python float loop and small complex numpy matrix products: the
    two kinds of work the workloads spend their time in, so that both slow
    down together when the host does.
    """
    import numpy as np
    start = time.perf_counter()
    total = 0.0
    for k in range(1, 60000):
        total += math.sin(k * 1e-3) / k
    matrix = np.full((6, 6), 0.01) + 0.5j * np.eye(6)
    for _ in range(1500):
        matrix = 0.9 * (matrix @ matrix) + np.eye(6)
        matrix = matrix / np.abs(matrix).max()
    return time.perf_counter() - start


def scaled(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / calibration


def measure(workload, seed: int, seconds: float, trace: bool, outroot: str) -> tuple:
    """Samples while the next one is expected to end within `seconds`; with
    trace, every other sample is traced.  Every sample's outputs are checked."""
    from tracing import Tracer, layer_metrics
    from workloads import output_bytes

    tracer = Tracer() if trace else None
    samples = []
    started = time.perf_counter()
    while True:
        run_id = len(samples)
        timed = [s["wall_s"] for s in samples if "wall_s" in s]
        elapsed = time.perf_counter() - started
        enough = len(timed) >= (2 if trace else 1) or elapsed > seconds
        if enough and elapsed + (statistics.median(timed) if timed else 0.0) > seconds:
            break
        traced = trace and run_id % 2 == 1
        outdir = os.path.join(outroot, workload.name)
        shutil.rmtree(outdir, ignore_errors=True)
        gc.collect()
        sample = {"traced": traced, "ok": False, "calibration_s": calibration_s()}
        first_span = len(tracer.spans) if traced else 0
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if traced:
                output = tracer.sample(run_id, workload.run, outdir, seed)
            else:
                output = workload.run(outdir, seed)
            sample["wall_s"] = time.perf_counter() - wall0
            sample["cpu_s"] = time.process_time() - cpu0
            workload.check(output, seed)
            if traced:
                layers = layer_metrics(tracer.spans[first_span:])
                self_sum, root = layers.pop("trace.self_sum_s"), layers.pop("trace.root_s")
                if abs(self_sum - root) > 1e-9 * root:
                    raise RuntimeError(f"self times add up to {self_sum}, root span {root}")
                layers["cli.output_bytes"] = (output_bytes(output)
                                              if isinstance(output, list) else 0)
                sample["layers"] = layers
            sample["ok"] = True
        except Exception:  # a failed sample is counted, reported, and the run goes on
            sample["error"] = traceback.format_exc()
            print(f"sample {run_id} failed:\n{sample['error']}", file=sys.stderr)
        samples.append(sample)
    shutil.rmtree(os.path.join(outroot, workload.name), ignore_errors=True)
    return samples, tracer


def setup_times(root: str) -> list:
    """(seconds, calibration seconds) for fresh interpreters to start and
    import chiralchain.cli.  Each calibration and its interpreter run on
    the same CPU, because the host's speed changes per CPU."""
    cpus = os.sched_getaffinity(0)
    times = []
    for _ in range(SETUP_REPEATS):
        os.sched_setaffinity(0, {min(cpus)})
        try:
            calibration = calibration_s()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import chiralchain.cli"], cwd=root,
                           check=True, timeout=SUBPROCESS_TIMEOUT_S)
            times.append((time.perf_counter() - start, calibration))
        finally:
            os.sched_setaffinity(0, cpus)
    return times


def import_times(root: str) -> dict:
    """Import seconds of each chiralchain module in a fresh interpreter.

    From ``python -X importtime``: a module's cumulative time minus that of
    the chiralchain modules it imports, so third-party packages count
    against the module that first imports them.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chiralchain.cli"],
                          cwd=root, check=True, timeout=SUBPROCESS_TIMEOUT_S,
                          capture_output=True, text=True)
    entries = []  # (depth, module, exclusive microseconds), in completion order
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        module = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        exclusive = int(cumulative)
        for prior_depth, prior_module, prior_exclusive in reversed(entries):
            if prior_depth <= depth:
                break
            if prior_module.startswith("chiralchain."):
                exclusive -= prior_exclusive
        entries.append((depth, module, exclusive))
    return {module[len("chiralchain."):]: exclusive * 1e-6
            for _, module, exclusive in entries if module.startswith("chiralchain.")}


def timing(walls: list) -> str:
    """Median, the highest percentile with ten samples beyond it, maximum, count."""
    tail = (f"p{100 * (len(walls) - 10) / len(walls):.0f} {walls[-11]:.4f} s, "
            if len(walls) > 10 else "")
    return (f"median {statistics.median(walls):.4f} s, {tail}max {walls[-1]:.4f} s, "
            f"{len(walls)} samples")


def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chiralchain", "cli.py")):
        print(f"error: no chiralchain sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    import chiralchain  # after pin_threads: numpy reads the thread count on import
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(chiralchain.__file__)) != os.path.join(src, "chiralchain"):
        print(f"error: imported chiralchain from {chiralchain.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    outroot = os.path.join(root, ".bench_out")
    os.makedirs(outroot, exist_ok=True)
    samples, tracer = measure(workload, args.seed, args.seconds, bool(args.trace), outroot)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [s for s in samples if s["ok"]]
    failed = len(samples) - len(ok)
    timed = ok or [s for s in samples if "wall_s" in s]
    if not timed:
        print("error: no sample completed", file=sys.stderr)
        return 1
    env = environment()
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "samples": samples}

    if args.trace:
        untraced = [s for s in timed if not s["traced"]]
        traced = [s for s in timed if s["traced"] and s["ok"]]
        if not untraced or not traced:
            print("error: the traced run needs a passing traced and untraced sample",
                  file=sys.stderr)
            return 1
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        imports = import_times(root)
        for name, _, _, _ in PER_LAYER:
            if name.startswith("setup."):
                values[name] = imports.get(name[len("setup."):-len("_import_s")], 0.0)
        values["proc.cpu_s"] = median_of(untraced, "cpu_s")
        values["proc.cpu_per_wall"] = statistics.median(s["cpu_s"] / s["wall_s"]
                                                        for s in untraced)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
        detail["absent_names"] = [".".join(pair) for pair in tracer.absent]
        spans_path = os.path.join(outroot, f"spans-{workload.name}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps([span.run_id, span.span_id, span.parent, span.name,
                                     span.start, span.end, span.error, span.attrs]) + "\n")
        for pair in tracer.absent:
            print(f"absent: {'.'.join(pair)}")
    else:
        walls = sorted(scaled(s["wall_s"], s["calibration_s"]) for s in timed)
        setups = setup_times(root)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(scaled(t, c) for t, c in setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": len(ok) / len(samples),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        detail["setup_s"] = [{"seconds": t, "calibration_s": c} for t, c in setups]
        print(f"wall_s: scaled {timing(walls)}")
        print(f"wall_s: unscaled {timing(sorted(s['wall_s'] for s in timed))}")
        print(f"setup_s: unscaled median {statistics.median(t for t, _ in setups):.4f} s, "
              f"calibration median {statistics.median(c for _, c in setups):.4f} s "
              f"(reference {CALIBRATION_REFERENCE_S} s)")

    detail["metrics"] = metrics
    with open(os.path.join(outroot, f"result-{workload.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
