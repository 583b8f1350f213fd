"""Spans around the calls into each chiralchain layer, for the traced run.

The wrappers live here, not in the package: each one replaces a public name
in the namespace of the module that calls it, for the length of one traced
sample, and puts the original back afterwards.  A span records its name,
start, end, parent span and sample (run) id in memory; ``run.py`` writes the
spans out when the run ends.  A name that a later refactor removes is
reported as absent and the run goes on.

Layers are the package modules.  A span is named ``<layer>.<function>``:
the layer that does the work, not the module that calls it.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Optional

# (module whose global name is replaced, name, span name)
TARGETS = (
    ("chiralchain.cli", "main", "cli.main"),
    # what chiralchain.cli imports from chain, dynamics, analysis and kernels
    ("chiralchain.cli", "build_positions", "chain.build_positions"),
    ("chiralchain.cli", "build_coupling_matrix", "chain.build_coupling_matrix"),
    ("chiralchain.cli", "load_config_file", "chain.load_config_file"),
    ("chiralchain.cli", "propagate", "dynamics.propagate"),
    ("chiralchain.cli", "steady_state", "dynamics.steady_state"),
    ("chiralchain.cli", "uniform_excitation", "dynamics.uniform_excitation"),
    ("chiralchain.cli", "uniform_grid", "dynamics.uniform_grid"),
    ("chiralchain.cli", "log_grid", "dynamics.log_grid"),
    ("chiralchain.cli", "write_trajectory_csv", "dynamics.write_trajectory_csv"),
    ("chiralchain.cli", "write_trajectory_json", "dynamics.write_trajectory_json"),
    ("chiralchain.cli", "run_ensemble", "analysis.run_ensemble"),
    ("chiralchain.cli", "detect_bursts", "analysis.detect_bursts"),
    ("chiralchain.cli", "chiral_fg", "kernels.chiral_fg"),
    ("chiralchain.cli", "kernel_1d_reciprocal", "kernels.kernel_1d_reciprocal"),
    ("chiralchain.cli", "kernel_2d", "kernels.kernel_2d"),
    ("chiralchain.cli", "kernel_3d", "kernels.kernel_3d"),
    # what chiralchain.analysis imports from chain and dynamics
    ("chiralchain.analysis", "build_positions", "chain.build_positions"),
    ("chiralchain.analysis", "build_coupling_matrix", "chain.build_coupling_matrix"),
    ("chiralchain.analysis", "propagate", "dynamics.propagate"),
    ("chiralchain.analysis", "uniform_excitation", "dynamics.uniform_excitation"),
    # the special functions as kernels calls them, expm as dynamics calls it
    ("chiralchain.kernels", "bessel_j", "specfun.bessel_j"),
    ("chiralchain.kernels", "bessel_y", "specfun.bessel_y"),
    ("chiralchain.dynamics", "expm", "dynamics.expm"),
    # the package API, as the large-chain workload calls it
    ("chiralchain", "build_chain", "chain.build_chain"),
    ("chiralchain", "propagate", "dynamics.propagate"),
    ("chiralchain", "uniform_excitation", "dynamics.uniform_excitation"),
    ("chiralchain", "uniform_grid", "dynamics.uniform_grid"),
)

ROOT = "bench.sample"
_WRITERS = ("dynamics.write_trajectory_csv", "dynamics.write_trajectory_json")


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    parent: Optional[int]
    run_id: int
    end: float = 0.0
    error: bool = False
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of every traced sample of one run."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._run_id = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            stream_start = args[1].tell() if name in _WRITERS else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                if stream_start is not None:
                    span.attrs = {"bytes": args[1].tell() - stream_start}
                self._close(span)
            if name == "analysis.run_ensemble":
                span.attrs = {"drawn": result.n_realizations,
                              "propagated": result.n_realizations - result.n_skipped}
            return result
        return wrapper

    def sample(self, run_id: int, fn, *args):
        """Call fn(*args) under a root span with every target wrapped."""
        self._run_id = run_id
        originals = []
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                if (module_name, attr) not in self.absent:
                    self.absent.append((module_name, attr))
                continue
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        try:
            root = self._open(ROOT)
            try:
                return fn(*args)
            finally:
                self._close(root)
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def layer_metrics(spans: list) -> dict:
    """Per-layer times and counts of one traced sample.

    A span's self time is its duration minus the durations of its children;
    the self times of all spans add up to the root span's duration.
    """
    child_time: dict = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration

    def self_time(span: Span) -> float:
        return span.duration - child_time.get(span.span_id, 0.0)

    def total(names, measure) -> float:
        return sum(measure(s) for s in spans if s.name in names)

    def count(names) -> int:
        return sum(1 for s in spans if s.name in names and not s.error)

    def duration(s: Span) -> float:
        return s.duration

    chain_names = {"chain.build_chain", "chain.build_positions",
                   "chain.build_coupling_matrix"}
    kernel_names = {"kernels.chiral_fg", "kernels.kernel_1d_reciprocal",
                    "kernels.kernel_2d", "kernels.kernel_3d"}
    bessel_names = {"specfun.bessel_j", "specfun.bessel_y"}
    ensembles = [s for s in spans if s.name == "analysis.run_ensemble" and not s.error]
    drawn = sum(s.attrs["drawn"] for s in ensembles)
    propagated = sum(s.attrs["propagated"] for s in ensembles)
    return {
        "cli.self_s": total({"cli.main"}, self_time),
        "chain.build_s": total(chain_names, duration),
        "chain.builds": count({"chain.build_chain", "chain.build_coupling_matrix"}),
        "dynamics.propagate_s": total({"dynamics.propagate"}, duration),
        "dynamics.propagate_calls": count({"dynamics.propagate"}),
        "dynamics.propagate.self_s": total({"dynamics.propagate"}, self_time),
        "dynamics.expm_s": total({"dynamics.expm"}, duration),
        "dynamics.expm_calls": count({"dynamics.expm"}),
        "dynamics.write_csv_s": total({"dynamics.write_trajectory_csv"}, duration),
        "dynamics.csv_bytes": sum(s.attrs["bytes"] for s in spans
                                  if s.name == "dynamics.write_trajectory_csv"),
        "dynamics.write_json_s": total({"dynamics.write_trajectory_json"}, duration),
        "dynamics.json_bytes": sum(s.attrs["bytes"] for s in spans
                                   if s.name == "dynamics.write_trajectory_json"),
        "analysis.run_ensemble_s": total({"analysis.run_ensemble"}, duration),
        "analysis.run_ensemble.self_s": total({"analysis.run_ensemble"}, self_time),
        "analysis.useful_ratio": propagated / drawn if drawn else 0.0,
        "analysis.detect_s": total({"analysis.detect_bursts"}, duration),
        "kernels.eval_s": total(kernel_names, duration),
        "kernels.evals": count(kernel_names),
        "specfun.bessel_s": total(bessel_names, duration),
        "specfun.bessel_calls": count(bessel_names),
        "trace.self_sum_s": sum(self_time(s) for s in spans),
        "trace.root_s": total({ROOT}, duration),
    }
