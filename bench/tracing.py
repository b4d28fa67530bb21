"""In-memory span tracer that wraps the simulator's functions from outside.

Each wrapped function is replaced, under the name its callers look it up by,
with a wrapper that records a span (name, start, end, parent span, run id).
Self time is a span's duration minus the time its child spans cover. The
original functions are put back when the tracer exits, even on error. A
function that a later version of the program no longer has is reported as
absent instead of failing the trace.
"""
from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _count_rays(counters, result):
    ranges, hit_ids = result
    counters["scene.rays_cast"] += len(ranges)
    counters["scene.hits"] += int(np.count_nonzero(np.asarray(hit_ids) >= 0))


def _count_returns(counters, cloud):
    counters["lidar.returns"] += len(cloud.returns)


# (module, attribute, span name, counter). The module is the one whose
# globals the caller looks the function up in, so the wrapper is seen.
TARGETS = (
    ("gazelidar.cli", "main", "cli.main", None),
    ("gazelidar.cli", "load_run_config", "runner.load_run_config", None),
    ("gazelidar.cli", "validate_run_config", "runner.validate_run_config", None),
    ("gazelidar.cli", "run_sweep", "runner.run_sweep", None),
    ("gazelidar.cli", "summarize", "runner.summarize", None),
    ("gazelidar.cli", "write_results_csv", "runner.write_results_csv", None),
    ("gazelidar.cli", "write_density_samples_csv", "runner.write_density_samples_csv", None),
    ("gazelidar.cli", "write_summary_json", "runner.write_summary_json", None),
    ("gazelidar.runner", "run_single", "runner.run_single", None),
    ("gazelidar.runner", "advance", "scene.advance", None),
    ("gazelidar.runner", "compute_rof", "gaze.compute_rof", None),
    ("gazelidar.runner", "compute_roi", "gaze.compute_roi", None),
    ("gazelidar.runner", "build_scan_plan", "policy.build_scan_plan", None),
    ("gazelidar.runner", "scan_revolution", "lidar.scan_revolution", _count_returns),
    ("gazelidar.runner", "density", "metrics.density", None),
    ("gazelidar.runner", "detect", "metrics.detect", None),
    ("gazelidar.lidar", "pulse_directions", "lidar.pulse_directions", None),
    ("gazelidar.lidar", "effective_range", "atmosphere.effective_range", None),
    ("gazelidar.lidar", "cast_rays", "scene.cast_rays", _count_rays),
)

# A call to this span starts a new run; spans under it carry its run id.
RUN_SPAN = "runner.run_single"


class Tracer:
    """Records spans around wrapped functions while active (a context manager)."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._runs = 0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, count in self.targets:
                self._wrap(module_name, attr, name, count)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _wrap(self, module_name, attr, name, count) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.add(f"{module_name}.{attr}")
            return
        spans = self.spans
        stack = self._stack
        clock = self.clock
        counters = self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name == RUN_SPAN:
                self._runs += 1
                run = self._runs
            else:
                run = spans[stack[-1]][4] if stack else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    count(counters, result)
                except (AttributeError, TypeError, ValueError):
                    self.absent.add(f"{name} counter")
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "run"])
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, run])
