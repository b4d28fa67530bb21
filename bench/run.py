"""Benchmark of the gazelidar `run` command.

    python3 bench/run.py --workload shipped --seed 1 --seconds 35 --trace 0

Generates the workload's input files from --seed, then times the `run`
command in-process through `gazelidar.cli.main`, the way a user's sweep runs,
while another sweep fits in --seconds. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced sweeps and reports
where the time went, per module. Every sweep's output is checked: repeats
must agree, the traced serial output must equal the untraced output, and
outputs must match the stored reference when the inputs are the reference
inputs. The last line of stdout is one JSON object; a fuller record, with
provenance, goes to .bench_out/.

Run `python3 bench/run.py --write-reference` to store the reference outputs
after a change that alters them on purpose.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gazelidar  # noqa: E402
import gazelidar.cli  # noqa: E402
from outputs import failed_runs, read_runs, run_key  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_workload  # noqa: E402

DEFAULT_SEED = 1
MIN_SWEEPS = 3
SETUP_PER_SWEEP = 2

# Imports the package, loads and validates the config: what `run` does
# before the first simulation starts. Timed inside a fresh interpreter.
SETUP_PROGRAM = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gazelidar.cli
config = gazelidar.cli.load_run_config(sys.argv[2])
problems = gazelidar.cli.validate_run_config(config)
t1 = time.perf_counter()
if problems:
    sys.exit("invalid config: " + "; ".join(problems))
print(repr(t1 - t0))
"""


def measure_setup(config: Path) -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_PROGRAM, str(SRC), str(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


@contextlib.contextmanager
def captured_records():
    """Collect the RunRecords that `run` computes, without timing anything."""
    cli = gazelidar.cli
    original = getattr(cli, "run_sweep", None)
    sweeps: list = []
    if original is None:
        yield sweeps
        return

    def capture(*args, **kwargs):
        records = original(*args, **kwargs)
        sweeps.append(records)
        return records

    cli.run_sweep = capture
    try:
        yield sweeps
    finally:
        cli.run_sweep = original


def sweep(config: Path, out_dir: Path, jobs: int):
    """One `gazelidar run`: (seconds, run records or None, run fingerprints, output frames)."""
    argv = ["run", "--config", str(config), "--out", str(out_dir), "--jobs", str(jobs)]
    with captured_records() as captured, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = gazelidar.cli.main(argv)
        seconds = time.perf_counter() - t0
    if code not in (0, 1):
        raise RuntimeError(f"gazelidar run exited with {code} on {config}")
    runs, frames = read_runs(out_dir)
    return seconds, (captured[0] if captured else None), runs, frames


def failed_record_keys(records) -> set[str]:
    if records is None:
        return set()
    return {run_key(r.variant.variant, r.fog_fraction, r.seed) for r in records if r.failed}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (workers too)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def inputs_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def expected_runs(workload: str, digest: str) -> dict[str, str] | None:
    """Reference fingerprints, when these inputs are the ones the reference was made from."""
    reference = json.loads(REFERENCE.read_text()).get(workload)
    if reference is None or reference["inputs_sha256"] != digest:
        return None
    return reference["runs"]


class Checker:
    """Counts runs attempted and failed over every sweep of one benchmark run."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, runs: dict[str, str], records, *others: dict[str, str]) -> None:
        """A run fails if its record failed or its fingerprint differs from any of `others`
        or from the reference."""
        bad = failed_record_keys(records)
        for other in (*others, self.expected):
            if other is not None:
                bad |= failed_runs(runs, other)
        self.attempted += len(runs.keys() | (self.expected or {}).keys())
        self.failed += len(bad)


def layer_metrics(tracer: Tracer, output_frames: int) -> dict[str, float]:
    """Per-layer figures of one traced sweep; per-frame values use frames simulated."""
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def seconds(*names, field="total"):
        return sum(t[n][field] for n in names if n in t)

    frames = calls("lidar.scan_revolution") or output_frames or 1

    def us_per_frame(*names, field="total"):
        return seconds(*names, field=field) / frames * 1e6

    rays = c["scene.rays_cast"]
    return {
        "runner.run_single.calls": calls("runner.run_single"),
        "lidar.scan_revolution.calls": calls("lidar.scan_revolution"),
        "runner.run_single.us_per_frame": us_per_frame("runner.run_single"),
        "runner.run_single.self_us_per_frame": us_per_frame("runner.run_single", field="self"),
        "runner.run_sweep.self_ms": seconds("runner.run_sweep", field="self") * 1e3,
        "runner.write_ms": seconds("runner.write_results_csv", "runner.write_density_samples_csv",
                                   "runner.write_summary_json", "runner.summarize") * 1e3,
        "runner.load_ms": seconds("runner.load_run_config", "runner.validate_run_config") * 1e3,
        "cli.main.self_ms": seconds("cli.main", field="self") * 1e3,
        "scene.cast_rays.us_per_frame": us_per_frame("scene.cast_rays"),
        "scene.rays_cast": rays,
        "scene.hit_ratio": c["scene.hits"] / rays if rays else 0.0,
        "lidar.scan_revolution.self_us_per_frame": us_per_frame("lidar.scan_revolution", field="self"),
        "lidar.returns_per_frame": c["lidar.returns"] / frames,
        "metrics.density.us_per_frame": us_per_frame("metrics.density"),
        "metrics.detect.us_per_frame": us_per_frame("metrics.detect"),
        "scene.advance.us_per_frame": us_per_frame("scene.advance"),
        "gaze.rof_roi.us_per_frame": us_per_frame("gaze.compute_rof", "gaze.compute_roi"),
        "policy.build_scan_plan.us_per_frame": us_per_frame("policy.build_scan_plan"),
        "lidar.pulse_directions.us_per_frame": us_per_frame("lidar.pulse_directions"),
        "atmosphere.effective_range.us_per_frame": us_per_frame("atmosphere.effective_range"),
        "atmosphere.effective_range.calls": calls("atmosphere.effective_range"),
        "policy.build_scan_plan.calls": calls("policy.build_scan_plan"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("us_per_frame"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "efficiency")):
        return "ratio"
    return "count"


def measure(config: Path, work: Path, jobs: int, seconds: float, checker: Checker) -> dict:
    """End-to-end metrics from untraced sweeps, repeated while another fits in `seconds`.

    Set-up is timed twice after each sweep, so that its median, like the
    sweeps', spans the whole run rather than one moment of it.
    """
    measure_setup(config)  # warms the file cache; not counted
    times: list[float] = []
    setup: list[float] = []
    first = None
    start = time.perf_counter()
    while len(times) < MIN_SWEEPS or time.perf_counter() - start + statistics.median(times) <= seconds:
        elapsed, records, runs, frames = sweep(config, work / "out", jobs)
        checker.check(runs, records, first)
        first = first or runs
        times.append(elapsed)
        setup += [measure_setup(config) for _ in range(SETUP_PER_SWEEP)]
    median = statistics.median(times)
    return {
        "metrics": {
            "sweep_s": (median, "s"),
            "frames_per_s": (frames / median, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "run_ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
        },
        "sweeps": len(times),
        "sweep_s_max": max(times),
        "samples": {"sweep_s": times, "setup_s": setup},
    }


def measure_traced(config: Path, work: Path, jobs: int, seconds: float, checker: Checker,
                   spans_path: Path) -> dict:
    """Per-layer metrics: rounds of an untraced sweep at the workload's --jobs, an
    untraced serial sweep when --jobs > 1, and a traced serial sweep, until
    `seconds` have passed. Each figure is the median over rounds; the last
    round's spans are written to spans_path."""
    rounds: list[dict[str, float]] = []
    durations: list[float] = []
    absent: set[str] = set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(durations) <= seconds:
        round_start = time.perf_counter()
        plain_s, records, runs, frames = sweep(config, work / "plain", jobs)
        checker.check(runs, records)
        serial_s = plain_s
        if jobs > 1:
            serial_s, serial_records, serial_runs, _ = sweep(config, work / "serial", 1)
            checker.check(serial_runs, serial_records, runs)
        with Tracer() as tracer:
            traced_s, traced_records, traced_runs, _ = sweep(config, work / "traced", 1)
        checker.check(traced_runs, traced_records, runs)
        layers = layer_metrics(tracer, frames)
        busy = sum(r.wall_time for r in records) if records is not None else 0.0
        layers["runner.parallel_efficiency"] = busy / (jobs * plain_s)
        layers["trace.overhead_ratio"] = traced_s / serial_s
        rounds.append(layers)
        durations.append(time.perf_counter() - round_start)
        absent |= tracer.absent
    tracer.write_spans(spans_path)
    metrics = {name: (statistics.median(r[name] for r in rounds), layer_unit(name))
               for name in rounds[0]}
    return {"metrics": metrics, "sweeps": len(rounds), "rounds": rounds, "absent": sorted(absent)}


def provenance(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "gazelidar": gazelidar.__version__, "git_commit": commit,
            "seed": seed, "src_lines": src_lines}


def write_reference() -> None:
    """Store each workload's output fingerprints at the default seed."""
    reference = {}
    for name in WORKLOADS:
        work = OUT / f"reference-{os.getpid()}" / name
        try:
            config = write_workload(name, DEFAULT_SEED, work / "inputs")
            _, records, runs, _ = sweep(config, work / "out", 1)
            if failed_record_keys(records):
                raise RuntimeError(f"{name}: failed runs in the reference sweep")
            reference[name] = {"seed": DEFAULT_SEED,
                               "inputs_sha256": inputs_digest(work / "inputs"), "runs": runs}
        finally:
            shutil.rmtree(work.parent, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the reference outputs of every workload and exit")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}" / tag
    try:
        config = write_workload(workload.name, args.seed, work / "inputs")
        checker = Checker(expected_runs(workload.name, inputs_digest(work / "inputs")))
        if args.trace:
            result = measure_traced(config, work, workload.jobs, args.seconds, checker,
                                    OUT / f"spans-{tag}.csv")
        else:
            result = measure(config, work, workload.jobs, args.seconds, checker)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    line = {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.pop("metrics").items()}}
    record = {"workload": workload.name, "jobs": workload.jobs, "why": workload.why,
              "reference_checked": checker.expected is not None,
              "provenance": provenance(args.seed), **result, **line}
    (OUT / f"BENCH-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"{tag}: {result['sweeps']} timed rounds, {checker.attempted} runs checked, "
          f"{checker.failed} failed, "
          f"reference {'checked' if checker.expected is not None else 'not applicable'}, "
          f"record in {OUT.name}/BENCH-{tag}.json")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
