"""Experiment runner: config ingestion, single runs, sweeps, and output files.

Config files are JSON with SI units throughout; angles are degrees in the
file and radians everywhere else. Runs are pure functions of (config, seed),
so sweeps parallelize freely and outputs are byte-stable.
"""
from __future__ import annotations

import concurrent.futures
import csv
import ctypes
import dataclasses
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .atmosphere import FogCondition, SensorCalibration, fog_from_fraction
from .gaze import AcuityFunction, GazeTrace, compute_rof, compute_roi, load_gaze_trace
# No run calls scan_revolution, density, detect or advance; they are imported because
# bench/tracing.py wraps them here, and tests/test_bench_targets.py requires each name.
# No sweep calls run_single either, so its traced span counts only direct calls.
from .lidar import FrameRun, revolution_setup, scan_frames, scan_revolution
from .metrics import SAMPLE_DTYPE, density, detect, first_detection, roi_densities
from .policy import (P_MAX_RATIO, DegeneratePartitionError, PolicyError, VariantConfig,
                     build_scan_plan, revolution_period)
from .scene import MAX_OFFSET, ObstacleBox, Scene, Vec2, advance, edges_at

TAU = math.tau

# A scan_frames call casts k frames of each of L live runs, L * k * n rays of
# n pulses a frame: the most runs, then the most frames, that stay within
# RAYS_PER_CALL, but at least one run and one frame, and at most CHUNK_FRAMES.
RAYS_PER_CALL = 2 ** 17
CHUNK_FRAMES = 24

# run_sweep pools a sweep at once when one variant task's simulated runs fire
# more than HEAVY_RAYS rays in their first frame alone (_rays). The measured sweeps
# lie far to either side: shipped, dense and seeded_jobs2 fire 1,170, 7,812 and
# 23,400, each task some 3-20 ms, and the 2 MHz hires sweep 6,000,000, each
# task about 0.5 s. Where between them pooling starts to pay at once was
# not measured; a light sweep whose tasks run long is pooled by POOL_RAYS.
HEAVY_RAYS = 2 ** 17

# A light sweep pools the tasks left after its first one only when that task's
# simulated runs cast more than POOL_RAYS rays in all. On --jobs 2 (README) that
# lost for dense with 16 seeds at 1 s (2.5 M rays) and seeded_jobs2 at 5 s
# (2.34 M), and won for seeded_jobs2 at 10 s (4.68 M) and dense at 3 s (7.5 M).
POOL_RAYS = 2 ** 22

# mallopt(3) parameters from glibc's malloc.h, and the largest mmap threshold
# that glibc's own dynamic rule reaches on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2 ** 20


class ConfigError(ValueError):
    """Raised when a run configuration or a summary.json fails to load or validate."""


@dataclass(frozen=True)
class RunConfig:
    scene: Scene
    target_id: int
    variants: tuple[VariantConfig, ...]
    fog_fractions: tuple[float, ...]
    seeds: tuple[int, ...]
    frame_rate: float
    pulse_rate: float
    max_sim_time: float
    kappa: float
    calibration: SensorCalibration
    p_max: float
    acuity: AcuityFunction
    gaze_trace: GazeTrace
    min_points: int
    dropout: bool
    spawn_jitter_m: float


@dataclass(frozen=True, eq=False)   # samples is an array: records compare by identity
class RunRecord:
    variant: VariantConfig
    fog_fraction: float
    seed: int
    # Seconds the target still needed to reach the conflict point at the frame
    # that detected it, the last row of samples; None if no frame detected it.
    tta: float | None
    # The run's per-frame RoI samples, an array of metrics.SAMPLE_DTYPE whose
    # row k is frame k; empty for a failed run.
    samples: np.ndarray
    # Rows of scan_frames calls this run occupied, at least `frames`: a step's
    # frames after the detecting frame are cast and discarded. Not written
    # to any output file.
    frames_cast: int
    failure_reason: str | None
    # The time of the loop that simulated this run, split over the runs it stepped
    # in proportion to their frames_cast, evenly if none cast a frame.
    wall_time: float
    # Seed of the simulated record this one copies; None if simulated itself.
    # Only run_sweep makes copies, in the calling process.
    reused_from: int | None = None

    @property
    def frames(self) -> int:
        """Frames the run output, one per row of samples; 0 for a failed run."""
        return len(self.samples)

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, field: str):
    """`value` if it is a `kind` (dict, list or str), else a ConfigError naming `field`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{field}: expected {_JSON_TYPES[kind]}")
    return value


def _number(value, field: str, low: float = -math.inf, high: float = math.inf,
            low_open: bool = False, integer: bool = False):
    """A JSON number for `field`, checked for type, finiteness and range.

    Accepts [low, high], or (low, high] with low_open; returns a float, or
    the int itself when `integer`. Booleans and numeric strings are not
    numbers. Raises ConfigError naming the field otherwise, with integer
    bounds printed in full.
    """
    kinds = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{field}: {value!r} is not {'an integer' if integer else 'a number'}")
    if not integer:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{field}: {value!r} is not finite")
    if not low <= value <= high or (low_open and value == low):
        form = "" if integer else "g"
        interval = (f"{'(' if low_open else '['}{low:{form}}, {high:{form}}"
                    f"{']' if high < math.inf else ')'}")
        raise ConfigError(f"{field}: {value!r} outside {interval}")
    return value


def _read_json(path: Path):
    """The JSON value in the file at `path`, read as UTF-8 whatever the locale, a BOM skipped."""
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class _Fields:
    """One JSON object of a config or summary.json; each read names the field it reads.

    `name` names the object, as in "<file>: scenario", and the field at
    `key` is `prefix + key`, as in "<file>: scenario.ego"; `prefix` is
    `name` and a dot unless given. A read without a default requires its key.
    """

    def __init__(self, obj, name: str, prefix: str | None = None):
        self.obj = _typed(obj, dict, name)
        self.name = name
        self.prefix = f"{name}." if prefix is None else prefix

    def get(self, key: str, default=None, kind: type | None = None):
        if key not in self.obj and default is None:
            raise ConfigError(f"{self.name}: missing required key '{key}'")
        value = self.obj.get(key, default)
        return value if kind is None else _typed(value, kind, self.prefix + key)

    def number(self, key: str, *limits, default=None, **checks):
        return _number(self.get(key, default), self.prefix + key, *limits, **checks)

    def positive(self, key: str, default=None) -> float:
        return self.number(key, 0.0, low_open=True, default=default)

    def section(self, key: str, default=None) -> "_Fields":
        return _Fields(self.get(key, default), self.prefix + key)

    def items(self, key: str, default=None) -> list[tuple[str, object]]:
        """(name, value) of each entry of the non-empty list at `key`."""
        value = self.get(key, default)
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{self.prefix}{key} must be a non-empty list")
        return [(f"{self.prefix}{key}[{i}]", v) for i, v in enumerate(value)]

    def entries(self, key: str):
        """A _Fields for each object of the list at `key`, which may be empty."""
        values = self.get(key, kind=list)
        return (_Fields(v, f"{self.prefix}{key}[{i}]") for i, v in enumerate(values))

    def vec2(self, key: str) -> Vec2:
        value, name = self.get(key), self.prefix + key
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{name}: expected [x, y]")
        return Vec2(_number(value[0], f"{name}[0]"), _number(value[1], f"{name}[1]"))


def load_run_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises ConfigError naming the offending field on the first structural
    problem found. Relative paths inside the file resolve against its
    directory.
    """
    path = Path(path)
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    raw = _Fields(raw, str(path), f"{path}: ")

    frame_rate = raw.positive("frame_rate_hz", 20.0)
    pulse_rate = raw.positive("pulse_rate_hz", 7812.5)
    max_sim_time = raw.positive("max_sim_time_s", 15.0)
    kappa = raw.positive("kappa_per_m", 0.01)
    fog_fractions = [_number(f, name, 0.0, 1.0)
                     for name, f in raw.items("fog_fractions", [0.0, 0.25, 0.5])]
    seeds = [_number(s, name, 0, integer=True) for name, s in raw.items("seeds", [0])]

    sensor = raw.section("sensor", {})
    nominal = sensor.positive("p_nominal_w", 1.0), sensor.positive("r_nominal_m", 100.0)
    try:
        calibration = SensorCalibration(*nominal)
    except ValueError as exc:
        raise ConfigError(f"{sensor.name}: {exc}") from exc
    p_max_ratio = sensor.positive("p_max_ratio", P_MAX_RATIO)

    acuity_raw = raw.section("acuity", {})
    kind = acuity_raw.get("kind", "boxcar")
    eta = acuity_raw.number("eta", 0.0, 1.0, low_open=True, default=0.5)
    if kind == "boxcar":
        shape, width = AcuityFunction.boxcar, acuity_raw.number(
            "half_width_deg", 0.0, 180.0, low_open=True, default=30.0)
    elif kind == "gaussian":
        shape, width = AcuityFunction.gaussian, acuity_raw.positive("sigma_deg")
    else:
        raise ConfigError(f"{acuity_raw.prefix}kind {kind!r} is not 'boxcar' or 'gaussian'")
    try:
        acuity = shape(math.radians(width))
    except ValueError as exc:
        raise ConfigError(f"{acuity_raw.name}: {exc}") from exc

    trace_path = path.parent / raw.get("gaze_trace", kind=str)
    try:
        gaze_trace = load_gaze_trace(trace_path, eta)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{raw.prefix}gaze_trace: {exc}") from exc

    variants = []
    for name, entry in raw.items("variants"):
        v = _Fields(entry, name)
        args = (v.get("name"), v.number("p_low_ratio", 0.0, 1.0, low_open=True, default=0.2),
                v.number("omega_high_ratio", 1.0, default=2.0))
        try:
            variants.append(VariantConfig(*args))
        except ValueError as exc:
            raise ConfigError(f"{v.name}: {exc}") from exc

    min_points = raw.section("detection", {}).number("min_points", 1, integer=True, default=1)
    dropout = raw.get("fog_dropout", False)
    if not isinstance(dropout, bool):
        raise ConfigError(f"{raw.prefix}fog_dropout: {dropout!r} is not true or false")
    spawn_jitter = raw.number("spawn_jitter_m", 0.0, default=0.0)

    scenario = raw.section("scenario")
    ego = scenario.vec2("ego")
    conflict = scenario.vec2("conflict_point")
    target_id = scenario.number("target_id", integer=True)
    obstacles = []
    for name, entry in scenario.items("obstacles"):
        o = _Fields(entry, name)
        # edges_at stores obstacle ids as int64, and casts mark a miss -1
        obstacles.append(ObstacleBox(
            o.number("id", 0, 2 ** 63 - 1, integer=True), o.vec2("center"),
            math.radians(o.number("heading_deg")), o.positive("half_length"),
            o.positive("half_width"), o.number("speed_mps", 0.0)))
    try:
        scene = Scene(ego, tuple(obstacles), conflict)
    except ValueError as exc:
        raise ConfigError(f"{scenario.name}: {exc}") from exc
    if problem := _reach_problem(obstacles, ego, spawn_jitter, max_sim_time):
        raise ConfigError(f"{raw.prefix}{problem}")

    return RunConfig(
        scene=scene,
        target_id=target_id,
        variants=tuple(variants),
        fog_fractions=tuple(fog_fractions),
        seeds=tuple(seeds),
        frame_rate=frame_rate,
        pulse_rate=pulse_rate,
        max_sim_time=max_sim_time,
        kappa=kappa,
        calibration=calibration,
        p_max=p_max_ratio * calibration.p_nominal,
        acuity=acuity,
        gaze_trace=gaze_trace,
        min_points=min_points,
        dropout=dropout,
        spawn_jitter_m=spawn_jitter,
    )


def _reach_problem(boxes, ego: Vec2, jitter: float, end: float) -> str | None:
    """Why runs cannot cast `boxes` with this spawn jitter up to time `end`, or None.

    Every vertex must stay within MAX_OFFSET of the ego on both axes, at any
    time of a run and for any jitter a run draws from U(-jitter, jitter),
    which moves a mover's start that far back along its heading. Vertices
    move linearly, so the rule is checked at t = 0 and t = end, with a
    mover's start shifted by -jitter and +jitter. The problem is put on
    scenario.ego if every box is out at t = 0, on max_sim_time_s if every
    mover is out only at t = end, else on the first box out, or on
    spawn_jitter_m if only the jitter takes a box out.
    """
    if not jitter >= 0.0:
        return f"spawn_jitter_m: {jitter!r} is not at least 0"
    beyond = f"more than {MAX_OFFSET:g} m from the ego on an axis"

    def inside(box, d) -> bool:
        """Whether `box`, moved d along its heading, keeps every vertex in reach."""
        ux, uy = math.cos(box.heading), math.sin(box.heading)
        # a vertex lies at most this far from the center on each axis
        reach_x = box.half_length * abs(ux) + box.half_width * abs(uy)
        reach_y = box.half_length * abs(uy) + box.half_width * abs(ux)
        x, y = box.center.x - ego.x, box.center.y - ego.y
        # each test is written so that a nan offset fails it
        return (abs(x + d * ux) + reach_x <= MAX_OFFSET
                and abs(y + d * uy) + reach_y <= MAX_OFFSET)
    movers = [i for i, box in enumerate(boxes) if box.speed != 0.0]
    out = [i for i, box in enumerate(boxes) if not inside(box, 0.0)]
    late = [i for i in movers if not inside(boxes[i], end * boxes[i].speed)]
    if boxes and len(out) == len(boxes):
        return f"scenario.ego: every vertex of scenario.obstacles lies {beyond}"
    if movers and not out and late == movers:
        return f"max_sim_time_s: {end!r} takes every mover {beyond}"
    moved = f"at t = 0 or at max_sim_time_s {end:g}"
    if out or late:
        i = min(out + late)
        jittered = f", before spawn_jitter_m {jitter!r} moves its start" if jitter > 0.0 else ""
        when = f" {moved}{jittered}" if boxes[i].speed != 0.0 else ""
        return f"scenario.obstacles[{i}]: a vertex lies {beyond}{when}"
    for i in movers:
        if not all(inside(boxes[i], d + shift) for d in (0.0, end * boxes[i].speed)
                   for shift in (-jitter, jitter)):
            return (f"spawn_jitter_m: {jitter!r} moves a vertex of scenario.obstacles[{i}] "
                    f"{beyond} {moved}")
    return None


def _scan_plan(config: RunConfig, variant: VariantConfig, gaze_state):
    """(RoI, scan plan) of `variant` under `gaze_state`; PolicyError if infeasible.

    An empty RoF or RoI is a DegeneratePartitionError on every variant,
    baseline too, since its density is measured over the RoI.
    """
    rof = compute_rof(gaze_state, config.acuity)
    roi = compute_roi(rof)
    if rof.is_empty():
        raise DegeneratePartitionError(
            "acuity/eta give an empty region of focus (degenerate partition)")
    if roi.is_empty():
        raise DegeneratePartitionError(
            "acuity/eta give a full-circle region of focus (degenerate partition)")
    return roi, build_scan_plan(variant, rof, roi, config.calibration, TAU * config.frame_rate,
                                config.pulse_rate, config.p_max)


def _gaze_spans(trace: GazeTrace, frame_rate: float, end: float) -> list[tuple]:
    """A run's frames as spans [(first, stop, state)]: frames first..stop-1 read `state`.

    Frame k runs at k / frame_rate while that is below `end` and reads the
    state trace.at gives. Sample i is first read by frame ceil(times[i] *
    frame_rate), moved one step if rounding put it off, and frames before the
    first sample read sample 0, as trace.at clamps. Samples no frame reads
    are skipped, and neighbouring spans differ in state. Found in O(samples),
    not O(frames); frame numbers are floats, inf where they overflow.
    """
    x = np.array([*trace.times, end], dtype=np.float64)
    with np.errstate(over="ignore"):
        first = np.maximum(np.ceil(x * frame_rate), 0.0)
        first -= (first >= 1.0) & ((first - 1.0) / frame_rate >= x)
        first += first / frame_rate < x
    first[0] = 0.0
    spans = []
    for start, stop, state in zip(first[:-1].tolist(), np.minimum(first[1:], first[-1]).tolist(),
                                  trace.states):
        if start >= stop:
            continue
        if spans and spans[-1][2] == state:
            start = spans.pop()[0]
        spans.append((start, stop, state))
    return spans


def validate_run_config(config: RunConfig) -> list[str]:
    """Semantic feasibility diagnostics beyond structural loading.

    Builds each variant's scan plan, as its runs do, for every gaze state a
    frame of a run reads. Returns human-readable problems; empty means runnable.
    """
    problems: list[str] = []
    scene = config.scene
    try:
        target = scene.obstacle(config.target_id)
    except KeyError:
        problems.append(f"scenario.target_id {config.target_id} matches no obstacle")
    else:
        if target.speed <= 0.0:
            problems.append("target obstacle must be moving (speed_mps > 0)")
        else:
            ux = math.cos(target.heading)
            uy = math.sin(target.heading)
            rx = scene.conflict_point.x - target.center.x
            ry = scene.conflict_point.y - target.center.y
            off_line = abs(rx * uy - ry * ux)
            if off_line > 1e-6:
                problems.append(
                    f"conflict_point lies {off_line:.3g} m off the target trajectory line")
            elif rx * ux + ry * uy <= 0.0:
                problems.append("target moves away from the conflict point")

    if problem := _reach_problem(scene.obstacles, scene.ego_position, config.spawn_jitter_m,
                                 config.max_sim_time):
        problems.append(problem)

    for axis in ("seeds", "fog_fractions"):
        values = getattr(config, axis)
        for i, value in enumerate(values):
            j = values.index(value)
            if j != i:
                problems.append(f"{axis}[{i}] repeats {axis}[{j}] ({value!r}); "
                                "the same runs would be written twice")

    spans = _gaze_spans(config.gaze_trace, config.frame_rate, config.max_sim_time)
    states = dict.fromkeys(state for _, _, state in spans)
    pulses = _rays(config)
    if not 0.0 < revolution_period(TAU * config.frame_rate) < math.inf:
        states = {}   # ScanPlan refuses the period, so no plan is built
    for i, variant in enumerate(config.variants):
        j = [v.variant for v in config.variants].index(variant.variant)
        if j != i:
            problems.append(f"variants[{i}] repeats the name {variant.variant!r} of variants[{j}]; "
                            "output rows are keyed by name, so their runs would merge")
        try:
            for state in states:
                _scan_plan(config, variant, state)
        except PolicyError as exc:
            problems.append(f"variants[{i}] ({variant.variant}): {exc}")
    rates = f"pulse_rate_hz {config.pulse_rate:g} at frame_rate_hz {config.frame_rate:g}"
    if pulses < 1.0:
        problems.append(f"{rates} fires no pulse per revolution")
    elif not pulses < 2.0 ** 63:   # numpy's int64 index limit
        problems.append(f"{rates} fires {pulses:g} pulses per revolution, not a finite count below 2**63")
    return problems


def _spawn_starts(movers, rngs, jitter: float) -> np.ndarray:
    """(S, m, 2) start centers of the m moving boxes, one row per entry of rngs: each
    generator draws m shifts from U(-jitter, jitter), the doubles of m scalar draws in
    id order, and box i starts shift i back along its heading. Nothing is drawn without
    jitter, and then the entries, which may be None, are only counted."""
    centers = np.array([(o.center.x, o.center.y) for o in movers])
    if jitter <= 0.0:
        return np.tile(centers, (len(rngs), 1, 1))
    headings = np.array([(math.cos(o.heading), math.sin(o.heading)) for o in movers])
    shifts = np.array([rng.uniform(-jitter, jitter, len(movers)) for rng in rngs])
    return centers - shifts[..., None] * headings


def _drops_out(config: RunConfig, fog: FogCondition) -> bool:
    """The one rule for whether a run in this fog draws dropout: fog_dropout on, sigma > 0."""
    return config.dropout and fog.sigma > 0.0


def uses_rng(config: RunConfig, fog_fraction: float) -> bool:
    """Whether a run at this fog level draws from its seed's generator: for spawn
    jitter in _spawn_starts, or for dropout in lidar.scan_frames if it _drops_out.
    When false, the seed cannot change a record."""
    return config.spawn_jitter_m > 0.0 or _drops_out(
        config, fog_from_fraction(fog_fraction, config.kappa))


def run_single(config: RunConfig, variant: VariantConfig, fog_fraction: float,
               seed: int) -> RunRecord:
    """Simulate one run; stops at target detection or max_sim_time. A one-run _run_seeds."""
    return _run_seeds(config, variant, ((fog_fraction, seed),))[0]


def _run_seeds(config: RunConfig, variant: VariantConfig, runs) -> list[RunRecord]:
    """Simulate one run per (fog fraction, seed) pair of `runs`, all of one variant, in lockstep.

    The seed drives only spawn jitter and fog dropout, so with both off the
    record is identical across seeds. Every run starts at frame 0 and stays
    live until it detects the target or reaches max_sim_time, so the live
    runs share each frame's time, gaze state and setup. Each gaze state's
    RoI, scan plan and per-pulse setup (with the RoI flags, the cast of the
    config scene's static boxes, which jitter never moves, and one max-range
    row per distinct fog) is built once for every fog. A step casts the next
    k frames of every live run in scan_frames calls of as many runs as
    RAYS_PER_CALL allows, one call when it allows them all; each run's
    FrameRun has its fog's row and, only if the run _drops_out, its
    generator. metrics then finds each run's first detecting frame and its
    RoI density per frame up to it. Frames cast after that frame, and their
    draws, are discarded; frames_cast counts them. Only a run that uses_rng
    gets a generator, so a sweep that draws nothing never imports numpy.random.
    A run's TTA is the target's distance to the conflict point at its
    detecting frame over its speed, the distance taken with advance() and
    Vec2.distance_to's float operations from the target's start center.
    """
    t_start = time.perf_counter()
    fractions = list(dict.fromkeys(fraction for fraction, _ in runs))
    fogs = [fog_from_fraction(fraction, config.kappa) for fraction in fractions]
    setups = {}
    scene, target_id = config.scene, config.target_id
    target = scene.obstacle(target_id)
    if not target.speed > 0.0:
        raise ValueError(f"target {target_id} must be moving (speed_mps > 0)")
    ego, conflict = scene.ego_position, scene.conflict_point
    static = dataclasses.replace(scene, obstacles=tuple(o for o in scene.obstacles if o.speed == 0.0))
    movers = dataclasses.replace(scene, obstacles=tuple(o for o in scene.obstacles if o.speed != 0.0))
    row = movers.obstacles.index(target)
    heading = math.cos(target.heading), math.sin(target.heading)
    rngs = [np.random.default_rng(seed) if uses_rng(config, fraction) else None
            for fraction, seed in runs]
    rows = [fractions.index(fraction) for fraction, _ in runs]
    frame_runs = [FrameRun(row, rng if _drops_out(config, fogs[row]) else None)
                  for row, rng in zip(rows, rngs)]
    starts = _spawn_starts(movers.obstacles, rngs, config.spawn_jitter_m)
    empty = np.empty(0, SAMPLE_DTYPE)
    samples = [[] for _ in runs]
    ttas: list[float | None] = [None] * len(runs)
    frames_cast = [0] * len(runs)
    live = list(range(len(runs)))
    frame = 0
    failure = None
    try:
        for _, span_stop, gaze_state in _gaze_spans(config.gaze_trace, config.frame_rate,
                                                     config.max_sim_time):
            if not live:
                break
            if gaze_state not in setups:
                roi, plan = _scan_plan(config, variant, gaze_state)
                setups[gaze_state] = roi, revolution_setup(plan, fogs, config.calibration,
                                                           static, roi)
            roi, setup = setups[gaze_state]
            n = setup.angles.shape[0]
            group = max(RAYS_PER_CALL // max(n, 1), 1)   # most runs one call holds
            while live and frame < span_stop:
                k = min(max(RAYS_PER_CALL // max(min(len(live), group) * n, 1), 1), CHUNK_FRAMES)
                stop = int(min(frame + k, span_stop))
                times = np.arange(frame, stop) / config.frame_rate
                for first in range(0, len(live), group):
                    members = live[first:first + group]
                    targets, rois = scan_frames(*edges_at(movers, times, starts[members]), ego,
                                                setup, target_id, [frame_runs[i] for i in members])
                    firsts = first_detection(targets, config.min_points)
                    densities = roi_densities(rois, roi)
                    for i, at, run_samples in zip(members, firsts, densities):
                        frames_cast[i] += len(times)
                        samples[i].append(run_samples[:len(times) if at is None else at + 1])
                        if at is not None:
                            t = float(times[at])
                            x, y = starts[i, row].tolist()
                            dist = math.hypot(x + t * target.speed * heading[0] - conflict.x,
                                              y + t * target.speed * heading[1] - conflict.y)
                            ttas[i] = dist / target.speed
                live = [i for i in live if ttas[i] is None]
                frame = stop
    except PolicyError as exc:
        failure = str(exc)

    elapsed = time.perf_counter() - t_start
    cast = sum(frames_cast)
    records = []
    for i, (fraction, seed) in enumerate(runs):
        wall_time = elapsed * frames_cast[i] / cast if cast else elapsed / len(runs)
        if failure is not None and i in live:
            records.append(RunRecord(variant, fraction, seed, None, empty,
                                     frames_cast[i], failure, wall_time))
            continue
        # with the dtype given, numpy fills one new SAMPLE_DTYPE array; without it,
        # promoting the parts' record dtypes costs more than copying their rows
        kept = np.concatenate(samples[i], dtype=SAMPLE_DTYPE) if samples[i] else empty
        records.append(RunRecord(variant, fraction, seed, ttas[i], kept,
                                 frames_cast[i], None, wall_time))
    return records


def _record_key(record: RunRecord):
    v = record.variant
    return (v.variant, v.p_low_ratio, v.omega_high_ratio, record.fog_fraction, record.seed)


def _keep_freed_pages() -> None:
    """Keep freed blocks of up to MMAP_THRESHOLD bytes in this process's heap.

    glibc serves a block above its mmap threshold (128 KiB at first) from
    mmap and unmaps it when freed, and trims the heap's free top above its
    trim threshold, so every scan_frames call faults its temporaries of up
    to about 1 MiB in again. This pins both thresholds where glibc's dynamic
    rule would stop: the mmap threshold at its 64-bit maximum and the trim
    threshold at twice that. Setting either turns the rule off, so the trim
    threshold is set only once the mmap threshold took. Without glibc's
    mallopt, nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):   # TypeError: Windows cannot load None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


def _rays(config: RunConfig, frames: int = 1) -> float:
    """Rays that `frames` frames fire: the whole pulses of each, as ScanPlan.rays_per_revolution
    counts them for every plan, since every plan conserves one period. inf if they overflow."""
    return frames * np.floor(config.pulse_rate * revolution_period(TAU * config.frame_rate))


def run_sweep(config: RunConfig, jobs: int = 1) -> list[RunRecord]:
    """Run the full variant x fog x seed grid, sorted by (variant, fog, seed).

    A variant simulates every seed at a fog whose runs draw (uses_rng), only
    the first seed at any other, in one _run_seeds task; the records are the
    same wherever a task ran. Each other seed of a fog that draws nothing is
    then copied here from the simulated record, with reused_from set and a
    wall_time of 0. jobs > 1 allows at most jobs worker processes, at most one
    per variant. A sweep whose task fires more than HEAVY_RAYS rays in its
    first frame alone pools every task at once. Any other runs its first task
    here, then hands the rest to min(jobs, tasks left) workers only if two or
    more are left and that task cast more than POOL_RAYS rays. Each worker
    keeps its freed pages (_keep_freed_pages), whether forked or not; a sweep
    run here leaves the caller's allocator as it is.

    numpy loads numpy.random lazily, on a run's first default_rng, and only
    runs that draw make one. A sweep whose runs draw imports it here before
    its first task, so that forked workers inherit it instead of each
    importing it again on its first task of every sweep.
    """
    draws = {fog: uses_rng(config, fog) for fog in config.fog_fractions}
    runs = [(fog, seed) for fog in config.fog_fractions
            for seed in (config.seeds if draws[fog] else config.seeds[:1])]
    variants = list(config.variants) if runs else []
    if variants and any(draws.values()):
        import numpy.random  # noqa: F401
    done = []
    pooled = jobs > 1 and len(variants) > 1 and _rays(config, len(runs)) > HEAVY_RAYS
    if variants and not pooled:
        done.append(_run_seeds(config, variants.pop(0), runs))
        cast = _rays(config, sum(r.frames_cast for r in done[0]))
        if jobs < 2 or len(variants) < 2 or cast <= POOL_RAYS:
            done += (_run_seeds(config, variant, runs) for variant in variants)
            variants = []
    if variants:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(variants)),
                                                    initializer=_keep_freed_pages) as pool:
            done += pool.map(_run_seeds, itertools.repeat(config), variants,
                             itertools.repeat(runs))
    records = []
    for record in itertools.chain.from_iterable(done):
        records.append(record)
        if not draws[record.fog_fraction]:
            records += (dataclasses.replace(record, seed=seed, wall_time=0.0,
                                            reused_from=record.seed) for seed in config.seeds[1:])
    records.sort(key=_record_key)
    return records


def _fmt(x: float) -> str:
    return format(x, ".12g")


def write_results_csv(records: list[RunRecord], path) -> None:
    """One row per run: variant,fog,seed,detected,tta_s,frames,mean_density_pts_per_deg.
    Copies share their original's samples array and sort beside it: one mean for them all."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "fog", "seed", "detected", "tta_s", "frames",
                         "mean_density_pts_per_deg"])
        samples = None
        for rec in records:
            if rec.samples is not samples:
                samples = rec.samples
                mean_density = (_fmt(sum(samples["density"].tolist()) / len(samples))
                                if len(samples) else "")
            writer.writerow([
                rec.variant.variant,
                _fmt(rec.fog_fraction),
                rec.seed,
                "true" if rec.tta is not None else "false",
                _fmt(rec.tta) if rec.tta is not None else "",
                rec.frames,
                mean_density,
            ])


def write_density_samples_csv(records: list[RunRecord], path) -> None:
    """One row per simulated frame, long format, each record's rows in one write.
    Copies share their original's samples array and sort beside it: its rows are formatted once."""
    samples = None
    with open(path, "w", newline="") as fh:
        fh.write("variant,fog,seed,frame,points_in_roi,roi_width_deg,density_pts_per_deg\n")
        for rec in records:
            if rec.samples is not samples:
                samples = rec.samples
                rows = [f"{k},{count},{_fmt(width)},{_fmt(per_deg)}"
                        for k, (count, width, per_deg) in enumerate(samples.tolist())]
            if rows:   # csv.writer quotes the run's fields where needed
                line = io.StringIO()
                csv.writer(line, lineterminator="\n").writerow(
                    [rec.variant.variant, _fmt(rec.fog_fraction), rec.seed])
                run = line.getvalue()[:-1] + ","
                fh.write(run + ("\n" + run).join(rows) + "\n")


def quartiles(values) -> tuple[float, float, float]:
    """Q1, median, Q3 with linear (inclusive) interpolation."""
    q = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 50.0, 75.0])
    return float(q[0]), float(q[1]), float(q[2])


def summarize(records: list[RunRecord]) -> dict:
    """Aggregate per (variant, fog): run counts, TTA and density quartiles."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.variant.variant, rec.fog_fraction), []).append(rec)
    out = []
    for (name, fog), recs in sorted(cells.items()):
        ttas = [r.tta for r in recs if r.tta is not None]
        densities = np.concatenate([r.samples["density"] for r in recs])
        cell = {
            "variant": name,
            "fog": fog,
            "runs": len(recs),
            "failures": sum(1 for r in recs if r.failed),
            "detected": len(ttas),
            "tta_s": None,
            "density_pts_per_deg": None,
        }
        if ttas:
            q1, med, q3 = quartiles(ttas)
            cell["tta_s"] = {"q1": q1, "median": med, "q3": q3}
        if densities.size:
            q1, med, q3 = quartiles(densities)
            cell["density_pts_per_deg"] = {"q1": q1, "median": med, "q3": q3}
        out.append(cell)
    return {"version": __version__, "cells": out}


def summary_text(summary: dict) -> str:
    """The exact text of summary.json; `report --format json` prints the same."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def write_summary_json(summary: dict, path) -> None:
    Path(path).write_text(summary_text(summary))


def read_summary_json(path) -> dict:
    """Load a summary.json and check every field `report` prints.

    Raises ConfigError naming the file and the bad cell or key.
    """
    path = Path(path)
    summary = _Fields(_read_json(path), str(path), f"{path}: ")
    for cell in summary.entries("cells"):
        cell.get("variant", kind=str)
        cell.number("fog", 0.0, 1.0)
        for key in ("runs", "failures", "detected"):
            cell.number(key, 0, integer=True)
        for key in ("tta_s", "density_pts_per_deg"):
            if cell.get(key) is not None:
                stats = cell.section(key)
                for q in ("q1", "median", "q3"):
                    stats.number(q)
    return summary.obj
