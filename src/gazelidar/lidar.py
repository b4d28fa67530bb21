"""Spinning 2D LiDAR scan engine.

A revolution fires pulses at a fixed rate while the head sweeps the circle
at the piecewise-constant spin rate prescribed by a ScanPlan. The scene is
frozen for the duration of a revolution and the start angle resets to 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atmosphere import FogCondition, SensorCalibration, effective_range
from .gaze import TAU
from .scene import Scene, cast_rays


class ScanSegment(NamedTuple):
    """One arc of the revolution with its emitted power and spin rate."""

    start: float
    end: float
    power: float
    spin_rate: float


@dataclass(frozen=True)
class ScanPlan:
    """Ordered arcs partitioning [0, tau) plus the conserved revolution period.

    revolution_period is stored rather than derived so that every plan built
    for the same head frequency shares it exactly.
    """

    segments: tuple[ScanSegment, ...]
    revolution_period: float
    pulse_rate: float

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("plan needs at least one segment")
        if self.pulse_rate <= 0.0:
            raise ValueError("pulse_rate must be positive")
        if self.revolution_period <= 0.0:
            raise ValueError("revolution_period must be positive")
        cursor = 0.0
        duration = 0.0
        for seg in self.segments:
            if abs(seg.start - cursor) > 1e-9:
                raise ValueError(f"segment starts at {seg.start}, expected {cursor}")
            if seg.end <= seg.start:
                raise ValueError("segment must have positive width")
            if seg.power <= 0.0 or seg.spin_rate <= 0.0:
                raise ValueError("segment power and spin rate must be positive")
            duration += (seg.end - seg.start) / seg.spin_rate
            cursor = seg.end
        if abs(cursor - TAU) > 1e-9:
            raise ValueError("segments must cover the full circle")
        if abs(duration - self.revolution_period) > 1e-9 * self.revolution_period:
            raise ValueError("segment sweep times do not add up to the revolution period")

    @property
    def rays_per_revolution(self) -> int:
        return int(math.floor(self.pulse_rate * self.revolution_period))


def pulse_directions(plan: ScanPlan) -> tuple[np.ndarray, np.ndarray]:
    """Exact firing angles for one revolution and their segment indices.

    The head position is integrated exactly through the piecewise-constant
    spin profile, so pulse k fires at the true angle for time k / pulse_rate.
    """
    starts = np.array([s.start for s in plan.segments])
    spins = np.array([s.spin_rate for s in plan.segments])
    widths = np.array([s.end - s.start for s in plan.segments])
    entry_times = np.concatenate(([0.0], np.cumsum(widths / spins)[:-1]))
    t = np.arange(plan.rays_per_revolution) / plan.pulse_rate
    idx = np.searchsorted(entry_times, t, side="right") - 1
    idx = np.clip(idx, 0, len(plan.segments) - 1)
    angles = starts[idx] + spins[idx] * (t - entry_times[idx])
    return angles, idx


# One record per return: firing angle (rad), range (m), obstacle id.
RETURN_DTYPE = np.dtype([("angle", np.float64), ("range_m", np.float64), ("hit_id", np.int64)])


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Returns from one revolution, plus per-arc ray accounting.

    returns is a structured array of RETURN_DTYPE in firing order. Two
    clouds are equal when every field, returns included, is equal.
    """

    frame_time: float
    returns: np.ndarray
    rays_fired: int
    rays_per_arc: dict[tuple[float, float], int]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (self.frame_time == other.frame_time
                and self.rays_fired == other.rays_fired
                and self.rays_per_arc == other.rays_per_arc
                and self.returns.dtype == other.returns.dtype
                and np.array_equal(self.returns, other.returns))


class RevolutionSetup(NamedTuple):
    """Per-pulse firing angles, segment indices, fog-limited max ranges and
    the cast of the scene's static layer.

    These depend only on the plan, the fog, the calibration and the static
    boxes, so a run computes them once per gaze state and reuses them every
    frame. static_ranges and static_ids are cast_rays' result for the static
    boxes (all misses, nan and -1, when there are none); each frame casts
    only the moving boxes and merges the two layers per ray. The arrays are
    read-only because they are shared between frames.
    """

    angles: np.ndarray
    seg_idx: np.ndarray
    max_ranges: np.ndarray
    static_ranges: np.ndarray
    static_ids: np.ndarray


def revolution_setup(plan: ScanPlan, fog: FogCondition, cal: SensorCalibration,
                     static_scene: Scene | None = None) -> RevolutionSetup:
    """Pulse directions, each pulse's effective range and the static cast.

    effective_range runs once per distinct segment power. The boxes of
    static_scene are cast from its ego position once, here; scan_revolution
    must then be given a scene that holds the other boxes.
    """
    angles, seg_idx = pulse_directions(plan)
    seg_ranges = {}
    for seg in plan.segments:
        if seg.power not in seg_ranges:
            seg_ranges[seg.power] = effective_range(seg.power, fog, cal)
    max_ranges = np.array([seg_ranges[seg.power] for seg in plan.segments])[seg_idx]
    if static_scene is None:
        static_ranges = np.full(len(angles), np.nan)
        static_ids = np.full(len(angles), -1, dtype=np.int64)
    else:
        static_ranges, static_ids = cast_rays(static_scene, static_scene.ego_position,
                                              angles, max_ranges)
    setup = RevolutionSetup(angles, seg_idx, max_ranges, static_ranges, static_ids)
    for array in setup:
        array.flags.writeable = False
    return setup


def _merge_layers(ranges: np.ndarray, hit_ids: np.ndarray, setup: RevolutionSetup):
    """Per ray, the nearer of the frame's cast and the static cast.

    A ray takes the static cast's result when the frame's cast missed, is
    farther, or is as far with a larger id: the smaller-id tie rule of
    cast_rays. A static miss (nan, -1) never compares true, so it is taken
    only over a miss.
    """
    static_r = setup.static_ranges
    static_id = setup.static_ids
    take = (hit_ids < 0) | (static_r < ranges) | ((static_r == ranges) & (static_id < hit_ids))
    return np.where(take, static_r, ranges), np.where(take, static_id, hit_ids)


def scan_revolution(scene: Scene, plan: ScanPlan, fog: FogCondition,
                    cal: SensorCalibration, start_time: float,
                    dropout: bool = False, rng=None,
                    setup: RevolutionSetup | None = None) -> PointCloud:
    """Sweep one revolution over a frozen scene.

    Each pulse is range-limited by the effective range of its segment's
    emitted power under the given fog. With dropout enabled, a hit survives
    with probability exp(-sigma r); one uniform is drawn per pulse so the
    draw order does not depend on the hit pattern. `setup` must be
    revolution_setup(plan, fog, cal, static_scene) when given, with `scene`
    holding the boxes that static_scene does not; it is computed otherwise,
    without a static layer.
    """
    if setup is None:
        setup = revolution_setup(plan, fog, cal)
    angles, seg_idx, max_ranges = setup[:3]
    ranges, hit_ids = _merge_layers(*cast_rays(scene, scene.ego_position, angles, max_ranges),
                                    setup)

    hit = hit_ids >= 0
    if dropout and fog.sigma > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        survival = np.exp(-fog.sigma * np.where(hit, ranges, 0.0))
        drop = rng.random(len(angles)) >= survival
        hit &= ~drop

    returns = np.empty(np.count_nonzero(hit), dtype=RETURN_DTYPE)
    returns["angle"] = angles[hit]
    returns["range_m"] = ranges[hit]
    returns["hit_id"] = hit_ids[hit]
    counts = np.bincount(seg_idx, minlength=len(plan.segments))
    rays_per_arc = {(seg.start, seg.end): int(counts[i]) for i, seg in enumerate(plan.segments)}
    return PointCloud(start_time, returns, len(angles), rays_per_arc)

