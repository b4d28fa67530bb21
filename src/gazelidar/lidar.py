"""Spinning 2D LiDAR scan engine.

A revolution fires pulses at a fixed rate while the head sweeps the circle
at the piecewise-constant spin rate prescribed by a ScanPlan. The scene is
frozen for the duration of a revolution and the start angle resets to 0.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atmosphere import FogCondition, SensorCalibration, effective_range
from .gaze import TAU, ArcSet
from .scene import Scene, Vec2, cast_edges, cast_rays, ray_fan


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
        # every check is written so that a NaN fails it
        if not self.segments:
            raise ValueError("plan needs at least one segment")
        if not 0.0 < self.pulse_rate < math.inf:
            raise ValueError("pulse_rate must be positive and finite")
        if not 0.0 < self.revolution_period < math.inf:
            raise ValueError("revolution_period must be positive and finite")
        cursor = 0.0
        duration = 0.0
        for seg in self.segments:
            if not abs(seg.start - cursor) <= 1e-9:
                raise ValueError(f"segment starts at {seg.start}, expected {cursor}")
            if not seg.end > seg.start:
                raise ValueError("segment must have positive width")
            if not (0.0 < seg.power < math.inf and 0.0 < seg.spin_rate < math.inf):
                raise ValueError("segment power and spin rate must be positive and finite")
            duration += (seg.end - seg.start) / seg.spin_rate
            cursor = seg.end
        if not abs(cursor - TAU) <= 1e-9:
            raise ValueError("segments must cover the full circle")
        if not abs(duration - self.revolution_period) <= 1e-9 * self.revolution_period:
            raise ValueError("segment sweep times do not add up to the revolution period")

    @property
    def pulses_per_revolution(self) -> float:
        return self.pulse_rate * self.revolution_period

    @property
    def rays_per_revolution(self) -> int:
        return int(math.floor(self.pulses_per_revolution))


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

    returns is a structured array of RETURN_DTYPE in firing order;
    segment_rays[i] is the number of pulses fired in segments[i]. Two
    clouds are equal when every field, returns included, is equal.
    """

    frame_time: float
    returns: np.ndarray
    rays_fired: int
    segments: tuple[ScanSegment, ...]
    segment_rays: np.ndarray | tuple[int, ...]

    @property
    def rays_per_arc(self) -> dict[tuple[float, float], int]:
        """Pulses fired per plan arc, keyed by (start, end)."""
        return {(seg.start, seg.end): int(count)
                for seg, count in zip(self.segments, self.segment_rays)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (self.frame_time == other.frame_time
                and self.rays_fired == other.rays_fired
                and self.rays_per_arc == other.rays_per_arc
                and self.returns.dtype == other.returns.dtype
                and np.array_equal(self.returns, other.returns))


class RevolutionSetup(NamedTuple):
    """Everything about one revolution that does not depend on the moving boxes.

    Per pulse: firing angle, segment index, the fog-limited max range under
    each fog given to revolution_setup (max_ranges is (F, n), row f for fog
    f), and the cast of the scene's static layer at any range
    (static_ranges and static_ids, nan and -1 where it misses), the layer
    each frame's cast_edges starts from. cos, sin, key and order are
    scene.ray_fan of the angles, which every cast of them reuses; key and
    order hold 2n entries. in_roi is roi.contains_many(angles) for the RoI
    given to revolution_setup, all false without one; metrics.roi_densities
    counts it. Only max_ranges depends on the fog; the rest depends on the
    plan, the static boxes and the RoI, so a sweep computes a setup once per
    gaze state of a variant, for all of its fogs, and reuses it, through
    scan_frames, every frame of every run. The arrays are read-only because
    they are shared between frames.
    """

    angles: np.ndarray
    seg_idx: np.ndarray
    max_ranges: np.ndarray
    static_ranges: np.ndarray
    static_ids: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    key: np.ndarray
    order: np.ndarray
    in_roi: np.ndarray


def revolution_setup(plan: ScanPlan, fogs: Sequence[FogCondition], cal: SensorCalibration,
                     static_scene: Scene, roi: ArcSet = ArcSet.empty()) -> RevolutionSetup:
    """Pulse directions, each pulse's effective range per fog, the static cast and the RoI flags.

    max_ranges gets one row per fog of `fogs`, and effective_range runs once
    per fog and distinct segment power. The boxes of static_scene are cast
    from its ego position once, here, at any range; scan_frames must then be
    given the other boxes.
    """
    angles, seg_idx = pulse_directions(plan)
    powers = list(dict.fromkeys(seg.power for seg in plan.segments))
    seg_power = np.array([powers.index(seg.power) for seg in plan.segments])[seg_idx]
    max_ranges = np.array([[effective_range(power, fog, cal) for power in powers]
                           for fog in fogs])[:, seg_power]
    fan = ray_fan(angles)
    static_ranges, static_ids = cast_rays(static_scene, static_scene.ego_position,
                                          angles, math.inf, fan)
    setup = RevolutionSetup(angles, seg_idx, max_ranges, static_ranges, static_ids, *fan,
                            roi.contains_many(angles))
    for array in setup:
        array.flags.writeable = False
    return setup


class FrameRun(NamedTuple):
    """One run's block of a scan_frames call: the row of setup.max_ranges that
    limits its pulses, its dropout coefficient and its generator. A run with
    sigma 0 draws nothing, and its rng may be None."""

    row: int
    sigma: float = 0.0
    rng: np.random.Generator | None = None


def scan_frames(edges: np.ndarray, edge_ids: np.ndarray, origin: Vec2, setup: RevolutionSetup,
                runs: list[FrameRun]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K revolutions under one setup, each over its own frame of edges, in one pass.

    edges and edge_ids are as cast_edges takes them: a (K, E, 4) array and
    the obstacle id of each of the E rows. Each frame's cast starts from
    the setup's static cast. The K frames are S runs' equal blocks of
    frames, one FrameRun of the list `runs` each: a hit counts where its range is at most the
    max range of its pulse in the run's row, and with sigma > 0 it survives
    with probability exp(-sigma r), against one uniform per pulse in frame
    order. A run draws its block's uniforms at once, the stream its
    one-frame calls would draw. Returns (ranges, hit_ids, hit) as (K, n)
    arrays: ranges and hit_ids of the cast at any range, nan and -1 on a
    miss, and hit marking the hits within range that survive.
    """
    drawing = [s for s, run in enumerate(runs) if run.sigma > 0.0]
    if any(runs[s].rng is None for s in drawing):
        raise ValueError("dropout requires an rng")
    fan = (setup.cos, setup.sin, setup.key, setup.order)
    ranges, hit_ids = cast_edges(edges, edge_ids, origin, fan,
                                 (setup.static_ranges, setup.static_ids))
    blocks = ranges.reshape(len(runs), -1, ranges.shape[1])
    # a miss's nan range compares false
    hit = blocks <= setup.max_ranges[[run.row for run in runs]][:, None]
    if drawing:
        # a view when every run draws, else a copy of the drawing runs' blocks
        part = slice(None) if len(drawing) == len(runs) else drawing
        survival = np.where(hit[part], blocks[part], 0.0)
        survival *= np.array([-runs[s].sigma for s in drawing])[:, None, None]
        np.exp(survival, out=survival)
        draws = np.empty(survival.shape)
        for s, block in zip(drawing, draws):
            runs[s].rng.random(out=block)
        hit[part] &= draws < survival
    return ranges, hit_ids, hit.reshape(ranges.shape)


def scan_revolution(scene: Scene, plan: ScanPlan, fog: FogCondition,
                    cal: SensorCalibration, start_time: float,
                    dropout: bool = False, rng=None) -> PointCloud:
    """Sweep one revolution over a frozen scene: a one-frame scan_frames.

    Every box stands still for the revolution, so the whole scene is the
    setup's static layer and the frame itself has no edges. Each pulse is
    range-limited by the effective range of its segment's emitted power
    under the given fog. With dropout enabled, a hit survives with
    probability exp(-sigma r); one uniform is drawn per pulse so the draw
    order does not depend on the hit pattern.
    """
    setup = revolution_setup(plan, (fog,), cal, scene)
    ranges, hit_ids, hit = (rows[0] for rows in scan_frames(
        np.empty((1, 0, 4)), np.empty(0, dtype=np.int64), scene.ego_position, setup,
        [FrameRun(0, fog.sigma if dropout else 0.0, rng)]))
    returns = np.empty(np.count_nonzero(hit), dtype=RETURN_DTYPE)
    returns["angle"] = setup.angles[hit]
    returns["range_m"] = ranges[hit]
    returns["hit_id"] = hit_ids[hit]
    return PointCloud(start_time, returns, len(setup.angles), plan.segments,
                      np.bincount(setup.seg_idx, minlength=len(plan.segments)))
