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
    rays_per_arc maps each plan arc, keyed by (start, end), to the pulses
    fired in it. Two clouds are equal when every field, returns included,
    is equal.
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
    """Everything about one revolution that does not depend on the moving boxes.

    Per pulse: firing angle, segment index, and the cast of the scene's
    static layer at any range (static_ranges and static_ids, nan and -1
    where it misses), the layer each frame's cast_edges starts from. cos,
    sin, key and order are scene.ray_fan of the angles, which every cast of
    them reuses; key and order hold 2n entries. in_roi is
    roi.contains_many(angles) for the RoI given to revolution_setup, all
    false without one.

    The rest holds one C-ordered row per fog given to revolution_setup, row
    f for fog f, and is derived by with_limits: max_ranges (F, n), each
    pulse's fog-limited max range; sigmas (F,), each fog's dropout
    coefficient; static_hit (F, n), whether the static layer's hit lies
    within the max range; survival (F, n), the chance exp(range * -sigma)
    that such a hit survives dropout, 0 where there is none; and roi_hits
    (F,), the static hits inside the RoI, which a frame corrects only where
    a mover reaches a pulse. None of it depends on a frame, so a sweep
    computes a setup once per gaze state of a variant, for all of its fogs,
    and reuses it, through scan_frames, every frame of every run. The arrays
    are read-only because they are shared between frames.
    """

    angles: np.ndarray
    seg_idx: np.ndarray
    static_ranges: np.ndarray
    static_ids: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    key: np.ndarray
    order: np.ndarray
    in_roi: np.ndarray
    max_ranges: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    static_hit: np.ndarray | None = None
    survival: np.ndarray | None = None
    roi_hits: np.ndarray | None = None


def with_limits(setup: RevolutionSetup, max_ranges: np.ndarray,
                sigmas: np.ndarray) -> RevolutionSetup:
    """setup with its fog rows set from max_ranges (F, n) and sigmas (F,), all read-only.

    Both are copied, max_ranges in C order, so that every setup's rows are
    C-ordered, whoever builds them, and the caller's arrays stay writable. A
    static hit counts where its range is at most the max range of its pulse,
    so a nan limit misses, and survives dropout with probability
    exp(range * -sigma): a uniform draw below it keeps the hit.
    """
    max_ranges, sigmas = np.array(max_ranges, order="C"), np.array(sigmas)
    static_hit = setup.static_ranges <= max_ranges   # a miss's nan compares false
    survival = np.exp(np.where(static_hit, setup.static_ranges, 0.0) * -sigmas[:, None])
    survival[~static_hit] = 0.0   # a draw in [0, 1) is never below 0
    limited = setup._replace(max_ranges=max_ranges, sigmas=sigmas, static_hit=static_hit,
                             survival=survival,
                             roi_hits=np.count_nonzero(static_hit & setup.in_roi, axis=1))
    for array in limited:
        array.flags.writeable = False
    return limited


def revolution_setup(plan: ScanPlan, fogs: Sequence[FogCondition], cal: SensorCalibration,
                     static_scene: Scene, roi: ArcSet = ArcSet.empty()) -> RevolutionSetup:
    """Pulse directions, the static cast, the RoI flags and each fog's rows of them.

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
    setup = RevolutionSetup(angles, seg_idx, static_ranges, static_ids, *fan,
                            roi.contains_many(angles))
    return with_limits(setup, max_ranges, np.array([fog.sigma for fog in fogs]))


class FrameRun(NamedTuple):
    """One run's block of a scan_frames call: the fog row of the setup that
    limits its pulses, and its generator, which the caller hands over only to
    a run that drops out: a run draws exactly when it carries one."""

    row: int
    rng: np.random.Generator | None = None


def scan_frames(edges: np.ndarray, edge_ids: np.ndarray, origin: Vec2, setup: RevolutionSetup,
                target_id: int, runs: list[FrameRun]) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame return counts of K revolutions under one setup, each over its own frame of edges.

    edges and edge_ids are as cast_edges takes them: a (K, E, 4) array and
    the obstacle id of each of the E rows. The K frames are S runs' equal
    blocks of k frames, one FrameRun of the list `runs` each. A pulse
    returns where the nearest hit over the setup's static layer and the
    frame's edges lies within the max range of its pulse in the run's row,
    and, for a run with a generator, survives dropout: with probability
    exp(-sigma r), against one uniform per pulse in frame order. Such a run
    draws its block's k * n uniforms at once, whatever its hits and fog, in
    run order: the stream its one-frame calls would draw. Returns (targets,
    rois), (S, k) arrays: each frame's returns off obstacle target_id and
    inside the setup's RoI.

    The target must be one of the edges' boxes, a mover: a target_id that
    the setup's static layer hits is refused with a ValueError, since its
    static returns are not counted. Each frame's RoI count starts from the
    setup's static count of the run's row, or, for a run with a generator,
    from its uniforms compared with the row's survival. cast_edges gives the few
    slots where a mover reaches a pulse at or nearer than the static layer;
    only there is a static return taken away and the mover's put in its
    place, and only there can the target return.
    """
    if np.any(setup.static_ids == target_id):
        raise ValueError(f"target {target_id} is in the setup's static layer; it must be a mover")
    n = setup.angles.shape[0]
    k = edges.shape[0] // len(runs)
    rows = np.array([run.row for run in runs], dtype=np.intp)
    drawing = [s for s, run in enumerate(runs) if run.rng is not None]
    rois = np.repeat(setup.roi_hits[rows], k).reshape(len(runs), k)

    fan = (setup.cos, setup.sin, setup.key, setup.order)
    slots, ranges, hit_ids = cast_edges(edges, edge_ids, origin, fan,
                                        (setup.static_ranges, setup.static_ids))
    frame, ray = np.divmod(slots, n)
    run = frame // k
    row = rows[run]
    was = setup.static_hit[row, ray]
    now = ranges <= setup.max_ranges[row, ray]
    if drawing:
        draws = np.empty((len(drawing), k, n))
        for s, block in zip(drawing, draws):
            runs[s].rng.random(out=block)
        survival = setup.survival[rows[drawing]][:, None]
        rois[drawing] = np.count_nonzero(draws < survival * setup.in_roi, axis=-1)
        # each slot's uniform, at its frame and ray of its run's block of draws
        block = np.full(len(runs), -1)
        block[drawing] = np.arange(len(drawing))
        drawn = block[run] >= 0
        draw = draws.reshape(-1)[slots[drawn] + (block[run[drawn]] - run[drawn]) * (k * n)]
        drawn_row, drawn_ray = row[drawn], ray[drawn]
        was[drawn] = draw < setup.survival[drawn_row, drawn_ray]
        now[drawn] &= draw < np.exp(ranges[drawn] * -setup.sigmas[drawn_row])
    frames = len(runs) * k
    targets = np.bincount(frame[now & (hit_ids == target_id)], minlength=frames)
    # take each slot's static return away and put the mover's in its place
    in_roi = setup.in_roi[ray]
    rois += (np.bincount(frame[now & in_roi], minlength=frames)
             - np.bincount(frame[was & in_roi], minlength=frames)).reshape(rois.shape)
    return targets.reshape(rois.shape), rois


def scan_revolution(scene: Scene, plan: ScanPlan, fog: FogCondition,
                    cal: SensorCalibration, start_time: float, rng=None) -> PointCloud:
    """Sweep one revolution over a frozen scene: the static layer of its setup.

    Every box stands still for the revolution, so the whole scene is the
    setup's static layer and no pulse needs a frame of moving edges. Each
    pulse is range-limited by the effective range of its segment's emitted
    power under the given fog. Given a generator rng, a hit survives fog
    dropout with probability exp(-sigma r), against one uniform per pulse
    whatever the hits and fog: the draws a one-frame scan_frames makes.
    """
    setup = revolution_setup(plan, (fog,), cal, scene)
    hit = setup.static_hit[0] if rng is None else rng.random(len(setup.angles)) < setup.survival[0]
    returns = np.empty(np.count_nonzero(hit), dtype=RETURN_DTYPE)
    returns["angle"] = setup.angles[hit]
    returns["range_m"] = setup.static_ranges[hit]
    returns["hit_id"] = setup.static_ids[hit]
    counts = np.bincount(setup.seg_idx, minlength=len(plan.segments)).tolist()
    return PointCloud(start_time, returns, len(setup.angles),
                      {(seg.start, seg.end): count for seg, count in zip(plan.segments, counts)})
