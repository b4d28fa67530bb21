"""Detection decision and the two figures of merit: time-to-arrival at the
conflict point and angular point density inside the region of interest."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaze import ArcSet
from .lidar import PointCloud


@dataclass(frozen=True)
class DetectionEvent:
    frame_index: int
    time: float
    target_id: int
    target_distance_to_conflict: float


@dataclass(frozen=True)
class DensitySample:
    frame_index: int
    points_in_roi: int
    roi_width_deg: float
    density: float


def detect(cloud: PointCloud, target_id: int, min_points: int = 1) -> bool:
    """Whether the cloud carries at least min_points returns off the target."""
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    return int(np.count_nonzero(cloud.returns["hit_id"] == target_id)) >= min_points


def tta_at_detection(event: DetectionEvent, target_speed: float) -> float:
    """Seconds until the target reaches the conflict point at its speed."""
    if target_speed <= 0.0:
        raise ValueError("target_speed must be positive")
    return event.target_distance_to_conflict / target_speed


def density(cloud: PointCloud, roi: ArcSet, frame_index: int = 0) -> DensitySample:
    """Returns per degree inside the region of interest for one frame.

    A cloud whose RoI flags were built for this roi, which its bounds array
    identifies, is counted through them; otherwise, an equal but distinct
    ArcSet included, every return's angle is mapped into the roi.
    """
    if roi.is_empty():
        raise ValueError("roi must have positive width")
    if cloud.roi_bounds is roi.bounds:
        count = int(np.count_nonzero(cloud.in_roi))
    else:
        count = int(np.count_nonzero(roi.contains_many(cloud.returns["angle"])))
    width_deg = math.degrees(roi.width)
    return DensitySample(frame_index, count, width_deg, count / width_deg)
