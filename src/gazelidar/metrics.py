"""Detection decision and the two figures of merit: time-to-arrival at the
conflict point and angular point density inside the region of interest. Each
rule reads an (S, K, n) stack of hit ids and hit mask from lidar.scan_frames,
K frames of each of S runs, and answers per run."""
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


# One frame's RoI returns: the count, the RoI width in degrees and the count per
# degree. A run's samples are an array of these, row k for frame k. Rows are
# np.record, so s.density reads a field, without a recarray's slow column reads.
SAMPLE_DTYPE = np.dtype((np.record, [("points_in_roi", np.int64), ("roi_width_deg", np.float64),
                                     ("density", np.float64)]))


def first_detection(hit_ids, hit, target_id: int, min_points: int = 1) -> list[int | None]:
    """Each run's first frame with at least min_points returns off the target, else None."""
    if min_points < 1:
        raise ValueError("min_points must be at least 1")
    detected = np.count_nonzero(hit & (hit_ids == target_id), axis=-1) >= min_points
    first = np.where(detected.any(axis=-1), detected.argmax(axis=-1), -1)
    return [None if k < 0 else k for k in first.tolist()]


def roi_densities(hit, in_roi, roi: ArcSet) -> np.ndarray:
    """Each run's returns inside roi per degree and frame, an (S, K) array of
    SAMPLE_DTYPE; in_roi flags the pulses."""
    if roi.is_empty():
        raise ValueError("roi must have positive width")
    width_deg = math.degrees(roi.width)
    counts = np.count_nonzero(hit & in_roi, axis=-1)
    samples = np.empty(counts.shape, SAMPLE_DTYPE)
    samples["points_in_roi"] = counts
    samples["roi_width_deg"] = width_deg
    with np.errstate(over="ignore"):   # inf over a subnormal width, as a float division gives
        samples["density"] = counts / width_deg
    return samples


def detect(cloud: PointCloud, target_id: int, min_points: int = 1) -> bool:
    """Whether the cloud carries at least min_points returns off the target: a one-frame first_detection."""
    ids = cloud.returns["hit_id"][None, None]
    return first_detection(ids, np.ones(ids.shape, bool), target_id, min_points) == [0]


def tta_at_detection(event: DetectionEvent, target_speed: float) -> float:
    """Seconds until the target reaches the conflict point at its speed."""
    if target_speed <= 0.0:
        raise ValueError("target_speed must be positive")
    return event.target_distance_to_conflict / target_speed


def density(cloud: PointCloud, roi: ArcSet) -> np.record:
    """Returns per degree inside the region of interest for one frame: a one-frame
    roi_densities, one SAMPLE_DTYPE row."""
    in_roi = roi.contains_many(cloud.returns["angle"])
    return roi_densities(np.ones((1, 1, len(in_roi)), bool), in_roi, roi)[0, 0]
