"""Detection decision, time-to-arrival, and RoI density."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazelidar.gaze import ArcSet
from gazelidar.lidar import RETURN_DTYPE, PointCloud, ScanSegment
from gazelidar.metrics import DetectionEvent, density, detect, tta_at_detection

TAU = math.tau


def _cloud(*returns):
    """A cloud of (angle, range_m, hit_id) returns."""
    return PointCloud(0.0, np.array(list(returns), dtype=RETURN_DTYPE), 390,
                      (ScanSegment(0.0, TAU, 1.0, 1.0),), (390,))


class TestDetect:
    def test_needs_a_return_off_the_target(self):
        cloud = _cloud((0.1, 50.0, 3), (0.2, 60.0, 4))
        assert detect(cloud, 3)
        assert detect(cloud, 4)
        assert not detect(cloud, 5)

    def test_min_points_threshold(self):
        cloud = _cloud((0.1, 50.0, 3), (0.2, 51.0, 3),
                       (0.3, 60.0, 4))
        assert detect(cloud, 3, min_points=2)
        assert not detect(cloud, 4, min_points=2)
        assert not detect(cloud, 3, min_points=3)

    def test_rejects_non_positive_min_points(self):
        with pytest.raises(ValueError):
            detect(_cloud(), 3, min_points=0)

    def test_empty_cloud_never_detects(self):
        assert not detect(_cloud(), 3)


class TestTta:
    def test_distance_over_speed(self):
        event = DetectionEvent(0, 0.0, 1, 67.0)
        assert tta_at_detection(event, 13.88888888888889) == pytest.approx(
            4.824, rel=1e-12)

    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            tta_at_detection(DetectionEvent(0, 0.0, 1, 67.0), 0.0)


class TestDensity:
    def test_counts_only_returns_inside_the_region(self):
        roi = ArcSet.from_arc(0.0, math.pi)
        cloud = _cloud((0.5, 40.0, 1), (1.0, 45.0, 2),
                       (2.0, 50.0, 3), (4.0, 55.0, 4),
                       (5.0, 60.0, 5))
        sample = density(cloud, roi, frame_index=7)
        assert sample.frame_index == 7
        assert sample.points_in_roi == 3
        assert sample.roi_width_deg == pytest.approx(180.0, rel=1e-12)
        assert sample.density == pytest.approx(3.0 / 180.0, rel=1e-12)

    def test_wrapped_region(self):
        roi = ArcSet.from_arc(1.5 * math.pi, 0.5 * math.pi)
        cloud = _cloud((0.0, 40.0, 1), (math.pi, 45.0, 2))
        sample = density(cloud, roi)
        assert sample.points_in_roi == 1
        assert sample.roi_width_deg == pytest.approx(180.0, rel=1e-12)

    def test_rejects_an_empty_region(self):
        with pytest.raises(ValueError):
            density(_cloud(), ArcSet.empty())

    def test_zero_returns_give_zero_density(self):
        sample = density(_cloud(), ArcSet.full())
        assert sample.points_in_roi == 0
        assert sample.density == 0.0


returns_lists = st.lists(
    st.tuples(st.floats(-2.0 * TAU, 2.0 * TAU), st.floats(0.1, 200.0), st.integers(1, 6)),
    max_size=60)
arc_sets = st.lists(st.floats(0.0, TAU), max_size=8).map(
    lambda cuts: ArcSet(tuple(zip(*[iter(sorted(set(cuts)))] * 2))))


class TestVectorisedAgainstScalarLoops:
    @given(returns_lists, st.integers(1, 6), st.integers(1, 5))
    def test_detect_counts_like_a_loop_over_returns(self, returns, target, min_points):
        cloud = _cloud(*returns)
        loop = sum(1 for _, _, hit_id in returns if hit_id == target) >= min_points
        assert detect(cloud, target, min_points) is loop

    @given(returns_lists, arc_sets)
    def test_density_counts_like_scalar_contains(self, returns, roi):
        if roi.is_empty():
            roi = ArcSet.full()
        cloud = _cloud(*returns)
        count = sum(1 for angle, _, _ in returns if roi.contains(angle))
        sample = density(cloud, roi, frame_index=3)
        assert type(sample.points_in_roi) is int and sample.points_in_roi == count
        assert sample.density == count / math.degrees(roi.width)
