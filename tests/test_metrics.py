"""Detection decision, time-to-arrival, and RoI density."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gazelidar.atmosphere import FogCondition, SensorCalibration
from gazelidar.gaze import AcuityFunction, ArcSet, GazeState, compute_rof, compute_roi
from gazelidar.lidar import (RETURN_DTYPE, PointCloud, ScanPlan, ScanSegment, revolution_setup,
                             scan_frames, scan_revolution)
from gazelidar.metrics import DetectionEvent, density, detect, tta_at_detection
from gazelidar.policy import VariantConfig, build_scan_plan
from gazelidar.scene import edges_at
from helpers import make_enclosing_scene

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


CAL = SensorCalibration(1.0, 100.0)
FOG = FogCondition(0.5, 0.005)
# A one-segment plan and a plan whose two spin rates space the pulses unevenly.
_ROF = compute_rof(GazeState(math.radians(135.4308), 0.5),
                   AcuityFunction.boxcar(math.radians(30.0)))
PLANS = (ScanPlan((ScanSegment(0.0, TAU, 1.0, TAU * 20.0),), 0.05, 7812.5),
         build_scan_plan(VariantConfig("range_and_resolution", 0.2, 2.0), _ROF,
                         compute_roi(_ROF), CAL, TAU * 20.0, 7812.5))


@st.composite
def _roi_on(draw, angles):
    """An RoI whose arcs end on pulse angles, one ulp wide, or anywhere; may wrap."""
    pulse = st.sampled_from(angles.tolist())
    kind = draw(st.sampled_from(["on_pulses", "one_ulp", "floats"]))
    if kind == "on_pulses":
        return ArcSet.from_arc(draw(pulse), draw(pulse))
    if kind == "one_ulp":
        start = draw(pulse)
        return ArcSet.from_arc(start, math.nextafter(start, math.inf))
    return ArcSet.from_arc(draw(st.floats(0.0, TAU)), draw(st.floats(0.0, TAU)))


class TestRoiFlags:
    """density counts a cloud's per-return RoI flags in place of mapping its
    angles only when the flags were built for the RoI it is asked about."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_flag_count_equals_the_mapped_angle_count(self, data):
        plan = data.draw(st.sampled_from(PLANS))
        angles = revolution_setup(plan, FOG, CAL).angles
        roi = data.draw(_roi_on(angles))
        assume(not roi.is_empty())
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        scene = make_enclosing_scene()
        setup = revolution_setup(plan, FOG, CAL, roi=roi)
        times = (0.0, 0.05, 0.1)
        chunk = scan_frames(*edges_at(scene, times), scene.ego_position, setup, FOG.sigma,
                            np.random.default_rng(seed))
        clouds = [scan_revolution(scene, plan, FOG, CAL, t, setup=setup,
                                  swept=[rows[k] for rows in chunk])
                  for k, t in enumerate(times)]
        clouds.append(scan_revolution(scene, plan, FOG, CAL, 0.0, dropout=True,
                                      rng=np.random.default_rng(seed), setup=setup))
        for cloud in clouds:
            assert cloud.roi_bounds is roi.bounds
            expected = int(np.count_nonzero(roi.contains_many(cloud.returns["angle"])))
            sample = density(cloud, roi, frame_index=2)
            assert sample.points_in_roi == expected
            assert sample == density(dataclasses.replace(cloud, roi_bounds=None, in_roi=None),
                                     roi, frame_index=2)

    def test_flags_built_for_another_roi_are_not_counted(self):
        plan = PLANS[1]
        built_for = ArcSet.from_arc(0.0, math.pi)
        setup = revolution_setup(plan, FOG, CAL, roi=built_for)
        cloud = scan_revolution(make_enclosing_scene(), plan, FOG, CAL, 0.0, setup=setup)
        # every flag set: a count that read them would give every return
        cloud = dataclasses.replace(cloud, in_roi=np.ones(len(cloud.returns), dtype=bool))
        assert density(cloud, built_for).points_in_roi == len(cloud.returns)
        for other in (built_for.complement(), ArcSet.from_arc(1.5 * math.pi, 0.5 * math.pi),
                      ArcSet(built_for.arcs)):
            expected = int(np.count_nonzero(other.contains_many(cloud.returns["angle"])))
            assert expected < len(cloud.returns)
            assert density(cloud, other).points_in_roi == expected

    def test_a_setup_without_an_roi_flags_no_pulse(self):
        setup = revolution_setup(PLANS[0], FOG, CAL)
        assert not setup.in_roi.any() and setup.roi_bounds.shape == (2, 0)
        assert not setup.in_roi.flags.writeable
        cloud = scan_revolution(make_enclosing_scene(), PLANS[0], FOG, CAL, 0.0, setup=setup)
        roi = ArcSet.from_arc(0.0, 1.0)
        assert density(cloud, roi).points_in_roi == int(
            np.count_nonzero(roi.contains_many(cloud.returns["angle"]))) > 0
