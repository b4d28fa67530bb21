"""Detection decision, time-to-arrival, and RoI density."""
from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gazelidar import runner
from gazelidar.atmosphere import FogCondition, SensorCalibration
from gazelidar.gaze import (AcuityFunction, ArcSet, GazeState, GazeTrace, compute_rof,
                            compute_roi)
from gazelidar.lidar import (RETURN_DTYPE, FrameRun, PointCloud, ScanPlan, ScanSegment,
                             revolution_setup, scan_frames, scan_revolution)
from gazelidar.metrics import SAMPLE_DTYPE, density, detect, first_detection, roi_densities
from gazelidar.policy import VariantConfig, build_scan_plan
from gazelidar.runner import run_single
from gazelidar.scene import ObstacleBox, Scene, Vec2, advance, edges_at
from helpers import EMPTY_SCENE, make_enclosing_scene
from oracles import dense_scan_frames

TAU = math.tau


def _cloud(*returns):
    """A cloud of (angle, range_m, hit_id) returns."""
    return PointCloud(0.0, np.array(list(returns), dtype=RETURN_DTYPE), 390, {(0.0, TAU): 390})


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


class TestDensity:
    def test_counts_only_returns_inside_the_region(self):
        roi = ArcSet.from_arc(0.0, math.pi)
        cloud = _cloud((0.5, 40.0, 1), (1.0, 45.0, 2),
                       (2.0, 50.0, 3), (4.0, 55.0, 4),
                       (5.0, 60.0, 5))
        sample = density(cloud, roi)
        assert sample.dtype == SAMPLE_DTYPE
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
        sample = density(cloud, roi)
        assert type(sample.tolist()[0]) is int and sample.points_in_roi == count
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
    """scan_frames counts a chunk's returns through the per-pulse RoI flags of
    its setup; the count equals mapping the returns' angles into the RoI."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_flag_count_equals_the_mapped_angle_count(self, data):
        plan = data.draw(st.sampled_from(PLANS))
        angles = revolution_setup(plan, (FOG,), CAL, EMPTY_SCENE).angles
        roi = data.draw(_roi_on(angles))
        assume(not roi.is_empty())
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        scene = make_enclosing_scene()
        setup = revolution_setup(plan, (FOG,), CAL, EMPTY_SCENE, roi)
        times = (0.0, 0.05, 0.1)
        edges = edges_at(scene, times)
        _, rois = scan_frames(*edges, scene.ego_position, setup, 1,
                              [FrameRun(0, True, np.random.default_rng(seed))])
        [samples] = roi_densities(rois, roi)
        assert samples.dtype == SAMPLE_DTYPE and samples.shape == (3,)
        _, _, hit = dense_scan_frames(*edges, scene.ego_position, setup,
                                      [FrameRun(0, True, np.random.default_rng(seed))])
        for k, sample in enumerate(samples):
            expected = int(np.count_nonzero(roi.contains_many(setup.angles[hit[k]])))
            assert sample.points_in_roi == expected
            assert sample.density == expected / math.degrees(roi.width)
        # the one-frame density of the first frame's cloud maps its angles
        cloud = scan_revolution(scene, plan, FOG, CAL, 0.0, dropout=True,
                                rng=np.random.default_rng(seed))
        assert density(cloud, roi) == samples[0]

    def test_flags_built_for_another_roi_are_not_counted(self, default_config):
        plan = PLANS[1]
        built_for = ArcSet.from_arc(0.0, math.pi)
        scene = make_enclosing_scene()
        edges = edges_at(scene, (0.0,))

        def counted(roi):
            """The RoI returns of scan_frames on a setup whose flags are built for roi."""
            setup = revolution_setup(plan, (FOG,), CAL, EMPTY_SCENE, roi)
            _, rois = scan_frames(*edges, scene.ego_position, setup, 1, [FrameRun(0)])
            return roi_densities(rois, roi)[0][0].points_in_roi
        cloud = scan_revolution(scene, plan, FOG, CAL, 0.0)
        assert counted(built_for) == int(
            np.count_nonzero(built_for.contains_many(cloud.returns["angle"])))
        for other in (built_for.complement(), ArcSet.from_arc(1.5 * math.pi, 0.5 * math.pi),
                      ArcSet(built_for.arcs)):
            expected = int(np.count_nonzero(other.contains_many(cloud.returns["angle"])))
            assert expected < len(cloud.returns)
            assert density(cloud, other).points_in_roi == expected
            assert counted(other) == expected
        # a run keeps each gaze state's RoI beside the setup whose flags are built for it
        left = default_config.gaze_trace.states[0]
        config = dataclasses.replace(default_config, max_sim_time=0.2, gaze_trace=GazeTrace(
            (0.0, 0.1), (left, GazeState(math.radians(45.0), left.eta))))
        built, scanned, densities = [], [], []

        def building(plan, fogs, cal, static, roi):
            built.append((roi, revolution_setup(plan, fogs, cal, static, roi)))
            return built[-1][1]

        def scanning(edges, edge_ids, origin, setup, *args):
            scanned.append(setup)
            return scan_frames(edges, edge_ids, origin, setup, *args)

        def counting(rois, roi):
            densities.append(roi)
            return roi_densities(rois, roi)
        with mock.patch.object(runner, "revolution_setup", building), \
                mock.patch.object(runner, "scan_frames", scanning), \
                mock.patch.object(runner, "roi_densities", counting):
            run_single(config, config.variants[3], 0.5, 1)
        assert len(built) == 2 and len(scanned) == len(densities) == 2
        for roi, setup in built:
            assert np.array_equal(setup.in_roi, roi.contains_many(setup.angles))
        # each state's densities count the flags built for its RoI
        assert [(id(setup), roi) for setup, roi in zip(scanned, densities)] == [
            (id(setup), roi) for roi, setup in built]

    def test_a_setup_without_an_roi_flags_no_pulse(self):
        setup = revolution_setup(PLANS[0], (FOG,), CAL, EMPTY_SCENE)
        assert not setup.in_roi.any()
        assert not setup.in_roi.flags.writeable
        assert setup.roi_hits.tolist() == [0]
        scene = make_enclosing_scene()
        edges = edges_at(scene, (0.0,))
        _, rois = scan_frames(*edges, scene.ego_position, setup, 1, [FrameRun(0)])
        _, _, hit = dense_scan_frames(*edges, scene.ego_position, setup, [FrameRun(0)])
        roi = ArcSet.from_arc(0.0, 1.0)
        assert hit.any() and roi_densities(rois, roi)[0][0].points_in_roi == 0
        cloud = scan_revolution(scene, PLANS[0], FOG, CAL, 0.0)
        assert density(cloud, roi).points_in_roi == int(
            np.count_nonzero(roi.contains_many(cloud.returns["angle"]))) > 0


# Ten times the shipped pulse rate, so that the target's return count grows
# by several pulses per frame as it closes in, dropout or not.
FINE_PLAN = ScanPlan((ScanSegment(0.0, TAU, 1.0, TAU * 20.0),), 0.05, 78125.0)
THIN_FOG = FogCondition(0.1, 0.0005)
TARGET = 1
# The target drives at the sensor from 40 m, past a static box and a crossing car.
APPROACH = Scene(Vec2(0.0, 0.0), (
    ObstacleBox(TARGET, Vec2(0.0, 40.0), -0.5 * math.pi, 2.5, 2.0, 10.0),
    ObstacleBox(2, Vec2(-30.0, 10.0), 0.3, 4.0, 1.5, 0.0),
    ObstacleBox(3, Vec2(30.0, -20.0), math.pi, 2.5, 1.0, 8.0)), Vec2(0.0, 5.0))


class TestChunkMetrics:
    """first_detection and roi_densities over a chunk of frames equal detect and
    density of each frame's scan_revolution cloud."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chunk_results_equal_per_frame_density_and_detect(self, data):
        angles = revolution_setup(FINE_PLAN, (THIN_FOG,), CAL, EMPTY_SCENE).angles
        roi = data.draw(_roi_on(angles))
        assume(not roi.is_empty())
        frames = data.draw(st.integers(1, 8))
        dropout = data.draw(st.booleans())
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        target = data.draw(st.sampled_from([TARGET, 2, 3, 99]))
        times = [0.5 * k for k in range(frames)]
        setup = revolution_setup(FINE_PLAN, (THIN_FOG,), CAL, EMPTY_SCENE, roi)
        targets, rois = scan_frames(*edges_at(APPROACH, times), APPROACH.ego_position, setup,
                                    target, [FrameRun(0, dropout, np.random.default_rng(seed))])
        rng = np.random.default_rng(seed)
        clouds = [scan_revolution(advance(APPROACH, t), FINE_PLAN, THIN_FOG, CAL, t,
                                  dropout=dropout, rng=rng) for t in times]
        assert roi_densities(rois, roi).tolist() == [[
            density(cloud, roi).tolist() for cloud in clouds]]

        counts = [int(np.count_nonzero(c.returns["hit_id"] == target)) for c in clouds]
        assert targets.tolist() == [counts]
        where = data.draw(st.sampled_from(["first", "middle", "last", "any"]))
        at = {"first": 0, "middle": frames // 2, "last": frames - 1}.get(where)
        if at is None:
            min_points = data.draw(st.integers(-1, max(counts) + 2))
        else:
            min_points = max(1, counts[at])
        if min_points < 1:
            for call in (lambda: first_detection(targets, min_points),
                         lambda: detect(clouds[0], target, min_points)):
                with pytest.raises(ValueError, match="min_points"):
                    call()
            return
        per_frame = next((k for k, cloud in enumerate(clouds)
                          if detect(cloud, target, min_points)), None)
        assert first_detection(targets, min_points) == [per_frame]
        if at is not None and target == TARGET:
            # the approaching target's count grows every frame, so the
            # threshold set from frame `at` detects first at `at`
            assert per_frame == at

    @pytest.mark.parametrize("min_points", [1, 40, 10 ** 6])
    def test_a_stack_of_runs_answers_per_run(self, min_points):
        # three runs of the approach from other start points, in one (3, K) stack
        roi = compute_roi(_ROF)
        setup = revolution_setup(FINE_PLAN, (THIN_FOG,), CAL, EMPTY_SCENE, roi)
        times = [0.1 * k for k in range(6)]
        starts = np.array([[(o.center.x, o.center.y + dy) for o in APPROACH.obstacles]
                           for dy in (0.0, 15.0, 60.0)])
        targets, rois = scan_frames(*edges_at(APPROACH, times, starts), APPROACH.ego_position,
                                    setup, TARGET, [FrameRun(0)] * 3)
        assert targets.shape == rois.shape == (3, len(times))
        firsts = first_detection(targets, min_points)
        assert firsts == [first_detection(targets[s:s + 1], min_points)[0] for s in range(3)]
        assert roi_densities(rois, roi).tolist() == [
            roi_densities(rois[s:s + 1], roi)[0].tolist() for s in range(3)]
        if min_points == 40:
            assert None in firsts and len(set(firsts)) > 1
