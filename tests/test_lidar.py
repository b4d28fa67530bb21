"""Scan plans, pulse scheduling, and revolution sweeps."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazelidar.atmosphere import FogCondition, SensorCalibration
from gazelidar.gaze import AcuityFunction, GazeState, compute_rof, compute_roi
from gazelidar.lidar import (RETURN_DTYPE, FrameRun, PointCloud, ScanPlan, ScanSegment,
                             pulse_directions, revolution_setup, scan_frames, scan_revolution)
from gazelidar.policy import VariantConfig, build_scan_plan
from gazelidar.scene import ObstacleBox, Scene, Vec2, advance, cast_rays, edges_at
from helpers import EMPTY_SCENE, make_enclosing_scene, make_random_scene
from oracles import dense_cast_rays, segment_at

TAU = math.tau
CAL = SensorCalibration(1.0, 100.0)
CLEAR = FogCondition(0.0, 0.0)
OMEGA = TAU * 20.0
PULSE_RATE = 7812.5
THETA = math.radians(135.4308)


def _plan_for(variant: VariantConfig) -> ScanPlan:
    rof = compute_rof(GazeState(THETA, 0.5), AcuityFunction.boxcar(math.radians(30.0)))
    return build_scan_plan(variant, rof, compute_roi(rof), CAL, OMEGA, PULSE_RATE)


def _walk_pulse_angles(plan: ScanPlan) -> np.ndarray:
    """Scalar re-derivation of the pulse angles, one segment walk per pulse."""
    entries = []
    t0 = 0.0
    for seg in plan.segments:
        entries.append(t0)
        t0 += (seg.end - seg.start) / seg.spin_rate
    out = []
    for k in range(plan.rays_per_revolution):
        t = k / plan.pulse_rate
        i = len(plan.segments) - 1
        while i > 0 and entries[i] > t:
            i -= 1
        seg = plan.segments[i]
        out.append(seg.start + seg.spin_rate * (t - entries[i]))
    return np.asarray(out)


class TestScanPlanValidation:
    def test_requires_contiguous_cover(self):
        with pytest.raises(ValueError, match="expected"):
            ScanPlan((ScanSegment(0.0, 1.0, 1.0, OMEGA),
                      ScanSegment(1.5, TAU, 1.0, OMEGA)), TAU / OMEGA, PULSE_RATE)
        with pytest.raises(ValueError, match="full circle"):
            ScanPlan((ScanSegment(0.0, 3.0, 1.0, OMEGA),), TAU / OMEGA, PULSE_RATE)

    def test_requires_positive_width_power_spin(self):
        with pytest.raises(ValueError):
            ScanPlan((ScanSegment(0.0, 0.0, 1.0, OMEGA),
                      ScanSegment(0.0, TAU, 1.0, OMEGA)), TAU / OMEGA, PULSE_RATE)
        with pytest.raises(ValueError):
            ScanPlan((ScanSegment(0.0, TAU, 0.0, OMEGA),), TAU / OMEGA, PULSE_RATE)
        with pytest.raises(ValueError):
            ScanPlan((ScanSegment(0.0, TAU, 1.0, 0.0),), TAU / OMEGA, PULSE_RATE)

    def test_requires_consistent_period(self):
        with pytest.raises(ValueError, match="period"):
            ScanPlan((ScanSegment(0.0, TAU, 1.0, OMEGA),), 2.0 * TAU / OMEGA,
                     PULSE_RATE)

    def test_requires_segments_and_positive_rates(self):
        with pytest.raises(ValueError):
            ScanPlan((), TAU / OMEGA, PULSE_RATE)
        with pytest.raises(ValueError):
            ScanPlan((ScanSegment(0.0, TAU, 1.0, OMEGA),), TAU / OMEGA, 0.0)

    @given(st.sampled_from(["start", "end", "power", "spin_rate", "revolution_period",
                            "pulse_rate"]),
           st.integers(0, 1), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_a_non_finite_field_is_refused(self, field, which, value):
        segments = [ScanSegment(0.0, math.pi, 1.0, OMEGA), ScanSegment(math.pi, TAU, 1.2, OMEGA)]
        plan = dict(revolution_period=TAU / OMEGA, pulse_rate=PULSE_RATE)
        ScanPlan(tuple(segments), **plan)
        if field in plan:
            plan[field] = value
        else:
            segments[which] = segments[which]._replace(**{field: value})
        with pytest.raises(ValueError):
            ScanPlan(tuple(segments), **plan)

    def test_lookup_at_segment_boundary_takes_the_next_segment(self):
        # at 1 rad/s and 4 pulses/s, pulse 4 fires exactly on the 1 rad boundary
        plan = ScanPlan((ScanSegment(0.0, 1.0, 0.5, 1.0),
                         ScanSegment(1.0, TAU, 1.5, 1.0)), TAU, 4.0)
        angles, seg_idx = pulse_directions(plan)
        assert angles[3] == 0.75 and seg_idx[3] == 0
        assert angles[4] == 1.0 and seg_idx[4] == 1
        assert segment_at(plan, 1.0 - 1e-12).power == 0.5
        assert segment_at(plan, 1.0).power == 1.5


class TestPulseDirections:
    def test_baseline_count_and_spacing(self):
        plan = _plan_for(VariantConfig("baseline"))
        angles, idx = pulse_directions(plan)
        assert plan.rays_per_revolution == 390
        assert len(angles) == 390
        assert angles[0] == 0.0
        assert np.all(np.diff(angles) > 0.0)
        assert angles[-1] < TAU
        spacing = np.diff(angles)
        assert np.allclose(spacing, OMEGA / PULSE_RATE, rtol=1e-12)
        assert math.degrees(segment_at(plan, 1.0).spin_rate / plan.pulse_rate) == pytest.approx(
            0.9216, rel=1e-12)
        assert np.allclose(np.degrees(spacing), 0.9216, rtol=1e-12)
        assert np.all(idx == 0)

    def test_ray_count_is_conserved_across_variants(self):
        for name, kwargs in [("range", {"p_low_ratio": 0.2}),
                             ("resolution", {"omega_high_ratio": 2.0}),
                             ("range_and_resolution",
                              {"p_low_ratio": 0.2, "omega_high_ratio": 2.0})]:
            plan = _plan_for(VariantConfig(name, **kwargs))
            assert plan.rays_per_revolution == 390
            assert len(pulse_directions(plan)[0]) == 390

    def test_matches_scalar_segment_walk(self):
        for variant in (VariantConfig("resolution", omega_high_ratio=2.0),
                        VariantConfig("resolution", omega_high_ratio=3.0),
                        VariantConfig("range_and_resolution", p_low_ratio=0.3,
                                      omega_high_ratio=1.5)):
            plan = _plan_for(variant)
            angles, _ = pulse_directions(plan)
            assert np.max(np.abs(angles - _walk_pulse_angles(plan))) < 1e-12

    def test_spacing_ratio_follows_the_spin_rates(self):
        plan = _plan_for(VariantConfig("resolution", omega_high_ratio=2.0))
        ratio = (segment_at(plan, THETA).spin_rate / plan.pulse_rate
                 / (segment_at(plan, THETA + math.pi).spin_rate / plan.pulse_rate))
        assert ratio == pytest.approx(2.0 * 11.0 / 10.0, rel=1e-12)
        angles, idx = pulse_directions(plan)
        spacing = np.diff(angles)
        inside = idx[1:] == idx[:-1]
        rof_idx = plan.segments.index(segment_at(plan, THETA))
        roi_idx = plan.segments.index(segment_at(plan, THETA + math.pi))
        measured = (np.median(spacing[inside & (idx[1:] == rof_idx)])
                    / np.median(spacing[inside & (idx[1:] == roi_idx)]))
        assert measured == pytest.approx(2.0 * 11.0 / 10.0, rel=1e-9)

    def test_per_arc_counts_match_dwell_times(self):
        plan = _plan_for(VariantConfig("resolution", omega_high_ratio=2.0))
        _, idx = pulse_directions(plan)
        counts = np.bincount(idx, minlength=len(plan.segments))
        for i, seg in enumerate(plan.segments):
            expected = (seg.end - seg.start) / seg.spin_rate * PULSE_RATE
            # one ray of quantization per endpoint; the final arc also loses
            # the truncated fractional pulse of the revolution
            assert abs(counts[i] - expected) <= 2.0


class TestScanRevolution:
    def test_returns_match_the_geometry(self):
        scene = Scene(Vec2(0, 0), (ObstacleBox.spawn(5, Vec2(50.0, 0.0), 0.0,
                                                     2.0, 3.0, 0.0),),
                      Vec2(0, 1))
        plan = _plan_for(VariantConfig("baseline"))
        cloud = scan_revolution(scene, plan, CLEAR, CAL, 0.25)
        assert cloud.frame_time == 0.25
        assert cloud.rays_fired == 390
        assert sum(cloud.rays_per_arc.values()) == 390
        assert cloud.rays_per_arc == {(seg.start, seg.end): 390 for seg in plan.segments}
        assert len(cloud.returns) > 0
        assert cloud.returns.dtype == RETURN_DTYPE
        angles, _ = pulse_directions(plan)
        assert np.all(cloud.returns["hit_id"] == 5)
        assert np.all((47.9 < cloud.returns["range_m"]) & (cloud.returns["range_m"] < 51.0))
        assert np.all(np.isin(cloud.returns["angle"], angles))
        assert np.all(np.diff(cloud.returns["angle"]) > 0.0)

    def test_power_reallocation_extends_roi_reach(self):
        # near face at 104.5 m: past the nominal 100 m but inside the
        # high-power 104.88 m reach of a 0.5 ratio range plan
        box = ObstacleBox.spawn(2, Vec2(0.0, 105.5), math.pi / 2, 1.0, 2.0, 0.0)
        scene = Scene(Vec2(0, 0), (box,), Vec2(0, 1))
        rof = compute_rof(GazeState(math.radians(270.0), 0.5),
                          AcuityFunction.boxcar(math.radians(30.0)))
        roi = compute_roi(rof)
        baseline = build_scan_plan(VariantConfig("baseline"), rof, roi, CAL,
                                   OMEGA, PULSE_RATE)
        boosted = build_scan_plan(VariantConfig("range", p_low_ratio=0.5),
                                  rof, roi, CAL, OMEGA, PULSE_RATE)
        assert len(scan_revolution(scene, baseline, CLEAR, CAL, 0.0).returns) == 0
        hits = scan_revolution(scene, boosted, CLEAR, CAL, 0.0).returns
        assert len(hits) > 0 and np.all(hits["hit_id"] == 2)

    def test_fog_shortens_reach(self):
        box = ObstacleBox.spawn(1, Vec2(80.0, 0.0), 0.0, 1.0, 3.0, 0.0)
        scene = Scene(Vec2(0, 0), (box,), Vec2(0, 1))
        plan = _plan_for(VariantConfig("baseline"))
        assert len(scan_revolution(scene, plan, CLEAR, CAL, 0.0).returns) > 0
        foggy = FogCondition(0.5, 0.005)
        assert len(scan_revolution(scene, plan, foggy, CAL, 0.0).returns) == 0

    def test_trivial_ratio_plans_reproduce_baseline_exactly(self):
        rng = np.random.default_rng(3)
        scene = make_random_scene(rng)
        fog = FogCondition(0.25, 0.0025)
        reference = scan_revolution(scene, _plan_for(VariantConfig("baseline")),
                                    fog, CAL, 0.0)
        for variant in (VariantConfig("range", p_low_ratio=1.0),
                        VariantConfig("resolution", omega_high_ratio=1.0),
                        VariantConfig("range_and_resolution", p_low_ratio=1.0,
                                      omega_high_ratio=1.0)):
            assert scan_revolution(scene, _plan_for(variant), fog, CAL, 0.0) == reference


def _layers(scene):
    """The run's split of a scene: (static boxes, moving boxes)."""
    def layer(boxes):
        return Scene(scene.ego_position, tuple(boxes), scene.conflict_point)
    return (layer(o for o in scene.obstacles if o.speed == 0.0),
            layer(o for o in scene.obstacles if o.speed != 0.0))


def _returns(angles, ranges, ids, hit):
    """The RETURN_DTYPE records of the rays that hit, in firing order."""
    returns = np.empty(np.count_nonzero(hit), dtype=RETURN_DTYPE)
    returns["angle"] = angles[hit]
    returns["range_m"] = ranges[hit]
    returns["hit_id"] = ids[hit]
    return returns


def _dense_cloud(scene, setup):
    """The returns of a dense every-ray-every-edge cast of the whole scene."""
    ranges, ids = dense_cast_rays(scene, scene.ego_position, setup.angles,
                                  setup.max_ranges[0])
    return _returns(setup.angles, ranges, ids, ids >= 0)


class TestLayeredCast:
    """A static layer cast once in revolution_setup, merged by scan_frames with
    a cast of the movers each frame, equals one cast of the whole scene."""

    PLAN = _plan_for(VariantConfig("range_and_resolution", 0.2, 2.0))
    FOG = FogCondition(0.25, 0.0025)

    def _check(self, scene, times=(0.0,)):
        """Each frame of the layered scan_frames of scene equals scan_revolution
        and the dense cast of advance(scene, t); returns the returns per frame."""
        static, movers = _layers(scene)
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static)
        assert not any(a.flags.writeable for a in setup)
        chunk = scan_frames(*edges_at(movers, times), movers.ego_position, setup, [FrameRun(0)])
        frames = []
        for t, rows in zip(times, zip(*chunk)):
            returns = _returns(setup.angles, *rows)
            whole = advance(scene, t)
            assert np.array_equal(returns, scan_revolution(whole, self.PLAN, self.FOG, CAL,
                                                           t).returns)
            assert np.array_equal(returns, _dense_cloud(whole, setup))
            frames.append(returns)
        return frames

    def test_random_static_mover_mixes(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            scene = make_random_scene(rng, 4, 20)
            moving = rng.random(len(scene.obstacles)) < rng.uniform(0.0, 1.0)
            boxes = tuple(dataclasses.replace(o, speed=float(rng.uniform(1.0, 20.0))) if m else o
                          for o, m in zip(scene.obstacles, moving))
            self._check(dataclasses.replace(scene, obstacles=boxes),
                        (float(rng.uniform(0.0, 3.0)),))

    def test_dropout_draws_on_the_merged_hits(self):
        rng = np.random.default_rng(22)
        scene = make_random_scene(rng, 10, 20)
        boxes = tuple(dataclasses.replace(o, speed=8.0) if i % 3 == 0 else o
                      for i, o in enumerate(scene.obstacles))
        scene = dataclasses.replace(scene, obstacles=boxes)
        static, movers = _layers(scene)
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static)
        for seed in range(5):
            layered = scan_frames(*edges_at(movers, (0.5,)), movers.ego_position, setup,
                                  [FrameRun(0, self.FOG.sigma, np.random.default_rng(seed))])
            whole = scan_revolution(advance(scene, 0.5), self.PLAN, self.FOG, CAL, 0.5,
                                    dropout=True, rng=np.random.default_rng(seed))
            assert np.array_equal(_returns(setup.angles, *(rows[0] for rows in layered)),
                                  whole.returns)

    @pytest.mark.parametrize("static_id, mover_id",
                             [(3, 7), (7, 3), (0, 2**63 - 1), (2**63 - 1, 0)],
                             ids=["static-smaller", "mover-smaller", "mover-largest",
                                  "static-largest"])
    def test_exact_ties_across_layers_go_to_the_smaller_id(self, static_id, mover_id):
        rng = np.random.default_rng(23)
        base = make_random_scene(rng, 1, 1).obstacles[0]
        # a mover at t = 0 sits exactly on its static twin: every range ties
        twin = dataclasses.replace(base, id=static_id)
        mover = dataclasses.replace(base, id=mover_id, speed=5.0)
        scene = Scene(Vec2(0, 0), (twin, mover), Vec2(0, 1))
        [returns] = self._check(scene)
        assert len(returns) > 0
        assert np.all(returns["hit_id"] == min(static_id, mover_id))

    def test_mover_passing_behind_a_static_box(self):
        # the car crosses bearings 233-307 deg, inside the boosted RoI
        wall = ObstacleBox.spawn(5, Vec2(0.0, -20.0), 0.0, 4.0, 0.5, 0.0)
        car = ObstacleBox.spawn(2, Vec2(-30.0, -40.0), 0.0, 2.0, 1.0, 10.0)
        scene = Scene(Vec2(0, 0), (wall, car), Vec2(0, 1))
        seen = [bool(np.any(returns["hit_id"] == 2))
                for returns in self._check(scene, np.arange(0.0, 6.05, 0.25))]
        # the wall's shadow hides the whole car while it crosses x in [-6, 6]
        assert seen[0] and seen[-1] and not seen[12]
        assert seen.count(False) >= 3

    def test_a_mover_with_the_largest_id_in_front_of_a_static_wall(self):
        # an id of 2**63 - 1 beats a miss like any other; the wall shows on both sides
        wall = ObstacleBox.spawn(5, Vec2(0.0, -20.0), 0.0, 15.0, 0.5, 0.0)
        car = ObstacleBox.spawn(2**63 - 1, Vec2(0.0, -10.0), 0.0, 2.0, 1.0, 10.0)
        [returns] = self._check(Scene(Vec2(0, 0), (wall, car), Vec2(0, 1)))
        wall_angles = returns["angle"][returns["hit_id"] == 5]
        car_angles = returns["angle"][returns["hit_id"] == 2**63 - 1]
        assert len(car_angles) > 0
        assert wall_angles.min() < car_angles.min() and wall_angles.max() > car_angles.max()

    def test_no_static_boxes(self):
        scene = make_random_scene(np.random.default_rng(24))
        movers = tuple(dataclasses.replace(o, speed=3.0) for o in scene.obstacles)
        scene = dataclasses.replace(scene, obstacles=movers)
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, _layers(scene)[0])
        assert np.all(setup.static_ids == -1) and np.all(np.isnan(setup.static_ranges))
        assert setup.static_ids.shape == setup.angles.shape
        assert len(self._check(scene, (1.5,))[0]) > 0

    def test_no_movers(self):
        scene = make_random_scene(np.random.default_rng(25))
        static, movers = _layers(scene)
        assert movers.obstacles == ()
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static)
        assert np.any(setup.static_ids >= 0)
        assert len(self._check(scene, (1.5,))[0]) > 0


class TestDropout:
    def test_requires_an_rng_in_fog(self):
        scene = make_enclosing_scene()
        plan = _plan_for(VariantConfig("baseline"))
        with pytest.raises(ValueError, match="rng"):
            scan_revolution(scene, plan, FogCondition(0.5, 0.005), CAL, 0.0,
                            dropout=True)

    def test_scan_frames_requires_an_rng_in_fog(self):
        scene = make_enclosing_scene()
        setup = revolution_setup(_plan_for(VariantConfig("baseline")),
                                 (FogCondition(0.5, 0.005),), CAL, scene)
        with pytest.raises(ValueError, match="rng"):
            scan_frames(np.empty((1, 0, 4)), np.empty(0, dtype=np.int64), scene.ego_position,
                        setup, [FrameRun(0, 0.005)])

    def test_clear_air_needs_no_rng_and_drops_nothing(self):
        scene = make_enclosing_scene()
        plan = _plan_for(VariantConfig("baseline"))
        full = scan_revolution(scene, plan, CLEAR, CAL, 0.0)
        assert scan_revolution(scene, plan, CLEAR, CAL, 0.0, dropout=True) == full

    def test_is_deterministic_per_seed(self):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        fog = FogCondition(1.0, 0.02)
        a = scan_revolution(scene, plan, fog, CAL, 0.0, dropout=True,
                            rng=np.random.default_rng(12))
        b = scan_revolution(scene, plan, fog, CAL, 0.0, dropout=True,
                            rng=np.random.default_rng(12))
        assert a == b

    def test_thins_the_cloud(self):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        fog = FogCondition(1.0, 0.02)
        full = scan_revolution(scene, plan, fog, CAL, 0.0)
        thinned = scan_revolution(scene, plan, fog, CAL, 0.0, dropout=True,
                                  rng=np.random.default_rng(12))
        assert 0 < len(thinned.returns) < len(full.returns)

    def test_consumes_one_draw_per_pulse(self):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        rng = np.random.default_rng(99)
        scan_revolution(scene, plan, FogCondition(1.0, 0.02), CAL, 0.0,
                        dropout=True, rng=rng)
        reference = np.random.default_rng(99)
        reference.random(plan.rays_per_revolution)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("seed", [12, 99])
    def test_a_hit_survives_when_its_draw_is_below_exp_minus_sigma_r(self, seed):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        for fog in (FogCondition(1.0, 0.02), CLEAR):
            full = scan_revolution(scene, plan, fog, CAL, 0.0)
            thinned = scan_revolution(scene, plan, fog, CAL, 0.0, dropout=True,
                                      rng=np.random.default_rng(seed))
            # one draw per pulse, in firing order; pick out the pulses that hit
            draws = np.random.default_rng(seed).random(plan.rays_per_revolution)
            angles = revolution_setup(plan, (fog,), CAL, scene).angles
            hit_draws = draws[np.isin(angles, full.returns["angle"])]
            kept = [draw < math.exp(-fog.sigma * r)
                    for draw, r in zip(hit_draws, full.returns["range_m"])]
            assert np.array_equal(thinned.returns, full.returns[kept])
            if fog.sigma == 0.0:
                assert all(kept)
            else:
                assert 0 < sum(kept) < len(kept)


    def test_one_draw_for_k_frames_is_k_draws_of_one_frame(self):
        # scan_frames draws random(K * n) once per chunk where the per-frame
        # loop drew random(n) K times, after a spawn jitter uniform draw
        for seed in (0, 101, 2 ** 31 - 1):
            chunk, each = np.random.default_rng(seed), np.random.default_rng(seed)
            assert chunk.uniform(-3.0, 3.0) == each.uniform(-3.0, 3.0)
            batched = chunk.random(7 * 390)
            assert np.array_equal(batched, np.concatenate([each.random(390) for _ in range(7)]))
            assert chunk.random() == each.random()


class TestScanFrames:
    """K frames in one scan_frames call equal K one-frame scans."""

    PLAN = _plan_for(VariantConfig("range_and_resolution", 0.2, 2.0))
    FOG = FogCondition(1.0, 0.01)

    def test_k_frames_equal_k_scan_revolutions(self):
        rng = np.random.default_rng(41)
        for seed in range(4):
            scene = make_random_scene(rng, 6, 12)
            boxes = tuple(dataclasses.replace(o, speed=float(rng.uniform(2.0, 15.0)))
                          if i % 2 else o for i, o in enumerate(scene.obstacles))
            scene = dataclasses.replace(scene, obstacles=boxes)
            static, movers = _layers(scene)
            setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static)
            times = [0.0, 0.05, 0.1, 0.15, 1.0]
            chunk = scan_frames(*edges_at(movers, times), movers.ego_position,
                                setup, [FrameRun(0, self.FOG.sigma, np.random.default_rng(seed))])
            ranges, hit_ids, hit = chunk
            one_by_one = np.random.default_rng(seed)
            for k, t in enumerate(times):
                cloud = scan_revolution(advance(scene, t), self.PLAN, self.FOG, CAL, t,
                                        dropout=True, rng=one_by_one)
                assert np.array_equal(cloud.returns["angle"], setup.angles[hit[k]])
                assert np.array_equal(cloud.returns["range_m"], ranges[k][hit[k]])
                assert np.array_equal(cloud.returns["hit_id"], hit_ids[k][hit[k]])

    def test_stacked_runs_draw_from_their_own_generators(self):
        # S runs of K frames each in one call equal S one-run calls, draw for draw
        rng = np.random.default_rng(43)
        scene = make_random_scene(rng, 6, 12)
        boxes = tuple(dataclasses.replace(o, speed=float(rng.uniform(2.0, 15.0)))
                      if i % 2 else o for i, o in enumerate(scene.obstacles))
        static, movers = _layers(dataclasses.replace(scene, obstacles=boxes))
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static)
        times = [0.0, 0.05, 0.1]
        seeds = [5, 6, 7]
        centers = np.array([[(o.center.x + shift, o.center.y) for o in movers.obstacles]
                            for shift in (0.0, -2.5, 1.0)])
        stacked = scan_frames(*edges_at(movers, times, centers), movers.ego_position, setup,
                              [FrameRun(0, self.FOG.sigma, np.random.default_rng(s))
                               for s in seeds])
        for s, seed in enumerate(seeds):
            own = scan_frames(*edges_at(movers, times, centers[s:s + 1]), movers.ego_position,
                              setup, [FrameRun(0, self.FOG.sigma, np.random.default_rng(seed))])
            rows = slice(s * len(times), (s + 1) * len(times))
            for whole, part in zip(stacked, own):
                assert np.array_equal(whole[rows], part, equal_nan=True)
        assert 0 < np.count_nonzero(stacked[2]) < np.count_nonzero(stacked[1] >= 0)

    def test_one_setup_serves_every_fog(self):
        rng = np.random.default_rng(45)
        scene = make_random_scene(rng, 8, 14)
        boxes = tuple(dataclasses.replace(o, speed=float(rng.uniform(2.0, 15.0)))
                      if i % 2 else o for i, o in enumerate(scene.obstacles))
        static, movers = _layers(dataclasses.replace(scene, obstacles=boxes))
        fogs = (CLEAR, FogCondition(0.25, 0.0025), self.FOG)
        setup = revolution_setup(self.PLAN, fogs, CAL, static)
        assert setup.max_ranges.shape == (3, len(setup.angles))
        singles = [revolution_setup(self.PLAN, (fog,), CAL, static) for fog in fogs]
        for row, single in zip(setup.max_ranges, singles):
            # row f is fog f's ranges; nothing else depends on the fog
            assert np.array_equal(row, single.max_ranges[0])
            for name, array in setup._asdict().items():
                if name != "max_ranges":
                    assert np.array_equal(array, getattr(single, name), equal_nan=True)
        # runs at mixed fogs, drawing or not, in one call equal one-run calls
        # on one-fog setups, each from a fresh generator of its seed
        times = [0.0, 0.05, 0.1]
        runs = [(2, self.FOG.sigma, 5), (0, 0.0, 6), (1, fogs[1].sigma, 5), (2, 0.0, 6)]
        centers = np.array([[(o.center.x + shift, o.center.y) for o in movers.obstacles]
                            for shift in (0.0, -2.5, 1.0, -2.5)])
        stacked = scan_frames(*edges_at(movers, times, centers), movers.ego_position, setup,
                              [FrameRun(row, sigma, np.random.default_rng(seed))
                               for row, sigma, seed in runs])
        for s, (row, sigma, seed) in enumerate(runs):
            own = scan_frames(*edges_at(movers, times, centers[s:s + 1]), movers.ego_position,
                              singles[row], [FrameRun(0, sigma, np.random.default_rng(seed))])
            rows = slice(s * len(times), (s + 1) * len(times))
            for whole, part in zip(stacked, own):
                assert np.array_equal(whole[rows], part, equal_nan=True)
        # runs 1 and 3 see the same frames; the thicker fog keeps a strict subset
        clear, foggy = stacked[2][3:6], stacked[2][9:12]
        assert np.array_equal(stacked[1][3:6], stacked[1][9:12])
        assert not np.any(foggy & ~clear) and np.count_nonzero(foggy) < np.count_nonzero(clear)

    def test_a_hit_at_its_max_range_counts_and_a_nan_range_misses(self):
        rng = np.random.default_rng(47)
        scene = make_random_scene(rng, 8, 14)
        boxes = tuple(dataclasses.replace(o, speed=5.0) if i % 2 else o
                      for i, o in enumerate(scene.obstacles))
        static, movers = _layers(dataclasses.replace(scene, obstacles=boxes))
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static)
        n = len(setup.angles)
        centers = np.array([[(o.center.x, o.center.y) for o in movers.obstacles]] * 3)
        ranges, ids, _ = scan_frames(*edges_at(movers, (0.5,), centers[:1]), movers.ego_position,
                                     setup._replace(max_ranges=np.full((1, n), np.inf)),
                                     [FrameRun(0)])
        hits = ids[0] >= 0
        assert hits.any() and not hits.all()
        # three runs of that frame: each pulse limited to its own hit range,
        # to one ulp below it, and to nan
        at_hit = np.where(hits, ranges[0], 1.0)
        limits = np.stack((at_hit, np.nextafter(at_hit, 0.0), np.full(n, np.nan)))
        _, _, hit = scan_frames(*edges_at(movers, (0.5,), centers), movers.ego_position,
                                setup._replace(max_ranges=limits),
                                [FrameRun(0), FrameRun(1), FrameRun(2)])
        assert np.array_equal(hit[0], hits)
        assert not hit[1].any() and not hit[2].any()

    def test_setup_carries_the_per_ray_invariants(self):
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, EMPTY_SCENE)
        assert np.array_equal(setup.cos, np.cos(setup.angles))
        assert np.array_equal(setup.sin, np.sin(setup.angles))
        # the sorted bearings, then the same plus tau, with the ray order tiled
        n = len(setup.angles)
        assert setup.key.shape == setup.order.shape == (2 * n,)
        assert np.array_equal(setup.key[:n], np.sort(np.mod(setup.angles, TAU)))
        assert np.array_equal(setup.key[:n], np.mod(setup.angles, TAU)[setup.order[:n]])
        assert np.array_equal(setup.key[n:], setup.key[:n] + TAU)
        assert np.array_equal(setup.order, np.tile(setup.order[:n], 2))


class TestPointCloud:
    def test_returns_are_the_surviving_hits_in_firing_order(self):
        rng = np.random.default_rng(6)
        scene = make_random_scene(rng)
        plan = _plan_for(VariantConfig("range_and_resolution", 0.2, 2.0))
        fog = FogCondition(0.25, 0.0025)
        setup = revolution_setup(plan, (fog,), CAL, scene)
        ranges, ids = cast_rays(scene, scene.ego_position, setup.angles, setup.max_ranges[0])
        cloud = scan_revolution(scene, plan, fog, CAL, 0.0)
        hit = ids >= 0
        assert cloud.returns["angle"].tolist() == setup.angles[hit].tolist()
        assert cloud.returns["range_m"].tolist() == ranges[hit].tolist()
        assert cloud.returns["hit_id"].tolist() == ids[hit].tolist()

    def test_equality_compares_the_returns(self):
        one = np.array([(0.1, 50.0, 3)], dtype=RETURN_DTYPE)
        other = np.array([(0.1, 50.0, 4)], dtype=RETURN_DTYPE)
        whole = (ScanSegment(0.0, TAU, 1.0, OMEGA),)
        halves = (ScanSegment(0.0, math.pi, 1.0, OMEGA), ScanSegment(math.pi, TAU, 1.0, OMEGA))

        def cloud(t, returns, segments=whole, counts=(390,)):
            return PointCloud(t, returns, 390, segments, counts)

        assert cloud(0.0, one) == cloud(0.0, one.copy())
        assert cloud(0.0, one) != cloud(0.0, other)
        assert cloud(0.0, one) != cloud(0.0, one[:0])
        assert cloud(0.0, one) != cloud(0.05, one)
        assert cloud(0.0, one, halves, (195, 195)) != cloud(0.0, one, halves, (194, 196))
        assert cloud(0.0, one, halves, (195, 195)) == cloud(0.0, one, halves, np.array([195, 195]))
