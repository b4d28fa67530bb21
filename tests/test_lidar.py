"""Scan plans, pulse scheduling, and revolution sweeps."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazelidar.atmosphere import FogCondition, SensorCalibration
from gazelidar.gaze import AcuityFunction, GazeState, compute_rof, compute_roi
from gazelidar.lidar import (RETURN_DTYPE, FrameRun, PointCloud, ScanPlan, ScanSegment,
                             pulse_directions, revolution_setup, scan_frames, scan_revolution,
                             with_limits)
from gazelidar.policy import VariantConfig, build_scan_plan
from gazelidar.scene import ObstacleBox, Scene, Vec2, advance, cast_rays, edges_at
from helpers import EMPTY_SCENE, make_enclosing_scene, make_random_scene
from oracles import dense_cast_rays, dense_counts, dense_scan_frames, segment_at

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
        scene = Scene(Vec2(0, 0), (ObstacleBox(5, Vec2(50.0, 0.0), 0.0,
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
        box = ObstacleBox(2, Vec2(0.0, 105.5), math.pi / 2, 1.0, 2.0, 0.0)
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
        box = ObstacleBox(1, Vec2(80.0, 0.0), 0.0, 1.0, 3.0, 0.0)
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


def _counts(clouds, target_id, roi):
    """One run's (targets, rois) rows of scan_frames, counted from each frame's cloud:
    the returns off the target and those inside roi."""
    return ([[int(np.count_nonzero(c.returns["hit_id"] == target_id)) for c in clouds]],
            [[int(np.count_nonzero(roi.contains_many(c.returns["angle"]))) for c in clouds]])


def _targets(scene):
    """The id of every moving obstacle of scene, the targets that scan_frames
    counts, and the smallest id that no obstacle has."""
    ids = [o.id for o in scene.obstacles]
    return [o.id for o in scene.obstacles if o.speed > 0.0] + [
        min(set(range(len(ids) + 1)) - set(ids))]


def _listed(counts):
    return [c.tolist() for c in counts]


def _rng(dropout: bool, seed: int):
    """A run's generator of seed with fog dropout on, None with it off."""
    return np.random.default_rng(seed) if dropout else None


ROI = compute_roi(compute_rof(GazeState(THETA, 0.5), AcuityFunction.boxcar(math.radians(30.0))))


class TestLayeredCast:
    """A static layer cast once in revolution_setup, corrected by scan_frames
    where the movers reach a pulse, counts what one cast of the whole scene returns."""

    PLAN = _plan_for(VariantConfig("range_and_resolution", 0.2, 2.0))
    FOG = FogCondition(0.25, 0.0025)

    def _check(self, scene, times=(0.0,)):
        """Each frame's counts from scan_frames, for every mover id and one that
        no box has, equal those of scan_revolution of advance(scene, t), whose
        returns equal the dense oracles'; returns the returns per frame."""
        static, movers = _layers(scene)
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static, ROI)
        assert not any(a.flags.writeable for a in setup)
        edges = edges_at(movers, times)
        dense = dense_scan_frames(*edges, movers.ego_position, setup, [FrameRun(0)])
        clouds = []
        for t, rows in zip(times, zip(*dense)):
            whole = advance(scene, t)
            cloud = scan_revolution(whole, self.PLAN, self.FOG, CAL, t)
            assert np.array_equal(_returns(setup.angles, *rows), cloud.returns)
            assert np.array_equal(cloud.returns, _dense_cloud(whole, setup))
            clouds.append(cloud)
        for target in _targets(scene):
            counts = scan_frames(*edges, movers.ego_position, setup, target, [FrameRun(0)])
            assert _listed(counts) == list(_counts(clouds, target, ROI))
        return [cloud.returns for cloud in clouds]

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
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static, ROI)
        for seed in range(5):
            whole_rng = np.random.default_rng(seed)
            whole = scan_revolution(advance(scene, 0.5), self.PLAN, self.FOG, CAL, 0.5,
                                    rng=whole_rng)
            for target in _targets(scene):
                layered_rng = np.random.default_rng(seed)
                layered = scan_frames(*edges_at(movers, (0.5,)), movers.ego_position, setup,
                                      target, [FrameRun(0, layered_rng)])
                assert _listed(layered) == list(_counts([whole], target, ROI))
                assert layered_rng.bit_generator.state == whole_rng.bit_generator.state

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
        wall = ObstacleBox(5, Vec2(0.0, -20.0), 0.0, 4.0, 0.5, 0.0)
        car = ObstacleBox(2, Vec2(-30.0, -40.0), 0.0, 2.0, 1.0, 10.0)
        scene = Scene(Vec2(0, 0), (wall, car), Vec2(0, 1))
        seen = [bool(np.any(returns["hit_id"] == 2))
                for returns in self._check(scene, np.arange(0.0, 6.05, 0.25))]
        # the wall's shadow hides the whole car while it crosses x in [-6, 6]
        assert seen[0] and seen[-1] and not seen[12]
        assert seen.count(False) >= 3

    def test_a_mover_with_the_largest_id_in_front_of_a_static_wall(self):
        # an id of 2**63 - 1 beats a miss like any other; the wall shows on both sides
        wall = ObstacleBox(5, Vec2(0.0, -20.0), 0.0, 15.0, 0.5, 0.0)
        car = ObstacleBox(2**63 - 1, Vec2(0.0, -10.0), 0.0, 2.0, 1.0, 10.0)
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
        assert not setup.static_hit.any() and not setup.survival.any()
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
        """In fog, scan_revolution drops out only with an rng: without one it
        returns every hit within range, with one it thins them."""
        scene = make_enclosing_scene()
        plan = _plan_for(VariantConfig("baseline"))
        fog = FogCondition(0.5, 0.005)
        setup = revolution_setup(plan, (fog,), CAL, scene)
        full = scan_revolution(scene, plan, fog, CAL, 0.0)
        assert np.array_equal(full.returns["angle"], setup.angles[setup.static_hit[0]])
        thinned = scan_revolution(scene, plan, fog, CAL, 0.0, rng=np.random.default_rng(12))
        assert 0 < len(thinned.returns) < len(full.returns)

    def test_scan_frames_requires_an_rng_in_fog(self):
        """In fog, scan_frames drops out only for a run with an rng: a run
        without one draws nothing and counts what scan_revolution without
        one returns, and a run with one is thinned."""
        scene = make_enclosing_scene()
        plan = _plan_for(VariantConfig("baseline"))
        fog = FogCondition(0.5, 0.005)
        # the walls as movers over an empty static layer; wall 1 is the target
        setup = revolution_setup(plan, (fog,), CAL, EMPTY_SCENE, ROI)
        edges = edges_at(scene, (0.0,))
        kept = scan_frames(*edges, scene.ego_position, setup, 1, [FrameRun(0)])
        full = scan_revolution(scene, plan, fog, CAL, 0.0)
        assert _listed(kept) == list(_counts([full], 1, ROI))
        assert kept[0].tolist() != [[0]] and kept[1].tolist() != [[0]]
        thinned = scan_frames(*edges, scene.ego_position, setup, 1,
                              [FrameRun(0, np.random.default_rng(12))])
        assert thinned[0].sum() < kept[0].sum() and thinned[1].sum() < kept[1].sum()

    def test_clear_air_needs_no_rng_and_drops_nothing(self):
        """Clear air is scanned without an rng; handed one, it still drops
        nothing, though it draws one uniform per pulse."""
        scene = make_enclosing_scene()
        plan = _plan_for(VariantConfig("baseline"))
        full = scan_revolution(scene, plan, CLEAR, CAL, 0.0)
        assert len(full.returns) > 0
        rng = np.random.default_rng(3)
        assert scan_revolution(scene, plan, CLEAR, CAL, 0.0, rng=rng) == full
        reference = np.random.default_rng(3)
        reference.random(plan.rays_per_revolution)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_a_generator_at_sigma_0_draws_every_pulse_and_drops_nothing(self):
        """At sigma 0 a run with a generator draws k * n uniforms in scan_frames
        and n in scan_revolution, and counts what a run without one counts."""
        scene = make_enclosing_scene()
        plan = _plan_for(VariantConfig("baseline"))
        setup = revolution_setup(plan, (CLEAR,), CAL, EMPTY_SCENE, ROI)
        n, times = len(setup.angles), (0.0, 0.05, 0.1, 0.15)
        edges = edges_at(scene, times)
        kept = scan_frames(*edges, scene.ego_position, setup, 1, [FrameRun(0)])
        assert kept[0].sum() > 0 and kept[1].sum() > 0
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        drawn = scan_frames(*edges, scene.ego_position, setup, 1, [FrameRun(0, rng)])
        assert _listed(drawn) == _listed(kept)
        reference.random(len(times) * n)
        assert rng.bit_generator.state == reference.bit_generator.state
        full = scan_revolution(scene, plan, CLEAR, CAL, 0.0)
        assert scan_revolution(scene, plan, CLEAR, CAL, 0.0, rng=rng) == full
        reference.random(n)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_is_deterministic_per_seed(self):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        fog = FogCondition(1.0, 0.02)
        a = scan_revolution(scene, plan, fog, CAL, 0.0, rng=np.random.default_rng(12))
        b = scan_revolution(scene, plan, fog, CAL, 0.0, rng=np.random.default_rng(12))
        assert a == b

    def test_thins_the_cloud(self):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        fog = FogCondition(1.0, 0.02)
        full = scan_revolution(scene, plan, fog, CAL, 0.0)
        thinned = scan_revolution(scene, plan, fog, CAL, 0.0, rng=np.random.default_rng(12))
        assert 0 < len(thinned.returns) < len(full.returns)

    def test_consumes_one_draw_per_pulse(self):
        # whatever the fog and however many pulses hit: none in an empty scene
        plan = _plan_for(VariantConfig("baseline"))
        for scene in (make_enclosing_scene(30.0), EMPTY_SCENE):
            for fog in (FogCondition(1.0, 0.02), CLEAR):
                rng = np.random.default_rng(99)
                scan_revolution(scene, plan, fog, CAL, 0.0, rng=rng)
                reference = np.random.default_rng(99)
                reference.random(plan.rays_per_revolution)
                assert rng.random() == reference.random()

    @pytest.mark.parametrize("seed", [12, 99])
    def test_a_hit_survives_when_its_draw_is_below_exp_minus_sigma_r(self, seed):
        scene = make_enclosing_scene(30.0)
        plan = _plan_for(VariantConfig("baseline"))
        for fog in (FogCondition(1.0, 0.02), CLEAR):
            full = scan_revolution(scene, plan, fog, CAL, 0.0)
            thinned = scan_revolution(scene, plan, fog, CAL, 0.0,
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
            setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static, ROI)
            times = [0.0, 0.05, 0.1, 0.15, 1.0]
            for target in _targets(scene):
                chunk_rng, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
                chunk = scan_frames(*edges_at(movers, times), movers.ego_position, setup, target,
                                    [FrameRun(0, chunk_rng)])
                clouds = [scan_revolution(advance(scene, t), self.PLAN, self.FOG, CAL, t,
                                          rng=one_by_one) for t in times]
                assert _listed(chunk) == list(_counts(clouds, target, ROI))
                assert chunk_rng.bit_generator.state == one_by_one.bit_generator.state

    def test_stacked_runs_draw_from_their_own_generators(self):
        # S runs of K frames each in one call equal S one-run calls, draw for draw
        rng = np.random.default_rng(43)
        scene = make_random_scene(rng, 6, 12)
        boxes = tuple(dataclasses.replace(o, speed=float(rng.uniform(2.0, 15.0)))
                      if i % 2 else o for i, o in enumerate(scene.obstacles))
        static, movers = _layers(dataclasses.replace(scene, obstacles=boxes))
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static, ROI)
        times = [0.0, 0.05, 0.1]
        seeds = [5, 6, 7]
        target = movers.obstacles[0].id
        centers = np.array([[(o.center.x + shift, o.center.y) for o in movers.obstacles]
                            for shift in (0.0, -2.5, 1.0)])
        edges = edges_at(movers, times, centers)
        stacked = scan_frames(*edges, movers.ego_position, setup, target,
                              [FrameRun(0, np.random.default_rng(s)) for s in seeds])
        for s, seed in enumerate(seeds):
            own = scan_frames(*edges_at(movers, times, centers[s:s + 1]), movers.ego_position,
                              setup, target, [FrameRun(0, np.random.default_rng(seed))])
            for whole, part in zip(stacked, own):
                assert whole.shape == (3, len(times)) and np.array_equal(whole[s:s + 1], part)
        # dropout thins what the same runs return without it
        kept = scan_frames(*edges, movers.ego_position, setup, target, [FrameRun(0)] * 3)
        assert 0 < stacked[1].sum() < kept[1].sum() and np.all(stacked[1] <= kept[1])

    def test_one_setup_serves_every_fog(self):
        rng = np.random.default_rng(45)
        scene = make_random_scene(rng, 8, 14)
        boxes = tuple(dataclasses.replace(o, speed=float(rng.uniform(2.0, 15.0)))
                      if i % 2 else o for i, o in enumerate(scene.obstacles))
        static, movers = _layers(dataclasses.replace(scene, obstacles=boxes))
        fogs = (CLEAR, FogCondition(0.25, 0.0025), self.FOG)
        setup = revolution_setup(self.PLAN, fogs, CAL, static, ROI)
        n = len(setup.angles)
        assert setup.max_ranges.shape == setup.static_hit.shape == setup.survival.shape == (3, n)
        assert setup.sigmas.tolist() == [fog.sigma for fog in fogs]
        assert setup.roi_hits.tolist() == np.count_nonzero(
            setup.static_hit & setup.in_roi, axis=1).tolist()
        singles = [revolution_setup(self.PLAN, (fog,), CAL, static, ROI) for fog in fogs]
        fog_rows = ("max_ranges", "sigmas", "static_hit", "survival", "roi_hits")
        for row, single in enumerate(singles):
            # row f is fog f's; nothing else depends on the fog
            for name, array in setup._asdict().items():
                if name in fog_rows:
                    assert np.array_equal(array[row], getattr(single, name)[0])
                else:
                    assert np.array_equal(array, getattr(single, name), equal_nan=True)
        # runs at mixed fogs, drawing or not, in one call equal one-run calls
        # on one-fog setups, each from a fresh generator of its seed
        times = [0.0, 0.05, 0.1]
        runs = [(2, True, 5), (0, False, 6), (1, True, 5), (2, False, 6)]
        target = movers.obstacles[0].id
        centers = np.array([[(o.center.x + shift, o.center.y) for o in movers.obstacles]
                            for shift in (0.0, -2.5, 1.0, -2.5)])
        stacked = scan_frames(*edges_at(movers, times, centers), movers.ego_position, setup,
                              target, [FrameRun(row, _rng(dropout, seed))
                                       for row, dropout, seed in runs])
        for s, (row, dropout, seed) in enumerate(runs):
            own = scan_frames(*edges_at(movers, times, centers[s:s + 1]), movers.ego_position,
                              singles[row], target, [FrameRun(0, _rng(dropout, seed))])
            for whole, part in zip(stacked, own):
                assert np.array_equal(whole[s:s + 1], part)
        # runs 1 and 3 see the same frames; the thicker fog returns fewer
        clear, foggy = stacked[1][1], stacked[1][3]
        assert np.all(foggy <= clear) and foggy.sum() < clear.sum()

    def test_a_hit_at_its_max_range_counts_and_a_nan_range_misses(self):
        rng = np.random.default_rng(47)
        scene = make_random_scene(rng, 8, 14)
        boxes = tuple(dataclasses.replace(o, speed=5.0) if i % 2 else o
                      for i, o in enumerate(scene.obstacles))
        scene = dataclasses.replace(scene, obstacles=boxes)
        static, movers = _layers(scene)
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, static, ROI)
        n = len(setup.angles)
        centers = np.array([[(o.center.x, o.center.y) for o in movers.obstacles]] * 3)
        ranges, ids, _ = dense_scan_frames(*edges_at(movers, (0.5,), centers[:1]),
                                           movers.ego_position,
                                           with_limits(setup, np.full((1, n), np.inf),
                                                       np.zeros(1)), [FrameRun(0)])
        hits = ids[0] >= 0
        assert hits.any() and not hits.all()
        assert np.isin(ids[0], [o.id for o in movers.obstacles]).any()
        assert np.count_nonzero(hits & setup.in_roi) > 0
        # three runs of that frame: each pulse limited to its own hit range,
        # to one ulp below it, and to nan
        at_hit = np.where(hits, ranges[0], 1.0)
        limited = with_limits(setup, np.stack((at_hit, np.nextafter(at_hit, 0.0),
                                               np.full(n, np.nan))), np.zeros(3))
        for target in _targets(scene):
            targets, rois = scan_frames(*edges_at(movers, (0.5,), centers), movers.ego_position,
                                        limited, target, [FrameRun(0), FrameRun(1), FrameRun(2)])
            assert targets.tolist() == [[int(np.count_nonzero(ids[0] == target))], [0], [0]]
            assert rois.tolist() == [[int(np.count_nonzero(hits & setup.in_roi))], [0], [0]]

    def test_a_target_in_the_static_layer_is_refused(self):
        scene = make_enclosing_scene()
        setup = revolution_setup(self.PLAN, (self.FOG,), CAL, scene)
        for wall in scene.obstacles:
            assert np.any(setup.static_ids == wall.id)
            with pytest.raises(ValueError, match=rf"target {wall.id} .*static layer"):
                scan_frames(np.empty((1, 0, 4)), np.empty(0, dtype=np.int64),
                            scene.ego_position, setup, wall.id, [FrameRun(0)])

    def test_setup_rows_are_c_ordered(self):
        # revolution_setup picks each pulse's limit out of a (fog, power) table
        assert len({seg.power for seg in self.PLAN.segments}) > 1
        setup = revolution_setup(self.PLAN, (CLEAR, FogCondition(0.25, 0.0025), self.FOG),
                                 CAL, make_enclosing_scene(), ROI)
        n = len(setup.angles)
        limits = np.asfortranarray(np.full((2, n), 50.0))
        assert not limits.flags.c_contiguous
        sigmas = np.array([0.0, 0.01])
        limited = with_limits(setup, limits, sigmas)
        assert np.array_equal(limited.max_ranges, limits)
        # the copies are read-only, the caller's arrays are not
        assert limits.flags.writeable and sigmas.flags.writeable
        for rows, fogs in ((setup, 3), (limited, 2)):
            for name in ("max_ranges", "static_hit", "survival"):
                array = getattr(rows, name)
                assert array.shape == (fogs, n) and array.flags.c_contiguous, name

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


def _apart(box, other) -> bool:
    """Whether no bearing from the origin meets both boxes: their centers' bearings lie
    further apart than the half-angles that their circumscribed circles subtend."""
    def cone(o):
        dist = math.hypot(o.center.x, o.center.y)
        radius = math.hypot(o.half_length, o.half_width)
        return (math.atan2(o.center.y, o.center.x),
                math.pi if radius >= dist else math.asin(radius / dist))
    (b1, h1), (b2, h2) = cone(box), cone(other)
    return abs(math.remainder(b1 - b2, TAU)) > h1 + h2


class TestDenseOracle:
    """scan_frames, which corrects the setup's static counts only at the slots
    the movers reach, counts and draws what the dense per-pulse oracle does."""

    PLAN = _plan_for(VariantConfig("range_and_resolution", 0.2, 2.0))
    FOGS = (CLEAR, FogCondition(0.25, 0.0025), FogCondition(1.0, 0.01))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_counts_and_generator_states_equal_the_dense_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        bearing, reach = rng.uniform(0.0, TAU), rng.uniform(8.0, 25.0)
        wall = ObstacleBox(100, Vec2(reach * math.cos(bearing), reach * math.sin(bearing)),
                           float(rng.uniform(0.0, TAU)), float(rng.uniform(0.5, 6.0)),
                           float(rng.uniform(0.5, 2.5)), 0.0)
        # a twin of the wall ties with it on every ray it hits at t = 0; its id
        # is below or above the wall's
        twin = dataclasses.replace(wall, id=data.draw(st.sampled_from([0, 200])),
                                   speed=float(rng.uniform(1.0, 10.0)))
        # a box 20 m straight behind the wall, narrower seen from the sensor
        scale = 1.0 + 20.0 / reach
        size = 0.1 * min(wall.half_length, wall.half_width)
        hidden = ObstacleBox(201, Vec2(wall.center.x * scale, wall.center.y * scale),
                             float(rng.uniform(0.0, TAU)), size, size,
                             float(rng.uniform(0.1, 2.0)))
        # other static boxes and free movers, none on the wall's bearings at t = 0
        others = make_random_scene(rng, 2, 8).obstacles + tuple(
            ObstacleBox(202 + i, Vec2(*rng.uniform(-60.0, 60.0, 2).tolist()),
                        float(rng.uniform(0.0, TAU)), float(rng.uniform(0.5, 4.0)),
                        float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 15.0)))
            for i in range(data.draw(st.integers(0, 3))))
        others = [o for o in others if _apart(o, wall)]
        static = Scene(Vec2(0.0, 0.0), (wall, *(o for o in others if o.speed == 0.0)),
                       Vec2(0.0, 50.0))
        free = [o for o in others if o.speed > 0.0]
        movers = Scene(static.ego_position, (twin, hidden, *free), static.conflict_point)
        ego = movers.ego_position
        times = [0.0] + sorted(data.draw(st.lists(st.floats(0.0, 3.0), max_size=3)))

        setup = revolution_setup(self.PLAN, self.FOGS, CAL, static, ROI)
        n = len(setup.angles)
        ranges, ids, _ = dense_scan_frames(*edges_at(movers, (0.0,)), ego,
                                           with_limits(setup, np.full((1, n), np.inf),
                                                       np.zeros(1)), [FrameRun(0)])
        assert np.any(ids[0] == min(wall.id, twin.id))
        assert not np.any(ids[0] == max(wall.id, twin.id)) and not np.any(ids[0] == hidden.id)
        # rows 3 and 4 limit each pulse to its range at t = 0 and to one ulp below it
        exact = np.where(ids[0] >= 0, ranges[0], 1.0)
        sigma = data.draw(st.sampled_from([0.0, 0.01]))
        setup = with_limits(setup, np.vstack((setup.max_ranges, exact, np.nextafter(exact, 0.0))),
                            np.concatenate((setup.sigmas, [sigma, sigma])))

        # four runs from the start centers, then up to two shifted ones
        runs = [(0, False), (2, True), (3, data.draw(st.booleans())), (4, data.draw(st.booleans()))]
        shifts = [(0.0, 0.0)] * 4
        for _ in range(data.draw(st.integers(0, 2))):
            runs.append((data.draw(st.integers(0, 4)), data.draw(st.booleans())))
            shifts.append(tuple(rng.uniform(-3.0, 3.0, 2).tolist()))
        centers = np.array([[(o.center.x + dx, o.center.y + dy) for o in movers.obstacles]
                            for dx, dy in shifts])
        seeds = [data.draw(st.integers(0, 2 ** 32 - 1)) for _ in runs]
        target = data.draw(st.sampled_from(_targets(Scene(ego, static.obstacles + movers.obstacles,
                                                          static.conflict_point))))
        edges = edges_at(movers, times, centers)
        own, ref = ([np.random.default_rng(seed) for seed in seeds] for _ in range(2))
        counts = scan_frames(*edges, ego, setup, target,
                             [FrameRun(row, g if dropout else None)
                              for (row, dropout), g in zip(runs, own)])
        expected = dense_counts(*edges, ego, setup, target,
                                [FrameRun(row, g if dropout else None)
                                 for (row, dropout), g in zip(runs, ref)])
        assert _listed(counts) == _listed(expected)
        assert [g.bit_generator.state for g in own] == [g.bit_generator.state for g in ref]


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

        def cloud(t, returns, rays_per_arc=None):
            return PointCloud(t, returns, 390, rays_per_arc or {(0.0, TAU): 390})

        def halves(left, right):
            return {(0.0, math.pi): left, (math.pi, TAU): right}

        assert cloud(0.0, one) == cloud(0.0, one.copy())
        assert cloud(0.0, one) != cloud(0.0, other)
        assert cloud(0.0, one) != cloud(0.0, one[:0])
        assert cloud(0.0, one) != cloud(0.05, one)
        assert cloud(0.0, one, halves(195, 195)) != cloud(0.0, one, halves(194, 196))
        assert cloud(0.0, one, halves(195, 195)) == cloud(0.0, one, halves(195, 195))
