"""World model: box geometry, motion, and the ray caster."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazelidar.scene import (ObstacleBox, Scene, Vec2, advance, cast_edges, cast_rays, edges_at,
                             ray_fan)
from helpers import make_random_scene
from oracles import (box_segments, brute_force_cast, dense_cast_edges, dense_cast_rays, scalar_cast,
                     stepped_advance)

TAU = math.tau


def _single_box_scene(center=(50.0, 0.0), heading=0.0, hl=2.0, hw=3.0, oid=1,
                      speed=0.0):
    box = ObstacleBox(oid, Vec2(*center), heading, hl, hw, speed)
    return Scene(Vec2(0.0, 0.0), (box,), Vec2(0.0, 10.0))


def _edges_of(box):
    """edges_at's (4, 4) rows of one box where it stands."""
    return edges_at(Scene(Vec2(0.0, 0.0), (box,), Vec2(0.0, 1.0)), (0.0,))[0][0]


def _vertices(box):
    """The box's vertices, in edges_at's order, as (x, y) tuples."""
    return [(px, py) for px, py, _, _ in _edges_of(box).tolist()]


def _cast_one(scene, origin, angle, max_range):
    """cast_rays for a single ray: (range, id), or None on a miss."""
    ranges, ids = cast_rays(scene, origin, np.array([angle]), np.array([max_range]))
    if ids[0] < 0:
        assert math.isnan(ranges[0])
        return None
    return float(ranges[0]), int(ids[0])


class TestVec2:
    def test_distance(self):
        assert Vec2(0.0, 0.0).distance_to(Vec2(3.0, 4.0)) == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, math.inf)


class TestObstacleBox:
    def test_rejects_bad_extents_and_speed(self):
        with pytest.raises(ValueError):
            ObstacleBox(1, Vec2(0, 0), 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ObstacleBox(1, Vec2(0, 0), 0.0, 1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            ObstacleBox(1, Vec2(0, 0), 0.0, 1.0, 1.0, -2.0)

    def test_rejects_a_negative_id(self):
        # a cast marks a miss with id -1, so a box with a negative id would be unseen
        with pytest.raises(ValueError, match="non-negative"):
            ObstacleBox(-1, Vec2(10.0, 0.0), 0.0, 1.0, 1.0, 0.0)
        assert ObstacleBox(0, Vec2(10.0, 0.0), 0.0, 1.0, 1.0, 0.0).id == 0

    def test_corners_axis_aligned(self):
        box = ObstacleBox(1, Vec2(0.0, 0.0), 0.0, 2.0, 1.0, 0.0)
        assert _vertices(box) == [(2.0, 1.0), (-2.0, 1.0), (-2.0, -1.0), (2.0, -1.0)]

    def test_corners_are_counterclockwise_with_the_right_area(self):
        box = ObstacleBox(1, Vec2(3.0, -7.0), 0.7, 2.5, 1.25, 0.0)
        c = _vertices(box)
        shoelace = sum(c[i][0] * c[(i + 1) % 4][1] - c[(i + 1) % 4][0] * c[i][1]
                       for i in range(4))
        assert shoelace / 2.0 == pytest.approx(4 * 2.5 * 1.25, rel=1e-12)
        assert shoelace > 0.0

    def test_heading_rotates_the_long_axis(self):
        box = ObstacleBox(1, Vec2(0.0, 0.0), math.pi / 2, 4.0, 1.0, 0.0)
        xs = [x for x, _ in _vertices(box)]
        ys = [y for _, y in _vertices(box)]
        assert max(xs) == pytest.approx(1.0, abs=1e-12)
        assert max(ys) == pytest.approx(4.0, abs=1e-12)

    def test_segments_close_the_loop(self):
        box = ObstacleBox(1, Vec2(1.0, 2.0), 0.3, 2.0, 1.0, 0.0)
        rows = _edges_of(box)
        assert rows.shape == (4, 4)
        for row, following in zip(rows, np.roll(rows, -1, axis=0)):
            assert row[2:].tolist() == following[:2].tolist()

    def test_edges_at_rows_are_the_segments_with_their_ids(self):
        a = ObstacleBox(4, Vec2(3.0, -7.0), 0.7, 2.5, 1.25, 0.0)
        b = ObstacleBox(2, Vec2(-1.0, 9.0), 2.1, 1.5, 0.5, 3.0)
        edges, ids = edges_at(Scene(Vec2(0, 0), (a, b), Vec2(0, 1)), (0.0,))
        expected = [[px, py, qx, qy] for o in (b, a) for (px, py), (qx, qy) in box_segments(o)]
        assert edges.shape == (1, 8, 4)
        assert edges[0].tolist() == expected
        assert ids.dtype == np.int64 and ids.tolist() == [2] * 4 + [4] * 4


class TestScene:
    def test_obstacles_sorted_by_id(self):
        a = ObstacleBox(7, Vec2(10, 0), 0.0, 1.0, 1.0, 0.0)
        b = ObstacleBox(3, Vec2(20, 0), 0.0, 1.0, 1.0, 0.0)
        scene = Scene(Vec2(0, 0), (a, b), Vec2(0, 1))
        assert [o.id for o in scene.obstacles] == [3, 7]

    def test_rejects_duplicate_ids(self):
        a = ObstacleBox(3, Vec2(10, 0), 0.0, 1.0, 1.0, 0.0)
        b = ObstacleBox(3, Vec2(20, 0), 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="unique"):
            Scene(Vec2(0, 0), (a, b), Vec2(0, 1))

    def test_lookup_by_id(self):
        scene = _single_box_scene(oid=9)
        assert scene.obstacle(9).id == 9
        with pytest.raises(KeyError):
            scene.obstacle(1)


class TestAdvance:
    def test_moves_along_heading(self):
        scene = _single_box_scene(center=(67.0, 66.0), heading=math.pi, speed=10.0)
        moved = advance(scene, 1.5)
        assert moved.obstacles[0].center.x == pytest.approx(67.0 - 15.0, abs=1e-12)
        assert moved.obstacles[0].center.y == pytest.approx(66.0, abs=1e-12)

    def test_zero_time_and_zero_speed_return_the_same_boxes(self):
        scene = _single_box_scene(speed=0.0)
        assert advance(scene, 3.0).obstacles[0] is scene.obstacles[0]
        moving = _single_box_scene(speed=5.0)
        assert advance(moving, 0.0).obstacles[0] is moving.obstacles[0]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            advance(_single_box_scene(), -0.1)

    def test_matches_many_small_steps(self):
        scene = _single_box_scene(center=(-30.0, 12.0), heading=0.37, speed=8.2)
        direct = advance(scene, 4.31)
        stepped = stepped_advance(scene, 4.31, 97)
        assert direct.obstacles[0].center.x == pytest.approx(
            stepped.obstacles[0].center.x, abs=1e-9)
        assert direct.obstacles[0].center.y == pytest.approx(
            stepped.obstacles[0].center.y, abs=1e-9)

    def test_composes_additively(self):
        scene = _single_box_scene(center=(5.0, 5.0), heading=1.1, speed=3.0)
        once = advance(scene, 7.0)
        twice = advance(advance(scene, 3.0), 4.0)
        assert once.obstacles[0].center.x == pytest.approx(
            twice.obstacles[0].center.x, abs=1e-12)
        assert once.obstacles[0].center.y == pytest.approx(
            twice.obstacles[0].center.y, abs=1e-12)


class TestCastRay:
    def test_axis_aligned_hit_is_exact(self):
        scene = _single_box_scene(center=(50.0, 0.0), hl=2.0, hw=3.0)
        assert _cast_one(scene, Vec2(0.0, 0.0), 0.0, 120.0) == (48.0, 1)

    def test_max_range_is_inclusive(self):
        scene = _single_box_scene(center=(50.0, 0.0), hl=2.0)
        assert _cast_one(scene, Vec2(0, 0), 0.0, 48.0) is not None
        assert _cast_one(scene, Vec2(0, 0), 0.0, 47.999) is None

    def test_miss_returns_none(self):
        scene = _single_box_scene(center=(50.0, 0.0))
        assert _cast_one(scene, Vec2(0, 0), math.pi, 120.0) is None

    def test_rejects_non_positive_max_range(self):
        with pytest.raises(ValueError):
            _cast_one(_single_box_scene(), Vec2(0, 0), 0.0, 0.0)

    def test_exact_tie_goes_to_the_smaller_id(self):
        box_hi = ObstacleBox(7, Vec2(50.0, 0.0), 0.0, 2.0, 3.0, 0.0)
        box_lo = ObstacleBox(3, Vec2(50.0, 0.0), 0.0, 2.0, 3.0, 0.0)
        scene = Scene(Vec2(0, 0), (box_hi, box_lo), Vec2(0, 1))
        assert scalar_cast(scene, Vec2(0, 0), 0.0, 120.0) == (48.0, 3)
        assert _cast_one(scene, Vec2(0, 0), 0.0, 120.0) == (48.0, 3)


class TestCastRaysBatch:
    def test_matches_scalar_caster_bit_for_bit(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            scene = make_random_scene(rng)
            angles = rng.uniform(0.0, TAU, size=256)
            max_ranges = np.full(256, 90.0)
            ranges, ids = cast_rays(scene, scene.ego_position, angles, max_ranges)
            for k in range(256):
                hit = scalar_cast(scene, scene.ego_position, float(angles[k]), 90.0)
                if hit is None:
                    assert ids[k] == -1 and math.isnan(ranges[k])
                else:
                    assert ids[k] == hit.hit_id
                    assert ranges[k] == hit.range_m

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        scene = make_random_scene(rng)
        angles = np.arange(720) * (TAU / 720)
        ranges, ids = cast_rays(scene, scene.ego_position, angles,
                                np.full(720, 100.0))
        for k in range(720):
            hit = brute_force_cast(scene, scene.ego_position, float(angles[k]), 100.0)
            if hit is None:
                assert ids[k] == -1
            else:
                assert ids[k] == hit.hit_id
                assert abs(ranges[k] - hit.range_m) <= 1e-9

    def test_empty_scene_misses_everywhere(self):
        scene = Scene(Vec2(0, 0), (), Vec2(0, 1))
        ranges, ids = cast_rays(scene, Vec2(0, 0), np.array([0.0, 1.0]),
                                np.array([50.0, 50.0]))
        assert np.all(ids == -1)
        assert np.all(np.isnan(ranges))

    def test_larger_max_range_only_adds_hits(self):
        rng = np.random.default_rng(11)
        scene = make_random_scene(rng)
        angles = rng.uniform(0.0, TAU, size=500)
        near_r, near_id = cast_rays(scene, scene.ego_position, angles,
                                    np.full(500, 40.0))
        far_r, far_id = cast_rays(scene, scene.ego_position, angles,
                                  np.full(500, 120.0))
        was_hit = near_id >= 0
        assert np.array_equal(near_id[was_hit], far_id[was_hit])
        assert np.array_equal(near_r[was_hit], far_r[was_hit])

    def test_rejects_non_positive_max_range(self):
        with pytest.raises(ValueError):
            cast_rays(_single_box_scene(), Vec2(0, 0), np.array([0.0]),
                      np.array([0.0]))



class TestRangeClip:
    """cast_rays casts at any range, then keeps a hit where its range is at most
    the ray's max range; brute_force_cast limits every edge it tries instead."""

    @staticmethod
    def _check(scene, angles, limits):
        """cast_rays with per-ray `limits` equals brute_force_cast ray by ray."""
        origin = scene.ego_position
        ranges, ids = cast_rays(scene, origin, np.array(angles), np.array(limits))
        for k, (angle, limit) in enumerate(zip(angles, limits)):
            hit = brute_force_cast(scene, origin, angle, limit)
            if hit is None:
                assert ids[k] == -1 and math.isnan(ranges[k]), (k, limit)
            else:
                assert ids[k] == hit.hit_id, (k, limit)
                assert abs(ranges[k] - hit.range_m) <= 1e-9
        return ids

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.data())
    def test_random_limits_match_the_brute_force_oracle(self, seed, twin, data):
        rng = np.random.default_rng(seed)
        scene = make_random_scene(rng, 1, 8)
        if twin:
            # a copy of the first box under a larger id: every hit on it ties
            o = scene.obstacles[0]
            scene = Scene(scene.ego_position, scene.obstacles + (ObstacleBox(
                100, o.center, o.heading, o.half_length, o.half_width, 0.0),),
                scene.conflict_point)
        bearings = [math.atan2(o.center.y, o.center.x) for o in scene.obstacles]
        angles = data.draw(st.lists(st.one_of(st.floats(0.0, TAU), st.sampled_from(bearings)),
                                    min_size=1, max_size=30))
        full, _ = cast_rays(scene, scene.ego_position, np.array(angles), np.inf)
        limits = []
        for angle, r in zip(angles, full.tolist()):
            kind = data.draw(st.sampled_from(["at hit", "below hit", "nan", "inf", "any"]))
            hit = brute_force_cast(scene, scene.ego_position, angle, math.inf)
            if kind in ("nan", "inf"):
                limits.append(float(kind))
            elif kind == "any" or hit is None:
                limits.append(data.draw(st.floats(1e-3, 200.0)))
            elif kind == "at hit":
                # the hit range itself where both solves agree to the bit,
                # else the larger of the two, which both keep
                limits.append(max(r, hit.range_m))
            else:
                limits.append(math.nextafter(min(r, hit.range_m), 0.0))
        self._check(scene, angles, limits)

    def test_an_exact_limit_a_nan_limit_and_a_tie_at_the_limit(self):
        # rays along the x axis hit the face at x = 48 (ids 3 and its twin 7)
        # and at x = -30 (id 5), in exact arithmetic in both solves
        near = ObstacleBox(7, Vec2(50.0, 0.0), 0.0, 2.0, 3.0, 0.0)
        twin = ObstacleBox(3, Vec2(50.0, 0.0), 0.0, 2.0, 3.0, 0.0)
        back = ObstacleBox(5, Vec2(-32.0, 0.0), 0.0, 2.0, 3.0, 0.0)
        scene = Scene(Vec2(0.0, 0.0), (near, twin, back), Vec2(0.0, 1.0))
        angles = [0.0, 0.0, 0.0, 0.0, math.pi, math.pi]
        limits = [48.0, math.nextafter(48.0, 0.0), math.nan, math.inf, 30.0, math.nan]
        assert brute_force_cast(scene, scene.ego_position, 0.0, 48.0) == (48.0, 3)
        ids = self._check(scene, angles, limits)
        assert ids.tolist() == [3, -1, -1, 3, 5, -1]


def _same_casts(scene, origin, angles, max_ranges):
    """The culled caster equals the dense oracle bit for bit, NaN-aware."""
    ranges, ids = cast_rays(scene, origin, angles, max_ranges)
    ref_ranges, ref_ids = dense_cast_rays(scene, origin, angles, max_ranges)
    return (np.array_equal(ids, ref_ids)
            and np.array_equal(ranges, ref_ranges, equal_nan=True))


def _random_boxes(rng, n, spread):
    return tuple(ObstacleBox(i + 1, Vec2(*rng.uniform(-spread, spread, 2)),
                             rng.uniform(0.0, TAU), rng.uniform(0.2, 5.0),
                             rng.uniform(0.2, 3.0), 0.0)
                 for i in range(n))


def _edge_bearings(scene, origin):
    return np.array([math.atan2(y - origin.y, x - origin.x)
                     for o in scene.obstacles for (x, y), _ in box_segments(o)])


class TestCulledCasterMatchesDenseOracle:
    """cast_rays solves only the (ray, edge) pairs whose bearings overlap;
    the dense oracle solves all of them with the same algebra."""

    def test_random_scenes(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            scene = make_random_scene(rng, 1, 25)
            angles = rng.uniform(0.0, TAU, size=600)
            max_ranges = rng.uniform(5.0, 120.0, size=600)
            assert _same_casts(scene, scene.ego_position, angles, max_ranges)

    def test_pulse_grid_through_every_corner_bearing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            scene = make_random_scene(rng)
            origin = scene.ego_position
            angles = np.concatenate((np.arange(3600) * (TAU / 3600.0),
                                     _edge_bearings(scene, origin) % TAU))
            assert _same_casts(scene, origin, np.sort(angles), np.full(angles.shape, 120.0))

    def test_sensor_inside_a_box(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            scene = Scene(Vec2(0, 0), _random_boxes(rng, int(rng.integers(1, 6)), 6.0), Vec2(0, 1))
            box = scene.obstacles[0]
            origin = Vec2(box.center.x + rng.uniform(-0.1, 0.1), box.center.y + rng.uniform(-0.1, 0.1))
            angles = rng.uniform(0.0, TAU, size=400)
            assert _same_casts(scene, origin, angles, np.full(400, 30.0))

    def test_sensor_on_an_edge_line_or_corner(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            scene = Scene(Vec2(0, 0), _random_boxes(rng, int(rng.integers(1, 6)), 6.0), Vec2(0, 1))
            (px, py), (qx, qy) = box_segments(scene.obstacles[0])[int(rng.integers(0, 4))]
            s = rng.choice([0.0, 1.0, 0.5, -0.5, 1.5, rng.uniform(-3.0, 4.0)])
            origin = Vec2(px + s * (qx - px), py + s * (qy - py))
            angles = np.concatenate((rng.uniform(0.0, TAU, size=200),
                                     _edge_bearings(scene, origin),
                                     [math.atan2(qy - py, qx - px), math.atan2(py - qy, px - qx)]))
            assert _same_casts(scene, origin, angles, np.full(angles.shape, 25.0))

    def test_sensor_just_off_a_corner(self):
        # an end bearing taken from a vector a few ulps long is mostly rounding
        rng = np.random.default_rng(11)
        for _ in range(100):
            box = ObstacleBox(1, Vec2(*rng.uniform(-50.0, 50.0, 2)), rng.uniform(0.0, TAU),
                              rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), 0.0)
            scene = Scene(Vec2(0, 0), (box,), Vec2(0, 1))
            (cx, cy), _ = box_segments(box)[int(rng.integers(0, 4))]
            offset = 10.0 ** rng.uniform(-14.0, -6.0)
            heading = rng.uniform(0.0, TAU)
            origin = Vec2(cx + offset * math.cos(heading), cy + offset * math.sin(heading))
            angles = np.concatenate([b + np.linspace(-1e-4, 1e-4, 201)
                                     for b in _edge_bearings(scene, origin)])
            assert _same_casts(scene, origin, angles, np.full(angles.shape, 100.0))

    def test_unsorted_and_out_of_range_angles(self):
        rng = np.random.default_rng(10)
        edge_cases = np.array([0.0, -0.0, -1e-20, 1e-20, TAU, -TAU, np.nextafter(TAU, 0.0),
                               math.pi, -math.pi, 3.0 * TAU + 0.25, -7.0 * TAU - 1.0])
        # a box across bearing 0, so keys of exactly tau meet a wrapping arc
        straddle = ObstacleBox(100, Vec2(8.0, 0.0), 0.0, 1.0, 2.0, 0.0)
        for _ in range(40):
            scene = make_random_scene(rng, 1, 25)
            scene = Scene(scene.ego_position, scene.obstacles + (straddle,), scene.conflict_point)
            angles = np.concatenate((rng.uniform(-4.0 * TAU, 4.0 * TAU, size=400), edge_cases))
            rng.shuffle(angles)
            assert _same_casts(scene, scene.ego_position, angles,
                               rng.uniform(5.0, 120.0, size=angles.shape))

    def test_empty_scene_and_all_miss(self):
        angles = np.arange(360) * (TAU / 360.0)
        empty = Scene(Vec2(0, 0), (), Vec2(0, 1))
        assert _same_casts(empty, Vec2(0, 0), angles, np.full(360, 50.0))
        scene = make_random_scene(np.random.default_rng(12))
        ranges, ids = cast_rays(scene, scene.ego_position, angles, np.full(360, 5.0))
        assert np.all(ids == -1) and np.all(np.isnan(ranges))
        assert _same_casts(scene, scene.ego_position, angles, np.full(360, 5.0))
        no_rays = np.empty(0)
        assert _same_casts(scene, scene.ego_position, no_rays, no_rays)

    def test_exact_ties_go_to_the_smaller_id(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            base = make_random_scene(rng)
            twins = tuple(ObstacleBox(o.id + 100, o.center, o.heading, o.half_length,
                                      o.half_width, 0.0) for o in base.obstacles)
            scene = Scene(base.ego_position, base.obstacles + twins, base.conflict_point)
            angles = rng.uniform(0.0, TAU, size=500)
            ranges, ids = cast_rays(scene, scene.ego_position, angles, np.full(500, 120.0))
            assert np.all(ids < 100)
            assert _same_casts(scene, scene.ego_position, angles, np.full(500, 120.0))


_COORD = st.floats(-200.0, 200.0, allow_nan=False)
_BOX = st.tuples(_COORD, _COORD,
                 st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 1.5 * math.pi]),
                           st.floats(0.0, TAU, exclude_max=True)),
                 st.floats(0.1, 10.0), st.floats(0.1, 5.0),
                 st.one_of(st.just(0.0), st.floats(0.0, 40.0)))


def _bits(a):
    """The raw float bits, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _frames(sparse, base, frames):
    """cast_edges' slots written over `frames` copies of its base layer: dense (K, n)
    ranges and ids."""
    slots, slot_ranges, slot_ids = sparse
    ranges, ids = (np.tile(layer, frames) for layer in base)
    ranges[slots] = slot_ranges
    ids[slots] = slot_ids
    return ranges.reshape(frames, -1), ids.reshape(frames, -1)


def _all_miss(n):
    """The layer of a cast that hits nothing: nan ranges and -1 ids."""
    return np.full(n, np.nan), np.full(n, -1, dtype=np.int64)


def _scene_of(boxes):
    return Scene(Vec2(0.0, 0.0), tuple(ObstacleBox(i + 1, Vec2(x, y), h, hl, hw, v)
                                       for i, (x, y, h, hl, hw, v) in enumerate(boxes)),
                 Vec2(0.0, 1.0))


class TestFrameBatches:
    """edges_at and cast_edges take K frames of moving boxes in one pass."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_BOX, max_size=6),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)), min_size=1, max_size=8))
    @example([(0.0, -0.0, math.pi / 2, 2.0, 1.0, 0.0), (-0.0, 0.0, math.pi, 1.5, 0.5, 3.0)],
             [0.0, 1.0])
    @example([(-0.0, -0.0, 1.5 * math.pi, 0.1, 5.0, 7.5), (0.0, 0.0, 0.0, 10.0, 0.1, 0.0),
              (0.0, -0.0, 2.0 * math.pi, 3.0, 2.0, 1.0)], [0.0, 0.0, 2.5])
    def test_edges_at_matches_advance_bit_for_bit(self, boxes, times):
        scene = _scene_of(boxes)
        edges, ids = edges_at(scene, times)
        assert edges.shape == (len(times), 4 * len(boxes), 4)
        assert ids.tolist() == [o.id for o in scene.obstacles for _ in range(4)]
        for k, t in enumerate(times):
            expected = [[px, py, qx, qy] for o in advance(scene, t).obstacles
                        for (px, py), (qx, qy) in box_segments(o)]
            assert np.array_equal(_bits(edges[k]), _bits(np.array(expected).reshape(-1, 4)))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_BOX, min_size=1, max_size=4), st.data())
    def test_stacked_start_centers_equal_one_call_per_run(self, boxes, data):
        scene = _scene_of(boxes)
        times = data.draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=5))
        runs = data.draw(st.lists(st.lists(st.tuples(_COORD, _COORD), min_size=len(boxes),
                                           max_size=len(boxes)), min_size=1, max_size=4))
        edges, ids = edges_at(scene, times, np.array(runs).reshape(len(runs), len(boxes), 2))
        assert edges.shape == (len(runs) * len(times), 4 * len(boxes), 4)
        for s, centers in enumerate(runs):
            moved = Scene(scene.ego_position, tuple(
                ObstacleBox(o.id, Vec2(*c), o.heading, o.half_length, o.half_width, o.speed)
                for o, c in zip(scene.obstacles, centers)), scene.conflict_point)
            own, own_ids = edges_at(moved, times)
            assert np.array_equal(own_ids, ids)
            assert np.array_equal(_bits(edges[s * len(times):(s + 1) * len(times)]), _bits(own))

    def test_k_frame_cast_equals_k_dense_casts(self):
        rng = np.random.default_rng(31)
        ties = clipped = 0
        for _ in range(15):
            base = make_random_scene(rng, 1, 8)
            boxes = tuple(ObstacleBox(o.id, o.center, o.heading, o.half_length,
                                      o.half_width, float(rng.uniform(0.0, 15.0)))
                          for o in base.obstacles)
            # a static twin of the first box ties with it at t = 0
            twin = boxes[0]
            boxes += (ObstacleBox(twin.id + 100, twin.center, twin.heading,
                                  twin.half_length, twin.half_width, 0.0),)
            scene = Scene(Vec2(*rng.uniform(-5.0, 5.0, 2)), boxes, base.conflict_point)
            times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 4.0, 6))))
            angles = rng.uniform(0.0, TAU, size=500)
            max_ranges = rng.uniform(5.0, 120.0, size=500)
            sparse = cast_edges(*edges_at(scene, times), scene.ego_position, ray_fan(angles),
                                _all_miss(500))
            slots = sparse[0]
            assert np.all(np.diff(slots) > 0) and np.all(sparse[2] >= 0)
            ranges, hit_ids = _frames(sparse, _all_miss(500), len(times))
            oracle = dense_cast_edges(*edges_at(scene, times), scene.ego_position,
                                      ray_fan(angles), _all_miss(500))
            assert np.array_equal(ranges, oracle[0], equal_nan=True)
            assert np.array_equal(hit_ids, oracle[1])
            # the slots are exactly those an edge hits
            assert np.array_equal(slots, np.flatnonzero(hit_ids >= 0))
            for k, t in enumerate(times):
                moved = advance(scene, t)
                # at any range, and clipped to each ray's max range
                ref_ranges, ref_ids = dense_cast_rays(moved, scene.ego_position, angles,
                                                      np.full(500, np.inf))
                assert np.array_equal(hit_ids[k], ref_ids)
                assert np.array_equal(ranges[k], ref_ranges, equal_nan=True)
                ref_ranges, ref_ids = dense_cast_rays(moved, scene.ego_position, angles,
                                                      max_ranges)
                kept = ranges[k] <= max_ranges
                assert np.array_equal(np.where(kept, hit_ids[k], -1), ref_ids)
                assert np.array_equal(np.where(kept, ranges[k], np.nan), ref_ranges,
                                      equal_nan=True)
                clipped += int(np.count_nonzero((hit_ids[k] >= 0) & ~kept))
            assert not np.any(hit_ids[0] == twin.id + 100)
            ties += bool(np.any(hit_ids[0] == twin.id))
        assert ties > 0 and clipped > 0

    def test_no_edges_and_no_rays_miss(self):
        angles = np.arange(8) * (TAU / 8)
        sparse = cast_edges(np.empty((3, 0, 4)), np.empty(0, dtype=np.int64), Vec2(0, 0),
                            ray_fan(angles), _all_miss(8))
        assert all(part.shape == (0,) for part in sparse)
        ranges, ids = _frames(sparse, _all_miss(8), 3)
        assert ranges.shape == (3, 8) and np.all(np.isnan(ranges)) and np.all(ids == -1)
        scene = make_random_scene(np.random.default_rng(32))
        sparse = cast_edges(*edges_at(scene, [0.0, 1.0]), scene.ego_position,
                            ray_fan(np.empty(0)), _all_miss(0))
        assert all(part.shape == (0,) for part in sparse)

    def test_an_edge_behind_the_base_changes_no_slot(self):
        # the base layer lies at 5 m on every ray: a box 40 m out is no slot,
        # and one whose faces reach 5 m exactly ties there
        angles = np.arange(64) * (TAU / 64)
        base = (np.full(64, 5.0), np.full(64, 7, dtype=np.int64))
        far = _scene_of([(40.0, 0.0, 0.0, 2.0, 2.0, 0.0)])
        assert all(part.shape == (0,) for part in cast_edges(
            *edges_at(far, (0.0,)), far.ego_position, ray_fan(angles), base))
        near = _scene_of([(7.0, 0.0, 0.0, 2.0, 8.0, 0.0)])   # its near face is x = 5
        slots, ranges, ids = cast_edges(*edges_at(near, (0.0,)), near.ego_position,
                                        ray_fan(angles), base)
        # ray 0 at bearing 0 meets the face at exactly 5 m, where the base's id 7 loses to 1
        assert slots[0] == 0 and ranges[0] == 5.0 and ids[0] == 1
        assert np.all(ranges <= 5.0)
