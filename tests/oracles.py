"""Independent reference implementations used to cross-check the package.

Each oracle takes a different computational route from the production code:
box edges from scalar vertex math instead of edges_at's arrays,
line-line intersection via homogeneous determinants instead of the ray
parameter solve, a scalar and a dense rays x edges ray-parameter solve
instead of the bearing-culled one, fixed-point iteration instead of
bisection, a dense (K, n) cast and scan of every pulse of every frame
instead of the slots the movers reach, per-frame stepping instead of
closed-form motion, stdlib
statistics instead of numpy percentiles, a linear scan instead of a
search for the plan segment under a bearing or for the arc that holds an
angle, a trace lookup per frame
instead of one frame bound per trace sample, and a run loop that rebuilds
the scan plan every frame instead of once per gaze state, casts the whole
scene every frame instead of its static boxes once per gaze state, and scans
and counts one frame at a time instead of a chunk of frames per call, and
output writers that put every row of every run through csv.writer, and a
summary that gathers densities in a Python list, instead of quoting each
run's fields once and reusing a copied run's formatted rows.
"""
from __future__ import annotations

import csv
import math
import statistics
from typing import NamedTuple

import numpy as np

from gazelidar.atmosphere import fog_from_fraction
from gazelidar.gaze import compute_rof, compute_roi, normalize_angle
from gazelidar.lidar import scan_revolution
from gazelidar.metrics import SAMPLE_DTYPE, density, detect
from gazelidar.policy import build_scan_plan
from gazelidar import __version__
from gazelidar.runner import RunRecord, quartiles
from gazelidar.scene import ObstacleBox, Scene, Vec2, _candidate_pairs, advance


class RayHit(NamedTuple):
    range_m: float
    hit_id: int


def box_segments(box) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """The box's four edges as ((px, py), (qx, qy)), scalar math.

    Vertices run counter-clockwise from (+half_length, +half_width) in the
    box frame, and edge j joins vertex j to vertex j + 1 mod 4.
    """
    ch = math.cos(box.heading)
    sh = math.sin(box.heading)
    hl = box.half_length
    hw = box.half_width
    cx = box.center.x
    cy = box.center.y
    v = [(cx + sl * ch - sw * sh, cy + sl * sh + sw * ch)
         for sl, sw in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]
    return [(v[i], v[(i + 1) % 4]) for i in range(4)]


def brute_force_cast(scene: Scene, origin: Vec2, angle: float, max_range: float):
    """Nearest hit by checking every edge of every obstacle, scalar math."""
    ox, oy = origin.x, origin.y
    dx, dy = math.cos(angle), math.sin(angle)
    # ray line in implicit form a x + b y = c
    a1, b1 = dy, -dx
    c1 = dy * ox - dx * oy
    best_t = math.inf
    best_id = -1
    for obstacle in scene.obstacles:
        for (x1, y1), (x2, y2) in box_segments(obstacle):
            a2 = y2 - y1
            b2 = -(x2 - x1)
            c2 = a2 * x1 + b2 * y1
            det = a1 * b2 - a2 * b1
            if det == 0.0:
                continue
            px = (c1 * b2 - c2 * b1) / det
            py = (a1 * c2 - a2 * c1) / det
            t = (px - ox) * dx + (py - oy) * dy
            if not (0.0 < t <= max_range):
                continue
            if abs(x2 - x1) >= abs(y2 - y1):
                u = (px - x1) / (x2 - x1)
            else:
                u = (py - y1) / (y2 - y1)
            if 0.0 <= u <= 1.0 and t < best_t:
                best_t = t
                best_id = obstacle.id
    if best_id < 0:
        return None
    return RayHit(best_t, best_id)


def scalar_cast(scene: Scene, origin: Vec2, angle: float, max_range: float):
    """Nearest hit of one ray, the ray-parameter solve in scalar math.

    Same algebra as cast_rays, so a hit's range agrees bit for bit; exact
    range ties resolve to the smaller obstacle id.
    """
    if max_range <= 0.0:
        raise ValueError("max_range must be positive")
    dx = math.cos(angle)
    dy = math.sin(angle)
    best_t = math.inf
    best_id = -1
    for obstacle in scene.obstacles:
        for (px, py), (qx, qy) in box_segments(obstacle):
            ex = qx - px
            ey = qy - py
            denom = dx * ey - dy * ex
            if denom == 0.0:
                continue
            wx = px - origin.x
            wy = py - origin.y
            t = (wx * ey - wy * ex) / denom
            u = (wx * dy - wy * dx) / denom
            if 0.0 <= u <= 1.0 and 0.0 < t <= max_range and t < best_t:
                best_t = t
                best_id = obstacle.id
    if best_id < 0:
        return None
    return RayHit(best_t, best_id)


def dense_cast_rays(scene: Scene, origin: Vec2, angles, max_ranges):
    """cast_rays without culling: every ray against every edge, rays x edges.

    Returns (ranges, hit_ids) with nan / -1 on a miss.
    """
    angles = np.asarray(angles, dtype=np.float64)
    max_ranges = np.asarray(max_ranges, dtype=np.float64)
    if np.any(max_ranges <= 0.0):
        raise ValueError("max_range must be positive")
    n = angles.shape[0]
    segments = [(p, q, o.id) for o in scene.obstacles for p, q in box_segments(o)]
    out_r = np.full(n, np.nan)
    out_id = np.full(n, -1, dtype=np.int64)
    if not segments or n == 0:
        return out_r, out_id
    p1 = np.array([p for p, _, _ in segments], dtype=np.float64)
    p2 = np.array([q for _, q, _ in segments], dtype=np.float64)
    seg_ids = np.array([i for _, _, i in segments], dtype=np.int64)
    dx = np.cos(angles)
    dy = np.sin(angles)
    ex = p2[:, 0] - p1[:, 0]
    ey = p2[:, 1] - p1[:, 1]
    wx = p1[:, 0] - origin.x
    wy = p1[:, 1] - origin.y
    denom = np.outer(dx, ey) - np.outer(dy, ex)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (wx * ey - wy * ex) / denom
        u = (np.outer(dy, wx) - np.outer(dx, wy)) / denom
    valid = (denom != 0.0) & (u >= 0.0) & (u <= 1.0) & (t > 0.0) & (t <= max_ranges[:, None])
    t = np.where(valid, t, np.inf)
    # segments follow obstacle id order and argmin takes the first minimum
    j = np.argmin(t, axis=1)
    best = t[np.arange(n), j]
    hit = np.isfinite(best)
    out_r[hit] = best[hit]
    out_id[hit] = seg_ids[j[hit]]
    return out_r, out_id


def dense_cast_edges(edges, edge_ids, origin: Vec2, fan, base):
    """cast_edges as dense (K, n) frames: (ranges, hit_ids), nan and -1 on a miss.

    The base layer is tiled over the K frames, every solved hit lowers its
    slot's range with np.minimum.at, and the ids at each slot's nearest
    range, the base's included, are reduced as uint64.
    """
    cos, sin, key, order = fan
    frames, m = edges.shape[:2]
    n = cos.shape[0]
    base_ranges, base_ids = base
    edges = edges.reshape(-1, 4)
    ex = edges[:, 2] - edges[:, 0]
    ey = edges[:, 3] - edges[:, 1]
    wx = edges[:, 0] - origin.x
    wy = edges[:, 1] - origin.y
    ray, edge = _candidate_pairs(key, order, wx, wy, ex, ey)
    dx = cos[ray]
    dy = sin[ray]
    denom = dx * ey[edge] - dy * ex[edge]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (wx * ey - wy * ex)[edge] / denom
        u = (dy * wx[edge] - dx * wy[edge]) / denom
    valid = (denom != 0.0) & (u >= 0.0) & (u <= 1.0) & (t > 0.0)
    ray, edge, t = ray[valid], edge[valid], t[valid]
    frame, edge = np.divmod(edge, m)
    slot = frame * n + ray
    base_near = np.where(np.isnan(base_ranges), np.inf, base_ranges)
    nearest = np.tile(base_near, frames)
    np.minimum.at(nearest, slot, t)
    hit_ids = np.tile(base_ids, frames)
    at_slot = nearest[slot]
    hit_ids[slot[at_slot < base_near[ray]]] = -1
    at_nearest = t == at_slot
    np.minimum.at(hit_ids.view(np.uint64), slot[at_nearest],
                  edge_ids[edge[at_nearest]].view(np.uint64))
    nearest[hit_ids < 0] = np.nan
    return nearest.reshape(frames, n), hit_ids.reshape(frames, n)


def dense_scan_frames(edges, edge_ids, origin: Vec2, setup, runs):
    """scan_frames per pulse: (ranges, hit_ids, hit), (K, n) arrays of every frame.

    Each frame is dense_cast_edges over the setup's static layer; a hit
    counts within the max range of its pulse in the run's row and, for a
    run with a generator, whatever the sigma of that row, survives where its
    uniform lies below exp(-sigma r), one uniform drawn for every pulse of
    the run's block, hit or not.
    """
    fan = (setup.cos, setup.sin, setup.key, setup.order)
    ranges, hit_ids = dense_cast_edges(edges, edge_ids, origin, fan,
                                       (setup.static_ranges, setup.static_ids))
    blocks = ranges.reshape(len(runs), -1, ranges.shape[1])
    hit = blocks <= setup.max_ranges[[run.row for run in runs]][:, None]
    for s, run in enumerate(runs):
        if run.rng is not None:
            survival = np.exp(np.where(hit[s], blocks[s], 0.0) * -setup.sigmas[run.row])
            hit[s] &= run.rng.random(survival.shape) < survival
    return ranges, hit_ids, hit.reshape(ranges.shape)


def dense_counts(edges, edge_ids, origin: Vec2, setup, target_id: int, runs):
    """scan_frames's (targets, rois), each (S, k), counted over dense_scan_frames's pulses."""
    _, hit_ids, hit = dense_scan_frames(edges, edge_ids, origin, setup, runs)
    stack = (len(runs), -1, hit.shape[1])
    hit_ids, hit = hit_ids.reshape(stack), hit.reshape(stack)
    return (np.count_nonzero(hit & (hit_ids == target_id), axis=-1),
            np.count_nonzero(hit & setup.in_roi, axis=-1))


def segment_at(plan, angle: float):
    """The plan segment whose half-open arc [start, end) holds the bearing."""
    for seg in plan.segments:
        if seg.start <= angle < seg.end:
            return seg
    raise ValueError(f"bearing {angle} outside the plan")


def arcs_contain(arc_set, angle: float) -> bool:
    """Whether an ArcSet holds the angle, taken mod tau: a walk over its sorted
    half-open arcs, scalar float math instead of a search of the arc starts."""
    a = normalize_angle(angle)
    for start, end in arc_set.arcs:
        if start <= a < end:
            return True
        if a < start:
            break
    return False


def states_per_frame(trace, frame_rate: float, end: float) -> list:
    """The gaze state each frame reads, by one trace.at lookup per frame.

    Frame k runs at k / frame_rate while that is below `end`.
    """
    t = np.arange(math.ceil(end * frame_rate) + 1) / frame_rate
    return [trace.at(float(x)) for x in t[t < end]]


def stepped_advance(scene: Scene, total_t: float, steps: int) -> Scene:
    """Motion integrated in many small advance() steps instead of one."""
    out = scene
    for _ in range(steps):
        out = advance(out, total_t / steps)
    return out


def wrap_to_pi(angle: float) -> float:
    """Map an angle in radians to (-pi, pi]."""
    a = normalize_angle(angle)
    if a > math.pi:
        a -= math.tau
    return a


def acuity_value(acuity, offset: float) -> float:
    """The acuity profile V at a bearing offset from the gaze, in radians."""
    a = wrap_to_pi(offset)
    if acuity.kind == "boxcar":
        return 1.0 if abs(a) <= acuity.half_width else 0.0
    return math.exp(-(a * a) / (2.0 * acuity.sigma * acuity.sigma))


def bisect_threshold_half_width(acuity, eta: float, tol: float = 1e-12) -> float:
    """Half-width of {V > eta} found by bisection on V(alpha) - eta.

    Assumes V is non-increasing on [0, pi] with V(0) = 1 > eta.
    """
    lo, hi = 0.0, math.pi
    if acuity_value(acuity, hi) > eta:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if acuity_value(acuity, mid) > eta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_range(p_emit: float, sigma: float, cal, iterations: int = 200) -> float:
    """Solve p e^(-2 sigma r) / r^2 = c by iterating r = sqrt(p/c) e^(-sigma r)."""
    scale = math.sqrt(p_emit / cal.detection_constant)
    r = scale
    for _ in range(iterations):
        r = scale * math.exp(-sigma * r)
    return r


def quartiles_inclusive(values):
    """Q1, median, Q3 with the stdlib's inclusive linear interpolation."""
    vals = sorted(values)
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return q[0], q[1], q[2]


def jittered_scene(config, rng) -> Scene:
    """The config scene with each moving box's start moved back along its
    heading by its own scalar draw from U(-spawn_jitter_m, spawn_jitter_m),
    in id order; static boxes stay. Nothing is drawn without jitter."""
    scene = config.scene
    if config.spawn_jitter_m <= 0.0:
        return scene
    jittered = []
    for o in scene.obstacles:
        if o.speed > 0.0:
            shift = rng.uniform(-config.spawn_jitter_m, config.spawn_jitter_m)
            c = Vec2(o.center.x - shift * math.cos(o.heading),
                     o.center.y - shift * math.sin(o.heading))
            o = ObstacleBox(o.id, c, o.heading, o.half_length, o.half_width, o.speed)
        jittered.append(o)
    return Scene(scene.ego_position, tuple(jittered), scene.conflict_point)


def per_frame_run(config, variant, fog_fraction: float, seed: int) -> RunRecord:
    """run_single's frame loop with nothing cached across frames.

    RoF, RoI, scan plan, pulse directions and effective ranges are all
    rebuilt every frame, every box, static or moving, is advanced and cast
    in one layer, and the start scene draws its jitter one box at a time.
    scan_revolution is handed the generator only with fog_dropout on in a
    fog of positive sigma. Failures propagate; wall_time is 0.
    """
    rng = np.random.default_rng(seed)
    fog = fog_from_fraction(fog_fraction, config.kappa)
    omega = math.tau * config.frame_rate
    scene0 = jittered_scene(config, rng)
    target = scene0.obstacle(config.target_id)
    samples = []
    tta = None
    frame = 0
    while frame / config.frame_rate < config.max_sim_time:
        t = frame / config.frame_rate
        scene_t = advance(scene0, t)
        rof = compute_rof(config.gaze_trace.at(t), config.acuity)
        roi = compute_roi(rof)
        plan = build_scan_plan(variant, rof, roi, config.calibration, omega,
                               config.pulse_rate, config.p_max)
        cloud = scan_revolution(scene_t, plan, fog, config.calibration, t,
                                rng if config.dropout and fog.sigma > 0.0 else None)
        samples.append(density(cloud, roi))
        frame += 1
        if detect(cloud, config.target_id, config.min_points):
            tgt = scene_t.obstacle(config.target_id)
            dist = tgt.center.distance_to(scene_t.conflict_point)
            tta = dist / target.speed
            break
    return RunRecord(variant, fog_fraction, seed, tta,
                     np.array(samples, dtype=SAMPLE_DTYPE), frame, None, 0.0)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def per_row_results_csv(records, path) -> None:
    """results.csv with every row through csv.writer and every mean summed anew."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "fog", "seed", "detected", "tta_s", "frames",
                         "mean_density_pts_per_deg"])
        for rec in records:
            mean_density = ""
            if len(rec.samples):
                mean_density = _fmt(sum(rec.samples["density"].tolist()) / len(rec.samples))
            writer.writerow([
                rec.variant.variant,
                _fmt(rec.fog_fraction),
                rec.seed,
                "true" if rec.tta is not None else "false",
                _fmt(rec.tta) if rec.tta is not None else "",
                rec.frames,
                mean_density,
            ])


def per_row_density_samples_csv(records, path) -> None:
    """density_samples.csv with every row through csv.writer and every float formatted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "fog", "seed", "frame", "points_in_roi",
                         "roi_width_deg", "density_pts_per_deg"])
        for rec in records:
            run = rec.variant.variant, _fmt(rec.fog_fraction), rec.seed
            writer.writerows((*run, k, count, _fmt(width), _fmt(per_deg))
                             for k, (count, width, per_deg) in enumerate(rec.samples.tolist()))


def listed_summary(records) -> dict:
    """summarize with each cell's densities gathered in a Python list."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.variant.variant, rec.fog_fraction), []).append(rec)
    out = []
    for (name, fog), recs in sorted(cells.items()):
        ttas = [r.tta for r in recs if r.tta is not None]
        densities = [d for r in recs for d in r.samples["density"].tolist()]
        cell = {
            "variant": name,
            "fog": fog,
            "runs": len(recs),
            "failures": sum(1 for r in recs if r.failed),
            "detected": len(ttas),
            "tta_s": None,
            "density_pts_per_deg": None,
        }
        if ttas:
            q1, med, q3 = quartiles(ttas)
            cell["tta_s"] = {"q1": q1, "median": med, "q3": q3}
        if densities:
            q1, med, q3 = quartiles(densities)
            cell["density_pts_per_deg"] = {"q1": q1, "median": med, "q3": q3}
        out.append(cell)
    return {"version": __version__, "cells": out}
