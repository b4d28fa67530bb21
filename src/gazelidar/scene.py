"""Planar world model: ego sensor, moving rectangular obstacles, ray casting.

Everything is 2D. Obstacles are oriented rectangles that translate along
their heading at constant speed; the ego vehicle is a point sensor origin
and is never ray-cast against.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

TAU = math.tau

# Each edge's bearing interval is widened by this much on both sides, far
# more than the rounding of the intersection algebra can move a hit.
BEARING_PAD = 1e-6
# An edge whose bearing span comes this close to pi lies on a line through
# or near the sensor; its interval is not trusted and every ray tests it.
NEAR_PI = 1e-3
# Likewise when the sensor sits this close to an edge end, relative to the
# end distances, and that end's bearing is mostly rounding.
NEAR_END = 1e-8
# The farthest a box vertex may lie from the sensor on either axis, in m. An
# edge then spans at most twice that, so the products of coordinate
# differences that the caster forms, and their differences, stay below
# 4 * MAX_OFFSET**2, far inside the doubles.
MAX_OFFSET = 1e150


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Vec2 components must be finite")

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class ObstacleBox:
    """Oriented rectangle translating along its heading at constant speed.

    half_length spans the heading axis, half_width the perpendicular one.
    """

    id: int
    center: Vec2
    heading: float
    half_length: float
    half_width: float
    speed: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"obstacle {self.id}: id must be non-negative; casts mark a miss -1")
        if self.half_length <= 0.0 or self.half_width <= 0.0:
            raise ValueError(f"obstacle {self.id}: box half-extents must be positive")
        if self.speed < 0.0:
            raise ValueError(f"obstacle {self.id}: speed must be non-negative")


@dataclass(frozen=True)
class Scene:
    """Frozen snapshot of the world. Obstacles are kept sorted by id."""

    ego_position: Vec2
    obstacles: tuple[ObstacleBox, ...]
    conflict_point: Vec2

    def __post_init__(self) -> None:
        ids = [o.id for o in self.obstacles]
        if len(set(ids)) != len(ids):
            raise ValueError("obstacle ids must be unique")
        object.__setattr__(self, "obstacles", tuple(sorted(self.obstacles, key=lambda o: o.id)))

    def obstacle(self, obstacle_id: int) -> ObstacleBox:
        for o in self.obstacles:
            if o.id == obstacle_id:
                return o
        raise KeyError(f"no obstacle with id {obstacle_id}")


def advance(scene: Scene, t: float) -> Scene:
    """Translate every obstacle by t * speed along its heading.

    Pure; the input scene is untouched. Composition is linear:
    advance(advance(s, a), b) matches advance(s, a + b) on centers.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    moved = []
    for o in scene.obstacles:
        if o.speed == 0.0 or t == 0.0:
            moved.append(o)
            continue
        dx = t * o.speed * math.cos(o.heading)
        dy = t * o.speed * math.sin(o.heading)
        moved.append(dataclasses.replace(o, center=Vec2(o.center.x + dx, o.center.y + dy)))
    return dataclasses.replace(scene, obstacles=tuple(moved))


def edges_at(scene: Scene, times, centers=None) -> tuple[np.ndarray, np.ndarray]:
    """Edge rows of every box of advance(scene, t) for every t in times.

    Returns (edges, ids): a (K, 4m, 4) array whose row 4i + j of frame k is
    edge j of advance(scene, times[k]).obstacles[i] as px, py, qx, qy, and
    the (4m,) obstacle id of each row. A box's vertices run counter-clockwise
    from (+half_length, +half_width) in its own frame, and edge j goes from
    vertex j to vertex j + 1 mod 4. The centers take advance()'s float
    operations in the same order; a box that advance() leaves in place gets
    x + 0.0 here, which can change only the sign of a zero coordinate, and
    every vertex adds a nonzero offset to it.

    centers, an (S, m, 2) array, stacks S runs of the same boxes from other
    start centers: frame s * K + k of the (S * K, 4m, 4) result is run s at
    times[k], as if obstacles[i] had started at centers[s, i].
    """
    boxes = scene.obstacles
    heading_cos = np.array([math.cos(o.heading) for o in boxes])
    heading_sin = np.array([math.sin(o.heading) for o in boxes])
    speed = np.array([o.speed for o in boxes])
    if centers is None:
        centers = np.array([(o.center.x, o.center.y) for o in boxes]).reshape(1, len(boxes), 2)
    x0 = centers[:, None, :, 0]
    y0 = centers[:, None, :, 1]
    t = np.asarray(times, dtype=np.float64)[:, None]
    cx = (x0 + t * speed * heading_cos)[..., None]
    cy = (y0 + t * speed * heading_sin)[..., None]
    # vertex offsets along and across the heading: (hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)
    sl = np.array([o.half_length for o in boxes])[:, None] * [1.0, -1.0, -1.0, 1.0]
    sw = np.array([o.half_width for o in boxes])[:, None] * [1.0, 1.0, -1.0, -1.0]
    ch = heading_cos[:, None]
    sh = heading_sin[:, None]
    px = cx + sl * ch - sw * sh
    py = cy + sl * sh + sw * ch
    nxt = [1, 2, 3, 0]
    edges = np.stack((px, py, px[..., nxt], py[..., nxt]), axis=-1)
    ids = np.repeat(np.array([o.id for o in boxes], dtype=np.int64), 4)
    return edges.reshape(centers.shape[0] * t.shape[0], 4 * len(boxes), 4), ids


def ray_fan(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invariants of a set of firing angles that every cast of them reuses:
    (cos, sin, key, order), the cos and sin per ray, and the n bearings mod
    tau in ascending order, then the same again plus tau, with the ray index
    of each (a stable sort, tiled twice)."""
    key = np.mod(angles, TAU)
    order = np.argsort(key, kind="stable")
    key = key[order]
    return np.cos(angles), np.sin(angles), np.concatenate((key, key + TAU)), np.tile(order, 2)


def _candidate_pairs(key: np.ndarray, order: np.ndarray, wx: np.ndarray, wy: np.ndarray,
                     ex: np.ndarray, ey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ray, edge) index pairs whose ray can intersect the edge.

    Seen from the origin, the edge from w to w + e covers the shorter arc
    between its end bearings. key and order are ray_fan's doubled bearings
    and ray indices, so each padded arc, which starts in [0, tau] and is
    under pi wide, is one run of rays, also across 0/tau. Edges on a line
    through or near the origin, or with an end at it, are paired with every
    ray.
    """
    qx = wx + ex
    qy = wy + ey
    b1 = np.arctan2(wy, wx)
    ccw_span = np.mod(np.arctan2(qy, qx) - b1, TAU)
    ccw = ccw_span <= math.pi
    start = np.where(ccw, b1, b1 + ccw_span)
    width = np.where(ccw, ccw_span, TAU - ccw_span)
    r1 = np.hypot(wx, wy)
    r2 = np.hypot(qx, qy)
    whole = (width > math.pi - NEAR_PI) | (np.minimum(r1, r2) <= NEAR_END * (r1 + r2))

    lo = np.mod(start - BEARING_PAD, TAU)
    starts = np.searchsorted(key, lo, side="left")
    stops = np.searchsorted(key, lo + width + 2.0 * BEARING_PAD, side="right")
    starts[whole] = 0
    stops[whole] = key.shape[0] // 2
    lengths = stops - starts
    edge = np.repeat(np.arange(wx.shape[0]), lengths)
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return order[np.arange(edge.shape[0]) + offsets], edge


def cast_edges(edges: np.ndarray, edge_ids: np.ndarray, origin: Vec2, fan: tuple,
               base: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where K frames of edges change a base layer: the (frame, ray) slots an edge reaches.

    edges is a (K, E, 4) array of px, py, qx, qy rows, in the same order in
    every frame, and edge_ids the (E,) obstacle id of each row, as edges_at
    gives them. `fan` is ray_fan of the n rays' angles. Every frame starts
    from the layer base = (ranges, ids), (n,) ranges and int64 ids of a
    cast, nan and -1 where it misses; a nan range compares false, so it
    bounds no hit and ties none without an inf copy. Only the (ray, edge)
    pairs that _candidate_pairs keeps are solved, all K frames in one pass.
    Returns (slots, ranges, hit_ids) for the slots, frame * n + ray in
    ascending order, where some edge hits at or nearer than the base: the
    nearest range there, and the smallest obstacle id at that range, ids
    compared as uint64 and the base's included on a tie; edge ids are at
    least 0. Every other slot keeps the base's range and id. There is no
    range limit: a caller keeps a hit where its range is at most the ray's
    max range, which is what limiting every layer and edge gives, since the
    nearest hit within a limit is the unlimited nearest if that lies within
    it, else none.
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

    # ray-parameter solve of ray o + t d against edge p + u e; a hit beyond the
    # base's range cannot change its slot
    dx = cos[ray]
    dy = sin[ray]
    denom = dx * ey[edge] - dy * ex[edge]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (wx * ey - wy * ex)[edge] / denom
        u = (dy * wx[edge] - dx * wy[edge]) / denom
    valid = (denom != 0.0) & (u >= 0.0) & (u <= 1.0) & (t > 0.0) & ~(t > base_ranges[ray])
    frame, edge = np.divmod(edge[valid], m)
    pair_slots = frame * n + ray[valid]
    t = t[valid]
    # each slot's nearest range, then the smallest id at it; a scratch entry is
    # written and read only at the slots of these pairs
    size = frames * n
    nearest = np.empty(size)
    nearest[pair_slots] = np.inf
    np.minimum.at(nearest, pair_slots, t)
    at = t == nearest[pair_slots]
    lowest = np.empty(size, dtype=np.int64)
    lowest[pair_slots] = np.iinfo(np.int64).max
    np.minimum.at(lowest, pair_slots[at], edge_ids[edge[at]])
    touched = np.zeros(size, dtype=bool)
    touched[pair_slots] = True
    slots = np.flatnonzero(touched)
    t, ids = nearest[slots], lowest[slots]
    ray = slots % n
    # a miss's -1, the largest id as uint64, never wins a tie
    base_id = base_ids[ray]
    tie = (t == base_ranges[ray]) & (base_id >= 0) & (base_id < ids)
    ids[tie] = base_id[tie]
    return slots, t, ids


def cast_rays(scene: Scene, origin: Vec2, angles: np.ndarray, max_ranges: np.ndarray,
              fan: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest intersection of each ray with any obstacle edge.

    Returns (ranges, hit_ids); misses carry range nan and id -1. A hit range
    lies in (0, max_range], and a nan max_range misses; exact range ties
    across obstacles resolve to the smaller obstacle id. A one-frame
    cast_edges from an all-miss layer, its slots written into one dense
    frame and clipped to max_ranges; `fan` must be ray_fan(angles) when given.
    """
    angles = np.asarray(angles, dtype=np.float64)
    max_ranges = np.asarray(max_ranges, dtype=np.float64)
    if np.any(max_ranges <= 0.0):
        raise ValueError("max_range must be positive")
    ranges = np.full(angles.shape, np.nan)
    hit_ids = np.full(angles.shape, -1, dtype=np.int64)
    slots, slot_ranges, slot_ids = cast_edges(*edges_at(scene, (0.0,)), origin,
                                              ray_fan(angles) if fan is None else fan,
                                              (ranges, hit_ids))
    ranges[slots] = slot_ranges
    hit_ids[slots] = slot_ids
    beyond = ~(ranges <= max_ranges)   # a miss's nan compares false too
    ranges[beyond] = np.nan
    hit_ids[beyond] = -1
    return ranges, hit_ids
