"""Paths and scene builders shared between the unit and acceptance suites."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from gazelidar.scene import ObstacleBox, Scene, Vec2

TAU = math.tau
REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
DEFAULT_CONFIG = CONFIG_DIR / "t_intersection.json"
# A scene without boxes: a revolution_setup over it has an all-miss static layer.
EMPTY_SCENE = Scene(Vec2(0.0, 0.0), (), Vec2(0.0, 50.0))


def make_random_scene(rng: np.random.Generator, min_boxes: int = 5,
                      max_boxes: int = 15) -> Scene:
    """A handful of static boxes scattered in an annulus around the sensor.

    Boxes stay at least 10 m out so the origin is never inside one.
    """
    n = int(rng.integers(min_boxes, max_boxes + 1))
    ids = rng.choice(np.arange(1, 100), size=n, replace=False)
    obstacles = []
    for oid in ids:
        bearing = rng.uniform(0.0, TAU)
        dist = rng.uniform(10.0, 80.0)
        center = Vec2(dist * math.cos(bearing), dist * math.sin(bearing))
        obstacles.append(ObstacleBox(
            int(oid), center, rng.uniform(0.0, TAU),
            rng.uniform(0.5, 6.0), rng.uniform(0.5, 2.5), 0.0))
    return Scene(Vec2(0.0, 0.0), tuple(obstacles), Vec2(0.0, 50.0))


def make_enclosing_scene(distance: float = 40.0) -> Scene:
    """Four overlapping walls boxing the sensor in on every bearing.

    The farthest inner-face point is distance * sqrt(2), so with the default
    40 m every ray returns well inside the nominal 100 m range.
    """
    layout = [
        (distance, 0.0, 90.0),
        (0.0, distance, 0.0),
        (-distance, 0.0, 90.0),
        (0.0, -distance, 0.0),
    ]
    walls = tuple(
        ObstacleBox(i, Vec2(cx, cy), math.radians(heading),
                    distance + 5.0, 1.0, 0.0)
        for i, (cx, cy, heading) in enumerate(layout, start=1))
    return Scene(Vec2(0.0, 0.0), walls, Vec2(0.0, distance))
