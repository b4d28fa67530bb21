"""Workload inputs, generated from a single seed argument.

Each workload is a run config plus a gaze trace, written as files into a
directory; the simulator receives only those files. The same seed gives
byte-identical files. The shipped workload is the paper's experiment and does
not depend on the seed.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "configs" / "t_intersection.json"

DENSE_BOXES = 100
DENSE_RADIUS_M = 80.0
# Moving cars travel along y = 66 m; clutter keeps this far from that line
# and from the sensor, so no box overlaps a lane or swallows the ego.
LANE_Y_M = 66.0
CLEARANCE_M = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    why: str


WORKLOADS = {
    "shipped": Workload(
        "shipped", 1,
        "The paper's sweep unchanged and serial: 228 of 240 runs repeat 12 "
        "distinct simulations, so run-level reuse shows here only."),
    "seeded_jobs2": Workload(
        "seeded_jobs2", 2,
        "Shipped scene with fog dropout and spawn jitter on --jobs 2: every run "
        "is distinct, so time sits in the small-scene frame path and the pool."),
    "dense": Workload(
        "dense", 2,
        "About 100 static boxes at 7,812 rays per frame on --jobs 2: the ray caster "
        "and per-return loops dominate; reuse and per-run invariants do not matter."),
}


def _shipped(seed: int) -> dict:
    return json.loads(SHIPPED_CONFIG.read_text())


def _seeded(seed: int) -> dict:
    config = _shipped(seed)
    rng = random.Random(f"seeded_jobs2/{seed}")
    config["fog_dropout"] = True
    config["spawn_jitter_m"] = 3.0
    config["seeds"] = sorted(rng.sample(range(1, 2 ** 31), 20))
    return config


def _dense_box(rng: random.Random, box_id: int) -> dict:
    while True:
        half_length = rng.uniform(1.0, 4.0)
        half_width = rng.uniform(0.5, 2.0)
        radius = math.hypot(half_length, half_width)
        r = rng.uniform(0.0, DENSE_RADIUS_M)
        bearing = rng.uniform(0.0, math.tau)
        x = r * math.cos(bearing)
        y = r * math.sin(bearing)
        if r > radius + CLEARANCE_M and abs(y - LANE_Y_M) > radius + CLEARANCE_M:
            return {"id": box_id, "center": [round(x, 4), round(y, 4)],
                    "heading_deg": round(rng.uniform(0.0, 360.0), 3),
                    "half_length": round(half_length, 3),
                    "half_width": round(half_width, 3), "speed_mps": 0.0}


def _dense(seed: int) -> dict:
    config = _shipped(seed)
    rng = random.Random(f"dense/{seed}")
    moving = [o for o in config["scenario"]["obstacles"] if o["speed_mps"] > 0.0]
    # A fixed wall 30 m out on the target's bearing keeps the target occluded
    # for the whole run, so every run lasts max_sim_time_s and the work per
    # sweep does not depend on where the random boxes fall.
    occluder = {"id": 3, "center": [21.2132, 21.2132], "heading_deg": 135.0,
                "half_length": 6.0, "half_width": 0.5, "speed_mps": 0.0}
    clutter = [_dense_box(rng, 100 + i) for i in range(DENSE_BOXES)]
    config["scenario"]["obstacles"] = moving + [occluder] + clutter
    config["pulse_rate_hz"] = 156250.0
    config["max_sim_time_s"] = 0.5
    config["fog_fractions"] = [0.5]
    config["seeds"] = [rng.randrange(1, 2 ** 31)]
    return config


_GENERATORS = {"shipped": _shipped, "seeded_jobs2": _seeded, "dense": _dense}


def write_workload(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's config and gaze trace into directory; return the config path."""
    config = _GENERATORS[name](seed)
    directory.mkdir(parents=True, exist_ok=True)
    trace_name = config["gaze_trace"]
    (directory / trace_name).write_bytes((SHIPPED_CONFIG.parent / trace_name).read_bytes())
    path = directory / f"{name}.json"
    if name == "shipped":
        path.write_bytes(SHIPPED_CONFIG.read_bytes())
    else:
        path.write_text(json.dumps(config, indent=2) + "\n")
    return path
