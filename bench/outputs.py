"""Read a sweep's output files into one fingerprint per run, and compare them.

Values are read by column name, so a version of the program that adds a
column still matches; any changed value in a known column changes that run's
fingerprint. A run's fingerprint covers its results.csv row, its
density_samples.csv rows and its (variant, fog) cell in summary.json.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

RUN_COLUMNS = ("detected", "tta_s", "frames", "mean_density_pts_per_deg")
FRAME_COLUMNS = ("frame", "points_in_roi", "roi_width_deg", "density_pts_per_deg")
CELL_KEYS = ("runs", "failures", "detected", "tta_s", "density_pts_per_deg")


def run_key(variant: str, fog, seed) -> str:
    return f"{variant}|{float(fog)!r}|{int(seed)}"


def read_runs(out_dir: Path) -> tuple[dict[str, str], int]:
    """Map each run's key to its fingerprint; also return the total output frames."""
    out_dir = Path(out_dir)
    parts: dict[str, list] = {}
    cell_of: dict[str, tuple] = {}
    frames = 0
    with open(out_dir / "results.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = run_key(row["variant"], row["fog"], row["seed"])
            parts.setdefault(key, []).append([row[c] for c in RUN_COLUMNS])
            cell_of[key] = (row["variant"], float(row["fog"]))
            frames += int(row["frames"])
    with open(out_dir / "density_samples.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = run_key(row["variant"], row["fog"], row["seed"])
            parts.setdefault(key, []).append([row[c] for c in FRAME_COLUMNS])
    summary = json.loads((out_dir / "summary.json").read_text())
    cells = {(c["variant"], float(c["fog"])): [c.get(k) for k in CELL_KEYS]
             for c in summary["cells"]}
    runs = {}
    for key, values in parts.items():
        blob = json.dumps([values, cells.get(cell_of.get(key))], sort_keys=True)
        runs[key] = hashlib.sha256(blob.encode()).hexdigest()[:20]
    return runs, frames


def failed_runs(actual: dict[str, str], expected: dict[str, str]) -> set[str]:
    """Keys of runs whose fingerprint differs or that only one side has."""
    return {k for k in actual.keys() | expected.keys() if actual.get(k) != expected.get(k)}
