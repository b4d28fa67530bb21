"""Deterministic 2D simulation of a gaze-aware adaptive spinning LiDAR.

The driver's gaze defines a region of focus; the sensor reallocates laser
power (range control) and spin rate (resolution control) to the
complementary region under exact conservation constraints.
"""

__version__ = "0.1.0"

from .atmosphere import FogCondition, SensorCalibration, effective_range, fog_from_fraction
from .gaze import (AcuityFunction, ArcSet, GazeState, GazeTrace, GazeTraceError,
                   compute_rof, compute_roi, load_gaze_trace, normalize_angle)
from .lidar import (RETURN_DTYPE, FrameRun, PointCloud, ScanPlan, ScanSegment,
                    pulse_directions, revolution_setup, scan_frames, scan_revolution)
from .metrics import SAMPLE_DTYPE, DetectionEvent, density, detect, tta_at_detection
from .policy import (DegeneratePartitionError, EyeSafetyError, PolicyError,
                     RangePolicy, ResolutionPolicy, VariantConfig, build_scan_plan,
                     solve_power_levels, solve_spin_rates)
from .runner import (ConfigError, RunConfig, RunRecord, load_run_config, run_single,
                     run_sweep, summarize, uses_rng, validate_run_config)
from .scene import ObstacleBox, Scene, Vec2, advance, cast_rays, edges_at

__all__ = [
    "__version__",
    "AcuityFunction", "ArcSet", "GazeState", "GazeTrace", "GazeTraceError",
    "compute_rof", "compute_roi", "load_gaze_trace", "normalize_angle",
    "FogCondition", "SensorCalibration", "effective_range", "fog_from_fraction",
    "PolicyError", "DegeneratePartitionError", "EyeSafetyError",
    "RangePolicy", "ResolutionPolicy", "VariantConfig",
    "solve_power_levels", "solve_spin_rates", "build_scan_plan",
    "ScanPlan", "ScanSegment", "PointCloud", "RETURN_DTYPE", "FrameRun",
    "pulse_directions", "revolution_setup", "scan_frames", "scan_revolution",
    "DetectionEvent", "SAMPLE_DTYPE", "detect", "tta_at_detection", "density",
    "ConfigError", "RunConfig", "RunRecord",
    "load_run_config", "validate_run_config", "run_single", "run_sweep", "summarize",
    "uses_rng",
    "Vec2", "ObstacleBox", "Scene", "advance", "cast_rays", "edges_at",
]
