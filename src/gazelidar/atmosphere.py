"""Fog attenuation and the emitted-power to effective-range link budget.

A return is detectable when p_emit * exp(-2 sigma r) / r^2 reaches the
calibration constant c = p_nominal / r_nominal^2; the factor of two covers
the round trip.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FogCondition:
    """Fog level as a fraction in [0, 1] and its extinction sigma (1/m)."""

    fog_fraction: float
    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fog_fraction <= 1.0:
            raise ValueError("fog_fraction must lie in [0, 1]")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


@dataclass(frozen=True)
class SensorCalibration:
    """Nominal emitted power (W) and the range it is specified to reach (m)."""

    p_nominal: float
    r_nominal: float

    def __post_init__(self) -> None:
        if self.p_nominal <= 0.0 or self.r_nominal <= 0.0:
            raise ValueError("calibration values must be positive")

    @property
    def detection_constant(self) -> float:
        return self.p_nominal / (self.r_nominal * self.r_nominal)


def fog_from_fraction(fog_fraction: float, kappa: float) -> FogCondition:
    """Map a fog fraction (FogCondition checks it) to sigma = kappa * fraction."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return FogCondition(fog_fraction, kappa * fog_fraction)


def effective_range(p_emit: float, fog: FogCondition, cal: SensorCalibration) -> float:
    """Largest range at which a return stays detectable.

    Solves p_emit * exp(-2 sigma r) / r^2 = c for r by bisection on
    [1e-3, 10 * r_nominal], terminating when the bracket is under 1e-6 m.
    The left side is strictly decreasing in r, so the root is unique.
    """
    if p_emit <= 0.0:
        raise ValueError("p_emit must be positive")
    c = cal.detection_constant
    two_sigma = 2.0 * fog.sigma

    def residual(r: float) -> float:
        return p_emit * math.exp(-two_sigma * r) / (r * r) - c

    lo = 1e-3
    hi = 10.0 * cal.r_nominal
    if residual(hi) > 0.0:
        return hi
    if residual(lo) < 0.0:
        return lo
    while hi - lo >= 1e-6:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
