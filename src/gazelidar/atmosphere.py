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
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be non-negative and finite")


@dataclass(frozen=True)
class SensorCalibration:
    """Nominal emitted power (W) and the range it is specified to reach (m)."""

    p_nominal: float
    r_nominal: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_nominal < math.inf and 0.0 < self.r_nominal < math.inf):
            raise ValueError("calibration values must be positive and finite")
        # r_nominal ** 2 overflows to a constant of 0, so effective_range's bracket,
        # which ends at 10 r_nominal, could reach inf and never narrow; it underflows
        # to 0 or to a subnormal whose constant is inf, so every range would be 1 mm
        if not (self.r_nominal * self.r_nominal > 0.0 and 0.0 < self.detection_constant < math.inf):
            raise ValueError("p_nominal / r_nominal ** 2 must be positive and finite")

    @property
    def detection_constant(self) -> float:
        return self.p_nominal / (self.r_nominal * self.r_nominal)


def fog_from_fraction(fog_fraction: float, kappa: float) -> FogCondition:
    """Map a fog fraction (FogCondition checks it) to sigma = kappa * fraction."""
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    return FogCondition(fog_fraction, kappa * fog_fraction)


def effective_range(p_emit: float, fog: FogCondition, cal: SensorCalibration) -> float:
    """Largest range at which a return stays detectable.

    Solves p_emit * exp(-2 sigma r) / r^2 = c for r by bisection on
    [1e-3, 10 * r_nominal], terminating when the bracket is under 1e-6 m.
    The left side is strictly decreasing in r, so the root is unique.
    """
    if not 0.0 < p_emit < math.inf:
        raise ValueError("p_emit must be positive and finite")
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
