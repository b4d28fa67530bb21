"""Power and spin-rate reallocation between the driver's focus region and
the sensor's region of interest.

Both solvers conserve a per-revolution budget exactly: mean emitted power
stays at p_nominal, and the revolution period stays at tau / omega.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .atmosphere import SensorCalibration
from .gaze import ArcSet, TAU
from .lidar import ScanPlan, ScanSegment

VARIANT_NAMES = ("baseline", "range", "resolution", "range_and_resolution")
P_MAX_RATIO = 4.0   # default eye-safety cap on emitted power, in units of p_nominal
# Narrowest complementary region (rad) the solvers accept. They take its width
# as tau - delta_driver, which can differ from its arcs' summed width by a few
# ulps of tau; below about 3e-6 rad that error alone breaks ScanPlan's 1e-9
# period check for a spin plan.
MIN_COMPLEMENT = 1e-4


class PolicyError(ValueError):
    """Base class for reallocation failures."""


class DegeneratePartitionError(PolicyError):
    """The focus region covers none or all of the circle, so there is no
    complementary region to rebalance against."""


class EyeSafetyError(PolicyError):
    """The solved high power exceeds the configured emission cap."""


@dataclass(frozen=True)
class RangePolicy:
    p_low: float
    p_high: float


@dataclass(frozen=True)
class ResolutionPolicy:
    omega_high: float
    omega_low: float


@dataclass(frozen=True)
class VariantConfig:
    """Sensor operating mode and its reallocation ratios.

    p_low_ratio scales nominal power inside the focus region (range modes);
    omega_high_ratio scales the spin rate there (resolution modes). A ratio
    of exactly 1 leaves that dimension at baseline.
    """

    variant: str
    p_low_ratio: float = 1.0
    omega_high_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.p_low_ratio <= 1.0:
            raise ValueError("p_low_ratio must lie in (0, 1]")
        if self.omega_high_ratio < 1.0:
            raise ValueError("omega_high_ratio must be >= 1")

    @property
    def adapts_power(self) -> bool:
        return self.variant in ("range", "range_and_resolution")

    @property
    def adapts_spin(self) -> bool:
        return self.variant in ("resolution", "range_and_resolution")


def _check_partition(delta_driver: float) -> None:
    if not 0.0 < delta_driver <= TAU - MIN_COMPLEMENT:
        raise DegeneratePartitionError(
            f"focus region width {delta_driver} rad leaves no complementary region "
            f"of at least {MIN_COMPLEMENT} rad")


def solve_power_levels(p_nominal: float, delta_driver: float, p_low: float,
                       p_max: float | None = None) -> RangePolicy:
    """Solve for p_high so the revolution-average power equals p_nominal.

    (delta_driver * p_low + (tau - delta_driver) * p_high) / tau = p_nominal
    """
    if p_nominal <= 0.0:
        raise ValueError("p_nominal must be positive")
    if not 0.0 < p_low <= p_nominal:
        raise ValueError("p_low must lie in (0, p_nominal]")
    _check_partition(delta_driver)
    if p_low == p_nominal:
        return RangePolicy(p_nominal, p_nominal)
    p_high = (TAU * p_nominal - delta_driver * p_low) / (TAU - delta_driver)
    if p_high == math.inf:
        raise PolicyError(f"p_high overflows to {p_high!r} W")
    cap = P_MAX_RATIO * p_nominal if p_max is None else p_max
    if p_high > cap:
        raise EyeSafetyError(f"p_high {p_high!r} W exceeds cap {cap!r} W")
    return RangePolicy(p_low, p_high)


def solve_spin_rates(omega: float, delta_driver: float, omega_high: float) -> ResolutionPolicy:
    """Solve for omega_low so the revolution period stays at tau / omega.

    delta_driver / omega_high + (tau - delta_driver) / omega_low = tau / omega
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if omega_high < omega:
        raise ValueError("omega_high must be >= omega")
    if omega_high == math.inf:
        raise PolicyError(f"omega_high overflows to {omega_high!r} rad/s")
    _check_partition(delta_driver)
    if omega_high == omega:
        return ResolutionPolicy(omega, omega)
    omega_low = (TAU - delta_driver) / (TAU / omega - delta_driver / omega_high)
    return ResolutionPolicy(omega_high, omega_low)


def revolution_period(omega: float) -> float:
    """Seconds per revolution at mean spin rate omega, the period every plan conserves."""
    return TAU / omega


def build_scan_plan(variant: VariantConfig, rof: ArcSet, roi: ArcSet,
                    cal: SensorCalibration, omega: float, pulse_rate: float,
                    p_max: float | None = None) -> ScanPlan:
    """Assemble the per-revolution schedule of (arc, power, spin rate).

    Trivial ratios collapse to the baseline plan so that degenerate adaptive
    configurations are bit-identical to baseline.
    """
    p = cal.p_nominal
    adapt_power = variant.adapts_power and variant.p_low_ratio != 1.0
    adapt_spin = variant.adapts_spin and variant.omega_high_ratio != 1.0
    period = revolution_period(omega)
    if not adapt_power and not adapt_spin:
        return ScanPlan((ScanSegment(0.0, TAU, p, omega),), period, pulse_rate)

    delta_driver = rof.width
    p_rof = p
    p_roi = p
    if adapt_power:
        levels = solve_power_levels(p, delta_driver, variant.p_low_ratio * p, p_max)
        p_rof = levels.p_low
        p_roi = levels.p_high
    w_rof = omega
    w_roi = omega
    if adapt_spin:
        rates = solve_spin_rates(omega, delta_driver, variant.omega_high_ratio * omega)
        w_rof = rates.omega_high
        w_roi = rates.omega_low

    segments = [ScanSegment(a, b, p_rof, w_rof) for a, b in rof.arcs]
    segments += [ScanSegment(a, b, p_roi, w_roi) for a, b in roi.arcs]
    segments.sort(key=lambda s: s.start)
    return ScanPlan(tuple(segments), period, pulse_rate)
