"""Conservation solvers and scan-plan assembly."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazelidar.atmosphere import SensorCalibration
from gazelidar.gaze import AcuityFunction, ArcSet, GazeState, compute_rof, compute_roi
from gazelidar.lidar import ScanSegment
from gazelidar.policy import (MIN_COMPLEMENT, DegeneratePartitionError, EyeSafetyError,
                              PolicyError, VariantConfig, build_scan_plan,
                              solve_power_levels, solve_spin_rates)
from oracles import segment_at

TAU = math.tau
CAL = SensorCalibration(1.0, 100.0)
OMEGA = TAU * 20.0
PULSE_RATE = 7812.5


def _regions(theta_deg=135.4308, half_width_deg=30.0):
    rof = compute_rof(GazeState(math.radians(theta_deg), 0.5),
                      AcuityFunction.boxcar(math.radians(half_width_deg)))
    return rof, compute_roi(rof)


class TestPowerSolver:
    def test_half_circle_example(self):
        levels = solve_power_levels(1.0, math.pi, 0.5)
        assert levels.p_low == 0.5
        assert levels.p_high == pytest.approx(1.5, rel=1e-15)

    def test_sixty_degree_example(self):
        levels = solve_power_levels(1.0, math.radians(60.0), 0.5)
        assert levels.p_high == pytest.approx(1.1, rel=1e-12)

    def test_default_ratio_example(self):
        levels = solve_power_levels(1.0, math.radians(60.0), 0.2)
        assert levels.p_high == pytest.approx(1.16, rel=1e-12)

    def test_trivial_ratio_shortcut_is_exact(self):
        levels = solve_power_levels(2.0, 1.0, 2.0)
        assert (levels.p_low, levels.p_high) == (2.0, 2.0)

    @given(st.floats(math.radians(1.0), math.radians(359.0)),
           st.floats(0.01, 1.0), st.floats(0.1, 5.0))
    def test_mean_power_is_conserved(self, delta, rho, p_nominal):
        levels = solve_power_levels(p_nominal, delta, rho * p_nominal,
                                    p_max=math.inf)
        mean = (delta * levels.p_low + (TAU - delta) * levels.p_high) / TAU
        assert mean == pytest.approx(p_nominal, rel=1e-12)

    def test_rejects_degenerate_partitions(self):
        with pytest.raises(DegeneratePartitionError):
            solve_power_levels(1.0, 0.0, 0.5)
        with pytest.raises(DegeneratePartitionError):
            solve_power_levels(1.0, TAU, 0.5)

    def test_rejects_out_of_range_p_low(self):
        with pytest.raises(ValueError):
            solve_power_levels(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_power_levels(1.0, 1.0, 1.5)

    def test_default_cap_is_four_p_nominal(self):
        # delta = 5 rad with rho = 0.2 needs p_high slightly above 4 P
        with pytest.raises(EyeSafetyError):
            solve_power_levels(1.0, 5.0, 0.2)
        solve_power_levels(1.0, 4.9, 0.2)

    def test_custom_cap_applies(self):
        with pytest.raises(EyeSafetyError):
            solve_power_levels(1.0, math.radians(60.0), 0.5, p_max=1.05)
        levels = solve_power_levels(1.0, math.radians(60.0), 0.5, p_max=1.2)
        assert levels.p_high == pytest.approx(1.1, rel=1e-12)

    def test_an_overflowing_high_power_is_a_policy_error(self):
        # ScanPlan refuses an infinite power, so the solver names it first
        with pytest.raises(PolicyError, match="p_high overflows"):
            solve_power_levels(1e308, math.radians(60.0), 2e307, p_max=math.inf)
        solve_power_levels(1e307, math.radians(60.0), 2e306, p_max=math.inf)


class TestSpinSolver:
    def test_half_circle_example(self):
        rates = solve_spin_rates(1.0, math.pi, 2.0)
        assert rates.omega_high == 2.0
        assert rates.omega_low == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_sixty_degree_example(self):
        rates = solve_spin_rates(1.0, math.radians(60.0), 2.0)
        assert rates.omega_low == pytest.approx(10.0 / 11.0, rel=1e-12)

    def test_trivial_ratio_shortcut_is_exact(self):
        rates = solve_spin_rates(3.0, 1.0, 3.0)
        assert (rates.omega_high, rates.omega_low) == (3.0, 3.0)

    @given(st.floats(math.radians(1.0), math.radians(359.0)),
           st.floats(1.0, 8.0), st.floats(math.pi, 300.0))
    def test_revolution_period_is_conserved(self, delta, ratio, omega):
        rates = solve_spin_rates(omega, delta, ratio * omega)
        period = delta / rates.omega_high + (TAU - delta) / rates.omega_low
        assert period == pytest.approx(TAU / omega, rel=1e-12)

    def test_rejects_degenerate_partitions(self):
        with pytest.raises(DegeneratePartitionError):
            solve_spin_rates(1.0, 0.0, 2.0)
        with pytest.raises(DegeneratePartitionError):
            solve_spin_rates(1.0, TAU, 2.0)

    def test_rejects_a_complement_too_narrow_to_conserve_the_period(self):
        # a 1e-15 rad RoI: its arcs and tau - delta_driver differ by a third
        rof, roi = _regions(185.5, 179.99999999999997)
        for variant in (VariantConfig("resolution", omega_high_ratio=2.0),
                        VariantConfig("range", p_low_ratio=0.5)):
            with pytest.raises(DegeneratePartitionError, match="no complementary region"):
                build_scan_plan(variant, rof, roi, CAL, OMEGA, PULSE_RATE,
                                p_max=math.inf)
        for delta in (TAU - MIN_COMPLEMENT, TAU - 2.0 * MIN_COMPLEMENT):
            rates = solve_spin_rates(OMEGA, delta, 2.0 * OMEGA)
            period = delta / rates.omega_high + (TAU - delta) / rates.omega_low
            assert period == pytest.approx(TAU / OMEGA, rel=1e-12)
        with pytest.raises(DegeneratePartitionError):
            solve_spin_rates(OMEGA, math.nextafter(TAU - MIN_COMPLEMENT, TAU), 2.0 * OMEGA)

    def test_rejects_slowdown_in_the_focus_region(self):
        with pytest.raises(ValueError):
            solve_spin_rates(2.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            solve_spin_rates(0.0, 1.0, 1.0)

    def test_an_overflowing_high_spin_rate_is_a_policy_error(self):
        with pytest.raises(PolicyError, match="omega_high overflows"):
            solve_spin_rates(OMEGA, math.radians(60.0), 1e308 * OMEGA)
        solve_spin_rates(OMEGA, math.radians(60.0), 1e305 * OMEGA)


class TestVariantConfig:
    def test_adaptation_flags(self):
        table = {
            "baseline": (False, False),
            "range": (True, False),
            "resolution": (False, True),
            "range_and_resolution": (True, True),
        }
        for name, (power, spin) in table.items():
            v = VariantConfig(name, 0.5, 2.0)
            assert (v.adapts_power, v.adapts_spin) == (power, spin)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            VariantConfig("turbo")
        with pytest.raises(ValueError):
            VariantConfig("range", p_low_ratio=0.0)
        with pytest.raises(ValueError):
            VariantConfig("range", p_low_ratio=1.5)
        with pytest.raises(ValueError):
            VariantConfig("resolution", omega_high_ratio=0.5)


class TestBuildScanPlan:
    def test_baseline_is_one_uniform_segment(self):
        rof, roi = _regions()
        plan = build_scan_plan(VariantConfig("baseline"), rof, roi, CAL,
                               OMEGA, PULSE_RATE)
        assert plan.segments == (ScanSegment(0.0, TAU, 1.0, OMEGA),)
        assert plan.revolution_period == TAU / OMEGA

    @pytest.mark.parametrize("variant", [
        VariantConfig("range", p_low_ratio=1.0),
        VariantConfig("resolution", omega_high_ratio=1.0),
        VariantConfig("range_and_resolution", p_low_ratio=1.0, omega_high_ratio=1.0),
    ])
    def test_trivial_ratios_collapse_to_baseline(self, variant):
        rof, roi = _regions()
        baseline = build_scan_plan(VariantConfig("baseline"), rof, roi, CAL,
                                   OMEGA, PULSE_RATE)
        assert build_scan_plan(variant, rof, roi, CAL, OMEGA, PULSE_RATE) == baseline

    def test_range_plan_reallocates_power(self):
        rof, roi = _regions()
        theta = math.radians(135.4308)
        plan = build_scan_plan(VariantConfig("range", p_low_ratio=0.5),
                               rof, roi, CAL, OMEGA, PULSE_RATE)
        assert len(plan.segments) == 3
        assert segment_at(plan, theta).power == 0.5
        assert segment_at(plan, theta + math.pi).power == pytest.approx(1.1, rel=1e-12)
        mean = sum(s.power * (s.end - s.start) for s in plan.segments) / TAU
        assert mean == pytest.approx(1.0, rel=1e-12)
        assert segment_at(plan, theta).spin_rate == OMEGA

    def test_resolution_plan_reallocates_spin(self):
        rof, roi = _regions()
        theta = math.radians(135.4308)
        plan = build_scan_plan(VariantConfig("resolution", omega_high_ratio=2.0),
                               rof, roi, CAL, OMEGA, PULSE_RATE)
        assert segment_at(plan, theta).spin_rate == 2.0 * OMEGA
        assert segment_at(plan, theta + math.pi).spin_rate == pytest.approx(
            OMEGA * 10.0 / 11.0, rel=1e-12)
        assert segment_at(plan, theta).power == 1.0
        assert plan.revolution_period == TAU / OMEGA

    def test_combined_plan_reallocates_both(self):
        rof, roi = _regions()
        theta = math.radians(135.4308)
        plan = build_scan_plan(
            VariantConfig("range_and_resolution", p_low_ratio=0.2,
                          omega_high_ratio=2.0),
            rof, roi, CAL, OMEGA, PULSE_RATE)
        assert segment_at(plan, theta).power == pytest.approx(0.2, rel=1e-15)
        assert segment_at(plan, theta + math.pi).power == pytest.approx(1.16, rel=1e-12)
        assert segment_at(plan, theta).spin_rate == 2.0 * OMEGA

    def test_wrapped_focus_region_yields_contiguous_segments(self):
        rof = compute_rof(GazeState(0.0, 0.5),
                          AcuityFunction.boxcar(math.radians(30.0)))
        roi = compute_roi(rof)
        plan = build_scan_plan(VariantConfig("range", p_low_ratio=0.5),
                               rof, roi, CAL, OMEGA, PULSE_RATE)
        assert len(plan.segments) == 3
        assert segment_at(plan, 0.0).power == 0.5
        assert segment_at(plan, TAU - math.radians(15.0)).power == 0.5
        assert segment_at(plan, math.pi).power == pytest.approx(1.1, rel=1e-12)

    def test_eye_safety_cap_propagates(self):
        rof = ArcSet.from_arc(0.0, 5.0)
        roi = rof.complement()
        with pytest.raises(EyeSafetyError):
            build_scan_plan(VariantConfig("range", p_low_ratio=0.2),
                            rof, roi, CAL, OMEGA, PULSE_RATE, p_max=4.0)

    def test_degenerate_region_raises_for_adaptive_variants(self):
        with pytest.raises(DegeneratePartitionError):
            build_scan_plan(VariantConfig("range", p_low_ratio=0.5),
                            ArcSet.empty(), ArcSet.full(), CAL, OMEGA, PULSE_RATE)

    def test_baseline_ignores_a_degenerate_region(self):
        plan = build_scan_plan(VariantConfig("baseline"), ArcSet.empty(),
                               ArcSet.full(), CAL, OMEGA, PULSE_RATE)
        assert len(plan.segments) == 1
