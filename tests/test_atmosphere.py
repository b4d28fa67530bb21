"""Fog model and the power-to-range link budget."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazelidar.atmosphere import (FogCondition, SensorCalibration,
                                  effective_range, fog_from_fraction)
from oracles import fixed_point_range

CAL = SensorCalibration(1.0, 100.0)
CLEAR = FogCondition(0.0, 0.0)


class TestConditionTypes:
    def test_fog_condition_bounds(self):
        FogCondition(1.0, 0.02)
        with pytest.raises(ValueError):
            FogCondition(1.5, 0.0)
        with pytest.raises(ValueError):
            FogCondition(0.5, -0.001)

    def test_calibration_positive(self):
        with pytest.raises(ValueError):
            SensorCalibration(0.0, 100.0)
        with pytest.raises(ValueError):
            SensorCalibration(1.0, -1.0)

    def test_calibration_refuses_a_zero_detection_constant(self):
        # r_nominal ** 2 overflows: effective_range's bracket [1e-3, 10 r_nominal]
        # would end at inf, and its bisection would never narrow it. It underflows
        # to 0 at 1e-300, so the constant divides by 0; at 1e-160 it is subnormal
        # and the constant inf, so every pulse would reach only the bracket's 1 mm start
        for r_nominal in (1e308, 2e154, 1e-300, 1e-160):
            with pytest.raises(ValueError, match="must be positive and finite"):
                SensorCalibration(1.0, r_nominal)
        # fog bounds the range long before the bracket's 1e151 m end
        cal = SensorCalibration(1.0, 1e150)
        r = effective_range(1.0, FogCondition(0.5, 0.005), cal)
        residual = math.exp(-0.01 * r) / (r * r) - cal.detection_constant
        assert abs(residual) / cal.detection_constant < 1e-6

    @given(st.sampled_from(["fog sigma", "p_nominal", "r_nominal", "kappa", "p_emit"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_a_non_finite_value_is_refused(self, field, value):
        build = {
            "fog sigma": lambda x: FogCondition(0.5, x),
            "p_nominal": lambda x: SensorCalibration(x, 100.0),
            "r_nominal": lambda x: SensorCalibration(1.0, x),
            "kappa": lambda x: fog_from_fraction(0.5, x),
            "p_emit": lambda x: effective_range(x, FogCondition(0.5, 0.005), CAL),
        }[field]
        build(1.0)
        with pytest.raises(ValueError):
            build(value)

    def test_detection_constant(self):
        assert CAL.detection_constant == 1.0 / 10000.0

    def test_fog_from_fraction_scales_linearly(self):
        fog = fog_from_fraction(0.25, 0.01)
        assert fog.fog_fraction == 0.25
        assert fog.sigma == pytest.approx(0.0025, rel=1e-15)
        assert fog_from_fraction(0.0, 0.01).sigma == 0.0

    def test_fog_from_fraction_validation(self):
        with pytest.raises(ValueError):
            fog_from_fraction(0.5, 0.0)
        with pytest.raises(ValueError):
            fog_from_fraction(-0.1, 0.01)


class TestEffectiveRange:
    def test_clear_air_follows_the_square_root_law(self):
        assert effective_range(1.0, CLEAR, CAL) == pytest.approx(100.0, abs=1e-6)
        assert effective_range(4.0, CLEAR, CAL) == pytest.approx(200.0, abs=1e-6)
        assert effective_range(0.25, CLEAR, CAL) == pytest.approx(50.0, abs=1e-6)

    @pytest.mark.parametrize("p,sigma,expected", [
        (1.0, 0.0025, 81.555342),
        (1.0, 0.005, 70.346743),
        (1.1, 0.005, 72.859225),
        (0.2, 0.0, 44.721360),
        (0.2, 0.005, 37.141775),
    ])
    def test_operating_points(self, p, sigma, expected):
        fog = FogCondition(0.5 if sigma else 0.0, sigma)
        assert effective_range(p, fog, CAL) == pytest.approx(expected, abs=2e-6)

    @pytest.mark.parametrize("p,sigma", [(1.0, 0.0025), (0.5, 0.005),
                                         (2.0, 0.01), (1.16, 0.005)])
    def test_matches_fixed_point_oracle(self, p, sigma):
        fog = FogCondition(1.0, sigma)
        assert effective_range(p, fog, CAL) == pytest.approx(
            fixed_point_range(p, sigma, CAL), abs=1e-5)

    def test_root_residual_is_small(self):
        fog = FogCondition(0.5, 0.005)
        for p in (0.2, 1.0, 1.16, 4.0):
            r = effective_range(p, fog, CAL)
            residual = p * math.exp(-2 * fog.sigma * r) / (r * r) - CAL.detection_constant
            assert abs(residual) / CAL.detection_constant < 1e-6

    def test_monotone_in_power_and_fog(self):
        powers = np.linspace(0.1, 4.0, 12)
        fog_a = FogCondition(0.25, 0.0025)
        fog_b = FogCondition(0.5, 0.005)
        ranges_a = [effective_range(float(p), fog_a, CAL) for p in powers]
        ranges_b = [effective_range(float(p), fog_b, CAL) for p in powers]
        assert all(x < y for x, y in zip(ranges_a, ranges_a[1:]))
        assert all(b < a for a, b in zip(ranges_a, ranges_b))

    def test_saturates_at_the_bracket_ends(self):
        assert effective_range(1e6, CLEAR, CAL) == 1000.0
        assert effective_range(1e-12, CLEAR, CAL) == 1e-3

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            effective_range(0.0, CLEAR, CAL)
