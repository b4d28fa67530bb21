"""Angle helpers, arc algebra, acuity thresholds, and gaze traces."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazelidar.gaze import (AcuityFunction, ArcSet, GazeState, GazeTrace,
                            GazeTraceError, compute_rof, compute_roi,
                            load_gaze_trace, normalize_angle)
from oracles import acuity_value, arcs_contain, bisect_threshold_half_width, wrap_to_pi

TAU = math.tau


class TestAngleHelpers:
    def test_normalize_keeps_in_range_values(self):
        assert normalize_angle(1.25) == 1.25
        assert normalize_angle(0.0) == 0.0

    def test_normalize_wraps_negative(self):
        assert normalize_angle(-math.pi / 2) == 3 * math.pi / 2

    def test_normalize_tau_is_zero(self):
        assert normalize_angle(TAU) == 0.0

    def test_normalize_multiple_turns(self):
        assert normalize_angle(7 * math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-12)

    def test_normalize_tiny_negative_stays_in_range(self):
        # a % tau rounds up to tau itself for inputs like this one
        a = normalize_angle(-1e-18)
        assert 0.0 <= a < TAU

    @given(st.floats(-1e6, 1e6))
    def test_normalize_range_property(self, angle):
        assert 0.0 <= normalize_angle(angle) < TAU

    @given(st.floats(-100.0, 100.0))
    def test_normalize_is_periodic(self, angle):
        assert normalize_angle(angle + TAU) == pytest.approx(normalize_angle(angle), abs=1e-9)

    def test_wrap_to_pi_endpoints(self):
        assert wrap_to_pi(math.pi) == math.pi
        assert wrap_to_pi(-math.pi) == math.pi
        assert wrap_to_pi(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)

    @given(st.floats(-1e4, 1e4))
    def test_wrap_to_pi_range_property(self, angle):
        a = wrap_to_pi(angle)
        assert -math.pi < a <= math.pi


class TestArcSet:
    def test_plain_arc(self):
        s = ArcSet.from_arc(1.0, 2.0)
        assert s.arcs == ((1.0, 2.0),)
        assert s.width == 1.0

    def test_wrapping_arc_splits_at_zero(self):
        s = ArcSet.from_arc(5.5, 0.5)
        assert s.arcs == ((0.0, 0.5), (5.5, TAU))
        assert s.width == pytest.approx(0.5 + TAU - 5.5, abs=1e-15)

    def test_arc_ending_at_tau_does_not_split(self):
        assert ArcSet.from_arc(5.0, TAU).arcs == ((5.0, TAU),)

    def test_equal_endpoints_is_empty(self):
        assert ArcSet.from_arc(1.0, 1.0).is_empty()

    def test_full_and_empty(self):
        assert ArcSet.full().width == TAU
        assert ArcSet.empty().width == 0.0
        assert ArcSet.full().complement() == ArcSet.empty()
        assert ArcSet.empty().complement() == ArcSet.full()

    def test_contains_is_half_open(self):
        s = ArcSet.from_arc(1.0, 2.0)
        assert s.contains(1.0)
        assert s.contains(2.0 - 1e-9)
        assert not s.contains(2.0)
        assert not s.contains(0.5)

    def test_contains_normalizes_the_query(self):
        s = ArcSet.from_arc(1.0, 2.0)
        assert s.contains(1.5 + TAU)
        assert s.contains(1.5 - TAU)

    def test_wrapped_arc_contains_zero(self):
        s = ArcSet.from_arc(6.0, 0.5)
        assert s.contains(0.0)
        assert s.contains(6.1)
        assert not s.contains(3.0)

    def test_contains_many_edge_angles_match_contains(self):
        below_zero = [-1e-300, -1e-20, -5e-324, np.nextafter(0.0, -1.0), -0.0]
        at_tau = [TAU, np.nextafter(TAU, 0.0), np.nextafter(TAU, 7.0), -TAU, 2.0 * TAU]
        probes = np.array(below_zero + at_tau + [0.0, 1.0, 2.0, 6.0, 0.5, math.nan, math.inf])
        for s in (ArcSet.from_arc(1.0, 2.0), ArcSet.from_arc(6.0, 0.5), ArcSet.from_arc(0.0, 1.0),
                  ArcSet(((2.0, TAU),)), ArcSet.full(), ArcSet.empty(),
                  ArcSet(((0.0, 0.5), (1.0, 2.0), (3.0, 3.5), (6.0, TAU)))):
            many = s.contains_many(probes)
            expected = [arcs_contain(s, float(a)) for a in probes]
            assert many.dtype == bool
            assert many.tolist() == expected
            assert [s.contains(float(a)) for a in probes] == expected
            for a in (1.5, float(probes[0]), probes[5], np.array(2.0 * TAU)):   # 0-d probes
                one = s.contains_many(a)
                assert one.shape == () and one.dtype == bool
                assert bool(one) == s.contains(a) == arcs_contain(s, float(a))

    @given(st.lists(st.floats(0.0, TAU), max_size=10),
           st.lists(st.floats(-3.0 * TAU, 3.0 * TAU), max_size=50))
    def test_contains_many_matches_contains(self, cuts, probes):
        # both against the scalar walk over the arcs, since contains is a one-angle contains_many
        s = ArcSet(tuple(zip(*[iter(sorted(set(cuts)))] * 2)))
        expected = [arcs_contain(s, a) for a in probes]
        assert s.contains_many(np.array(probes)).tolist() == expected
        assert [s.contains(a) for a in probes] == expected

    def test_bounds_are_built_once_and_read_only(self):
        s = ArcSet(((0.0, 0.5), (1.0, 2.0), (6.0, TAU)))
        assert s.bounds.tolist() == [[0.0, 1.0, 6.0], [0.5, 2.0, TAU]]
        assert s.bounds is s.bounds and not s.bounds.flags.writeable
        assert ArcSet.empty().bounds.shape == (2, 0)
        assert s == ArcSet(s.arcs) and hash(s) == hash(ArcSet(s.arcs))

    def test_arc_ends_bound_contains_many_and_caching_keeps_equality(self):
        s = ArcSet(((0.0, 0.5), (1.0, 2.0), (6.0, TAU)))
        probes = [0.0, 0.5, 1.0, 2.0, 6.0, math.nextafter(TAU, 0.0)]
        assert s.contains_many(probes).tolist() == [True, False, True, False, True, True]
        assert ArcSet.empty().contains_many(probes).tolist() == [False] * len(probes)
        assert s.width == 0.5 + 1.0 + (TAU - 6.0)
        assert s == ArcSet(s.arcs) and hash(s) == hash(ArcSet(s.arcs))

    def test_rejects_overlapping_arcs(self):
        with pytest.raises(ValueError):
            ArcSet(((0.0, 2.0), (1.0, 3.0)))

    def test_rejects_out_of_range_arcs(self):
        with pytest.raises(ValueError):
            ArcSet(((-0.1, 1.0),))
        with pytest.raises(ValueError):
            ArcSet(((1.0, TAU + 0.1),))
        with pytest.raises(ValueError):
            ArcSet(((2.0, 1.0),))

    def test_complement_involution_is_exact(self):
        s = ArcSet.from_arc(4.0, 1.0)
        assert s.complement().complement() == s

    def test_complement_of_interior_arc(self):
        s = ArcSet.from_arc(1.0, 2.0)
        assert s.complement().arcs == ((0.0, 1.0), (2.0, TAU))

    def test_intersection_width(self):
        a = ArcSet.from_arc(0.0, 2.0)
        b = ArcSet.from_arc(1.0, 3.0)
        assert a.intersection_width(b) == pytest.approx(1.0, abs=1e-15)
        assert a.intersection_width(ArcSet.from_arc(4.0, 5.0)) == 0.0


class TestAcuityFunction:
    def test_boxcar_values(self):
        v = AcuityFunction.boxcar(math.radians(30.0))
        assert acuity_value(v, 0.0) == 1.0
        assert acuity_value(v, math.radians(30.0)) == 1.0
        assert acuity_value(v, math.radians(30.001)) == 0.0
        assert acuity_value(v, -math.radians(10.0)) == 1.0

    def test_gaussian_values(self):
        sigma = math.radians(15.0)
        v = AcuityFunction.gaussian(sigma)
        assert acuity_value(v, 0.0) == 1.0
        assert acuity_value(v, sigma) == pytest.approx(math.exp(-0.5), rel=1e-15)
        # wrapping the offset into (-pi, pi] costs a couple of ulps, so
        # evenness holds only to rounding
        assert acuity_value(v, -sigma) == pytest.approx(acuity_value(v, sigma), rel=1e-12)

    def test_value_wraps_the_offset(self):
        v = AcuityFunction.gaussian(math.radians(15.0))
        assert acuity_value(v, 0.3 + TAU) == pytest.approx(acuity_value(v, 0.3), rel=1e-12)

    def test_boxcar_threshold_is_its_half_width(self):
        v = AcuityFunction.boxcar(math.radians(30.0))
        assert v.threshold_half_width(0.5) == math.radians(30.0)
        assert v.threshold_half_width(0.01) == math.radians(30.0)

    def test_threshold_empty_at_eta_one(self):
        assert AcuityFunction.boxcar(1.0).threshold_half_width(1.0) == 0.0
        assert AcuityFunction.gaussian(1.0).threshold_half_width(1.0) == 0.0

    def test_gaussian_threshold_known_value(self):
        # sigma = 15 deg at eta = 0.5: sigma * sqrt(2 ln 2)
        v = AcuityFunction.gaussian(math.radians(15.0))
        hw = v.threshold_half_width(0.5)
        assert math.degrees(hw) == pytest.approx(17.66115033773212, abs=1e-9)

    @pytest.mark.parametrize("sigma_deg,eta", [(15.0, 0.5), (5.0, 0.2), (40.0, 0.9), (25.0, 0.05)])
    def test_gaussian_threshold_matches_bisection(self, sigma_deg, eta):
        v = AcuityFunction.gaussian(math.radians(sigma_deg))
        assert v.threshold_half_width(eta) == pytest.approx(
            bisect_threshold_half_width(v, eta), abs=1e-10)

    def test_gaussian_threshold_caps_at_pi(self):
        v = AcuityFunction.gaussian(10.0)
        assert v.threshold_half_width(0.01) == math.pi

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_gaussian_threshold_monotone_in_eta(self, eta_a, eta_b):
        v = AcuityFunction.gaussian(math.radians(20.0))
        lo, hi = sorted((eta_a, eta_b))
        assert v.threshold_half_width(lo) >= v.threshold_half_width(hi)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AcuityFunction.boxcar(0.0)
        with pytest.raises(ValueError):
            AcuityFunction.boxcar(math.pi + 0.1)
        with pytest.raises(ValueError):
            AcuityFunction.gaussian(0.0)
        with pytest.raises(ValueError):
            AcuityFunction("triangle", half_width=1.0)


class TestGazeState:
    def test_normalizes_direction(self):
        assert GazeState(-math.pi / 2, 0.5).theta_g == 3 * math.pi / 2

    def test_eta_bounds(self):
        GazeState(0.0, 1.0)
        with pytest.raises(ValueError):
            GazeState(0.0, 0.0)
        with pytest.raises(ValueError):
            GazeState(0.0, 1.5)


class TestRegions:
    def test_boxcar_rof_is_centered_on_the_gaze(self):
        theta = math.radians(135.4308)
        hw = math.radians(30.0)
        rof = compute_rof(GazeState(theta, 0.5), AcuityFunction.boxcar(hw))
        assert len(rof.arcs) == 1
        start, end = rof.arcs[0]
        assert start == pytest.approx(theta - hw, abs=1e-12)
        assert end == pytest.approx(theta + hw, abs=1e-12)
        assert rof.contains(theta)

    def test_rof_wraps_when_gaze_is_near_zero(self):
        hw = math.radians(30.0)
        rof = compute_rof(GazeState(0.0, 0.5), AcuityFunction.boxcar(hw))
        assert len(rof.arcs) == 2
        assert rof.contains(0.0)
        assert rof.contains(TAU - hw / 2)
        assert not rof.contains(math.pi)

    def test_rof_empty_at_eta_one(self):
        rof = compute_rof(GazeState(1.0, 1.0), AcuityFunction.boxcar(0.5))
        assert rof.is_empty()
        assert compute_roi(rof) == ArcSet.full()

    def test_rof_full_when_threshold_reaches_pi(self):
        rof = compute_rof(GazeState(1.0, 0.5), AcuityFunction.boxcar(math.pi))
        assert rof == ArcSet.full()
        assert compute_roi(rof).is_empty()

    @given(st.floats(0.0, TAU), st.floats(0.01, 0.99), st.floats(0.0, TAU),
           st.booleans())
    def test_rof_roi_partition_the_circle(self, theta, eta, probe, boxcar):
        acuity = (AcuityFunction.boxcar(math.radians(50.0)) if boxcar
                  else AcuityFunction.gaussian(math.radians(20.0)))
        rof = compute_rof(GazeState(theta, eta), acuity)
        roi = compute_roi(rof)
        assert rof.width + roi.width == pytest.approx(TAU, abs=1e-12)
        assert rof.intersection_width(roi) == 0.0
        assert rof.contains(probe) != roi.contains(probe)

    @given(st.floats(0.0, TAU), st.floats(-10.0, 10.0))
    def test_rof_width_is_shift_invariant(self, theta, shift):
        acuity = AcuityFunction.boxcar(math.radians(25.0))
        w0 = compute_rof(GazeState(theta, 0.5), acuity).width
        w1 = compute_rof(GazeState(theta + shift, 0.5), acuity).width
        assert w0 == pytest.approx(w1, abs=1e-9)


class TestGazeTrace:
    def _trace(self):
        states = tuple(GazeState(t, 0.5) for t in (0.1, 0.2, 0.3))
        return GazeTrace((0.0, 1.0, 2.0), states)

    def test_lookup_uses_the_latest_entry_at_or_before_t(self):
        trace = self._trace()
        assert trace.at(0.0).theta_g == 0.1
        assert trace.at(0.999).theta_g == 0.1
        assert trace.at(1.0).theta_g == 0.2
        assert trace.at(50.0).theta_g == 0.3

    def test_lookup_before_first_entry_clamps(self):
        assert self._trace().at(-5.0).theta_g == 0.1

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t_s,theta_g_deg\n0.0,90.0\n1.5,-45.0\n")
        trace = load_gaze_trace(p, eta=0.25)
        assert trace.times == (0.0, 1.5)
        assert trace.states[0].theta_g == pytest.approx(math.pi / 2, abs=1e-12)
        assert trace.states[1].theta_g == pytest.approx(TAU - math.pi / 4, abs=1e-12)
        assert trace.states[0].eta == 0.25

    def test_load_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("time,angle\n0.0,90.0\n")
        with pytest.raises(GazeTraceError, match="header"):
            load_gaze_trace(p)

    def test_load_rejects_non_increasing_times(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t_s,theta_g_deg\n0.0,90.0\n0.0,91.0\n")
        with pytest.raises(GazeTraceError, match="line 3"):
            load_gaze_trace(p)

    def test_load_rejects_bad_floats_with_line_number(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t_s,theta_g_deg\n0.0,90.0\n1.0,sideways\n")
        with pytest.raises(GazeTraceError, match="line 3"):
            load_gaze_trace(p)

    def test_load_rejects_wrong_field_count(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t_s,theta_g_deg\n0.0,90.0,extra\n")
        with pytest.raises(GazeTraceError, match="2 fields"):
            load_gaze_trace(p)

    def test_load_rejects_empty_trace(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t_s,theta_g_deg\n")
        with pytest.raises(GazeTraceError, match="no entries"):
            load_gaze_trace(p)
