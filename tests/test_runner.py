"""Config ingestion, single runs, sweeps, and output files."""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import multiprocessing
import platform
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazelidar import __version__, runner
from gazelidar.atmosphere import SensorCalibration
from gazelidar.gaze import AcuityFunction, GazeState, GazeTrace, compute_rof
from gazelidar.metrics import SAMPLE_DTYPE
from gazelidar.policy import DegeneratePartitionError, VariantConfig, solve_power_levels
from gazelidar.runner import (ConfigError, load_run_config,
                              quartiles, run_single, run_sweep, summarize, summary_text,
                              uses_rng, validate_run_config,
                              write_density_samples_csv, write_results_csv,
                              write_summary_json, _spawn_starts)
from gazelidar.scene import MAX_OFFSET, ObstacleBox, Vec2
from helpers import CONFIG_DIR, DEFAULT_CONFIG, run_python
from oracles import (jittered_scene, listed_summary, per_frame_run, per_row_density_samples_csv,
                     per_row_results_csv, quartiles_inclusive, states_per_frame)

DEFAULT_JSON = json.loads(DEFAULT_CONFIG.read_text())
# gaze angles in degrees; 0 gives a RoF wrapped across 0/tau
_THETA_DEG = st.one_of(st.sampled_from([0.0, 135.4308]), st.floats(0.0, 360.0))


def _write_config(tmp_path, mutate=None):
    raw = copy.deepcopy(DEFAULT_JSON)
    raw["gaze_trace"] = str(CONFIG_DIR / "gaze_left.csv")
    if mutate is not None:
        mutate(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _strip_wall_time(record):
    return (record.variant, record.fog_fraction, record.seed, record.tta,
            record.samples.dtype, record.samples.tolist(), record.frames,
            record.failed, record.failure_reason)


def _hidden_target(config, **changes):
    """config with a wall that hides the target for a while, plus `changes`."""
    wall = ObstacleBox(30, Vec2(21.2132, 21.2132), math.radians(135.0), 6.0, 0.5, 0.0)
    scene = dataclasses.replace(config.scene, obstacles=config.scene.obstacles + (wall,))
    return dataclasses.replace(config, scene=scene, **changes)


class _NoDraws:
    """Stands in for a numpy Generator; every draw method raises."""

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            raise AssertionError(f"run drew from rng.{name}")
        return draw


def _sweep_config(default_config, kind):
    """Three seeds; `kind` picks which random draws are on."""
    seeds = (101, 102, 103)
    if kind == "default":
        return dataclasses.replace(default_config, seeds=seeds)
    short = dict(variants=(default_config.variants[0], default_config.variants[3]),
                 fog_fractions=(0.0, 0.5), seeds=seeds)
    if kind == "dropout":
        return dataclasses.replace(default_config, dropout=True, **short)
    return dataclasses.replace(default_config, dropout=True, spawn_jitter_m=3.0, **short)


@st.composite
def _frame_case(draw):
    """(trace times, frame rate, end time) with times on, one ulp off or between frames."""
    frame_rate = draw(st.one_of(st.sampled_from([20.0, 11.0, 3.0, 0.7, 29.97]),
                                st.floats(0.1, 100.0)))

    def near_frame(low):
        k = st.integers(low, 40)
        return st.one_of(k.map(lambda k: k / frame_rate),
                         st.tuples(k, st.sampled_from([-math.inf, math.inf])).map(
                             lambda ks: math.nextafter(ks[0] / frame_rate, ks[1])),
                         st.floats(low / frame_rate, 40.0 / frame_rate))
    times = sorted(set(draw(st.lists(near_frame(-3), min_size=1, max_size=8))))
    end = draw(near_frame(1).filter(lambda t: t > 0.0))
    return tuple(times), frame_rate, end


# floats the writers must format apart: signed zeros, NaN, infinities, subnormals, extremes
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True))
# VariantConfig refuses names outside its four; the writers read only `variant.variant`
_OUTPUT_NAMES = st.sampled_from(["baseline", "a,b", 'say "hi"', "two\nlines", "cr\rx", ""])


def _output_record(name, fog, seed, samples, tta=None, failed=False, copy_of=None):
    """A hand-built RunRecord as the writers see it."""
    return runner.RunRecord(SimpleNamespace(variant=name), fog, seed, tta, samples,
                            len(samples), "why" if failed else None, 0.0, copy_of)


@st.composite
def _output_records(draw):
    """RunRecords in runs: a new samples array, a failed run's empty one, or an
    earlier run's array again; each run's copies follow it, sharing its array."""
    arrays, records = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "failed", "shared"] if arrays else ["new", "failed"]))
        if kind == "failed":
            samples = np.empty(0, SAMPLE_DTYPE)
        elif kind == "shared":
            samples = draw(st.sampled_from(arrays))
        else:
            counts = st.one_of(st.sampled_from([0, 1, 2 ** 63 - 1]), st.integers(-2 ** 63, 2 ** 63 - 1))
            rows = draw(st.lists(st.tuples(counts, _EDGE_FLOATS, _EDGE_FLOATS), max_size=6))
            samples = np.array(rows, SAMPLE_DTYPE)
            arrays.append(samples)
        name = draw(_OUTPUT_NAMES)
        fog = draw(st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(0.0, 1.0)))
        tta = None if kind == "failed" else draw(st.one_of(st.none(), _EDGE_FLOATS))
        seed = draw(st.integers(0, 2 ** 63))
        records.append(_output_record(name, fog, seed, samples, tta, kind == "failed"))
        records += [_output_record(name, fog, seed + 1 + i, samples, tta, kind == "failed", seed)
                    for i in range(draw(st.integers(0, 3)))]
    return records


def _edge_output_records():
    """Every case the writers' quoting, formatting and reuse must keep exact, in one sweep."""
    signed = np.array([(0, 0.0, 0.0), (0, -0.0, -0.0), (0, 0.0, 0.0), (3, 5e-324, math.inf),
                       (2 ** 63 - 1, 1e-310, math.nan), (-1, -math.inf, -0.0)], SAMPLE_DTYPE)
    zeros = np.array([(0, 0.0, 0.0), (0, 0.0, -0.0)], SAMPLE_DTYPE)
    empty = np.empty(0, SAMPLE_DTYPE)
    return [_output_record("a,b", 0.0, 1, signed, 0.5),
            _output_record("a,b", 0.0, 2, signed, 0.5, copy_of=1),
            _output_record('say "hi"', -0.0, 1, zeros, math.nan),
            _output_record("two\nlines", 0.5, 1, empty, failed=True),
            _output_record("two\nlines", 0.5, 2, empty, failed=True, copy_of=1),
            _output_record("baseline", 1.0, 7, signed, -math.inf),
            _output_record("", 1.0, 8, zeros, 1e-310)]


class TestLoadRunConfig:
    def test_defaults_from_the_shipped_config(self, default_config):
        c = default_config
        assert c.frame_rate == 20.0
        assert c.pulse_rate == 7812.5
        assert c.kappa == 0.01
        assert c.fog_fractions == (0.0, 0.25, 0.5)
        assert c.seeds == tuple(range(101, 121))
        assert [v.variant for v in c.variants] == [
            "baseline", "range", "resolution", "range_and_resolution"]
        assert not c.variants[0].adapts_power and not c.variants[0].adapts_spin
        assert c.variants[1].p_low_ratio == 0.2
        assert c.variants[3].omega_high_ratio == 2.0
        assert c.calibration.p_nominal == 1.0
        assert c.p_max == 4.0
        assert {s.eta for s in c.gaze_trace.states} == {0.5}
        assert c.acuity.kind == "boxcar"
        assert c.min_points == 1
        assert c.dropout is False
        assert c.spawn_jitter_m == 0.0
        assert c.target_id == 1
        assert len(c.scene.obstacles) == 12
        assert c.gaze_trace.times == (0.0,)

    def test_defaults_of_the_optional_keys(self, tmp_path):
        raw = {"gaze_trace": str(CONFIG_DIR / "gaze_left.csv"),
               "variants": [{"name": "range_and_resolution"}],
               "scenario": DEFAULT_JSON["scenario"]}
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(raw))
        c = load_run_config(path)
        assert (c.frame_rate, c.pulse_rate, c.max_sim_time, c.kappa) == (20.0, 7812.5, 15.0, 0.01)
        assert c.fog_fractions == (0.0, 0.25, 0.5)
        assert c.seeds == (0,)
        assert (c.calibration.p_nominal, c.calibration.r_nominal) == (1.0, 100.0)
        assert c.p_max == 4.0
        assert c.acuity == AcuityFunction.boxcar(math.radians(30.0))
        assert {s.eta for s in c.gaze_trace.states} == {0.5}
        assert (c.min_points, c.dropout, c.spawn_jitter_m) == (1, False, 0.0)
        assert c.variants == (VariantConfig("range_and_resolution", 0.2, 2.0),)

    def test_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="config.json"):
            load_run_config(p)

    def test_rejects_non_object_top_level(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_run_config(p)

    def test_requires_gaze_trace(self, tmp_path):
        p = _write_config(tmp_path, lambda raw: raw.pop("gaze_trace"))
        with pytest.raises(ConfigError, match="gaze_trace"):
            load_run_config(p)

    def test_rejects_missing_trace_file(self, tmp_path):
        p = _write_config(tmp_path, lambda raw: raw.update(gaze_trace="nope.csv"))
        with pytest.raises(ConfigError, match="gaze_trace"):
            load_run_config(p)

    def test_rejects_unknown_variant_with_its_index(self, tmp_path):
        def mutate(raw):
            raw["variants"][0]["name"] = "turbo"
        with pytest.raises(ConfigError, match=r"variants\[0\]"):
            load_run_config(_write_config(tmp_path, mutate))

    def test_rejects_fog_fraction_outside_unit_interval(self, tmp_path):
        p = _write_config(tmp_path, lambda raw: raw.update(fog_fractions=[0.0, 1.5]))
        with pytest.raises(ConfigError, match="outside"):
            load_run_config(p)

    def test_rejects_non_integer_seed(self, tmp_path):
        p = _write_config(tmp_path, lambda raw: raw.update(seeds=[1, "two"]))
        with pytest.raises(ConfigError, match="not an integer"):
            load_run_config(p)

    def test_rejects_duplicate_obstacle_ids(self, tmp_path):
        def mutate(raw):
            raw["scenario"]["obstacles"][1]["id"] = 1
        with pytest.raises(ConfigError, match="unique"):
            load_run_config(_write_config(tmp_path, mutate))

    def test_rejects_bad_min_points(self, tmp_path):
        def mutate(raw):
            raw["detection"]["min_points"] = 0
        with pytest.raises(ConfigError, match="min_points"):
            load_run_config(_write_config(tmp_path, mutate))

    def test_rejects_unknown_acuity_kind(self, tmp_path):
        def mutate(raw):
            raw["acuity"] = {"kind": "parabola"}
        with pytest.raises(ConfigError, match="parabola"):
            load_run_config(_write_config(tmp_path, mutate))

    def test_gaussian_acuity_requires_sigma(self, tmp_path):
        def mutate(raw):
            raw["acuity"] = {"kind": "gaussian"}
        with pytest.raises(ConfigError, match="sigma_deg"):
            load_run_config(_write_config(tmp_path, mutate))

    def test_rejects_a_calibration_whose_detection_constant_underflows(self, tmp_path):
        # r_nominal_m ** 2 overflows; at the parent, run then hung in effective_range
        p = _write_config(tmp_path, lambda raw: raw.update(
            sensor={"p_nominal_w": 1.0, "r_nominal_m": 1e308}))
        with pytest.raises(ConfigError, match=r"sensor: p_nominal / r_nominal \*\* 2 must be"):
            load_run_config(p)

    def test_rejects_negative_jitter(self, tmp_path):
        p = _write_config(tmp_path, lambda raw: raw.update(spawn_jitter_m=-1.0))
        with pytest.raises(ConfigError, match="spawn_jitter_m"):
            load_run_config(p)

    def test_rejects_empty_obstacles(self, tmp_path):
        def mutate(raw):
            raw["scenario"]["obstacles"] = []
        with pytest.raises(ConfigError, match="non-empty"):
            load_run_config(_write_config(tmp_path, mutate))

    @pytest.mark.parametrize("where, key, value, field", [
        ((), "frame_rate_hz", "abc", "frame_rate_hz"),
        ((), "frame_rate_hz", math.nan, "frame_rate_hz"),
        ((), "frame_rate_hz", math.inf, "frame_rate_hz"),
        ((), "frame_rate_hz", True, "frame_rate_hz"),
        ((), "frame_rate_hz", 0, "frame_rate_hz"),
        ((), "pulse_rate_hz", "7812.5", "pulse_rate_hz"),
        ((), "kappa_per_m", 10 ** 400, "kappa_per_m"),
        ((), "fog_fractions", ["x"], r"fog_fractions\[0\]"),
        ((), "fog_fractions", [0.0, math.nan], r"fog_fractions\[1\]"),
        ((), "seeds", [1, True], r"seeds\[1\]"),
        ((), "spawn_jitter_m", math.nan, "spawn_jitter_m"),
        ((), "fog_dropout", "false", "fog_dropout"),
        (("detection",), "min_points", "two", "detection.min_points"),
        (("detection",), "min_points", 2.5, "detection.min_points"),
        (("sensor",), "p_nominal_w", math.nan, "sensor.p_nominal_w"),
        (("sensor",), "p_max_ratio", None, "sensor.p_max_ratio"),
        (("acuity",), "eta", 1.5, "acuity.eta"),
        (("acuity",), "half_width_deg", 270.0, "acuity.half_width_deg"),
        (("variants", 1), "p_low_ratio", math.nan, r"variants\[1\].p_low_ratio"),
        (("variants", 2), "omega_high_ratio", math.nan, r"variants\[2\].omega_high_ratio"),
        (("scenario",), "target_id", 1.5, "scenario.target_id"),
        (("scenario",), "ego", ["a", 0.0], r"scenario.ego\[0\]"),
        (("scenario", "obstacles", 0), "half_length", "2", r"obstacles\[0\].half_length"),
        (("scenario", "obstacles", 2), "heading_deg", math.inf, r"obstacles\[2\].heading_deg"),
        (("scenario", "obstacles", 1), "speed_mps", -1.0, r"obstacles\[1\].speed_mps"),
        ((), "seeds", [3, -1], r"seeds\[1\]: -1 outside \[0, inf\)"),
        (("scenario", "obstacles", 3), "id", 10 ** 20,
         r"obstacles\[3\].id: 100000000000000000000 outside \[0, 9223372036854775807\]"),
        (("scenario", "obstacles", 3), "id", 2 ** 63, r"obstacles\[3\].id"),
        (("scenario", "obstacles", 3), "id", -1, r"obstacles\[3\].id: -1 outside"),
    ])
    def test_numbers_are_checked_and_named(self, tmp_path, where, key, value, field):
        def mutate(raw):
            node = raw
            for step in where:
                node = node[step]
            node[key] = value
        with pytest.raises(ConfigError, match=field):
            load_run_config(_write_config(tmp_path, mutate))

    def test_integers_are_accepted_as_numbers(self, tmp_path):
        config = load_run_config(_write_config(tmp_path, lambda raw: raw.update(
            frame_rate_hz=20, fog_fractions=[0, 1])))
        assert config.frame_rate == 20.0 and isinstance(config.frame_rate, float)
        assert config.fog_fractions == (0.0, 1.0)

    def test_obstacle_ids_at_the_bounds_run_like_any_other(self, tmp_path, default_config):
        def mutate(raw):
            raw["scenario"]["obstacles"][2]["id"] = 0
            raw["scenario"]["obstacles"][3]["id"] = 2 ** 63 - 1
        config = load_run_config(_write_config(tmp_path, mutate))
        assert validate_run_config(config) == []
        record = run_single(config, config.variants[0], 0.5, 101)
        assert _strip_wall_time(record) == _strip_wall_time(
            run_single(default_config, default_config.variants[0], 0.5, 101))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_scalar_in_a_numeric_field_loads_or_raises_config_error(self, data):
        raw = copy.deepcopy(DEFAULT_JSON)
        raw["gaze_trace"] = str(CONFIG_DIR / "gaze_left.csv")
        leaves = []

        def collect(node, route):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for k, v in items:
                if isinstance(v, (dict, list)):
                    collect(v, route + (k,))
                elif isinstance(v, (int, float)) and not isinstance(v, bool):
                    leaves.append(route + (k,))
        collect(raw, ())
        route = data.draw(st.sampled_from(leaves))
        value = data.draw(st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                                    st.integers(), st.floats(), st.lists(st.integers(), max_size=2)))
        node = raw
        for step in route[:-1]:
            node = node[step]
        node[route[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(raw))
            try:
                load_run_config(path)
            except ConfigError as exc:
                # the message names the mutated leaf, or an enclosing field of it
                name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in route)[1:]
                cuts = [i for i, ch in enumerate(name) if ch in ".["] + [len(name)]
                message = str(exc)
                assert message.startswith(f"{path}: ")
                rest = message[len(f"{path}: "):]
                assert any(rest.startswith(name[:cut]) and rest[cut:cut + 1] in (":", " ", "[")
                           for cut in cuts), message


class TestValidateRunConfig:
    def test_shipped_config_is_clean(self, default_config):
        assert validate_run_config(default_config) == []

    def test_flags_zero_pulses_per_revolution(self, default_config):
        config = dataclasses.replace(default_config, pulse_rate=1.0)
        assert any("no pulse" in p for p in validate_run_config(config))
        one_pulse = dataclasses.replace(default_config, pulse_rate=default_config.frame_rate)
        assert validate_run_config(one_pulse) == []

    def test_flags_repeated_variant_names(self, default_config):
        variants = default_config.variants
        for extra in (variants[0], VariantConfig("range", p_low_ratio=0.5)):
            config = dataclasses.replace(default_config, variants=variants + (extra,))
            problems = validate_run_config(config)
            assert len(problems) == 1
            assert "variants[4] repeats the name" in problems[0]

    @pytest.mark.parametrize("axis, values, problem", [
        ("seeds", (1, 1), "seeds[1] repeats seeds[0] (1)"),
        ("seeds", (5, 6, 7, 6), "seeds[3] repeats seeds[1] (6)"),
        ("fog_fractions", (0.5, 0.5), "fog_fractions[1] repeats fog_fractions[0] (0.5)"),
        ("fog_fractions", (0.0, 0.25, -0.0), "fog_fractions[2] repeats fog_fractions[0] (-0.0)"),
    ])
    def test_flags_repeated_seeds_and_fog_fractions(self, default_config, axis, values, problem):
        # a repeated value would run and write its rows twice
        problems = validate_run_config(dataclasses.replace(default_config, **{axis: values}))
        assert len(problems) == 1
        assert problems[0].startswith(problem)

    def test_flags_unknown_target(self, default_config):
        config = dataclasses.replace(default_config, target_id=99)
        assert any("target_id" in p for p in validate_run_config(config))

    def test_flags_static_target(self, default_config):
        scene = default_config.scene
        frozen = tuple(dataclasses.replace(o, speed=0.0) if o.id == 1 else o
                       for o in scene.obstacles)
        config = dataclasses.replace(default_config,
                                     scene=dataclasses.replace(scene, obstacles=frozen))
        assert any("moving" in p for p in validate_run_config(config))

    def test_flags_conflict_point_off_the_trajectory(self, default_config):
        scene = dataclasses.replace(default_config.scene, conflict_point=Vec2(5.0, 60.0))
        config = dataclasses.replace(default_config, scene=scene)
        assert any("off the target trajectory" in p
                   for p in validate_run_config(config))

    def test_flags_target_moving_away(self, default_config):
        scene = dataclasses.replace(default_config.scene, conflict_point=Vec2(80.0, 66.0))
        config = dataclasses.replace(default_config, scene=scene)
        assert any("away" in p for p in validate_run_config(config))

    def test_flags_degenerate_focus_region(self, default_config):
        trace = default_config.gaze_trace
        states = tuple(dataclasses.replace(s, eta=1.0) for s in trace.states)
        config = dataclasses.replace(default_config, gaze_trace=GazeTrace(trace.times, states))
        assert any("degenerate" in p for p in validate_run_config(config))

    def test_counts_pulses_when_every_variant_fails(self, default_config):
        # every plan fires pulse_rate / frame_rate pulses, so the count needs no plan
        trace = default_config.gaze_trace
        states = tuple(dataclasses.replace(s, eta=1.0) for s in trace.states)
        config = dataclasses.replace(default_config, gaze_trace=GazeTrace(trace.times, states),
                                     pulse_rate=10.0)
        problems = validate_run_config(config)
        assert [p.split(" ", 1)[0] for p in problems[:-1]] == [
            f"variants[{i}]" for i in range(len(config.variants))]
        assert problems[-1] == "pulse_rate_hz 10 at frame_rate_hz 20 fires no pulse per revolution"

    @pytest.mark.parametrize("times, bad, max_sim_time, reported", [
        ((0.0, 1.0), 1, 15.0, True),
        ((0.0, 15.0), 1, 15.0, False),
        ((-1.0, 0.0), 0, 15.0, False),
        ((0.5, 1.0), 0, 15.0, True),
    ], ids=["later", "at-max-sim-time", "superseded-before-0", "clamped-to-first"])
    def test_checks_every_gaze_state_a_run_can_reach(self, default_config, times, bad,
                                                     max_sim_time, reported):
        left = default_config.gaze_trace.states[0]
        states = [left, left]
        states[bad] = GazeState(math.radians(10.0), 1.0)
        config = dataclasses.replace(default_config, gaze_trace=GazeTrace(times, tuple(states)),
                                     max_sim_time=max_sim_time)
        problems = validate_run_config(config)
        assert any("degenerate" in p for p in problems) is reported
        # a degenerate partition fails every variant's runs, baseline too
        assert [p.split(" ")[0] for p in problems if p.startswith("variants[")] == (
            ["variants[0]", "variants[1]", "variants[2]", "variants[3]"] if reported else [])

    def test_a_long_max_sim_time_validates_clean(self, default_config):
        # 2e13 frames at 20 Hz: one array element per frame would not fit in memory
        config = dataclasses.replace(default_config, max_sim_time=1e12)
        assert validate_run_config(config) == []

    @settings(max_examples=300, deadline=None)
    @given(case=_frame_case(), labels=st.lists(st.integers(0, 2), min_size=8, max_size=8))
    # ceil(t * frame_rate) one frame late: 255 / 11.0 * 11.0 rounds above 255
    @example(case=((0.0, 255 / 11.0), 11.0, 256 / 11.0), labels=[0, 1] * 4)
    # and one frame early: the frame at 35 / 0.7 s comes one ulp before the sample
    @example(case=((0.0, math.nextafter(35 / 0.7, math.inf)), 0.7, 36 / 0.7), labels=[0, 1] * 4)
    def test_gaze_spans_match_the_per_frame_lookup(self, case, labels):
        times, frame_rate, end = case
        trace = GazeTrace(times, tuple(GazeState(float(c), 0.5) for c in labels[:len(times)]))
        spans = runner._gaze_spans(trace, frame_rate, end)
        assert [state for first, stop, state in spans for _ in range(int(first), int(stop))] == (
            states_per_frame(trace, frame_rate, end))
        assert [first for first, _, _ in spans] == [0.0] + [stop for _, stop, _ in spans[:-1]]
        assert all(a[2] != b[2] for a, b in zip(spans, spans[1:]))

    def test_skips_a_sample_that_no_frame_reads(self, default_config):
        # at 20 Hz the 0 deg sample is superseded before the frame at 0.05 s;
        # its wrapped RoF solves p_high to 1.1600000000000001, over the cap
        left = default_config.gaze_trace.states[0]
        trace = GazeTrace((0.0, 0.01, 0.02), (left, GazeState(0.0, left.eta), left))
        config = dataclasses.replace(default_config, gaze_trace=trace, p_max=1.16)
        assert validate_run_config(config) == []
        assert not any(r.failed for r in run_sweep(config))
        read = dataclasses.replace(config, gaze_trace=GazeTrace((0.0, 0.05), trace.states[:2]))
        assert [p.split(" ")[0] for p in validate_run_config(read)] == ["variants[1]",
                                                                       "variants[3]"]

    @settings(max_examples=80, deadline=None)
    @given(theta_deg=_THETA_DEG, half_width_deg=st.floats(1.0, 180.0),
           p_low_ratio=st.floats(0.05, 1.0), free_cap=st.floats(1.0, 4.0),
           cap=st.sampled_from(["free", "nominal_width", "arc_width"]),
           later=st.lists(st.tuples(st.floats(0.001, 0.08), _THETA_DEG), max_size=3),
           capped=st.integers(0, 3))
    @example(theta_deg=135.4308, half_width_deg=30.0, p_low_ratio=0.2, free_cap=1.16,
             cap="free", later=[(0.01, 0.0), (0.01, 135.4308)], capped=0)
    @example(theta_deg=135.4308, half_width_deg=30.0, p_low_ratio=0.2, free_cap=1.16,
             cap="free", later=[(0.05, 0.0)], capped=0)
    @example(theta_deg=0.0, half_width_deg=180.0, p_low_ratio=1.0, free_cap=4.0,
             cap="free", later=[], capped=0)
    @example(theta_deg=185.5, half_width_deg=179.99999999999997, p_low_ratio=1.0, free_cap=1.0,
             cap="free", later=[], capped=0)
    def test_reports_exactly_the_variants_whose_runs_fail(self, default_config, theta_deg,
                                                         half_width_deg, p_low_ratio,
                                                         free_cap, cap, later, capped):
        acuity = AcuityFunction.boxcar(math.radians(half_width_deg))
        times = [0.0]
        states = [GazeState(math.radians(theta_deg), 0.5)]
        for gap, theta in later:
            times.append(times[-1] + gap)
            states.append(GazeState(math.radians(theta), 0.5))
        # Caps placed exactly on p_high as solved from the nominal RoF width
        # 2 * half_width and from the width of the arcs a run builds under one
        # of the trace's states: the two can round apart, so a check that
        # measures one and runs the other disagrees with the run there.
        width = {"free": None, "nominal_width": 2.0 * acuity.half_width,
                 "arc_width": compute_rof(states[capped % len(states)], acuity).width}[cap]
        try:
            p_max = free_cap if width is None else solve_power_levels(
                1.0, width, p_low_ratio, p_max=math.inf).p_high
        except DegeneratePartitionError:    # no p_high to place a cap on
            p_max = free_cap
        # min_points out of reach: every run lasts max_sim_time, frames at
        # 0, 0.05 and 0.1 s, and reads every state a frame can read
        config = dataclasses.replace(
            default_config, acuity=acuity, gaze_trace=GazeTrace(tuple(times), tuple(states)),
            p_max=p_max, max_sim_time=0.15, min_points=10 ** 6,
            variants=(VariantConfig("baseline"), VariantConfig("range", p_low_ratio),
                      VariantConfig("resolution", 1.0, 2.0),
                      VariantConfig("range_and_resolution", p_low_ratio, 2.0)))
        problems = validate_run_config(config)
        for i, variant in enumerate(config.variants):
            reported = any(p.startswith(f"variants[{i}] ") for p in problems)
            assert reported == run_single(config, variant, 0.0, 101).failed, (i, problems)

    def test_flags_eye_safety_violations_per_variant(self, default_config):
        config = dataclasses.replace(default_config, p_max=1.05)
        problems = validate_run_config(config)
        assert any("range" in p and "exceeds" in p for p in problems)
        assert len(problems) == 2

    def test_flags_power_and_spin_rates_that_overflow(self, default_config):
        # each plan would hold an infinite power or spin rate, which ScanPlan refuses
        huge_power = dataclasses.replace(
            default_config, calibration=SensorCalibration(1e308, 100.0), p_max=math.inf)
        assert validate_run_config(huge_power) == [
            "variants[1] (range): p_high overflows to inf W",
            "variants[3] (range_and_resolution): p_high overflows to inf W"]
        fast = VariantConfig("resolution", omega_high_ratio=1e308)
        fast_spin = dataclasses.replace(default_config, variants=(fast,))
        assert validate_run_config(fast_spin) == [
            "variants[0] (resolution): omega_high overflows to inf rad/s"]
        assert run_single(fast_spin, fast, 0.0, 101).failed

    def test_flags_a_vertex_past_the_caster_bound(self, default_config):
        scene = default_config.scene
        beyond = f"a vertex lies more than {MAX_OFFSET:g} m from the ego on an axis"

        def with_box(box, **changes):
            return validate_run_config(dataclasses.replace(default_config, scene=dataclasses.replace(
                scene, obstacles=scene.obstacles + (box,)), **changes))
        # a static box whose far face lies on the bound, then one ulp past it
        box = ObstacleBox(40, Vec2(MAX_OFFSET, 0.0), 0.0, 1.0, 1.0, 0.0)
        assert with_box(box) == []
        far = dataclasses.replace(box, center=Vec2(math.nextafter(MAX_OFFSET, math.inf), 0.0))
        assert with_box(far) == [f"scenario.obstacles[12]: {beyond}"]
        # a mover is checked where max_sim_time_s takes it, with and without jitter
        mover = dataclasses.replace(box, center=Vec2(0.0, 90.0), speed=MAX_OFFSET / 10.0)
        assert with_box(mover, max_sim_time=5.0) == []
        assert with_box(mover, max_sim_time=15.0) == [
            f"scenario.obstacles[12]: {beyond} at t = 0 or at max_sim_time_s 15"]
        # a jitter of 6e149 m keeps the cars inside, but takes the fast box out
        assert with_box(mover, max_sim_time=5.0, spawn_jitter_m=6e149) == [
            "spawn_jitter_m: 6e+149 moves a vertex of scenario.obstacles[12] more than "
            f"{MAX_OFFSET:g} m from the ego on an axis at t = 0 or at max_sim_time_s 5"]

    @pytest.mark.parametrize("jitter", [1e308, math.nan, math.inf, -1.0])
    def test_flags_a_jitter_runs_cannot_draw(self, default_config, jitter):
        # 1e308, nan and inf overflowed Generator.uniform; -1.0 ran as if it were 0
        config = dataclasses.replace(default_config, spawn_jitter_m=jitter)
        (problem,) = validate_run_config(config)
        assert problem.startswith(f"spawn_jitter_m: {jitter!r} ")
        assert validate_run_config(dataclasses.replace(config, spawn_jitter_m=3.0)) == []


class TestRunSingle:
    def test_clear_air_detects_on_the_first_frame(self, default_config):
        record = run_single(default_config, default_config.variants[0], 0.0, 101)
        assert not record.failed
        # 67 m from the conflict point at 13.89 m/s
        assert record.tta == pytest.approx(4.824, rel=1e-12)
        assert record.frames == 1
        assert len(record.samples) == 1

    def test_repeat_runs_are_identical(self, default_config):
        a = run_single(default_config, default_config.variants[1], 0.5, 101)
        b = run_single(default_config, default_config.variants[1], 0.5, 101)
        assert _strip_wall_time(a) == _strip_wall_time(b)

    def test_seed_is_inert_without_jitter_or_dropout(self, default_config):
        a = run_single(default_config, default_config.variants[0], 0.25, 101)
        b = run_single(default_config, default_config.variants[0], 0.25, 999)
        assert _strip_wall_time(a)[3:] == _strip_wall_time(b)[3:]

    def test_fog_delays_detection(self, default_config):
        clear = run_single(default_config, default_config.variants[0], 0.0, 101)
        foggy = run_single(default_config, default_config.variants[0], 0.5, 101)
        assert foggy.frames > clear.frames
        assert foggy.tta < clear.tta

    @pytest.mark.parametrize("random_draws", [False, True])
    def test_revisited_gaze_state_matches_per_frame_rebuild(self, default_config,
                                                            monkeypatch, random_draws):
        left = default_config.gaze_trace.states[0]
        right = GazeState(math.radians(45.0), left.eta)
        config = dataclasses.replace(
            default_config,
            gaze_trace=GazeTrace((0.0, 0.15, 0.3), (left, right, left)),
            dropout=random_draws, spawn_jitter_m=3.0 if random_draws else 0.0)
        variant = config.variants[3]
        build_scan_plan = runner.build_scan_plan
        plans = []

        def counting_build(*args, **kwargs):
            plans.append(args)
            return build_scan_plan(*args, **kwargs)

        monkeypatch.setattr(runner, "build_scan_plan", counting_build)
        record = run_single(config, variant, 0.25, 101)
        assert record.frames > 6, "run must reach the revisited sample at t = 0.3 s"
        assert len(plans) == 2
        expected = per_frame_run(config, variant, 0.25, 101)
        assert _strip_wall_time(record) == _strip_wall_time(expected)

    @pytest.mark.parametrize("acuity, eta", [(AcuityFunction.boxcar(math.pi), 0.5),
                                             (AcuityFunction.boxcar(math.radians(30.0)), 1.0)],
                             ids=["full-circle-rof", "empty-rof"])
    def test_degenerate_focus_region_fails_every_variant(self, default_config, acuity, eta):
        trace = default_config.gaze_trace
        states = tuple(dataclasses.replace(s, eta=eta) for s in trace.states)
        config = dataclasses.replace(default_config, acuity=acuity,
                                     gaze_trace=GazeTrace(trace.times, states))
        for variant in config.variants:
            record = run_single(config, variant, 0.0, 101)
            assert record.failed
            assert "degenerate partition" in record.failure_reason
            assert len(record.samples) == 0 and record.frames == 0

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_static_and_moving_layers_match_the_per_frame_reference(self, default_config, seed):
        # jitter + dropout, and a wall that hides the target for a while, so
        # runs last many frames with the movers crossing behind static boxes
        config = _hidden_target(default_config, dropout=True, spawn_jitter_m=3.0,
                                max_sim_time=2.0)
        for variant in config.variants:
            for fog in (0.0, 0.5):
                record = run_single(config, variant, fog, seed)
                assert _strip_wall_time(record) == _strip_wall_time(
                    per_frame_run(config, variant, fog, seed))

    def test_programming_errors_propagate(self, default_config, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in the frame path")
        for name in ("scan_frames", "first_detection", "roi_densities"):
            with monkeypatch.context() as patch:
                patch.setattr(runner, name, broken)
                with pytest.raises(ValueError, match="bug in the frame path"):
                    run_single(default_config, default_config.variants[0], 0.0, 101)

    def test_unknown_target_raises_before_any_frame_is_cast(self, default_config, monkeypatch):
        def no_scan(*args):
            raise AssertionError("run_single cast a frame")
        monkeypatch.setattr(runner, "scan_frames", no_scan)
        config = dataclasses.replace(default_config, target_id=99)
        with pytest.raises(KeyError, match="no obstacle with id 99"):
            run_single(config, config.variants[0], 0.0, 101)

    def test_a_static_target_raises_before_any_frame_is_cast(self, default_config, monkeypatch):
        def no_scan(*args):
            raise AssertionError("run_single cast a frame")
        monkeypatch.setattr(runner, "scan_frames", no_scan)
        scene = default_config.scene
        frozen = tuple(dataclasses.replace(o, speed=0.0) if o.id == 1 else o
                       for o in scene.obstacles)
        config = dataclasses.replace(default_config,
                                     scene=dataclasses.replace(scene, obstacles=frozen))
        with pytest.raises(ValueError, match="target 1 must be moving"):
            run_single(config, config.variants[0], 0.0, 101)

    def test_min_points_below_one_is_refused_like_the_per_frame_loop(self, default_config):
        # load_run_config refuses it; a RunConfig built in code reaches detect
        config = dataclasses.replace(default_config, min_points=0)
        variant = config.variants[0]
        with pytest.raises(ValueError, match="min_points"):
            per_frame_run(config, variant, 0.0, 101)
        with pytest.raises(ValueError, match="min_points"):
            run_single(config, variant, 0.0, 101)

    def test_policy_failures_become_failed_records(self, default_config):
        config = dataclasses.replace(default_config, p_max=1.05)
        record = run_single(config, VariantConfig("range", 0.2, 2.0), 0.0, 101)
        assert record.failed
        assert "exceeds" in record.failure_reason
        assert record.tta is None
        assert len(record.samples) == 0
        assert record.frames == 0


class _ChunkLog:
    """Wraps runner.scan_frames and records the rows (frames) and the live
    runs of each call."""

    def __init__(self, monkeypatch):
        self.sizes = []
        self.live = []
        scan = runner.scan_frames

        def recording(edges, *args):
            self.sizes.append(len(edges))
            self.live.append(len(args[-1]))
            return scan(edges, *args)

        monkeypatch.setattr(runner, "scan_frames", recording)

    def clear(self):
        self.sizes = []
        self.live = []

    def run(self, config, variant, fog, seed):
        self.clear()
        return run_single(config, variant, fog, seed)


class TestChunkKernel:
    """run_single casts chunks of frames that share a gaze state in one
    scan_frames call; every record equals the per-frame reference loop."""

    def test_chunks_match_the_per_frame_reference(self, default_config, monkeypatch):
        left = default_config.gaze_trace.states[0]
        right = GazeState(math.radians(45.0), left.eta)
        # gaze changes at frames 4 and 9, inside chunks of 5 and more; 39
        # frames is no multiple of any chunk size tried
        config = _hidden_target(default_config, dropout=True, spawn_jitter_m=3.0, min_points=3,
                                max_sim_time=1.93,
                                gaze_trace=GazeTrace((0.0, 0.17, 0.43), (left, right, left)))
        log = _ChunkLog(monkeypatch)
        expected = {}
        seen = set()
        for chunk in (2, 3, 5, 8, runner.CHUNK_FRAMES):
            monkeypatch.setattr(runner, "CHUNK_FRAMES", chunk)
            for variant in config.variants:
                for fog in (0.0, 0.5):
                    for seed in (7, 8):
                        record = log.run(config, variant, fog, seed)
                        key = (variant, fog, seed)
                        if key not in expected:
                            expected[key] = _strip_wall_time(per_frame_run(config, *key))
                        assert _strip_wall_time(record) == expected[key]
                        assert record.frames_cast == sum(log.sizes) >= record.frames
                        assert max(log.sizes) <= chunk
                        # every chunk ends where the gaze state changes
                        ends = np.cumsum(log.sizes).tolist()
                        assert {4, 9} & set(range(record.frames_cast)) <= set(ends)
                        if record.tta is None:
                            assert record.frames_cast == record.frames == 39
                            seen.add("undetected")
                            continue
                        start = record.frames_cast - log.sizes[-1]
                        at = record.frames - 1 - start
                        seen.add("first" if at == 0 else "last" if at == log.sizes[-1] - 1
                                 else "inside")
        assert seen >= {"first", "last", "inside"}

    def test_each_output_frame_gets_one_sample_and_each_chunk_is_counted_once(
            self, default_config, monkeypatch):
        calls = dict.fromkeys(["first_detection", "roi_densities", "scan_revolution", "density",
                               "detect", "advance"], 0)
        for name in calls:
            def counting(*args, _name=name, _f=getattr(runner, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(runner, name, counting)
        log = _ChunkLog(monkeypatch)
        config = _hidden_target(default_config, dropout=True, spawn_jitter_m=3.0,
                                max_sim_time=2.0)
        record = log.run(config, config.variants[0], 0.5, 7)
        assert record.frames > runner.CHUNK_FRAMES and len(log.sizes) > 1
        assert len(record.samples) == record.frames
        chunks = len(log.sizes)
        assert calls == dict(first_detection=chunks, roi_densities=chunks, scan_revolution=0,
                             density=0, detect=0, advance=0)

    @staticmethod
    def _chunk_sizes(default_config, monkeypatch, pattern, times):
        """Chunk sizes of a 0.6 s, 12-frame run at 20 Hz whose trace holds the
        L and R gaze states of `pattern` at `times`; checks the record against
        the per-frame loop and that the run never looks up the trace."""
        left = default_config.gaze_trace.states[0]
        states = {"L": left, "R": GazeState(math.radians(45.0), left.eta)}
        config = _hidden_target(default_config, max_sim_time=0.6, gaze_trace=GazeTrace(
            times, tuple(states[c] for c in pattern)))

        def no_lookup(self, t):
            raise AssertionError("run_single looked up the gaze trace")
        log = _ChunkLog(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(GazeTrace, "at", no_lookup)
            record = log.run(config, config.variants[3], 0.5, 7)
        assert record.tta is None and record.frames == 12
        assert _strip_wall_time(record) == _strip_wall_time(
            per_frame_run(config, config.variants[3], 0.5, 7))
        return log.sizes

    @pytest.mark.parametrize("pattern, sizes", [("LRL", [4, 5, 3]), ("LLR", [9, 3]),
                                                 ("RLL", [4, 8]), ("LLL", [12])])
    def test_chunks_end_where_a_read_sample_changes_the_state(self, default_config, monkeypatch,
                                                              pattern, sizes):
        # samples at 0.17 s and 0.43 s are first read by frames 4 and 9 at 20 Hz;
        # a sample that repeats the state before it does not start a chunk
        assert self._chunk_sizes(default_config, monkeypatch, pattern,
                                 (0.0, 0.17, 0.43)) == sizes

    def test_a_sample_no_frame_reads_does_not_end_a_chunk(self, default_config, monkeypatch):
        # R at 0.17 s is superseded at 0.171 s, before frame 4 reads it
        assert self._chunk_sizes(default_config, monkeypatch, "LRL", (0.0, 0.17, 0.171)) == [12]

    def test_first_frame_detection_casts_one_chunk(self, default_config, monkeypatch):
        log = _ChunkLog(monkeypatch)
        record = log.run(default_config, default_config.variants[0], 0.0, 101)
        assert record.tta is not None and record.frames == 1
        assert log.sizes == [runner.CHUNK_FRAMES] and record.frames_cast == runner.CHUNK_FRAMES
        assert _strip_wall_time(record) == _strip_wall_time(
            per_frame_run(default_config, default_config.variants[0], 0.0, 101))

    def test_random_configs_match_the_per_frame_reference(self, default_config, monkeypatch):
        rng = np.random.default_rng(77)
        eta = default_config.gaze_trace.states[0].eta
        for _ in range(12):
            monkeypatch.setattr(runner, "CHUNK_FRAMES", int(rng.integers(1, 30)))
            samples = int(rng.integers(1, 5))
            times = (0.0,) + tuple(np.sort(rng.uniform(0.01, 1.5, samples - 1)).tolist())
            states = tuple(GazeState(math.radians(float(rng.choice([0.0, 45.0, 135.4308, 250.0]))),
                                     eta) for _ in times)
            config = _hidden_target(
                default_config, dropout=bool(rng.integers(0, 2)),
                spawn_jitter_m=float(rng.choice([0.0, 3.0])), min_points=int(rng.integers(1, 6)),
                max_sim_time=float(rng.uniform(0.2, 2.0)), gaze_trace=GazeTrace(times, states))
            variant = config.variants[int(rng.integers(0, 4))]
            fog = float(rng.choice([0.0, 0.25, 0.5]))
            seed = int(rng.integers(0, 1000))
            record = run_single(config, variant, fog, seed)
            assert record.frames_cast >= record.frames
            assert _strip_wall_time(record) == _strip_wall_time(
                per_frame_run(config, variant, fog, seed))


def _assert_split_by_frames_cast(records):
    total = sum(r.wall_time for r in records)
    cast = sum(r.frames_cast for r in records)
    assert total > 0.0
    for r in records:
        share = r.frames_cast / cast if cast else 1.0 / len(records)
        assert r.wall_time == pytest.approx(total * share, rel=1e-12)


class TestSeedStack:
    """_run_seeds steps every live run of a variant, at any of its fogs, through
    one scan_frames call; each record equals its one-run call and the per-frame
    reference."""

    @staticmethod
    def _check(records, config, variant, runs):
        """Checks stacked records against one-run calls and per_frame_run."""
        assert [(r.fog_fraction, r.seed) for r in records] == list(runs)
        for record, (fog, seed) in zip(records, runs):
            assert _strip_wall_time(record) == _strip_wall_time(
                run_single(config, variant, fog, seed))
            assert _strip_wall_time(record) == _strip_wall_time(
                per_frame_run(config, variant, fog, seed))
            assert record.frames_cast >= record.frames and record.reused_from is None
        # the loop's time is split over the runs it stepped by the frames each cast
        _assert_split_by_frames_cast(records)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_stacked_seeds_equal_one_seed_runs_and_the_per_frame_reference(
            self, default_config, data):
        eta = default_config.gaze_trace.states[0].eta
        samples = data.draw(st.integers(1, 4))
        times = (0.0,) + tuple(sorted(data.draw(st.lists(
            st.floats(0.01, 1.2), min_size=samples - 1, max_size=samples - 1))))
        states = tuple(GazeState(math.radians(data.draw(st.sampled_from(
            [0.0, 45.0, 135.4308, 250.0]))), eta) for _ in times)
        changes = dict(dropout=data.draw(st.booleans()),
                       spawn_jitter_m=data.draw(st.sampled_from([0.0, 3.0])),
                       min_points=data.draw(st.integers(1, 5)),
                       max_sim_time=data.draw(st.floats(0.2, 1.5)),
                       gaze_trace=GazeTrace(times, states))
        config = (_hidden_target(default_config, **changes) if data.draw(st.booleans())
                  else dataclasses.replace(default_config, **changes))
        variant = data.draw(st.sampled_from(config.variants))
        # (fog, seed) runs; a small seed pool puts one seed at several fogs
        runs = tuple(data.draw(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5]),
                                                  st.integers(0, 3)),
                                        min_size=1, max_size=5, unique=True)))
        # a few hundred rays per call: from one frame of each run to several
        with mock.patch.object(runner, "RAYS_PER_CALL", data.draw(st.integers(1, 8000))):
            records = runner._run_seeds(config, variant, runs)
            self._check(records, config, variant, runs)

    def test_a_run_that_detects_first_carries_less_of_the_loop_time(self, default_config):
        # in clear air the baseline detects at frame 0, in fog 0.5 dozens of frames later
        t0 = time.perf_counter()
        records = runner._run_seeds(default_config, default_config.variants[0],
                                    [(0.0, 101), (0.5, 101)])
        elapsed = time.perf_counter() - t0
        early, late = records
        assert early.frames == 1 and late.frames > runner.CHUNK_FRAMES
        assert early.frames_cast == runner.CHUNK_FRAMES < late.frames_cast
        _assert_split_by_frames_cast(records)
        assert 0.0 < early.wall_time < late.wall_time
        assert early.wall_time + late.wall_time <= elapsed

    @pytest.mark.parametrize("jitter", [0.0, 3.0])
    def test_a_mixed_stack_equals_one_run_calls_and_the_per_frame_reference(
            self, default_config, jitter):
        # fog 0 draws no dropout; fogs 0.25 and 0.5 do, each seed at every fog
        # from its own generator; from 1 s the gaze state's RoF is empty, so the
        # plan fails for the runs still live then, the fog 0.5 ones
        left = default_config.gaze_trace.states[0]
        config = dataclasses.replace(
            default_config, dropout=True, spawn_jitter_m=jitter, max_sim_time=3.0,
            gaze_trace=GazeTrace((0.0, 1.0), (left, dataclasses.replace(left, eta=1.0))))
        variant = config.variants[3]
        runs = [(fog, seed) for seed in (7, 8) for fog in (0.5, 0.0, 0.25)]
        records = runner._run_seeds(config, variant, runs)
        assert [(r.fog_fraction, r.seed) for r in records] == runs
        for record, (fog, seed) in zip(records, runs):
            assert _strip_wall_time(record) == _strip_wall_time(
                run_single(config, variant, fog, seed))
            if record.failed:
                assert "degenerate partition" in record.failure_reason
                assert record.frames == 0 and record.tta is None
                with pytest.raises(DegeneratePartitionError):
                    per_frame_run(config, variant, fog, seed)
            else:
                assert _strip_wall_time(record) == _strip_wall_time(
                    per_frame_run(config, variant, fog, seed))
        outcomes = {(r.fog_fraction, r.failed) for r in records}
        assert outcomes == {(0.0, False), (0.25, False), (0.5, True)}
        if jitter:
            # the seeds' jitter tells their fog 0.25 detections apart
            assert records[2].tta != records[5].tta

    def test_a_cell_that_draws_stacks_its_seeds_and_one_that_does_not_runs_once(
            self, default_config, monkeypatch):
        stacks = []
        run_seeds = runner._run_seeds

        def recording(config, variant, runs):
            stacks.append(list(runs))
            return run_seeds(config, variant, runs)

        def no_single(*args):
            raise AssertionError("a sweep task called run_single")
        monkeypatch.setattr(runner, "_run_seeds", recording)
        monkeypatch.setattr(runner, "run_single", no_single)
        log = _ChunkLog(monkeypatch)
        fogs = (0.0, 0.5)
        for kind, simulated in [("jitter_dropout", [(0.0, 101), (0.0, 102), (0.0, 103),
                                                    (0.5, 101), (0.5, 102), (0.5, 103)]),
                                ("dropout", [(0.0, 101), (0.5, 101), (0.5, 102), (0.5, 103)]),
                                ("default", [(0.0, 101), (0.5, 101)])]:
            stacks.clear()
            log.clear()
            config = dataclasses.replace(_sweep_config(default_config, kind), fog_fractions=fogs)
            records = runner._run_cells((config, config.variants[0]))
            # one stack holds every simulated run of the variant's fogs
            assert stacks == [simulated] and log.live[0] == len(simulated)
            assert [(r.fog_fraction, r.seed) for r in records] == [
                (fog, seed) for fog in fogs for seed in config.seeds]
            for r in records:
                copied = not uses_rng(config, r.fog_fraction) and r.seed != config.seeds[0]
                assert r.reused_from == (config.seeds[0] if copied else None)
                assert (r.wall_time == 0.0) is copied

    def test_seeds_leave_the_stack_when_they_detect_or_time_out(self, default_config,
                                                               monkeypatch):
        monkeypatch.setattr(runner, "RAYS_PER_CALL", 390 * 6)
        seen = set()
        log = _ChunkLog(monkeypatch)
        cases = [(dataclasses.replace(default_config, dropout=True, spawn_jitter_m=3.0), 0.0),
                 (_hidden_target(default_config, dropout=True, spawn_jitter_m=3.0,
                                 max_sim_time=1.5), 0.5)]
        for config, fog in cases:
            for variant in config.variants:
                runs = [(fog, seed) for seed in (7, 8, 9, 10, 11)]
                log.clear()
                records = runner._run_seeds(config, variant, runs)
                calls = list(zip(log.sizes, log.live))
                self._check(records, config, variant, runs)
                # each call casts k = RAYS_PER_CALL // (live * n) frames of every live
                # seed, at least 1; the one gaze span ends at frame 30, inside the last call
                assert all(rows == live * max(6 // live, 1) for rows, live in calls[:-1])
                rows, live = calls[-1]
                assert rows % live == 0 and rows <= live * max(6 // live, 1)
                steps = np.cumsum([0] + [rows // live for rows, live in calls]).tolist()
                for j, (_, live) in enumerate(calls):
                    assert live == sum(r.frames_cast > steps[j] for r in records)
                detected_in = {}
                for r in records:
                    if r.tta is None:
                        assert r.frames == r.frames_cast == 30
                        seen.add("never")
                        continue
                    # a seed leaves the stack after the step it detects in
                    j = steps.index(r.frames_cast) - 1
                    assert steps[j] <= r.frames - 1 < steps[j + 1]
                    detected_in[r.seed] = j
                    if r.frames == 1:
                        seen.add("frame 0")
                if len(detected_in) > len(set(detected_in.values())):
                    seen.add("same step")
        assert seen >= {"frame 0", "never", "same step"}

    @pytest.mark.parametrize("cap, group", [(390 * 2, 2), (390 * 3 - 1, 2), (100, 1)])
    def test_live_seeds_past_the_ray_cap_split_into_calls_within_it(self, default_config,
                                                                    monkeypatch, cap, group):
        # a frame is n = 390 rays; a step casts `group` seeds per call, and the
        # last call of the step the rest
        monkeypatch.setattr(runner, "RAYS_PER_CALL", cap)
        config = _hidden_target(default_config, dropout=True, spawn_jitter_m=3.0,
                                max_sim_time=0.5)
        variant = config.variants[1]
        runs = [(0.5, seed) for seed in range(7)]
        log = _ChunkLog(monkeypatch)
        records = runner._run_seeds(config, variant, runs)
        self._check(records, config, variant, runs)
        assert all(rows * 390 <= max(cap, 390) and live <= group
                   for rows, live in zip(log.sizes, log.live))
        first_step = log.live[:-(-7 // group)]
        assert first_step == [group] * (7 // group) + [7 % group] * (7 % group > 0)


class TestUsesRng:
    @pytest.mark.parametrize("jitter, dropout, fog, expected", [
        (3.0, False, 0.0, True),
        (0.0, True, 0.0, False),
        (0.0, True, 0.25, True),
        (0.0, False, 0.25, False),
    ], ids=["jitter", "dropout-clear", "dropout-fog", "neither"])
    def test_truth_table(self, default_config, jitter, dropout, fog, expected):
        config = dataclasses.replace(default_config, spawn_jitter_m=jitter,
                                     dropout=dropout)
        assert uses_rng(config, fog) is expected

    @pytest.mark.parametrize("kind", ["default", "dropout", "jitter_dropout"])
    def test_runs_without_rng_never_draw(self, default_config, monkeypatch, kind):
        config = _sweep_config(default_config, kind)
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _NoDraws())
        checked = 0
        for variant in config.variants:
            for fog in config.fog_fractions:
                if uses_rng(config, fog):
                    with pytest.raises(AssertionError, match="drew from rng"):
                        run_single(config, variant, fog, 101)
                else:
                    record = run_single(config, variant, fog, 101)
                    assert not record.failed and record.frames > 0
                    checked += 1
        assert checked == {"default": 12, "dropout": 2, "jitter_dropout": 0}[kind]


class TestSpawnJitter:
    @staticmethod
    def _layers(config, monkeypatch):
        """run_single's static layer and the start array of its movers, as
        revolution_setup and edges_at receive them."""
        seen = {}

        build_setup, build_edges = runner.revolution_setup, runner.edges_at

        def setup(plan, fog, cal, static, roi):
            seen["static"] = static
            return build_setup(plan, fog, cal, static, roi)

        def edges(movers, times, starts):
            seen.setdefault("movers", movers)
            seen.setdefault("starts", starts)
            return build_edges(movers, times, starts)
        monkeypatch.setattr(runner, "revolution_setup", setup)
        monkeypatch.setattr(runner, "edges_at", edges)
        run_single(config, config.variants[0], 0.0, 101)
        return seen["static"], seen["movers"], seen["starts"]

    def test_only_moving_obstacles_shift(self, default_config, monkeypatch):
        config = dataclasses.replace(default_config, spawn_jitter_m=3.0)
        static, movers, starts = self._layers(config, monkeypatch)
        base = default_config.scene
        assert static.obstacles == tuple(o for o in base.obstacles if o.speed == 0.0)
        assert movers.obstacles == tuple(o for o in base.obstacles if o.speed > 0.0)
        assert starts.shape == (1, len(movers.obstacles), 2)
        for (x, y), original in zip(starts[0].tolist(), movers.obstacles):
            assert y == original.center.y
            assert abs(x - original.center.x) <= 3.0
            assert x != original.center.x
        # without jitter every run starts at the config's centers
        _, _, still = self._layers(default_config, monkeypatch)
        assert still.tolist() == [[[o.center.x, o.center.y] for o in movers.obstacles]]

    def test_one_vector_draw_equals_the_scalar_draws_in_id_order(self, default_config):
        # the shipped scene's movers are ids 1 and 2; a mover's start is what a
        # scalar draw per mover, in id order, and its Vec2 arithmetic give
        config = dataclasses.replace(default_config, spawn_jitter_m=3.0)
        scene = config.scene
        movers = tuple(o for o in scene.obstacles if o.speed > 0.0)
        assert [o.id for o in movers] == [1, 2]
        assert len(movers) < len(scene.obstacles)
        for seed in (101, 7, 2 ** 31 - 1):
            vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            starts = _spawn_starts(movers, [vector], 3.0)
            jittered = {o.id: o for o in jittered_scene(config, scalar).obstacles}
            assert starts.tolist() == [[[jittered[o.id].center.x, jittered[o.id].center.y]
                                        for o in movers]]
            for o in scene.obstacles:
                if o.speed == 0.0:
                    assert jittered[o.id] is o
            # the next draw, such as a frame's dropout, is the same on both
            assert vector.random() == scalar.random()

    def test_different_seeds_give_different_outcomes(self, default_config):
        config = dataclasses.replace(default_config, spawn_jitter_m=3.0)
        a = run_single(config, config.variants[0], 0.0, 101)
        b = run_single(config, config.variants[0], 0.0, 505)
        assert a.tta != b.tta


class TestRunSweep:
    def test_records_come_back_sorted(self, default_config):
        config = dataclasses.replace(
            default_config,
            variants=(default_config.variants[1], default_config.variants[0]),
            fog_fractions=(0.5, 0.0),
            seeds=(102, 101))
        records = run_sweep(config)
        key = [(r.variant.variant, r.fog_fraction, r.seed) for r in records]
        assert key == [
            ("baseline", 0.0, 101), ("baseline", 0.0, 102),
            ("baseline", 0.5, 101), ("baseline", 0.5, 102),
            ("range", 0.0, 101), ("range", 0.0, 102),
            ("range", 0.5, 101), ("range", 0.5, 102),
        ]

    def test_worker_processes_change_nothing(self, default_config):
        config = dataclasses.replace(default_config,
                                     variants=(default_config.variants[0],),
                                     fog_fractions=(0.0,),
                                     seeds=(101, 102))
        serial = [_strip_wall_time(r) for r in run_sweep(config, jobs=1)]
        parallel = [_strip_wall_time(r) for r in run_sweep(config, jobs=2)]
        assert serial == parallel

    def test_pool_starts_at_most_one_worker_per_variant(self, default_config, monkeypatch):
        started = []
        tasks = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                # workers pin the heap thresholds whether they are forked or spawned
                assert initializer is runner._keep_freed_pages
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, items, chunksize=1):
                items = list(items)
                tasks.append(items)
                return map(fn, items)

        monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = dataclasses.replace(default_config, variants=default_config.variants[:2],
                                     fog_fractions=(0.0,), seeds=(101, 102, 103))
        assert len(run_sweep(config, jobs=64)) == 6
        assert started == [2] and tasks == [[(config, v) for v in config.variants]]
        one_run = dataclasses.replace(config, variants=config.variants[:1])
        assert len(run_sweep(one_run, jobs=64)) == 3
        assert started == [2]
        # four variants at three fogs: min(jobs, variants) workers and one task per
        # variant, in config order, each with every fog; a library caller's jobs
        # below 1 runs serially, as jobs = 1 does
        four = dataclasses.replace(config, variants=default_config.variants,
                                   fog_fractions=(0.0, 0.25, 0.5))
        serial = [_strip_wall_time(r) for r in run_sweep(four, jobs=1)]
        assert len(serial) == 36
        for jobs, workers in [(-1, None), (0, None), (1, None), (2, 2), (3, 3), (64, 4)]:
            started.clear()
            tasks.clear()
            assert [_strip_wall_time(r) for r in run_sweep(four, jobs=jobs)] == serial
            assert started == ([] if workers is None else [workers])
            assert tasks == ([] if workers is None else [[(four, v) for v in four.variants]])
        # an empty grid has no run
        for empty in (dict(variants=()), dict(fog_fractions=()), dict(seeds=())):
            for jobs in (0, 2):
                assert run_sweep(dataclasses.replace(four, **empty), jobs) == []

    def test_variant_tasks_write_the_same_bytes_on_any_number_of_workers(self, default_config,
                                                                         tmp_path, monkeypatch):
        # three seeded variants at four fogs: --jobs 1 runs them in this process,
        # --jobs 2 and 3 on a real pool of 2 and 3 workers
        config = dataclasses.replace(_sweep_config(default_config, "jitter_dropout"),
                                     variants=default_config.variants[1:],
                                     fog_fractions=(0.0, 0.1, 0.25, 0.5), max_sim_time=1.0)
        started = []

        class CountingPool(runner.concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor", CountingPool)
        written = []
        for jobs in (1, 2, 3):
            records = run_sweep(config, jobs=jobs)
            out = tmp_path / str(jobs)
            out.mkdir()
            write_results_csv(records, out / "results.csv")
            write_density_samples_csv(records, out / "density_samples.csv")
            write_summary_json(summarize(records), out / "summary.json")
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert started == [2, 3]
        assert len(written[0]) == 3 and written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("kind", ["default", "dropout", "jitter_dropout"])
    def test_sweep_equals_the_per_seed_grid(self, default_config, kind):
        config = _sweep_config(default_config, kind)
        expected = [_strip_wall_time(run_single(config, variant, fog, seed))
                    for variant in sorted(config.variants, key=lambda v: v.variant)
                    for fog in sorted(config.fog_fractions)
                    for seed in sorted(config.seeds)]
        for jobs in (1, 2):
            records = run_sweep(config, jobs=jobs)
            assert [_strip_wall_time(r) for r in records] == expected
            first = {(r.variant, r.fog_fraction): r for r in records
                     if r.seed == config.seeds[0]}
            for r in records:
                copied = not uses_rng(config, r.fog_fraction) and r.seed != config.seeds[0]
                assert r.reused_from == (config.seeds[0] if copied else None)
                assert r.frames_cast >= r.frames
                if copied:
                    assert r.wall_time == 0.0
                    assert r.frames_cast == first[(r.variant, r.fog_fraction)].frames_cast

    @pytest.mark.parametrize("kind", ["jitter_dropout", "default"])
    def test_each_variant_builds_each_gaze_state_setup_once(self, default_config, monkeypatch,
                                                            kind):
        left = default_config.gaze_trace.states[0]
        right = GazeState(math.radians(45.0), left.eta)
        config = _hidden_target(_sweep_config(default_config, kind),
                                max_sim_time=1.0, gaze_trace=GazeTrace((0.0, 0.17), (left, right)))
        built = []
        setup_fn = runner.revolution_setup

        def counting(plan, fogs, cal, static_scene, roi):
            setup = setup_fn(plan, fogs, cal, static_scene, roi)
            built.append((plan, tuple(fogs), roi, setup.max_ranges))
            return setup
        monkeypatch.setattr(runner, "revolution_setup", counting)
        standalone = [_strip_wall_time(run_single(config, variant, fog, seed))
                      for variant in sorted(config.variants, key=lambda v: v.variant)
                      for fog in sorted(config.fog_fractions)
                      for seed in sorted(config.seeds)]
        assert len(built) > len(standalone)
        # each one-run setup's single max-range row, by plan, RoI and fog
        per_run = {(plan, roi, fog): ranges[0] for plan, (fog,), roi, ranges in built}
        built.clear()
        records = run_sweep(config)
        assert [_strip_wall_time(r) for r in records] == standalone
        # one setup per (variant, gaze state), however many seeds and fogs a variant has
        assert len(built) == len({(plan, roi) for plan, _, roi, _ in built}) == (
            len(config.variants) * 2)
        assert {(plan, roi) for plan, _, roi, _ in built} == {
            (plan, roi) for plan, roi, _ in per_run}
        for plan, fogs, roi, max_ranges in built:
            # a row per fog of the variant, each the one-run setup's row
            assert [fog.fog_fraction for fog in fogs] == list(config.fog_fractions)
            for fog, row in zip(fogs, max_ranges):
                assert np.array_equal(row, per_run[plan, roi, fog])


# Runs a small seeded sweep on two forked workers in a fresh process, whose
# parent has not drawn a random number, and prints the module names that each
# task's worker imported while the task ran.
_WORKER_IMPORTS = """
import concurrent.futures, dataclasses, json, multiprocessing, sys
import helpers
from gazelidar import runner
multiprocessing.set_start_method("fork")
config = dataclasses.replace(runner.load_run_config(sys.argv[1]), dropout=True,
                             spawn_jitter_m=3.0, fog_fractions=(0.0, 0.5), seeds=(101, 102),
                             max_sim_time=1.0)
pool_map = concurrent.futures.ProcessPoolExecutor.map
gained = []


def mapping(pool, fn, tasks):
    assert fn is runner._run_cells
    done = list(pool_map(pool, helpers.run_cells_importing, tasks))
    gained.extend(names for _, names in done)
    return [records for records, _ in done]


concurrent.futures.ProcessPoolExecutor.map = mapping
assert "numpy.random" not in sys.modules
assert len(runner.run_sweep(config, jobs=2)) == 16
print(json.dumps(gained))
"""

# What `validate` does before it prints: import the CLI, load and check a config.
_VALIDATE_IMPORTS = """
import sys
import gazelidar.cli
config = gazelidar.cli.load_run_config(sys.argv[1])
assert gazelidar.cli.validate_run_config(config) == []
print("numpy.random" in sys.modules)
"""


class TestImports:
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers inherit the parent's modules only when forked")
    def test_forked_workers_import_nothing_while_they_run_tasks(self):
        done = run_python(_WORKER_IMPORTS, str(DEFAULT_CONFIG))
        assert done.returncode == 0, done.stderr
        # one list per variant task; a lazy import would show in each worker's first task
        assert json.loads(done.stdout) == [[]] * 4

    def test_loading_and_validating_leave_numpy_random_unimported(self):
        # the pool's parent imports it; validate, report and a serial run's setup do not pay it
        done = run_python(_VALIDATE_IMPORTS, str(DEFAULT_CONFIG))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


# Runs one seeded cell twice in a fresh process, which keeps pytest's allocator
# out of it, and prints the minor page faults of the second run.
_SECOND_CELL_FAULTS = """
import dataclasses, resource, sys
from gazelidar import runner
runner._keep_freed_pages()
config = dataclasses.replace(runner.load_run_config(sys.argv[1]), dropout=True,
                             spawn_jitter_m=3.0, seeds=tuple(range(1, 21)))
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    runner._run_seeds(config, config.variants[0], [(0.5, seed) for seed in config.seeds])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestKeepFreedPages:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
    def test_a_second_cell_reuses_the_first_cells_pages(self):
        done = run_python(_SECOND_CELL_FAULTS, str(DEFAULT_CONFIG))
        assert done.returncode == 0, done.stderr
        # about 2,800 faults when glibc unmaps and trims the kernel's temporaries
        assert int(done.stdout) < 100

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_returns_quietly_when_libc_cannot_be_loaded(self, error):
        with mock.patch.object(runner.ctypes, "CDLL", side_effect=error("no libc")) as cdll:
            assert runner._keep_freed_pages() is None
        cdll.assert_called_once_with(None)

    def test_returns_quietly_without_mallopt(self):
        with mock.patch.object(runner.ctypes, "CDLL", return_value=SimpleNamespace()) as cdll:
            assert runner._keep_freed_pages() is None
        cdll.assert_called_once_with(None)

    @pytest.mark.parametrize("took", [1, 0])
    def test_the_trim_threshold_is_set_only_after_the_mmap_threshold(self, took):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return took
        with mock.patch.object(runner.ctypes, "CDLL", return_value=SimpleNamespace(mallopt=mallopt)):
            runner._keep_freed_pages()
        pinned = [(runner.M_MMAP_THRESHOLD, 32 * 2 ** 20), (runner.M_TRIM_THRESHOLD, 64 * 2 ** 20)]
        assert calls == pinned[:1 + took]


class TestAggregation:
    def test_quartiles_match_the_inclusive_oracle(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 5, 9, 20, 41):
            values = rng.uniform(0.0, 10.0, size=n).tolist()
            assert quartiles(values) == pytest.approx(
                quartiles_inclusive(values), rel=1e-12)

    def test_summarize_layout(self, default_config):
        config = dataclasses.replace(default_config,
                                     variants=(default_config.variants[0],),
                                     fog_fractions=(0.0,),
                                     seeds=(101, 102))
        summary = summarize(run_sweep(config))
        assert summary["version"] == __version__
        (cell,) = summary["cells"]
        assert cell["variant"] == "baseline"
        assert cell["fog"] == 0.0
        assert cell["runs"] == 2
        assert cell["detected"] == 2
        assert cell["failures"] == 0
        assert cell["tta_s"]["median"] == pytest.approx(4.824, rel=1e-12)
        assert set(cell["density_pts_per_deg"]) == {"q1", "median", "q3"}

    def test_summarize_counts_failures(self, default_config):
        config = dataclasses.replace(default_config, p_max=1.05)
        record = run_single(config, VariantConfig("range", 0.2, 2.0), 0.0, 101)
        (cell,) = summarize([record])["cells"]
        assert cell["failures"] == 1
        assert cell["detected"] == 0
        assert cell["tta_s"] is None
        assert cell["density_pts_per_deg"] is None


class TestOutputFiles:
    def _records(self, default_config):
        config = dataclasses.replace(default_config,
                                     variants=(default_config.variants[0],),
                                     fog_fractions=(0.0, 0.25),
                                     seeds=(101,))
        return run_sweep(config)

    def test_results_csv_layout(self, default_config, tmp_path):
        records = self._records(default_config)
        path = tmp_path / "results.csv"
        write_results_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,fog,seed,detected,tta_s,frames,mean_density_pts_per_deg"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "baseline"
        assert first[1] == "0"
        assert first[2] == "101"
        assert first[3] == "true"
        assert first[4] == format(records[0].tta, ".12g")
        assert b"\r" not in path.read_bytes()

    def test_density_samples_csv_layout(self, default_config, tmp_path):
        records = self._records(default_config)
        path = tmp_path / "density_samples.csv"
        write_density_samples_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,fog,seed,frame,points_in_roi,roi_width_deg,density_pts_per_deg"
        assert len(lines) == 1 + sum(len(r.samples) for r in records)
        first = lines[1].split(",")
        assert first[3] == "0"
        assert float(first[5]) == pytest.approx(300.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(records=_output_records())
    @example(records=_edge_output_records())
    def test_writers_and_summary_match_the_per_row_oracle(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            for write, oracle in ((write_results_csv, per_row_results_csv),
                                  (write_density_samples_csv, per_row_density_samples_csv)):
                write(records, Path(tmp) / "fast.csv")
                oracle(records, Path(tmp) / "oracle.csv")
                assert (Path(tmp) / "fast.csv").read_bytes() == (Path(tmp) / "oracle.csv").read_bytes()
        # interpolating between infinite or huge values gives nan or inf on both paths
        with np.errstate(invalid="ignore", over="ignore"):
            assert summary_text(summarize(records)) == summary_text(listed_summary(records))

    def test_summary_json_is_canonical(self, default_config, tmp_path):
        records = self._records(default_config)
        path = tmp_path / "summary.json"
        write_summary_json(summarize(records), path)
        text = path.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text
        assert data["version"] == __version__
