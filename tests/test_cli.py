"""Command-line interface: validate, run, and report."""
from __future__ import annotations

import codecs
import copy
import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gazelidar
from gazelidar import __version__
from gazelidar.cli import entry, main
from gazelidar.runner import ConfigError, load_run_config, read_summary_json, run_sweep
from helpers import CONFIG_DIR, DEFAULT_CONFIG

DEFAULT_JSON = json.loads(DEFAULT_CONFIG.read_text())


def _write_trimmed_config(tmp_path, **overrides):
    """A fast two-fog copy of the shipped config with an absolute trace path."""
    raw = copy.deepcopy(DEFAULT_JSON)
    raw["gaze_trace"] = str(CONFIG_DIR / "gaze_left.csv")
    raw["seeds"] = [101, 102]
    raw["fog_fractions"] = [0.0, 0.5]
    raw.update(overrides)
    path = tmp_path / "trimmed.json"
    path.write_text(json.dumps(raw))
    return path


def _run(tmp_path, out_name="out", config=None):
    config = config or _write_trimmed_config(tmp_path)
    out = tmp_path / out_name
    code = main(["run", "--config", str(config), "--out", str(out)])
    return code, out


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "x", "--out", "y", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestValidate:
    def test_accepts_the_shipped_config(self, capsys):
        assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_rejects_structural_problems(self, tmp_path, capsys):
        raw = copy.deepcopy(DEFAULT_JSON)
        del raw["gaze_trace"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(bad)]) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_rejects_senseless_configs(self, tmp_path, capsys):
        for overrides, message in (({"pulse_rate_hz": 1.0}, "no pulse"),
                                   ({"variants": DEFAULT_JSON["variants"] + [{"name": "baseline"}]},
                                    "repeats the name")):
            config = _write_trimmed_config(tmp_path, **overrides)
            assert main(["validate", "--config", str(config)]) == 1
            assert message in capsys.readouterr().out
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_refuses_the_plans_its_runs_would_fail_on(self, tmp_path, capsys):
        # Gaze at 0 deg splits the RoF across 0/tau; its arc width solves
        # p_high to one ulp above the 1.16 W cap for the two range variants.
        trace = tmp_path / "gaze_ahead.csv"
        trace.write_text("t_s,theta_g_deg\n0.0,0\n")
        config = _write_trimmed_config(tmp_path, gaze_trace=str(trace), sensor={
            "p_nominal_w": 1.0, "r_nominal_m": 100.0, "p_max_ratio": 1.16})
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert [line.split(": ")[2].split(" ")[0] for line in out.splitlines()] == [
            "variants[1]", "variants[3]"]
        assert "p_high 1.1600000000000001 W exceeds cap 1.16 W" in out
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "variants[1] (range)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", ["{},0", "0.0,{}"], ids=["t_s", "theta_g_deg"])
    def test_rejects_non_finite_gaze_samples(self, tmp_path, capsys, monkeypatch, value, row):
        trace = tmp_path / "gaze.csv"
        trace.write_text("t_s,theta_g_deg\n" + row.format(value) + "\n")
        config = _write_trimmed_config(tmp_path, gaze_trace=str(trace))
        assert main(["validate", "--config", str(config)]) == 1
        assert "gaze.csv: line 2: t_s and theta_g_deg must be finite" in capsys.readouterr().out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("broken", ["config", "gaze_trace"])
    def test_undecodable_inputs_exit_with_one_line(self, tmp_path, capsys, monkeypatch, broken):
        trace = tmp_path / "gaze.csv"
        trace.write_bytes(b"t_s,theta_g_deg\n0.0,135.4308\n")
        config = _write_trimmed_config(tmp_path, gaze_trace=str(trace))
        bad = {"config": config, "gaze_trace": trace}[broken]
        bad.write_bytes(bad.read_bytes().replace(b"0.0", b"0.\xff", 1))
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 and out.startswith(f"invalid: {config}: ")
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {config}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("marked", ["config", "gaze_trace"])
    def test_a_utf8_bom_is_skipped(self, tmp_path, capsys, marked):
        # spreadsheet tools save UTF-8 files with a leading byte order mark
        trace = tmp_path / "gaze.csv"
        trace.write_bytes((CONFIG_DIR / "gaze_left.csv").read_bytes())
        config = _write_trimmed_config(tmp_path, gaze_trace=str(trace))
        assert _run(tmp_path, "plain", config)[0] == 0
        path = {"config": config, "gaze_trace": trace}[marked]
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        code, out = _run(tmp_path, "marked", config)
        assert code == 0
        for name in ("results.csv", "density_samples.csv", "summary.json"):
            assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("trace_bytes, name, problem", [
        (None, "gaze\0.csv", "embedded null byte"),
        (b"t_s,theta_g_deg\n0.0," + b"1" * 200_000 + b"\n", "gaze.csv",
         "field larger than field limit"),
    ], ids=["nul_in_path", "field_over_csv_limit"])
    def test_unreadable_gaze_traces_exit_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                       trace_bytes, name, problem):
        if trace_bytes is not None:
            (tmp_path / name).write_bytes(trace_bytes)
        config = _write_trimmed_config(tmp_path, gaze_trace=name)
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 and out.startswith(f"invalid: {config}: gaze_trace: ")
        assert problem in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and problem in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_json_nested_past_the_recursion_limit_exits_with_one_line(self, tmp_path, capsys,
                                                                      monkeypatch):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 and out.startswith(f"invalid: {config}: ")
        assert "recursion" in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {config}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, problem", [
        ('"min_points": 1', '"min_point": 5', "detection.min_point: unknown key"),
        ('"seeds": [', '"seeds": [1], "seeds": [', "key 'seeds' repeated in one object"),
    ], ids=["misspelled", "repeated"])
    def test_a_key_that_would_run_another_experiment_exits_with_one_line(
            self, tmp_path, capsys, monkeypatch, old, new, problem):
        config = _write_trimmed_config(tmp_path)
        config.write_text(config.read_text().replace(old, new, 1))
        assert main(["validate", "--config", str(config)]) == 1
        assert capsys.readouterr().out == f"invalid: {config}: {problem}\n"
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {config}: {problem}\n"
        assert not (tmp_path / "o").exists()

    def test_accepts_a_max_sim_time_of_1e12(self, tmp_path, capsys):
        config = _write_trimmed_config(tmp_path, max_sim_time_s=1e12)
        assert main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_rejects_semantic_problems(self, tmp_path, capsys):
        raw = copy.deepcopy(DEFAULT_JSON)
        raw["gaze_trace"] = str(CONFIG_DIR / "gaze_left.csv")
        raw["scenario"]["target_id"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(bad)]) == 1
        assert "target_id" in capsys.readouterr().out


class TestRun:
    def test_writes_the_three_result_files(self, tmp_path, capsys):
        code, out = _run(tmp_path)
        assert code == 0
        assert (out / "results.csv").is_file()
        assert (out / "density_samples.csv").is_file()
        assert (out / "summary.json").is_file()
        assert "16 runs, 16 detections, 0 failures" in capsys.readouterr().out

    def test_the_closing_line_counts_the_detections_that_both_files_hold(self, tmp_path, capsys):
        # at 2 s the fog 0.5 runs are still undetected, so 8 of the 24 runs miss
        config = _write_trimmed_config(tmp_path, max_sim_time_s=2.0, seeds=[1, 2],
                                       fog_fractions=[0.0, 0.25, 0.5])
        code, out = _run(tmp_path, config=config)
        assert code == 0
        with open(out / "results.csv", newline="") as fh:
            detected = sum(row["detected"] == "true" for row in csv.DictReader(fh))
        cells = json.loads((out / "summary.json").read_text())["cells"]
        assert sum(c["detected"] for c in cells) == detected == 16
        assert capsys.readouterr().out == f"24 runs, 16 detections, 0 failures -> {out}\n"

    def test_pins_the_heap_thresholds_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        calls = []
        sweep = gazelidar.cli.run_sweep
        monkeypatch.setattr(gazelidar.cli, "_keep_freed_pages", lambda: calls.append("pin"))
        monkeypatch.setattr(gazelidar.cli, "run_sweep",
                            lambda *args, **kwargs: calls.append("sweep") or sweep(*args, **kwargs))
        assert _run(tmp_path)[0] == 0
        assert calls == ["pin", "sweep"]
        # validate and report leave the allocator alone
        assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 0
        assert main(["report", "--out", str(tmp_path / "out")]) == 0
        assert calls == ["pin", "sweep"]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = _write_trimmed_config(tmp_path, seeds=[])
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"frame_rate_hz": "abc"}, "frame_rate_hz"),
        ({"frame_rate_hz": float("nan")}, "frame_rate_hz"),
        ({"fog_fractions": ["x"]}, "fog_fractions[0]"),
        ({"detection": {"min_points": "two"}}, "detection.min_points"),
    ])
    def test_malformed_numbers_exit_2_naming_the_field(self, tmp_path, capsys, monkeypatch,
                                                       overrides, field):
        config = _write_trimmed_config(tmp_path, **overrides)
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides, field", [
        ({"sensor": []}, "sensor"),
        ({"acuity": []}, "acuity"),
        ({"detection": None}, "detection"),
        ({"scenario": "ego"}, "scenario"),
        ({"scenario": dict(DEFAULT_JSON["scenario"], obstacles=[5])}, "scenario.obstacles[0]"),
        ({"gaze_trace": 5}, "gaze_trace"),
    ], ids=["sensor", "acuity", "detection", "scenario", "obstacle", "gaze_trace"])
    def test_sections_of_the_wrong_type_exit_2_naming_the_field(self, tmp_path, capsys,
                                                                monkeypatch, overrides, field):
        config = _write_trimmed_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as exc:
            load_run_config(config)
        assert f"{config}: {field}: expected" in str(exc.value)
        assert main(["validate", "--config", str(config)]) == 1
        assert field in capsys.readouterr().out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exit_:
            entry()
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        config = _write_trimmed_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, problem", [
        ({"seeds": [-1]}, "seeds[0]: -1 outside [0, inf)"),
        ({"seeds": [1, 1]}, "seeds[1] repeats seeds[0]"),
        ({"fog_fractions": [0.5, 0.5]}, "fog_fractions[1] repeats fog_fractions[0]"),
    ], ids=["negative-seed", "repeated-seed", "repeated-fog"])
    def test_bad_seeds_and_fog_levels_exit_without_running(self, tmp_path, capsys, monkeypatch,
                                                           overrides, problem):
        config = _write_trimmed_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(config)]) == 1
        assert problem in capsys.readouterr().out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, monkeypatch, seed):
        config = _write_trimmed_config(tmp_path)
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o"), "--seed-override", seed])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed-override: must be at least 0" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("obstacle_id", [10 ** 20, 2 ** 63, -1])
    def test_obstacle_ids_outside_0_to_int64_max_exit_without_running(self, tmp_path, capsys,
                                                                      monkeypatch, obstacle_id):
        scenario = copy.deepcopy(DEFAULT_JSON["scenario"])
        scenario["obstacles"][3]["id"] = obstacle_id
        config = _write_trimmed_config(tmp_path, scenario=scenario)
        field = "scenario.obstacles[3].id"
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert field in out and "Traceback" not in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jitter, far_x", [(1e308, -67.0), (1e307, -1.75e308)],
                             ids=["draw-range-overflows", "start-overflows"])
    def test_a_jitter_that_overflows_exits_without_running(self, tmp_path, capsys,
                                                           monkeypatch, jitter, far_x):
        # a run draws from U(-jitter, jitter), whose width 2e308 overflows, and
        # moves each mover's start by up to jitter, off the floats from -1.75e308
        scenario = copy.deepcopy(DEFAULT_JSON["scenario"])
        scenario["obstacles"][1]["center"][0] = far_x
        config = _write_trimmed_config(tmp_path, scenario=scenario, spawn_jitter_m=jitter)
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert out.startswith("invalid: ") and "spawn_jitter_m" in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "spawn_jitter_m" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("index, key, value, field", [
        (2, "center", [1e308, 0.0], "scenario.obstacles[2]: a vertex"),
        (2, "half_length", 1e308, "scenario.obstacles[2]: a vertex"),
        (1, "speed_mps", 1e308, "scenario.obstacles[1]: a vertex"),
        (0, "half_length", 1e300, "scenario.obstacles[0]: a vertex"),
        (None, "ego", [1.0000000000000002e+150, 0.0], "scenario.ego: every vertex"),
        (None, "max_sim_time_s", 1e300, "max_sim_time_s: 1e+300 takes every mover"),
    ], ids=["far-box", "long-box", "fast-mover", "long-target", "far-ego", "long-sweep"])
    def test_geometry_past_the_caster_bound_exits_without_running(self, tmp_path, capsys,
                                                                  monkeypatch, index, key, value,
                                                                  field):
        # each was accepted once, and the run overflowed numpy into nonsense results:
        # obstacle 10's far center or length, obstacle 2's speed, the target's length;
        # an ego that takes every box out, or a run long enough to take every mover out,
        # is named itself
        raw = {"scenario": copy.deepcopy(DEFAULT_JSON["scenario"])}
        node = (raw["scenario"]["obstacles"][index] if index is not None
                else raw["scenario"] if key == "ego" else raw)
        node[key] = value
        config = _write_trimmed_config(tmp_path, **raw)
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert out.startswith("invalid: ") and field in out and "1e+150 m" in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and field in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("r_nominal", [1e-300, 1e-160], ids=["square-underflows",
                                                                 "constant-overflows"])
    def test_a_tiny_nominal_range_exits_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                      r_nominal):
        # r_nominal_m ** 2 is 0 or subnormal: the detection constant divides by 0 or is inf
        config = _write_trimmed_config(tmp_path, sensor={"p_nominal_w": 1.0,
                                                         "r_nominal_m": r_nominal})
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert out.startswith("invalid: ") and "sensor: p_nominal / r_nominal" in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "sensor: p_nominal / r_nominal" in err
        assert not (tmp_path / "o").exists()

    def test_a_jitter_moves_no_static_box(self, tmp_path):
        # a static box 9e149 m out is no start the jitter moves: shifted by it, the
        # box would lie beyond the 1e150 m bound, while the movers stay inside it
        scenario = copy.deepcopy(DEFAULT_JSON["scenario"])
        scenario["obstacles"][2]["center"][0] = -9e149
        config = _write_trimmed_config(tmp_path, scenario=scenario, spawn_jitter_m=5e149)
        assert load_run_config(config).spawn_jitter_m == 5e149

    @pytest.mark.parametrize("overrides", [
        {"frame_rate_hz": 1e-300}, {"pulse_rate_hz": 1e300}, {"frame_rate_hz": 1e-320},
    ], ids=["slow-head", "fast-pulses", "subnormal-head"])
    def test_pulse_counts_numpy_cannot_index_exit_without_running(self, tmp_path, capsys,
                                                                 monkeypatch, overrides):
        config = _write_trimmed_config(tmp_path, **overrides)
        problem = "pulses per revolution, not a finite count below 2**63"
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert problem in out and "pulse_rate_hz" in out and "frame_rate_hz" in out
        monkeypatch.setattr("sys.argv", ["gazelidar", "run", "--config", str(config),
                                         "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_semantically_invalid_config_exits_2(self, tmp_path, capsys):
        raw = copy.deepcopy(DEFAULT_JSON)
        raw["gaze_trace"] = str(CONFIG_DIR / "gaze_left.csv")
        raw["scenario"]["target_id"] = 99
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "target_id" in capsys.readouterr().err

    def test_out_naming_a_file_exits_2_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")
        monkeypatch.setattr("gazelidar.cli.run_sweep", no_sweep)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code, _ = _run(tmp_path, "taken")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {taken}: ")
        assert "Traceback" not in err
        assert taken.read_text() == "not a directory"

    def test_an_unwritable_result_file_exits_2(self, tmp_path, capsys):
        blocked = tmp_path / "out" / "results.csv"
        blocked.mkdir(parents=True)
        code, _ = _run(tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {blocked}: ")

    def test_a_write_error_without_a_file_name_names_the_directory(self, tmp_path, capsys,
                                                                  monkeypatch):
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr("gazelidar.cli.write_summary_json", full_disk)
        code, out = _run(tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.ENOSPC)}\n"

    def test_seed_override_narrows_the_sweep(self, tmp_path):
        config = _write_trimmed_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--seed-override", "7"]) == 0
        with open(out / "results.csv", newline="") as fh:
            seeds = {row["seed"] for row in csv.DictReader(fh)}
        assert seeds == {"7"}

    def test_seed_override_validates_only_the_seed_it_runs(self, tmp_path, capsys):
        # the configured seeds repeat, but only the override runs; validate still refuses them
        config = _write_trimmed_config(tmp_path, seeds=[3, 3])
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--seed-override", "5"]) == 0
        with open(out / "results.csv", newline="") as fh:
            assert {row["seed"] for row in csv.DictReader(fh)} == {"5"}
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert "seeds[1] repeats seeds[0] (3)" in capsys.readouterr().out
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "all")]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_stacked_seeds_do_not_affect_each_other(self, tmp_path, jobs):
        # with jitter and dropout every seed is simulated, all of a cell's in one stack
        config = _write_trimmed_config(tmp_path, fog_dropout=True, spawn_jitter_m=3.0,
                                       seeds=[101, 102, 103])

        def rows(out, seed):
            """The header and the seed's rows of results.csv and density_samples.csv."""
            found = {}
            for name in ("results.csv", "density_samples.csv"):
                with open(out / name, newline="") as fh:
                    header, *body = csv.reader(fh)
                    found[name] = [header] + [row for row in body if row[2] == str(seed)]
            return found

        sweep = tmp_path / "sweep"
        assert main(["run", "--config", str(config), "--out", str(sweep), "--jobs", jobs]) == 0
        for seed in (101, 102, 103):
            alone = tmp_path / f"seed{seed}"
            assert main(["run", "--config", str(config), "--out", str(alone), "--jobs", jobs,
                         "--seed-override", str(seed)]) == 0
            assert rows(alone, seed) == rows(sweep, seed)
            with open(alone / "results.csv", newline="") as fh:
                assert len(list(csv.reader(fh))) == 1 + 4 * 2

    @pytest.mark.parametrize("jitter", [3.0, 0.0], ids=["every-seed-simulated", "fog-0-seeds-copied"])
    def test_two_workers_write_the_bytes_of_one(self, tmp_path, monkeypatch, jitter):
        # without jitter a fog-0 cell draws nothing, so its later seeds are copies; a worker
        # sends back only its first seed's record, and the parent's copies hold its samples array
        config = _write_trimmed_config(tmp_path, fog_dropout=True, spawn_jitter_m=jitter,
                                       seeds=[101, 102, 103])
        sweeps = []

        def recorded(*args, **kwargs):
            sweeps.append(run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(gazelidar.cli, "run_sweep", recorded)
        for jobs in ("1", "2"):
            if jobs == "2":   # a real pool at once, of one-frame calls
                monkeypatch.setattr(gazelidar.runner, "RAYS_PER_CALL", 0)
            assert main(["run", "--config", str(config), "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
        for name in ("results.csv", "density_samples.csv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        for records in sweeps:
            shared = [r.samples is before.samples for before, r in zip(records, records[1:])
                      if r.reused_from is not None]
            # without jitter: 4 variants at fog 0, each with 2 copied seeds
            assert shared == [True] * (0 if jitter else 4 * 2)

    def test_reruns_are_byte_identical(self, tmp_path):
        config = _write_trimmed_config(tmp_path)
        _, out_a = _run(tmp_path, "out_a", config)
        _, out_b = _run(tmp_path, "out_b", config)
        for name in ("results.csv", "density_samples.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failed_runs_exit_1(self, tmp_path, monkeypatch, capsys):
        # bypass the pre-run check so the runtime failure path is reachable
        monkeypatch.setattr("gazelidar.cli.validate_run_config", lambda c: [])
        config = _write_trimmed_config(
            tmp_path, sensor={"p_nominal_w": 1.0, "r_nominal_m": 100.0,
                              "p_max_ratio": 1.05})
        code, out = _run(tmp_path, "out", config)
        assert code == 1
        assert "failures" in capsys.readouterr().out
        assert (out / "summary.json").is_file()


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["gazelidar", "gazelidar.cli"])
    def test_python_m_runs_the_cli(self, module):
        src = str(Path(gazelidar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", module, "validate", "--config",
                               "configs/t_intersection.json"], cwd=CONFIG_DIR.parent, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ok:")


class TestShippedOutputs:
    """The shipped sweep's three output files, pinned by SHA-256.

    tests/shipped_outputs.sha256 is in `sha256sum` format, so
    `sha256sum -c` checks an output directory against it as well.
    """

    PINS = Path(__file__).with_name("shipped_outputs.sha256")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_outputs_match_the_pinned_hashes(self, tmp_path, capsys, jobs):
        pins = dict(reversed(line.split()) for line in self.PINS.read_text().splitlines())
        assert sorted(pins) == ["density_samples.csv", "results.csv", "summary.json"]
        assert main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path),
                     "--jobs", jobs]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in pins} == pins


def _edited(change):
    """A summary.json corruption: parse the text, apply `change` to it, dump it again."""
    def corrupt(text):
        summary = json.loads(text)
        change(summary)
        return json.dumps(summary)
    return corrupt


class TestReport:
    def test_table_lists_every_cell(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("variant")
        assert len(lines) == 2 + 8
        assert any(line.startswith("range_and_resolution") for line in lines)

    def test_fogs_print_as_results_csv_writes_them_in_aligned_columns(self, tmp_path, capsys):
        # two decimals would print both fogs as 0.12
        config = _write_trimmed_config(tmp_path, fog_fractions=[0.12, 0.125, 0.123456789012])
        assert _run(tmp_path, "out", config)[0] == 0
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path / "out")]) == 0
        header, rule, *rows = capsys.readouterr().out.splitlines()
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            written = sorted({row["fog"] for row in csv.DictReader(fh)})
        assert written == ["0.12", "0.123456789012", "0.125"]
        fog_col = header.split().index("fog")
        assert sorted({row.split()[fog_col] for row in rows}) == written
        assert len(rows) == 4 * 3 and {len(line) for line in [header, rule, *rows]} == {len(header)}
        end = header.index("fog") + 3
        assert all(row[:end].endswith(row.split()[fog_col]) for row in rows)

    def test_json_matches_the_run_summary(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--format", "json"]) == 0
        assert capsys.readouterr().out.encode() == (out / "summary.json").read_bytes()

    def test_needs_only_the_summary(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        (out / "results.csv").unlink()
        (out / "density_samples.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 8

    def test_table_counts_failed_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("gazelidar.cli.validate_run_config", lambda c: [])
        config = _write_trimmed_config(
            tmp_path, sensor={"p_nominal_w": 1.0, "r_nominal_m": 100.0,
                              "p_max_ratio": 1.05})
        assert _run(tmp_path, "out", config)[0] == 1
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path / "out")]) == 0
        header, _, *rows = capsys.readouterr().out.splitlines()
        fail_col = header.split().index("fail")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [int(row.split()[fail_col]) for row in rows] == [
            c["failures"] for c in summary["cells"]]
        assert any(c["failures"] > 0 for c in summary["cells"])

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("corrupt, problem", [
        (lambda text: text[:-3], "Expecting"),
        (lambda text: text.replace('"runs"', '"rns"', 1), "cells[0]: missing required key 'runs'"),
        (lambda text: f"[{text}]", "summary.json: expected an object"),
        (_edited(lambda s: s.pop("cells")), "summary.json: missing required key 'cells'"),
        (_edited(lambda s: s.update(cells={})), "summary.json: cells: expected a list"),
        (_edited(lambda s: s["cells"].insert(0, 5)), "cells[0]: expected an object"),
        (_edited(lambda s: s["cells"][0].update(variant=3)), "cells[0].variant: expected a string"),
        (_edited(lambda s: s["cells"][0].update(fog=1.5)), "cells[0].fog: 1.5 outside [0, 1]"),
        (_edited(lambda s: s["cells"][0].update(runs=-1)), "cells[0].runs: -1 outside [0, inf)"),
        (_edited(lambda s: s["cells"][0].update(runs=1.0)), "cells[0].runs: 1.0 is not an integer"),
        (_edited(lambda s: s["cells"][0].update(tta_s=[])), "cells[0].tta_s: expected an object"),
        (_edited(lambda s: s["cells"][0]["tta_s"].update(q1="1")),
         "cells[0].tta_s.q1: '1' is not a number"),
        (_edited(lambda s: s["cells"][0]["tta_s"].pop("median")),
         "cells[0].tta_s: missing required key 'median'"),
        (_edited(lambda s: s["cells"][0].pop("density_pts_per_deg")),
         "cells[0]: missing required key 'density_pts_per_deg'"),
        (lambda text: text + "\xff", "can't decode byte 0xff"),
        (lambda text: "[" * 100_000, "maximum recursion depth exceeded"),
        (lambda text: text.replace('"runs"', '"runs": 1, "runs"', 1),
         "key 'runs' repeated in one object"),
    ], ids=["bad_json", "cell_without_runs", "top_level_list", "no_cells", "cells_object",
            "cell_not_object", "variant_number", "fog_1.5", "runs_negative", "runs_float",
            "tta_list", "quartile_string", "no_median", "no_density", "not_utf8",
            "nested_too_deep", "repeated_key"])
    def test_corrupt_summary_exits_2_naming_the_problem(self, tmp_path, capsys, corrupt,
                                                         problem, fmt):
        _, out = _run(tmp_path)
        summary = out / "summary.json"
        # the text is ASCII, so Latin-1 writes it unchanged and "\xff" as byte 0xff
        summary.write_bytes(corrupt(summary.read_text()).encode("latin-1"))
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: {summary}: ") and problem in err_lines[0]

    def test_an_empty_cell_list_reports_no_rows(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_text('{"cells": []}')
        assert read_summary_json(tmp_path / "summary.json") == {"cells": []}
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
