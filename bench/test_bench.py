"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from outputs import failed_runs, read_runs  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, write_workload  # noqa: E402


def _fake_module():
    """outer -> (inner, inner); inner -> leaf. Looked up through the module, like the runner does."""
    mod = types.ModuleType("bench_fake_layers")

    def leaf():
        return 1

    def inner():
        return mod.leaf()

    def outer():
        return mod.inner() + mod.inner()

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_self_time_on_nested_spans():
    mod = _fake_module()
    ticks = iter(range(100))
    targets = [(mod.__name__, name, name, None) for name in ("outer", "inner", "leaf")]
    with Tracer(targets, clock=lambda: float(next(ticks))) as tracer:
        assert mod.outer() == 2
    # clock reads: outer 0, inner 1, leaf 2-3, inner ends 4, inner 5, leaf 6-7,
    # inner ends 8, outer ends 9
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "total": 9.0, "self": 3.0}
    assert totals["inner"] == {"calls": 2, "total": 6.0, "self": 4.0}
    assert totals["leaf"] == {"calls": 2, "total": 2.0, "self": 2.0}
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 1, 0, 3]


def test_missing_function_is_reported_absent():
    mod = _fake_module()
    targets = [(mod.__name__, "outer", "outer", None), (mod.__name__, "gone", "gone", None),
               ("bench_no_such_module", "f", "f", None)]
    with Tracer(targets) as tracer:
        mod.outer()
    assert tracer.absent == {"bench_fake_layers.gone", "bench_no_such_module.f"}
    assert set(tracer.totals()) == {"outer"}


def _small_config(tmp_path: Path) -> Path:
    config_path = write_workload("shipped", 0, tmp_path / "inputs")
    config = json.loads(config_path.read_text())
    config["seeds"] = [7]
    config["fog_fractions"] = [0.5]
    config_path.write_text(json.dumps(config))
    return config_path


def _wrapped_functions():
    import importlib
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}


def test_traced_run_restores_functions_and_matches_untraced(tmp_path):
    config = _small_config(tmp_path)
    before = _wrapped_functions()
    _, _, plain, _ = run.sweep(config, tmp_path / "plain", 1)
    with Tracer() as tracer:
        _, records, traced, frames = run.sweep(config, tmp_path / "traced", 1)
    assert _wrapped_functions() == before
    assert not tracer.absent
    assert traced == plain and len(records) == 4
    layers = run.layer_metrics(tracer, frames)
    assert layers["runner.run_single.calls"] == 4
    assert layers["lidar.scan_revolution.calls"] == frames

    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("fails inside a traced run")
    assert _wrapped_functions() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_files_and_seeds_differ(tmp_path, name):
    def files(seed, where):
        write_workload(name, seed, tmp_path / where)
        return {p.name: p.read_bytes() for p in (tmp_path / where).iterdir()}

    assert files(5, "a") == files(5, "b")
    if name == "shipped":
        # the paper's experiment: the seed argument does not change it
        assert files(6, "c") == files(5, "a")
    else:
        assert files(6, "c") != files(5, "a")


def test_check_flags_one_altered_tta(tmp_path):
    config = _small_config(tmp_path)
    out = tmp_path / "out"
    run.sweep(config, out, 1)
    expected, _ = read_runs(out)
    results = out / "results.csv"
    lines = results.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = lines[2].rstrip("\n").split(",")
    tta = header.index("tta_s")
    row[tta] = repr(float(row[tta]) + 1e-9)
    lines[2] = ",".join(row) + "\n"
    results.write_text("".join(lines))
    actual, _ = read_runs(out)
    assert failed_runs(actual, expected) == {f"{row[0]}|{float(row[1])!r}|{int(row[2])}"}

    checker = run.Checker(expected)
    checker.check(actual, None)
    assert (checker.attempted, checker.failed) == (4, 1)


def test_added_column_still_matches(tmp_path):
    config = _small_config(tmp_path)
    out = tmp_path / "out"
    run.sweep(config, out, 1)
    expected, _ = read_runs(out)
    results = out / "results.csv"
    lines = results.read_text().splitlines()
    results.write_text("\n".join(f"{line},extra" for line in lines) + "\n")
    actual, _ = read_runs(out)
    assert failed_runs(actual, expected) == set()
