"""Command line interface: validate configs, run sweeps, report results."""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .runner import (ConfigError, load_run_config, read_summary_json, run_sweep, summarize,
                     summary_text, validate_run_config, write_density_samples_csv,
                     write_results_csv, write_summary_json)


def _checked_config(config_path: str, prefix: str, stream):
    """The config if it loads and validates, else None after printing its problems."""
    try:
        config = load_run_config(config_path)
    except ConfigError as exc:
        print(f"{prefix} {exc}", file=stream)
        return None
    problems = validate_run_config(config)
    for p in problems:
        print(f"{prefix} {config_path}: {p}", file=stream)
    return None if problems else config


def cmd_validate(config_path: str) -> int:
    if _checked_config(config_path, "invalid:", sys.stdout) is None:
        return 1
    print(f"ok: {config_path}")
    return 0


def cmd_run(config_path: str, out_dir: str, jobs: int = 1,
            seed_override: int | None = None) -> int:
    config = _checked_config(config_path, "error:", sys.stderr)
    if config is None:
        return 2
    if seed_override is not None:
        config = dataclasses.replace(config, seeds=(seed_override,))
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    records = run_sweep(config, jobs=jobs)
    try:
        write_results_csv(records, out / "results.csv")
        write_density_samples_csv(records, out / "density_samples.csv")
        write_summary_json(summarize(records), out / "summary.json")
    except OSError as exc:  # a failed write, such as a full disk, names no file
        print(f"error: {exc.filename or out}: {exc.strerror}", file=sys.stderr)
        return 2
    failures = sum(1 for r in records if r.failed)
    detected = sum(1 for r in records if r.detection is not None)
    print(f"{len(records)} runs, {detected} detections, {failures} failures -> {out}")
    return 1 if failures else 0


def cmd_report(results_dir: str, fmt: str = "table") -> int:
    path = Path(results_dir) / "summary.json"
    try:
        summary = read_summary_json(path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        sys.stdout.write(summary_text(summary))
        return 0
    header = (f"{'variant':<22} {'fog':>5} {'runs':>4} {'fail':>4} {'det':>4} "
              f"{'tta q1':>8} {'tta med':>8} {'tta q3':>8} "
              f"{'dens q1':>9} {'dens med':>9} {'dens q3':>9}")
    print(header)
    print("-" * len(header))
    for c in summary["cells"]:
        tta = c["tta_s"]
        dens = c["density_pts_per_deg"]
        tta_cols = tuple(f"{tta[k]:8.3f}" for k in ("q1", "median", "q3")) if tta else ("-".rjust(8),) * 3
        dens_cols = tuple(f"{dens[k]:9.4f}" for k in ("q1", "median", "q3")) if dens else ("-".rjust(9),) * 3
        print(f"{c['variant']:<22} {c['fog']:>5.2f} {c['runs']:>4} {c['failures']:>4} {c['detected']:>4} "
              f"{' '.join(tta_cols)} {' '.join(dens_cols)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazelidar",
        description="Deterministic 2D simulation of a gaze-aware adaptive spinning LiDAR.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a run config without running it")
    p_validate.add_argument("--config", required=True, help="path to a run config JSON file")

    p_run = sub.add_parser("run", help="run the configured sweep and write result files")
    p_run.add_argument("--config", required=True, help="path to a run config JSON file")
    p_run.add_argument("--out", required=True, help="directory for results.csv, density_samples.csv, summary.json")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_run.add_argument("--seed-override", type=int, default=None,
                       help="replace the configured seed list with this single seed")

    p_report = sub.add_parser("report", help="print the summary.json of a results directory")
    p_report.add_argument("--out", required=True, help="results directory written by run")
    p_report.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.config)
    if args.command == "run":
        if args.jobs < 1:
            parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
        if args.seed_override is not None and args.seed_override < 0:
            parser.error(f"argument --seed-override: must be at least 0, got {args.seed_override}")
        return cmd_run(args.config, args.out, jobs=args.jobs, seed_override=args.seed_override)
    return cmd_report(args.out, fmt=args.format)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
