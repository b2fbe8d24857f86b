"""Command-line interface.

Subcommands: units, sweep2d, gen3d, filter, loads, analyze, optimize,
run (full pipeline), report.  Exit codes: 0 success, 2 validation error,
3 stage failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import filtering, loads as loads_mod, pipeline, profile2d, shell3d
from .config import PipelineConfig, derive_seed, load_config, set_key
from .errors import (ChainshellError, ConfigError, EnvelopeError, InfeasibleError,
                     ParameterError)
# unused here, but bench/test_bench.py checks that the tracer rebinds
# chainshell.cli.analyze_shell, so the name stays importable
from .fem import analyze_shell  # noqa: F401
from .pipeline import _fmt

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (INI-style)")
    common.add_argument("--seed", type=int, help="override the top-level seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--threads", type=int,
                        help="validated and recorded in config.ini; "
                             "nothing runs in parallel")

    parser = argparse.ArgumentParser(
        prog="chainshell",
        description="batch design toolkit for vacuum-jammed chainmail shells")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("units", parents=[common],
                   help="unit-cell geometry table for the three ring shapes")
    sub.add_parser("sweep2d", parents=[common],
                   help="2D amplitude/frequency feasibility sweep")

    p = sub.add_parser("gen3d", parents=[common],
                       help="generate seeded 3D shell iterations")
    p.add_argument("--amplitude", type=float, required=True, help="A in mm")
    p.add_argument("--frequency", type=int, required=True)
    p.add_argument("--iterations", type=int, default=None,
                   help="pool size; overrides [gen3d] iterations")

    p = sub.add_parser("filter", parents=[common],
                       help="select distinct surfaces from a generated pool")
    p.add_argument("--in", dest="in_path", required=True,
                   help="directory containing a gen3d manifest.csv")
    p.add_argument("--keep", type=int, default=None,
                   help="surfaces to keep; overrides [filter] keep")

    p = sub.add_parser("loads", parents=[common],
                       help="load-case table for a shell")
    p.add_argument("--area", type=float, default=None,
                   help="plan area m2; overrides [loads] plan_area_m2")
    p.add_argument("--thickness", type=float, default=None,
                   help="m; overrides [loads] thickness_m")
    p.add_argument("--surface-area", type=float, default=None,
                   help="deformed surface area m2 (defaults to plan area)")

    p = sub.add_parser("analyze", parents=[common],
                       help="frame analysis of selected surfaces")
    p.add_argument("--in", dest="in_path", required=True,
                   help="selected.csv from the filter step")
    p.add_argument("--supports", default=None,
                   help="boundary-fixed or corner-pinned; overrides [fem] supports")

    sub.add_parser("optimize", parents=[common], help="shelter optimization study")
    sub.add_parser("run", parents=[common], help="full pipeline")

    p = sub.add_parser("report", parents=[common],
                       help="summarize a run directory")
    p.add_argument("--in", dest="in_path", required=True, help="run directory")
    return parser


def _input_file(path) -> Path:
    """A file a command reads; a missing one is bad input, not a stage failure."""
    path = Path(path)
    if not path.is_file():
        raise ParameterError(f"no such file: {path}")
    return path


# the config key each override flag sets
_FLAG_KEYS = {"seed": "run.seed", "threads": "run.threads", "iterations": "gen3d.iterations",
              "keep": "filter.keep", "supports": "fem.supports",
              "area": "loads.plan_area_m2", "thickness": "loads.thickness_m"}


def _config_from_args(args) -> PipelineConfig:
    if args.config is not None:
        _input_file(args.config)
    config = load_config(args.config)
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            config = set_key(config, key, getattr(args, flag))
    return pipeline.check_config(
        config, pipeline.STAGES if args.command == "run" else (args.command,))


def _out_dir(args, default) -> pipeline.RunDir:
    """The run directory outputs are written under: --out, else `default`."""
    return pipeline.RunDir.create(args.out or default)


def _cat(path: Path) -> None:
    sys.stdout.write(path.read_text(encoding="utf-8"))


def cmd_units(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/units")
    pipeline.stage_units(config, out)
    _cat(out.path / "units" / "units.csv")
    return EXIT_OK


def cmd_sweep2d(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/sweep2d")
    pipeline.stage_sweep2d(config, out)
    _cat(out.path / "sweep2d" / "max_feasible.csv")
    return EXIT_OK


def _refuse_stale_pool(out_dir: Path, size: int) -> None:
    """An iterNN file at or past the pool size would be left beside a
    manifest.csv that does not list it: bad input, refused before any write."""
    if not out_dir.is_dir():
        return
    for path in sorted(out_dir.iterdir()):
        match = re.fullmatch(r"iter(\d+)\.(mesh|pgm)", path.name)
        if match and int(match.group(1)) >= size:
            raise ParameterError(
                f"{path} is not part of a {size}-iteration pool; "
                f"write the pool to another directory")


def cmd_gen3d(args, config: PipelineConfig) -> int:
    # an explicit --seed keys the pool directly; otherwise derive per stage
    seed = config.seed if args.seed is not None else derive_seed(config.seed, "gen3d")
    amplitude = args.amplitude + 0.0  # -0.0 writes the pool of 0.0
    grids = pipeline.pool_grids(config, amplitude, args.frequency, seed)
    out_dir = Path(args.out or "runs/gen3d")
    _refuse_stale_pool(out_dir, len(grids))
    out = pipeline.RunDir.create(out_dir)
    pipeline.write_pool(config, out, "", amplitude, args.frequency, seed, grids)
    print(f"wrote {len(grids)} iterations to {out.path}")
    return EXIT_OK


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# what each converter accepts, for the error message
_KINDS = {_number: "a number", int: "an integer", str: "text"}


def _read_csv(path: Path, columns: Dict[str, Callable[[str], object]],
              check: Optional[Callable[[dict], None]] = None) -> List[dict]:
    """The rows of a CSV file, each named column present and converted.

    Rows whose first cell starts with '#' are skipped.  A missing column,
    or a cell its converter rejects, is bad input: ParameterError.  So is
    a converted row that `check` refuses (ParameterError or EnvelopeError,
    re-raised naming the file and line).
    """
    with open(_input_file(path), "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for name in columns:
            if name not in (reader.fieldnames or ()):
                raise ParameterError(f"{path}: missing column {name!r}")
        rows = []
        for row in reader:
            if next(iter(row.values()), "").startswith("#"):
                continue
            for name, convert in columns.items():
                try:
                    row[name] = convert(row[name])
                except (TypeError, ValueError):
                    raise ParameterError(
                        f"{path}, line {reader.line_num}: {name} {row[name]!r} "
                        f"is not {_KINDS[convert]}") from None
            if check is not None:
                try:
                    check(row)
                except (ParameterError, EnvelopeError) as exc:
                    raise type(exc)(f"{path}, line {reader.line_num}: {exc}") from None
            rows.append(row)
    return rows


def cmd_filter(args, config: PipelineConfig) -> int:
    in_dir = Path(args.in_path)
    manifest = in_dir / "manifest.csv" if in_dir.is_dir() else in_dir
    rows = _read_csv(manifest, {"amplitude_mm": _number, "frequency": int,
                                "seed": int, "perimeter_m": _number,
                                "area_m2": _number})
    if not rows:
        raise ParameterError(f"no iterations found in {manifest}")
    metrics = [filtering.SurfaceMetrics(perimeter_P=r["perimeter_m"], area_a=r["area_m2"])
               for r in rows]
    kept, dP, da = pipeline.filter_pool(config, metrics)
    pipeline.write_selected(_out_dir(args, manifest.parent), "selected.csv",
                            rows[0]["amplitude_mm"], rows[0]["frequency"],
                            rows[0]["seed"], metrics, kept, dP, da)
    print(f"kept {len(kept)} of {len(rows)} (dP={dP:.9f} m, da={da:.9f} m2)")
    return EXIT_OK


def cmd_loads(args, config: PipelineConfig) -> int:
    spec = pipeline.structure_spec(config)
    surface_area = (args.surface_area if args.surface_area is not None
                    else spec.plan_area_a)
    # dead_load's plan-area bound lets NaN and +inf through
    if not math.isfinite(surface_area):
        raise ParameterError(f"--surface-area must be finite, got {surface_area}")
    case = loads_mod.combine(spec, surface_area)
    limit = loads_mod.deflection_limit(spec.span_L)
    print("DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,deflection_limit_mm")
    print(",".join([_fmt(case.dead_DL, 4), _fmt(case.live_LL, 4),
                    _fmt(case.snow_SL, 4), _fmt(case.wind_WL, 4),
                    _fmt(case.total_TL, 4), _fmt(limit, 4)]))
    return EXIT_OK


def _kept_row_feasible(row: dict) -> None:
    """A kept row's (A, f) must lie in the envelope its pool was drawn under."""
    if row["kept"] == "1":
        profile2d.require_feasible(shell3d.GROUP_SHAPE, row["amplitude_mm"],
                                   row["frequency"])


def cmd_analyze(args, config: PipelineConfig) -> int:
    selected = Path(args.in_path)
    if selected.is_dir():
        selected = selected / "selected.csv"
    rows = _read_csv(selected, {"iteration": int, "amplitude_mm": _number,
                                "frequency": int, "seed": int, "perimeter_m": _number,
                                "area_m2": _number, "kept": str}, check=_kept_row_feasible)
    rows = [r for r in rows if r["kept"] == "1"]
    if not rows:
        raise ParameterError(f"no kept surfaces in {selected}")
    span = config.gen3d.span_mm
    out_lines = ["model,DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,max_displacement_mm,"
                 "limit_mm,passed"]
    for r in rows:
        idx = r["iteration"]
        grid = shell3d.control_grid(r["amplitude_mm"], r["frequency"], r["seed"],
                                    idx, span=span)
        surface = shell3d.interpolate_surface(grid, span, config.gen3d.resolution)
        # the edges are anchored flat, so the perimeter is 4 spans at any
        # resolution: a pool drawn over another span differs here
        perimeter, listed = _fmt(surface.mesh.boundary_length(), 9), _fmt(r["perimeter_m"], 9)
        if perimeter != listed:
            raise ParameterError(
                f"{selected}: iteration {idx} has perimeter_m {listed}, but "
                f"its surface over gen3d.span_mm = {span} has {perimeter}; analyze "
                f"with the span its pool was drawn over")
        out_lines.append(",".join(
            [f"iter{idx:02d}"] + pipeline.analyze_model(config, surface, r["area_m2"])))
    out = _out_dir(args, selected.parent)
    text = "\n".join(out_lines) + "\n"
    pipeline.write_output(out, "displacements.csv", text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_optimize(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/shelter")
    pipeline.stage_optimize(config, out)
    _cat(out.path / "optimize" / "ranking.csv")
    return EXIT_OK


def cmd_run(args, config: PipelineConfig) -> int:
    run_dir = pipeline.run_pipeline(config, args.out or f"runs/run-seed{config.seed}")
    print(f"run complete: {run_dir}")
    print(f"manifest hash: {pipeline.read_manifest_hash(run_dir)}")
    return EXIT_OK


def cmd_report(args, config: PipelineConfig) -> int:
    run_dir = Path(args.in_path)
    manifest = run_dir / "manifest.txt"
    if not manifest.exists():
        raise ParameterError(f"{run_dir} has no manifest.txt")
    print(f"run directory: {run_dir}")
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.startswith(("seed", "config_hash", "status", "manifest_hash",
                            "failed_stage", "error")):
            print(f"  {line}")
    sweep = run_dir / "sweep2d" / "max_feasible.csv"
    if sweep.exists():
        rows = _read_csv(sweep, dict.fromkeys(
            ("shape", "max_amplitude_mm", "max_frequency"), str))
        if rows:
            r = rows[0]
            print(f"2D sweep maximum: {r['shape']} A={r['max_amplitude_mm']} mm "
                  f"f={r['max_frequency']}")
    disp = run_dir / "analyze" / "displacements.csv"
    if disp.exists():
        rows = _read_csv(disp, dict.fromkeys(
            ("model", "TL_kN", "max_displacement_mm", "limit_mm", "passed"), str))
        print(f"analysis: {len(rows)} models, "
              f"{sum(1 for r in rows if r['passed'] == '1')} within the limit")
        for r in rows:
            print(f"  {r['model']}: TL={r['TL_kN']} kN, "
                  f"max={r['max_displacement_mm']} mm (limit {r['limit_mm']})")
    ranking = run_dir / "optimize" / "ranking.csv"
    if ranking.exists():
        rows = [r for r in _read_csv(ranking, dict.fromkeys(
            ("rank", "candidate", "weighted_score", "CMS_m2", "UA_m2"), str))
                if r["rank"]]
        print(f"shelter ranking: {len(rows)} candidates")
        for r in rows[:5]:
            print(f"  #{r['rank']} {r['candidate']}: score={r['weighted_score']} "
                  f"CMS={r['CMS_m2']} UA={r['UA_m2']}")
    return EXIT_OK


_COMMANDS = {
    "units": cmd_units,
    "sweep2d": cmd_sweep2d,
    "gen3d": cmd_gen3d,
    "filter": cmd_filter,
    "loads": cmd_loads,
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, _config_from_args(args))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left (`report | head -1`); devnull keeps the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ConfigError, ParameterError, EnvelopeError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ChainshellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
