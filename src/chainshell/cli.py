"""Command-line interface.

Subcommands: units, sweep2d, gen3d, filter, loads, analyze, optimize,
run (full pipeline), report.  Exit codes: 0 success, 2 validation error,
3 stage failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from . import filtering, loads as loads_mod, pipeline, profile2d, shell3d, units
from .config import PipelineConfig, derive_seed, load_config, validate
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
    p.add_argument("--iterations", type=int, default=20)

    p = sub.add_parser("filter", parents=[common],
                       help="select distinct surfaces from a generated pool")
    p.add_argument("--in", dest="in_path", required=True,
                   help="directory containing a gen3d manifest.csv")
    p.add_argument("--keep", type=int, default=4)

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


def _config_from_args(args) -> PipelineConfig:
    if args.config is not None:
        _input_file(args.config)
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    if getattr(args, "supports", None) is not None:
        config = replace(config, fem=replace(config.fem, supports=args.supports))
    if getattr(args, "area", None) is not None:
        config = replace(config, loads=replace(config.loads, plan_area_m2=args.area))
    if getattr(args, "thickness", None) is not None:
        config = replace(config, loads=replace(config.loads, thickness_m=args.thickness))
    return validate(config)


def _out_dir(args, default: str) -> Path:
    return Path(args.out) if args.out else Path(default)


def _cat(path: Path) -> None:
    sys.stdout.write(path.read_text(encoding="utf-8"))


def cmd_units(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/units")
    pipeline.stage_units(config, out)
    _cat(out / "units" / "units.csv")
    return EXIT_OK


def cmd_sweep2d(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/sweep2d")
    pipeline.stage_sweep2d(config, out)
    _cat(out / "sweep2d" / "max_feasible.csv")
    return EXIT_OK


def cmd_gen3d(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/gen3d")
    envelope = profile2d.default_envelope(units.Shape.parse(config.sweep2d.shape))
    # an explicit --seed keys the pool directly; otherwise derive per stage
    seed = config.seed if args.seed is not None else derive_seed(config.seed, "gen3d")
    grids = shell3d.generate_iterations(args.amplitude, args.frequency,
                                        n=args.iterations, seed=seed,
                                        span=config.gen3d.span_mm,
                                        envelope=envelope)
    surfaces = [shell3d.interpolate_surface(g, config.gen3d.resolution)
                for g in grids]
    pipeline.write_pool(out, args.amplitude, args.frequency, seed, grids, surfaces)
    print(f"wrote {len(grids)} iterations to {out}")
    return EXIT_OK


def _read_csv(path: Path) -> List[dict]:
    with open(_input_file(path), "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.DictReader(fh)
                if row and not next(iter(row.values()), "").startswith("#")]


def cmd_filter(args, config: PipelineConfig) -> int:
    in_dir = Path(args.in_path)
    manifest = in_dir / "manifest.csv" if in_dir.is_dir() else in_dir
    rows = _read_csv(manifest)
    if not rows:
        raise ParameterError(f"no iterations found in {manifest}")
    outcome = filtering.filter_surfaces(
        [filtering.SurfaceMetrics(perimeter_P=float(r["perimeter_m"]),
                                  area_a=float(r["area_m2"])) for r in rows],
        k=args.keep)
    out = Path(args.out) if args.out else manifest.parent
    pipeline.write_selected(out / "selected.csv", float(rows[0]["amplitude_mm"]),
                            int(rows[0]["frequency"]), int(rows[0]["seed"]), outcome)
    print(f"kept {len(outcome.kept_indices)} of {len(rows)} "
          f"(dP={outcome.dP:.9f} m, da={outcome.da:.9f} m2)")
    return EXIT_OK


def cmd_loads(args, config: PipelineConfig) -> int:
    spec = pipeline.structure_spec(config)
    surface_area = (args.surface_area if args.surface_area is not None
                    else spec.plan_area_a)
    case = loads_mod.combine(spec, surface_area)
    limit = loads_mod.deflection_limit(spec.span_L)
    print("DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,deflection_limit_mm")
    print(",".join([_fmt(case.dead_DL, 4), _fmt(case.live_LL, 4),
                    _fmt(case.snow_SL, 4), _fmt(case.wind_WL, 4),
                    _fmt(case.total_TL, 4), _fmt(limit, 4)]))
    return EXIT_OK


def cmd_analyze(args, config: PipelineConfig) -> int:
    selected = Path(args.in_path)
    if selected.is_dir():
        selected = selected / "selected.csv"
    rows = [r for r in _read_csv(selected) if r["kept"] == "1"]
    if not rows:
        raise ParameterError(f"no kept surfaces in {selected}")
    out_lines = ["model,DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,max_displacement_mm,"
                 "limit_mm,passed"]
    for r in rows:
        idx = int(r["iteration"])
        grid = shell3d.control_grid(float(r["amplitude_mm"]), int(r["frequency"]),
                                    int(r["seed"]), idx, span=config.gen3d.span_mm)
        surface = shell3d.interpolate_surface(grid, config.gen3d.resolution)
        out_lines.append(",".join(
            [f"iter{idx:02d}"]
            + pipeline.analyze_model(config, surface, float(r["area_m2"]))))
    out = Path(args.out) if args.out else selected.parent
    out.mkdir(parents=True, exist_ok=True)
    (out / "displacements.csv").write_text("\n".join(out_lines) + "\n",
                                           encoding="utf-8")
    sys.stdout.write("\n".join(out_lines) + "\n")
    return EXIT_OK


def cmd_optimize(args, config: PipelineConfig) -> int:
    out = _out_dir(args, "runs/shelter")
    pipeline.stage_optimize(config, out)
    _cat(out / "optimize" / "ranking.csv")
    return EXIT_OK


def cmd_run(args, config: PipelineConfig) -> int:
    out = _out_dir(args, f"runs/run-seed{config.seed}")
    run_dir = pipeline.run_pipeline(config, out)
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
        rows = _read_csv(sweep)
        if rows:
            r = rows[0]
            print(f"2D sweep maximum: {r['shape']} A={r['max_amplitude_mm']} mm "
                  f"f={r['max_frequency']}")
    disp = run_dir / "analyze" / "displacements.csv"
    if disp.exists():
        rows = _read_csv(disp)
        print(f"analysis: {len(rows)} models, "
              f"{sum(1 for r in rows if r['passed'] == '1')} within the limit")
        for r in rows:
            print(f"  {r['model']}: TL={r['TL_kN']} kN, "
                  f"max={r['max_displacement_mm']} mm (limit {r['limit_mm']})")
    ranking = run_dir / "optimize" / "ranking.csv"
    if ranking.exists():
        rows = [r for r in _read_csv(ranking) if r["rank"]]
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
        return _COMMANDS[args.command](args, _config_from_args(args))
    except (ConfigError, ParameterError, EnvelopeError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ChainshellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
