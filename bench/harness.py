"""Shared pieces of the chainshell benchmark: workloads, child processes,
output checks and the per-layer metric table.

Every sample is a fresh interpreter (`child.py`) with BLAS and OpenMP pinned
to one thread, run from the root of a source checkout with ``src`` on
``PYTHONPATH``.  Outputs go to a fresh directory under ``.bench_out`` that is
deleted once checked.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_DIR = BENCH_DIR / "workloads"
REFERENCES = BENCH_DIR / "references.json"
OUT_ROOT = Path(".bench_out")
CHILD_TIMEOUT_S = 150.0

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# How a sample's outputs are reduced to one digest.  `manifest` is the run's
# manifest hash.  `outputs` hashes the [outputs] digests without config.ini,
# because config.ini records `threads`: the shelter reference is made at one
# thread and every threaded sample must reproduce it.
WORKLOADS = {"default": "manifest", "fem-fine": "manifest", "shelter": "outputs"}

STAGES = ("units", "sweep2d", "gen3d", "filter", "analyze", "optimize")
COVERAGE_MIN_SHARE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    seed: int      # the seed the workload's config names
    threads: int   # the config's thread count, capped at the core count
    check: str

    @classmethod
    def load(cls, name: str) -> "Workload":
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        path = WORKLOAD_DIR / f"{name}.ini"
        parser = configparser.ConfigParser()
        parser.read_string(path.read_text(encoding="utf-8"))
        threads = min(parser.getint("run", "threads"), os.cpu_count() or 1)
        return cls(name, path, parser.getint("run", "seed"), threads,
                   WORKLOADS[name])


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    peak_rss_mb: float
    payload: Optional[dict]  # the child's JSON line, when it printed one
    stderr: str


def run_child(args: List[str], log_dir: Path) -> ChildResult:
    """Run child.py with `args`; wall time and max RSS come from wait4."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    cmd = [sys.executable, str(BENCH_DIR / "child.py")] + args
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode("utf-8", "replace").splitlines()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    payload = None
    if proc.returncode == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
    return ChildResult(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
                       payload, stderr)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digest(run_dir: Path, check: str) -> str:
    """Verify a finished run directory and reduce it to one digest.

    Raises ValueError when the manifest is incomplete or names a file whose
    content does not match its recorded digest.
    """
    section, fields, outputs = None, {}, {}
    for line in (run_dir / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            (outputs if section == "outputs" else fields)[key] = value
    if fields.get("status") != "complete":
        raise ValueError(f"run status {fields.get('status')!r}")
    for rel, digest in outputs.items():
        if sha256_file(run_dir / rel) != digest:
            raise ValueError(f"{rel} does not match its manifest digest")
    if check == "manifest":
        return fields["manifest_hash"]
    lines = "".join(f"{rel}={outputs[rel]}\n" for rel in sorted(outputs)
                    if rel != "config.ini")
    return hashlib.sha256(lines.encode()).hexdigest()


@dataclass
class Sample:
    ok: bool
    run_s: float
    peak_rss_mb: float
    digest: Optional[str]
    payload: Optional[dict]
    error: str = ""
    mesh_mb: float = 0.0


def run_sample(workload: Workload, seed: int, mode: str = "run",
               threads: Optional[int] = None) -> Sample:
    """One `chainshell run` in a fresh child, checked and cleaned up."""
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    try:
        run_dir = work / "run"
        res = run_child([mode, str(workload.config), "--seed", str(seed),
                         "--threads", str(threads or workload.threads),
                         "--out", str(run_dir)], work)
        if res.payload is None or res.payload.get("rc") != 0:
            return Sample(False, res.wall_s, res.peak_rss_mb, None, res.payload,
                          error=f"child exit {res.rc}: {res.stderr[-2000:]}")
        try:
            digest = output_digest(run_dir, workload.check)
        except (OSError, ValueError, KeyError) as exc:
            return Sample(False, res.payload["run_s"], res.peak_rss_mb, None,
                          res.payload, error=f"output check: {exc}")
        mesh_mb = sum(p.stat().st_size for p in run_dir.rglob("*.mesh")) / 1e6
        return Sample(True, res.payload["run_s"], res.peak_rss_mb, digest,
                      res.payload, mesh_mb=mesh_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_references() -> Dict[str, Dict[str, str]]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

# Plain span lookups: "<module>.<function>.<field>" with field one of
# calls, s, self_s or dofs (fem.solve only).
SPAN_METRICS = (
    [f"pipeline.stage_{s}.s" for s in STAGES]
    + ["config.load_config.s",
       "shell3d.write_mesh.calls", "shell3d.write_mesh.s",
       "shell3d.depth_map.s", "shell3d.write_pgm.s",
       "shell3d.interpolate_surface.calls", "shell3d.interpolate_surface.s",
       "shell3d.TriangleMesh.boundary_edges.calls",
       "shell3d.TriangleMesh.boundary_edges.s",
       "shell3d.TriangleMesh.area.s", "shell3d.generate_iterations.s",
       "shell3d.ShellSurface.evaluate.calls", "shell3d.ShellSurface.evaluate.s",
       "filtering.measure.calls", "filtering.measure.s",
       "filtering.measure.self_s", "filtering.filter_surfaces.s",
       "filtering.select_indices.calls",
       "loads.combine.calls",
       "fem.analyze_shell.calls", "fem.analyze_shell.s",
       "fem.frame_from_surface.s", "fem.assemble_stiffness.s",
       "fem.solve.self_s", "fem.solve.dofs",
       "optimizer.optimize.s",
       "optimizer.evaluate_candidate.calls", "optimizer.evaluate_candidate.s",
       "optimizer.slope_grid.s", "optimizer.usable_area.s",
       "optimizer.initial_columns.s", "optimizer.rank_designs.s",
       "optimizer.reduce_formwork.self_s", "optimizer.formwork_reactions.s",
       "profile2d.sweep_2d.s"])

# Metrics derived from several spans or from the run itself.
DERIVED_METRICS = {
    "pipeline.other.s": "s",
    "pipeline.coverage": "ratio",
    "pipeline.trace_overhead.s": "s",
    "cli.import.s": "s",
    "shell3d.write_mesh.mb": "MB",
    "filtering.measure.per_surface": "ratio",
}

_FIELD_UNITS = {"calls": "count", "dofs": "count", "s": "s", "self_s": "s"}


def per_layer_units() -> Dict[str, str]:
    units = {name: _FIELD_UNITS[name.rsplit(".", 1)[1]] for name in SPAN_METRICS}
    units.update(DERIVED_METRICS)
    return units


def coverage(spans: Dict[str, Dict[str, float]]) -> float:
    """Minimum over stages of traced-child seconds / stage seconds.

    Stages under COVERAGE_MIN_SHARE of the pipeline's time are left out: a
    millisecond stage (units, sweep2d) is mostly its own CSV formatting and
    cannot move run_s.
    """
    total = spans["pipeline.run_pipeline"]["s"]
    ratios = [(row["s"] - row["self_s"]) / row["s"]
              for row in (spans[f"pipeline.stage_{stage}"] for stage in STAGES)
              if row["s"] >= COVERAGE_MIN_SHARE * total]
    return min(ratios)


def per_layer_metrics(traced: Sample, untraced: Sample) -> Dict[str, float]:
    spans = traced.payload["spans"]

    def get(span: str, field: str) -> float:
        # a renamed or inlined function must not read as a 100% gain
        if field not in spans.get(span, {}):
            raise KeyError(f"traced run has no span field {span}.{field}; "
                           f"update SPAN_METRICS or tracer.py")
        return spans[span][field]

    values = {name: get(*name.rsplit(".", 1)) for name in SPAN_METRICS}
    stage_total = sum(get(f"pipeline.stage_{s}", "s") for s in STAGES)
    values["pipeline.other.s"] = get("pipeline.run_pipeline", "s") - stage_total
    values["pipeline.coverage"] = coverage(spans)
    values["pipeline.trace_overhead.s"] = traced.run_s - untraced.run_s
    values["cli.import.s"] = float(traced.payload["import_s"])
    values["shell3d.write_mesh.mb"] = traced.mesh_mb
    values["filtering.measure.per_surface"] = (
        get("filtering.measure", "calls") / get("shell3d.interpolate_surface", "calls"))
    return values
