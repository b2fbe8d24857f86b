from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainshell import pipeline
from chainshell.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main
from chainshell.config import config_hash, derive_seed, load_config
from chainshell.pipeline import read_manifest_hash

from helpers import fail_gen3d_at_group_2, fresh_interpreter_env

TRIMMED = """\
[gen3d]
iterations = 3

[filter]
keep = 2

[optimizer]
iterations_per_anchor = 2
"""


@pytest.fixture(scope="module")
def trimmed_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(TRIMMED)
    return str(path)


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory, trimmed_cfg):
    """Two identical full runs driven through the CLI."""
    root = tmp_path_factory.mktemp("cli-runs")
    dirs = (root / "a", root / "b")
    for d in dirs:
        assert main(["run", "--config", trimmed_cfg, "--out", str(d)]) == EXIT_OK
    return dirs


def test_units_prints_the_geometry_table(capsys, tmp_path):
    assert main(["units", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("shape,member_length_mm,")
    assert len(lines) == 4
    shapes = {line.split(",")[0] for line in lines[1:]}
    assert shapes == {"triangular", "circular", "rectangular"}
    for line in lines[1:]:
        assert float(line.split(",")[4]) == pytest.approx(0.08, abs=0.005)
    assert (tmp_path / "units" / "units.csv").is_file()


def test_sweep2d_reports_the_rectangular_maximum(capsys, tmp_path):
    assert main(["sweep2d", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "shape,max_amplitude_mm,max_frequency" in out
    assert "rectangular,35.0,9" in out
    assert (tmp_path / "sweep2d" / "sweep2d.csv").is_file()


def test_loads_prints_the_load_case(capsys):
    assert main(["loads", "--area", "4.0"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,deflection_limit_mm"
    dl, ll, sl, wl, tl, limit = (float(v) for v in out[1].split(","))
    assert ll == pytest.approx(1.60, abs=1e-4)
    assert sl == pytest.approx(2.88, abs=1e-4)
    assert wl == pytest.approx(3.21, abs=1e-4)
    assert tl == pytest.approx(dl + ll + sl + wl, abs=2e-4)
    assert limit == 8.0


def test_loads_reads_the_config_and_its_overrides(capsys, tmp_path):
    cfg = tmp_path / "snow.ini"
    cfg.write_text("[loads]\nsnow_shape_factor = 0.2\n")
    assert main(["loads", "--config", str(cfg)]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert (row[1], row[2]) == ("1.6000", "0.7200")

    assert main(["loads", "--config", str(cfg), "--area", "10"]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert (row[1], row[2]) == ("4.0000", "1.8000")


def test_generate_filter_analyze_chain(capsys, tmp_path):
    pool = tmp_path / "pool"
    assert main(["gen3d", "--amplitude", "25", "--frequency", "6",
                 "--seed", "42", "--iterations", "20",
                 "--out", str(pool)]) == EXIT_OK
    assert "wrote 20 iterations" in capsys.readouterr().out
    assert (pool / "manifest.csv").is_file()
    assert len(list(pool.glob("iter*.mesh"))) == 20
    assert len(list(pool.glob("iter*.pgm"))) == 20

    assert main(["filter", "--in", str(pool)]) == EXIT_OK
    assert "kept 4 of 20" in capsys.readouterr().out
    selected = (pool / "selected.csv").read_text().splitlines()
    kept = [row.split(",")[0] for row in selected[1:] if row.split(",")[6] == "1"]
    assert kept == ["0", "2", "4", "14"]

    assert main(["analyze", "--in", str(pool)]) == EXIT_OK
    table = capsys.readouterr().out.strip().splitlines()
    assert table[0].startswith("model,DL_kN,")
    assert len(table) == 5
    assert {row.split(",")[0] for row in table[1:]} == {
        "iter00", "iter02", "iter04", "iter14"}
    assert all(row.split(",")[-1] == "1" for row in table[1:])
    assert (pool / "displacements.csv").is_file()

    pinned = tmp_path / "pinned"
    assert main(["analyze", "--in", str(pool), "--supports", "corner-pinned",
                 "--out", str(pinned)]) == EXIT_OK
    capsys.readouterr()
    fixed_rows = (pool / "displacements.csv").read_text().splitlines()
    pinned_rows = (pinned / "displacements.csv").read_text().splitlines()
    assert [r.split(",")[:6] for r in pinned_rows] == [r.split(",")[:6]
                                                       for r in fixed_rows]
    assert ([r.split(",")[6] for r in pinned_rows[1:]]
            != [r.split(",")[6] for r in fixed_rows[1:]])


GROUP1 = """\
[gen3d]
iterations = 8
groups = 1

[filter]
keep = 3

[optimizer]
iterations_per_anchor = 2
"""


def _same_pool(pool: Path, stage_pool: Path, size: int) -> None:
    for name in ["manifest.csv"] + [f"iter{i:02d}.{ext}" for i in range(size)
                                    for ext in ("mesh", "pgm")]:
        assert (pool / name).read_bytes() == (stage_pool / name).read_bytes(), name


TRIANGULAR = """\
[sweep2d]
shape = triangular

[gen3d]
iterations = 2

[filter]
keep = 1

[optimizer]
iterations_per_anchor = 1
"""


def test_cli_chain_reproduces_the_pipeline_pool(capsys, tmp_path):
    cfg = tmp_path / "group1.ini"
    cfg.write_text(GROUP1)
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    pool = tmp_path / "pool"
    assert main(["gen3d", "--config", str(cfg), "--amplitude", "10",
                 "--frequency", "3", "--iterations", "8",
                 "--seed", str(derive_seed(7, "gen3d:g1")),
                 "--out", str(pool)]) == EXIT_OK
    assert main(["filter", "--in", str(pool), "--keep", "3"]) == EXIT_OK
    assert main(["analyze", "--config", str(cfg), "--in", str(pool)]) == EXIT_OK
    capsys.readouterr()

    _same_pool(pool, run / "gen3d" / "g1", 8)
    assert ((pool / "selected.csv").read_bytes()
            == (run / "filter" / "g1" / "selected.csv").read_bytes())
    cli_rows = (pool / "displacements.csv").read_text().splitlines()[1:]
    stage_rows = (run / "analyze" / "displacements.csv").read_text().splitlines()[1:]
    assert len(cli_rows) == 3
    assert ([r.split(",")[1:] for r in cli_rows]
            == [r.split(",")[3:] for r in stage_rows])

    # group 4 (A = 25 mm, f = 6) lies outside the triangular envelope; both
    # paths check the rectangular one the groups are printed in
    cfg = tmp_path / "triangular.ini"
    cfg.write_text(TRIANGULAR)
    run = tmp_path / "triangular-run"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    pool = tmp_path / "g4"
    assert main(["gen3d", "--config", str(cfg), "--amplitude", "25",
                 "--frequency", "6", "--seed", str(derive_seed(7, "gen3d:g4")),
                 "--out", str(pool)]) == EXIT_OK
    _same_pool(pool, run / "gen3d" / "g4", 2)


def test_a_negative_zero_amplitude_is_zero(capsys, tmp_path):
    # -0.0 passes every "amplitude < 0" check; gen3d must write the pool of
    # --amplitude 0, not die drawing offsets from an empty range
    pools = {text: tmp_path / f"pool{text}" for text in ("0", "-0.0")}
    for text, pool in pools.items():
        assert main(["gen3d", "--amplitude", text, "--frequency", "3", "--seed", "5",
                     "--iterations", "3", "--out", str(pool)]) == EXIT_OK
    _same_pool(pools["-0.0"], pools["0"], 3)

    # a selected.csv naming amplitude -0.0 solves the same flat grid
    assert main(["filter", "--in", str(pools["0"])]) == EXIT_OK
    header, *rows = (pools["0"] / "selected.csv").read_text().splitlines()
    assert header.split(",")[1] == "amplitude_mm"
    signed = tmp_path / "signed.csv"
    signed.write_text("\n".join([header] + [",".join([iteration, "-0.0", *rest])
                                            for iteration, _, *rest in
                                            (row.split(",") for row in rows)]) + "\n")
    assert main(["analyze", "--in", str(pools["0"]), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["analyze", "--in", str(signed), "--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    assert ((tmp_path / "a" / "displacements.csv").read_bytes()
            == (tmp_path / "b" / "displacements.csv").read_bytes())


def test_gen3d_and_filter_read_their_config_keys(capsys, tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text("[gen3d]\niterations = 3\n\n[filter]\nkeep = 2\n")
    pool = tmp_path / "pool"
    assert main(["gen3d", "--config", str(cfg), "--amplitude", "10",
                 "--frequency", "3", "--out", str(pool)]) == EXIT_OK
    assert "wrote 3 iterations" in capsys.readouterr().out
    assert len(list(pool.glob("iter*.mesh"))) == 3
    assert len(list(pool.glob("iter*.pgm"))) == 3

    assert main(["filter", "--config", str(cfg), "--in", str(pool)]) == EXIT_OK
    assert "kept 2 of 3" in capsys.readouterr().out
    # a flag still overrides its key
    assert main(["filter", "--config", str(cfg), "--in", str(pool),
                 "--keep", "1"]) == EXIT_OK
    assert "kept 1 of 3" in capsys.readouterr().out


def test_filter_honours_explicit_tolerances(capsys, tmp_path):
    pool = tmp_path / "pool"
    assert main(["gen3d", "--amplitude", "25", "--frequency", "6", "--seed", "42",
                 "--iterations", "6", "--out", str(pool)]) == EXIT_OK
    cfg = tmp_path / "explicit.ini"
    cfg.write_text("[filter]\ntolerance_mode = explicit\n"
                   "perimeter_tolerance_m = 0.25\narea_tolerance_m2 = 0.125\n")
    assert main(["filter", "--config", str(cfg), "--in", str(pool)]) == EXIT_OK
    assert "(dP=0.250000000 m, da=0.125000000 m2)" in capsys.readouterr().out
    rows = [r.split(",") for r in (pool / "selected.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert {(r[7], r[8]) for r in rows} == {("0.250000000", "0.125000000")}
    # every surface of the pool lies within these tolerances of the first
    assert [r[6] for r in rows] == ["1", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize("argv, key", [
    (["filter", "--in", "pool", "--keep", "0"], "keep must be >= 1"),
    (["gen3d", "--amplitude", "10", "--frequency", "3", "--iterations", "0"],
     "iterations must be >= 1"),
    (["loads", "--surface-area", "nan"], "--surface-area must be finite, got nan"),
    (["loads", "--surface-area", "inf"], "--surface-area must be finite, got inf"),
])
def test_bad_pool_overrides_exit_2(capsys, tmp_path, argv, key):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_seeded_rerun_gives_the_same_manifest_hash(cli_runs):
    dir_a, dir_b = cli_runs
    assert read_manifest_hash(dir_a) == read_manifest_hash(dir_b)
    assert ((dir_a / "optimize" / "ranking.csv").read_bytes()
            == (dir_b / "optimize" / "ranking.csv").read_bytes())


def test_report_summarizes_a_run(capsys, cli_runs):
    dir_a, _ = cli_runs
    assert main(["report", "--in", str(dir_a)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status = complete" in out
    assert "2D sweep maximum: rectangular A=35.0 mm f=9" in out
    assert "analysis: 8 models, 8 within the limit" in out
    assert "shelter ranking:" in out
    assert "manifest_hash" in out


def test_validation_failures_exit_2(capsys, tmp_path):
    assert main(["loads", "--area", "-1"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.ini"
    bad.write_text("[optimizer]\nweight_cms = 0.9\n")
    out = tmp_path / "never"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not out.exists()

    assert main(["gen3d", "--amplitude", "40", "--frequency", "3",
                 "--out", str(tmp_path / "g")]) == EXIT_VALIDATION
    assert "envelope" in capsys.readouterr().err


def test_a_foreign_run_directory_exits_2(capsys, tmp_path, trimmed_cfg):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.txt").write_text("[run]\nseed = 7\nconfig_hash = 0123abcd\n"
                                      "status = complete\n")
    assert main(["run", "--config", trimmed_cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "config_hash 0123abcd" in err
    assert config_hash(load_config(trimmed_cfg)) in err
    assert not (out / "config.ini").exists()
    assert [p.name for p in out.iterdir()] == ["manifest.txt"]


@pytest.mark.parametrize("argv", [
    ["units", "--threads", "0"],
    ["units", "--threads", "-3"],
    ["sweep2d", "--threads", "0"],
    ["loads", "--threads", "0"],
])
def test_bad_overrides_exit_2(capsys, tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config"],
    ["filter", "--in"],
    ["analyze", "--in"],
])
def test_missing_input_paths_exit_2(capsys, tmp_path, argv):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "o"
    assert main(argv + [str(missing), "--out", str(out)]) == EXIT_VALIDATION
    assert f"no such file: {missing}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, below", [
    (["run"], ""),
    (["units"], ""),
    (["gen3d", "--amplitude", "10", "--frequency", "3", "--iterations", "1"], "sub"),
])
def test_out_naming_a_file_exits_2(capsys, tmp_path, argv, below):
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out = blocker / below if below else blocker
    assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
    assert f"not a directory: {out}" in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("command, text, message", [
    ("filter", "iteration,amplitude_mm,frequency,seed,area_m2\n0,10.0,3,42,4.1\n",
     "missing column 'perimeter_m'"),
    ("analyze", "amplitude_mm,frequency,seed,area_m2,kept\n10.0,3,42,4.1,1\n",
     "missing column 'iteration'"),
    ("filter", "iteration,amplitude_mm,frequency,seed,area_m2,perimeter_m\n"
               "0,10.0,3,42,4.1,8.0\n1,10.0,3,42,big,8.0\n",
     "line 3: area_m2 'big' is not a number"),
    ("analyze", "iteration,amplitude_mm,frequency,seed,area_m2,kept,perimeter_m\n"
                "0,10.0,3.5,42,4.1,1,8.0\n",
     "line 2: frequency '3.5' is not an integer"),
    # a kept row outside the envelope its pool was drawn under, refused
    # before any row is solved
    ("analyze", "iteration,amplitude_mm,frequency,seed,area_m2,kept,perimeter_m\n"
                "0,10.0,3,42,4.1,1,8.0\n1,1e300,3,42,4.1,1,8.0\n",
     "in.csv, line 3: (A=1e+300 mm, f=3) exceeds the feasibility envelope"),
])
def test_malformed_csv_input_exits_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--in", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_support_mode_exits_2(capsys, tmp_path):
    selected = tmp_path / "selected.csv"
    selected.write_text("iteration,amplitude_mm,frequency,seed,perimeter_m,"
                        "area_m2,kept,perimeter_tolerance_m,area_tolerance_m2\n"
                        "0,25.0,6,42,8.1,4.2,1,0.0,0.0\n")
    code = main(["analyze", "--in", str(selected), "--supports", "edges-only"])
    assert code == EXIT_VALIDATION
    assert "unknown support mode 'edges-only'" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [("[fem]\nlattice_grid = 3000", "fem.lattice_grid"),
                                       ("[gen3d]\nresolution = 60000", "gen3d.resolution")])
def test_configs_past_the_cost_budget_exit_2_before_any_output(capsys, tmp_path,
                                                               monkeypatch, text, key):
    # refused by validate, so no stage ever starts: were one to, it would
    # meet this stub, not the allocation
    def never(*args, **kwargs):
        raise AssertionError("a refused config reached a run directory")

    monkeypatch.setattr(pipeline.RunDir, "create", never)
    config = tmp_path / "huge.ini"
    config.write_text(text + "\n")
    out = tmp_path / "never"
    for argv in (["run"], ["optimize"], ["gen3d", "--amplitude", "10", "--frequency", "3"]):
        assert main(argv + ["--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_stage_failures_exit_3(capsys, tmp_path, monkeypatch):
    fail_gen3d_at_group_2(monkeypatch)
    cfg = tmp_path / "small.ini"
    cfg.write_text("[gen3d]\niterations = 2\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == EXIT_STAGE
    err = capsys.readouterr().err
    assert "stage 'gen3d' failed" in err


@pytest.mark.parametrize("text, key", [("[gen3d]\ngroups = 5\n", "gen3d.groups"),
                                       ("[unit]\ntarget_ratio = 0.306\n",
                                        "unit.target_ratio")])
def test_a_config_no_stage_can_run_exits_2_before_any_output(capsys, tmp_path, text, key):
    cfg = tmp_path / "unreachable.ini"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not out.exists()
    # the units subcommand refuses the ratio the same way
    if key == "unit.target_ratio":
        units_out = tmp_path / "units"
        assert main(["units", "--config", str(cfg), "--out", str(units_out)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not units_out.exists()


def test_gen3d_refuses_a_stale_pool_directory(capsys, tmp_path):
    pool = tmp_path / "pool"
    argv = ["gen3d", "--amplitude", "10", "--frequency", "3", "--out", str(pool)]
    assert main(argv + ["--iterations", "3"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in pool.iterdir()}
    assert main(argv + ["--iterations", "2"]) == EXIT_VALIDATION
    assert "iter02.mesh" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in pool.iterdir()} == before
    # the same size, or a larger one, overwrites in place
    assert main(argv + ["--iterations", "3"]) == EXIT_OK
    assert main(argv + ["--iterations", "4"]) == EXIT_OK
    assert len(list(pool.glob("iter*.mesh"))) == 4


def test_a_plan_area_beyond_the_span_exits_2(capsys, tmp_path):
    cfg = tmp_path / "small-span.ini"
    cfg.write_text("[gen3d]\nspan_mm = 1000\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "loads.plan_area_m2" in capsys.readouterr().err
    assert not (out / "config.ini").exists()


def test_analyze_refuses_a_plan_area_beyond_the_span_before_any_output(capsys, tmp_path):
    # the default 4 m2 plan area does not fit a 1.9 m span's 3.61 m2 plan;
    # gen3d and filter need no plan area
    cfg = tmp_path / "span-1900.ini"
    cfg.write_text("[gen3d]\nspan_mm = 1900\n")
    pool = tmp_path / "pool"
    assert main(["gen3d", "--config", str(cfg), "--amplitude", "10", "--frequency", "3",
                 "--iterations", "2", "--out", str(pool)]) == EXIT_OK
    assert main(["filter", "--config", str(cfg), "--in", str(pool)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "analyzed"
    assert main(["analyze", "--config", str(cfg), "--in", str(pool),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert "loads.plan_area_m2" in capsys.readouterr().err
    assert not out.exists()
    # loads has no span to check the plan area against
    assert main(["loads", "--config", str(cfg)]) == EXIT_OK


def test_optimize_refuses_a_plan_area_beyond_the_span_before_any_output(capsys, tmp_path):
    # 10 m2 does not fit the default 2 m span's 4 m2 plan; the shelter study's
    # dead load needs it
    cfg = tmp_path / "plan-area-10.ini"
    cfg.write_text("[loads]\nplan_area_m2 = 10\n")
    out = tmp_path / "shelter"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "loads.plan_area_m2" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_refuses_a_pool_drawn_over_another_span(capsys, tmp_path):
    # a pool drawn at the default 2000 mm span: its 8 m perimeter pins the
    # span, whatever the resolution it is rebuilt at
    pool = tmp_path / "pool"
    assert main(["gen3d", "--amplitude", "10", "--frequency", "3", "--seed", "5",
                 "--iterations", "4", "--out", str(pool)]) == EXIT_OK
    assert main(["filter", "--in", str(pool)]) == EXIT_OK
    assert main(["analyze", "--in", str(pool), "--out", str(tmp_path / "default")]) == EXIT_OK
    capsys.readouterr()
    span = tmp_path / "span-2100.ini"
    span.write_text("[gen3d]\nspan_mm = 2100\n")
    out = tmp_path / "span"
    assert main(["analyze", "--config", str(span), "--in", str(pool),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "gen3d.span_mm" in err and "8.000000000" in err and "8.400000000" in err
    assert not out.exists()
    # the frame samples the spline, not the mesh: a resolution change alone
    # analyzes to the same table
    coarse = tmp_path / "resolution-40.ini"
    coarse.write_text("[gen3d]\nresolution = 40\n")
    out = tmp_path / "coarse"
    assert main(["analyze", "--config", str(coarse), "--in", str(pool),
                 "--out", str(out)]) == EXIT_OK
    assert ((out / "displacements.csv").read_text()
            == (tmp_path / "default" / "displacements.csv").read_text())


def test_a_span_the_column_grid_overruns_exits_2(capsys, tmp_path):
    # the shelter columns stand at up to 1.75 m, past a 1.5 m plan
    cfg = tmp_path / "span-1500.ini"
    cfg.write_text("[gen3d]\nspan_mm = 1500\n\n[loads]\nplan_area_m2 = 2.0\n")
    for command in ("run", "optimize"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "gen3d.span_mm = 1500.0" in capsys.readouterr().err
        assert not out.exists()
    # a gen3d pool has no columns
    assert main(["gen3d", "--config", str(cfg), "--amplitude", "10", "--frequency", "3",
                 "--iterations", "2", "--out", str(tmp_path / "pool")]) == EXIT_OK


def test_a_column_side_past_the_grid_spacing_exits_2(capsys, tmp_path):
    # on a 3 m plan the far columns fit, but 0.6 m sections on the 0.5 m grid
    # overlap their neighbours and cross the near edges; 0.5 m ones just touch
    for side, code in (("0.6", EXIT_VALIDATION), ("0.5", EXIT_OK)):
        cfg = tmp_path / f"side-{side}.ini"
        cfg.write_text("[gen3d]\nspan_mm = 3000\n\n[optimizer]\niterations_per_anchor = 1\n"
                       f"column_section_side_m = {side}\n")
        out = tmp_path / side
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert ("optimizer.column_section_side_m = 0.6" in err) == (code == EXIT_VALIDATION)
        assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("buffered", [True, False])
def test_report_into_a_closed_pipe_exits_quietly(cli_runs, buffered):
    dir_a, _ = cli_runs
    env = fresh_interpreter_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "chainshell.cli", "report",
                               "--in", str(dir_a)], stdout=write_end, env=env,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")


def test_report_requires_a_manifest(capsys, tmp_path):
    assert main(["report", "--in", str(tmp_path)]) == EXIT_VALIDATION
    assert "manifest" in capsys.readouterr().err


def _loaded_modules(code: str) -> list:
    """Names in sys.modules that start with scipy or are numpy.ma or
    numpy.random, after `code` ran in a fresh interpreter."""
    code += ("\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                         check=True, capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()[-1].split()


def test_importing_the_cli_loads_no_heavy_scipy_modules():
    # a fresh interpreter: the import is what every command pays first; the
    # LAPACK routines come from numpy's OpenBLAS, so no scipy module is
    # loaded, and the seeded draws are computed in shell3d, so numpy.random
    # stays unloaded
    assert _loaded_modules("import chainshell.cli") == []


def test_a_run_loads_no_scipy_linalg_and_no_numpy_ma(tmp_path, trimmed_cfg):
    # every stage runs, the filter's auto tolerances (two medians) included;
    # np.median would load numpy.ma, a scipy.linalg routine its package, and
    # a seeded draw through numpy's Generator numpy.random
    code = ("from chainshell.cli import main\n"
            f"assert main(['run', '--config', {trimmed_cfg!r}, "
            f"'--out', {str(tmp_path / 'run')!r}]) == 0")
    assert _loaded_modules(code) == []


# the standard-library modules the CLI's import loads on top of numpy's own
_CLI_STDLIB = ("argparse", "configparser", "csv", "copy", "dataclasses", "hashlib")


def test_importing_the_cli_loads_no_module_beyond_numpy_and_its_stdlib_set():
    # every benchmark child and every command pays this import first: a new
    # public top-level module (or one the listed ones do not load
    # themselves) adds to it, so it must be added here on purpose
    code = ("import sys\nimport numpy\n"
            f"for name in {_CLI_STDLIB!r}:\n    __import__(name)\n"
            "before = set(sys.modules)\nimport chainshell.cli\n"
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                         check=True, capture_output=True, text=True, timeout=120).stdout
    added = out.splitlines()[-1].split() if out.strip() else []
    assert [m for m in added if not m.startswith("_")] == ["chainshell"]
