from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainshell
from chainshell.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main
from chainshell.config import config_hash, derive_seed, load_config
from chainshell.pipeline import read_manifest_hash

TRIMMED = """\
[gen3d]
iterations = 3

[filter]
keep = 2

[optimizer]
iterations_per_anchor = 2
"""


def _fresh_interpreter_env() -> dict:
    """os.environ with this chainshell first on PYTHONPATH."""
    src = str(Path(chainshell.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    stage_pool = run / "gen3d" / "g1"
    for name in ["manifest.csv"] + [f"iter{i:02d}.{ext}" for i in range(8)
                                    for ext in ("mesh", "pgm")]:
        assert (pool / name).read_bytes() == (stage_pool / name).read_bytes(), name
    assert ((pool / "selected.csv").read_bytes()
            == (run / "filter" / "g1" / "selected.csv").read_bytes())
    cli_rows = (pool / "displacements.csv").read_text().splitlines()[1:]
    stage_rows = (run / "analyze" / "displacements.csv").read_text().splitlines()[1:]
    assert len(cli_rows) == 3
    assert ([r.split(",")[1:] for r in cli_rows]
            == [r.split(",")[3:] for r in stage_rows])


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
])
def test_bad_pool_overrides_exit_2(capsys, tmp_path, argv, key):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
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
    ("analyze", "iteration,amplitude_mm,frequency,seed,area_m2,kept\n"
                "0,10.0,3.5,42,4.1,1\n",
     "line 2: frequency '3.5' is not an integer"),
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


def test_stage_failures_exit_3(capsys, tmp_path):
    cfg = tmp_path / "toobig.ini"
    cfg.write_text("[gen3d]\niterations = 2\ngroups = 5\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == EXIT_STAGE
    err = capsys.readouterr().err
    assert "stage 'gen3d' failed" in err


@pytest.mark.parametrize("buffered", [True, False])
def test_report_into_a_closed_pipe_exits_quietly(cli_runs, buffered):
    dir_a, _ = cli_runs
    env = _fresh_interpreter_env()
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


def test_importing_the_cli_loads_no_heavy_scipy_modules():
    # a fresh interpreter: the import is what every command pays first
    heavy = ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.spatial",
             "scipy.sparse.csgraph", "scipy.sparse")
    env = _fresh_interpreter_env()
    code = ("import sys, chainshell.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=120).stdout
    assert loaded.strip() == ""
