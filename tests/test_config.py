from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import pytest

from chainshell.config import (
    BOUNDS,
    COST_BUDGET_BYTES,
    PipelineConfig,
    cost_estimates,
    config_hash,
    derive_seed,
    dump_config,
    load_config,
    parse_config,
    set_key,
    validate,
)
from chainshell.errors import ConfigError


def test_defaults_pass_validation():
    config = PipelineConfig()
    assert validate(config) is config
    assert config.seed == 7
    assert config.optimizer.weights == (0.4, 0.4, 0.1, 0.1)
    assert config.gen3d.iterations == 20
    assert config.filter.keep == 4


def test_derived_seeds_are_stable_and_stage_separated():
    assert derive_seed(7, "gen3d") == derive_seed(7, "gen3d")
    assert derive_seed(7, "gen3d") != derive_seed(7, "optimize")
    assert derive_seed(7, "gen3d") != derive_seed(8, "gen3d")
    for stage in ("gen3d", "filter", "optimize"):
        s = derive_seed(123, stage)
        assert 0 <= s < 2 ** 63


def test_empty_text_parses_to_defaults():
    assert parse_config("") == PipelineConfig()


def test_sections_override_defaults():
    config = parse_config("""
[run]
seed = 42
threads = 2

[gen3d]
iterations = 6

[unit]
shape = circular
""")
    assert config.seed == 42
    assert config.threads == 2
    assert config.gen3d.iterations == 6
    assert config.gen3d.groups == 4
    assert config.unit.shape == "circular"


def test_unknown_sections_and_keys_are_named():
    with pytest.raises(ConfigError) as err:
        parse_config("[mystery]\nx = 1\n")
    assert err.value.key == "mystery"
    with pytest.raises(ConfigError) as err:
        parse_config("[gen3d]\nbogus = 1\n")
    assert err.value.key == "gen3d.bogus"
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nbogus = 1\n")
    assert err.value.key == "run.bogus"


def test_bad_value_types_are_named():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nseed = abc\n")
    assert err.value.key == "run.seed"
    with pytest.raises(ConfigError) as err:
        parse_config("[unit]\nmember_length_mm = wide\n")
    assert err.value.key == "unit.member_length_mm"


def test_syntax_errors_are_config_errors():
    with pytest.raises(ConfigError):
        parse_config("seed = 7\n")  # key before any section header


@pytest.mark.parametrize("text,key", [
    ("[optimizer]\nweight_cms = 0.9\n", "optimizer.weight_cms"),
    ("[unit]\nshape = hexagonal\n", "unit.shape"),
    ("[unit]\ntarget_ratio = 1.5\n", "unit.target_ratio"),
    # the rectangular ring tops out at 44 / 144 = 0.30555... at its footprint pitch
    ("[unit]\ntarget_ratio = 0.306\n", "unit.target_ratio"),
    ("[gen3d]\niterations = 0\n", "gen3d.iterations"),
    ("[gen3d]\ngroups = 0\n", "gen3d.groups"),
    # group 5 is printed at 30 mm, f = 7, past the rectangular envelope's 25 mm
    ("[gen3d]\ngroups = 5\n", "gen3d.groups"),
    ("[gen3d]\ngroups = 6\n", "gen3d.groups"),
    ("[filter]\nkeep = 0\n", "filter.keep"),
    ("[filter]\ntolerance_mode = fuzzy\n", "filter.tolerance_mode"),
    ("[fem]\nsupports = edges-only\n", "fem.supports"),
    ("[optimizer]\nslope_rule = loose\n", "optimizer.slope_rule"),
    ("[optimizer]\namplitude_cap_m = 3.5\n", "optimizer.amplitude_cap_m"),
    ("[optimizer]\namplitude_cap_m = 0\n", "optimizer.amplitude_cap_m"),
    ("[run]\nthreads = 0\n", "run.threads"),
    ("[loads]\nplan_area_m2 = -1\n", "loads.plan_area_m2"),
    ("[loads]\nthickness_m = nan\n", "loads.thickness_m"),
    ("[loads]\nthickness_m = inf\n", "loads.thickness_m"),
    ("[loads]\nsnow_shape_factor = 1.5\n", "loads.snow_shape_factor"),
    ("[loads]\nsolid_fraction = 1.5\n", "loads.solid_fraction"),
    ("[optimizer]\nweight_cms = nan\n", "optimizer.weight_cms"),
    ("[fem]\nlattice_grid = 1\n", "fem.lattice_grid"),
    ("[gen3d]\nresolution = 2\n", "gen3d.resolution"),
    ("[gen3d]\nresolution = 5\n", "gen3d.resolution"),
    ("[gen3d]\nresolution = 8\n[optimizer]\ncontrol_F = 8\n", "gen3d.resolution"),
    ("[gen3d]\nspan_mm = 0\n", "gen3d.span_mm"),
    # positive, but (span_mm / 1000)^2 overflows the plan area check
    ("[gen3d]\nspan_mm = 1e300\n", "gen3d.span_mm"),
    ("[sweep2d]\nspan_mm = -1\n", "sweep2d.span_mm"),
    # positive, but the sweep's top cell (A = 40 mm, f = 10) curves infinitely
    ("[sweep2d]\nspan_mm = 1e-300\n", "sweep2d.span_mm"),
    ("[sweep2d]\nfrequency_max = 12\n", "sweep2d.frequency_max"),
    ("[sweep2d]\nfrequency_max = 2\n", "sweep2d.frequency_max"),
    ("[optimizer]\ncontrol_F = 1\n", "optimizer.control_F"),
    ("[optimizer]\niterations_per_anchor = 0\n", "optimizer.iterations_per_anchor"),
    ("[optimizer]\namplitude_min_fraction = 1\n", "optimizer.amplitude_min_fraction"),
    ("[optimizer]\nreduction_tolerance = -0.1\n", "optimizer.reduction_tolerance"),
    ("[unit]\ndensity_g_cm3 = 0\n", "unit.density_g_cm3"),
    ("[unit]\ndensity_g_cm3 = -1.38\n", "unit.density_g_cm3"),
    ("[optimizer]\ncolumn_section_side_m = 0\n", "optimizer.column_section_side_m"),
    ("[optimizer]\ncolumn_section_side_m = -0.05\n", "optimizer.column_section_side_m"),
    ("[optimizer]\nheadroom_m = -0.1\n", "optimizer.headroom_m"),
    ("[optimizer]\nmin_slope = -0.02\n", "optimizer.min_slope"),
    ("[optimizer]\nweight_cms = 0.6\nweight_ua = 0.6\nweight_lc = -0.1\nweight_fc = -0.1\n",
     "optimizer.weight_lc"),
    ("[optimizer]\nweight_cms = 0.5\nweight_ua = 0.6\nweight_lc = 0\nweight_fc = -0.1\n",
     "optimizer.weight_fc"),
    ("[optimizer]\nweight_cms = -0.1\nweight_ua = 0.9\nweight_lc = 0.1\nweight_fc = 0.1\n",
     "optimizer.weight_cms"),
    ("[optimizer]\nweight_cms = 0.9\nweight_ua = -0.1\nweight_lc = 0.1\nweight_fc = 0.1\n",
     "optimizer.weight_ua"),
    ("[fem]\nelastic_modulus_pa = -1\n", "fem.elastic_modulus_pa"),
    ("[fem]\nshear_modulus_pa = 0\n", "fem.shear_modulus_pa"),
    ("[filter]\nperimeter_tolerance_m = -1\n", "filter.perimeter_tolerance_m"),
    ("[filter]\narea_tolerance_m2 = -1\n", "filter.area_tolerance_m2"),
])
def test_validation_names_the_offending_key(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key


def _default(key: str):
    section, name = key.split(".")
    config = PipelineConfig()
    return getattr(config if section == "run" else getattr(config, section), name)


def _bound_cases():
    for key, row in BOUNDS.items():
        if not isinstance(row[1], tuple):
            for op, bound in zip(row[::2], row[1::2]):
                yield pytest.param(key, op, bound, id=f"{key}{op}{bound}")


@pytest.mark.parametrize("key, op, bound", list(_bound_cases()))
def test_every_bound_of_the_table_is_enforced(key, op, bound):
    own = f"{key} must be"
    outward = 1 if op.startswith("<") else -1
    past = (bound + outward if isinstance(_default(key), int)
            else math.nextafter(float(bound), outward * math.inf))
    with pytest.raises(ConfigError) as err:
        validate(set_key(PipelineConfig(), key, past))
    assert str(err.value).startswith(own) and err.value.key == key
    on_bound = set_key(PipelineConfig(), key, bound)
    if op in (">", "<"):
        with pytest.raises(ConfigError) as err:
            validate(on_bound)
        assert str(err.value).startswith(own) and err.value.key == key
    else:
        try:
            validate(on_bound)
        except ConfigError as exc:
            # another check may refuse the value first, as the weight sum does
            assert not str(exc).startswith(own)


@pytest.mark.parametrize("key", [k for k, row in BOUNDS.items() if isinstance(row[1], tuple)])
def test_every_choice_of_the_table_is_accepted_and_nothing_else(key):
    noun, choices = BOUNDS[key]
    for choice in choices:
        assert validate(set_key(PipelineConfig(), key, choice))
    with pytest.raises(ConfigError) as err:
        validate(set_key(PipelineConfig(), key, "other"))
    assert str(err.value).startswith(f"unknown {noun} 'other' for {key}")
    assert err.value.key == key


def _interval(row) -> str:
    if isinstance(row[1], tuple):
        return "one of " + ", ".join(f"`{choice}`" for choice in row[1])
    lower = {">": "(", ">=": "["}[row[0]] + str(row[1])
    upper = str(row[3]) + {"<": ")", "<=": "]"}[row[2]] if len(row) > 2 else "∞)"
    return f"{lower}, {upper}"


def test_the_documented_key_table_is_the_config_row_for_row():
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index("| Key | Default | Range | Also refused |") + 2
    documented = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, accepted = [c.strip() for c in line.strip("|").split("|")][:3]
        documented.append((key.strip("`"), default.strip("`"), accepted))
    expected, section = [], None
    for line in dump_config(PipelineConfig()).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            name, default = line.split(" = ")
            key = f"{section}.{name}"
            if key in BOUNDS:
                accepted = _interval(BOUNDS[key])
            else:
                accepted = ("any integer" if isinstance(_default(key), int)
                            else "any finite number")
            expected.append((key, default, accepted))
    assert documented == expected


def test_zero_headroom_slope_and_weight_are_accepted():
    block = parse_config("[optimizer]\nheadroom_m = 0\nmin_slope = 0\n"
                         "weight_lc = 0\nweight_fc = 0.2\n").optimizer
    assert (block.headroom_m, block.min_slope, block.weight_lc) == (0.0, 0.0, 0.0)


def test_resolution_bound_is_the_largest_control_grid():
    # four groups sample up to 6x6 control points, the optimizer 5x5
    assert parse_config("[gen3d]\nresolution = 6\n").gen3d.resolution == 6
    config = parse_config("[gen3d]\nresolution = 9\n[optimizer]\ncontrol_F = 8\n")
    assert config.optimizer.control_F == 8


def test_dump_parse_roundtrip():
    modified = parse_config("[run]\nseed = 99\n[gen3d]\niterations = 3\n")
    assert parse_config(dump_config(modified)) == modified
    assert parse_config(dump_config(PipelineConfig())) == PipelineConfig()


def test_config_hash_pins_content():
    assert config_hash(PipelineConfig()) == config_hash(parse_config(""))
    changed = parse_config("[run]\nseed = 8\n")
    assert config_hash(changed) != config_hash(PipelineConfig())
    assert len(config_hash(PipelineConfig())) == 64


def test_load_config_reads_files(tmp_path):
    assert load_config(None) == PipelineConfig()
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nseed = 5\n")
    assert load_config(str(path)).seed == 5


# the refused values measured before the budget: lattice_grid 3000 exited 3
# at analyze after four stages were written, resolution 60000 exited 3 at
# gen3d; these are checked only through the estimates, never run
@pytest.mark.parametrize("text, key", [
    ("[fem]\nlattice_grid = 3000", "fem.lattice_grid"),
    ("[gen3d]\nresolution = 60000", "gen3d.resolution"),
    ("[gen3d]\niterations = 100000000", "gen3d.iterations"),
    ("[optimizer]\niterations_per_anchor = 1000000", "optimizer.iterations_per_anchor"),
    ("[gen3d]\nresolution = 1448\n[optimizer]\ncontrol_F = 1447", "optimizer.control_F"),
])
def test_configs_past_the_cost_budget_are_refused_by_key(text, key):
    with pytest.raises(ConfigError, match="GiB budget") as err:
        parse_config(text)
    assert err.value.key == key and key in str(err.value)


@pytest.mark.parametrize("key, largest", [
    ("fem.lattice_grid", 153), ("gen3d.resolution", 1448),
    ("optimizer.iterations_per_anchor", 10965)])
def test_cost_budget_edges_are_the_documented_ones(key, largest):
    section, name = key.split(".")

    def config(value):
        block = getattr(PipelineConfig(), section)
        return replace(PipelineConfig(), **{section: replace(block, **{name: value})})

    assert cost_estimates(config(largest))[key] <= COST_BUDGET_BYTES
    assert validate(config(largest))
    assert cost_estimates(config(largest + 1))[key] > COST_BUDGET_BYTES
    # the default run is far inside the budget
    assert max(cost_estimates(PipelineConfig()).values()) < COST_BUDGET_BYTES / 100
