from __future__ import annotations

import pytest

from chainshell.config import (
    PipelineConfig,
    config_hash,
    derive_seed,
    dump_config,
    load_config,
    parse_config,
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
    ("[gen3d]\niterations = 0\n", "gen3d.iterations"),
    ("[gen3d]\ngroups = 0\n", "gen3d.groups"),
    ("[gen3d]\ngroups = 6\n", "gen3d.groups"),
    ("[filter]\nkeep = 0\n", "filter.keep"),
    ("[filter]\ntolerance_mode = fuzzy\n", "filter.tolerance_mode"),
    ("[fem]\nsupports = edges-only\n", "fem.supports"),
    ("[optimizer]\nslope_rule = loose\n", "optimizer.slope_rule"),
    ("[optimizer]\namplitude_cap_m = 3.5\n", "optimizer.amplitude_cap_m"),
    ("[optimizer]\namplitude_cap_m = 0\n", "optimizer.amplitude_cap_m"),
    ("[run]\nthreads = 0\n", "threads"),
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
    ("[sweep2d]\nspan_mm = -1\n", "sweep2d.span_mm"),
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
