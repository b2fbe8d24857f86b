from __future__ import annotations

from dataclasses import replace

import pytest

from chainshell.config import PipelineConfig
from chainshell.errors import ParameterError
from chainshell.filtering import measure
from chainshell.loads import (
    DEAD_LOAD_CALIBRATION,
    LoadCase,
    combine,
    dead_load,
    deflection_limit,
    live_load,
    snow_load,
    wind_load,
)
from chainshell.pipeline import structure_spec

SPEC = structure_spec(PipelineConfig())


def test_load_table_values():
    assert (SPEC.plan_area_a, SPEC.snow_shape_factor, SPEC.wind_shape_factor) == (
        4.0, 0.8, 0.75)
    assert abs(live_load(SPEC) - 1.60) <= 1e-9
    assert abs(snow_load(SPEC) - 2.88) <= 1e-9
    assert abs(wind_load(SPEC) - 3.21) <= 1e-9


def test_loads_scale_linearly_with_plan_area():
    small = replace(SPEC, plan_area_a=4.0)
    large = replace(SPEC, plan_area_a=10.0)
    assert live_load(large) == pytest.approx(4.0, rel=1e-12)
    assert live_load(large) == pytest.approx(2.5 * live_load(small), rel=1e-12)
    assert snow_load(large) == pytest.approx(2.5 * snow_load(small), rel=1e-12)
    assert wind_load(large) == pytest.approx(2.5 * wind_load(small), rel=1e-12)


def test_shape_factor_variants():
    assert snow_load(replace(SPEC, snow_shape_factor=0.5)) == pytest.approx(
        1.80, rel=1e-12)
    assert wind_load(replace(SPEC, wind_shape_factor=0.5)) == pytest.approx(
        2.14, rel=1e-12)


def test_shape_factor_bounds():
    with pytest.raises(ParameterError):
        snow_load(replace(SPEC, snow_shape_factor=0.0))
    with pytest.raises(ParameterError):
        snow_load(replace(SPEC, snow_shape_factor=1.2))
    with pytest.raises(ParameterError):
        wind_load(replace(SPEC, wind_shape_factor=0.0))
    assert snow_load(replace(SPEC, snow_shape_factor=1.0)) == pytest.approx(
        3.6, rel=1e-12)


def test_total_is_exact_component_sum():
    case = LoadCase(dead_DL=0.1, live_LL=1.6, snow_SL=2.88, wind_WL=3.21)
    assert case.total_TL == 0.1 + 1.6 + 2.88 + 3.21


def test_load_case_rejects_negative_components():
    with pytest.raises(ParameterError):
        LoadCase(dead_DL=-0.1, live_LL=1.6, snow_SL=2.88, wind_WL=3.21)


def test_dead_load_calibration_keeps_its_bits():
    # the product order of the value computed from the paper's section
    assert DEAD_LOAD_CALIBRATION == 0.10 / (1.13 * 0.08 * 4.0 * 0.08)
    assert DEAD_LOAD_CALIBRATION.hex() == "0x1.ba7a5616a7a57p+1"


def test_dead_load_calibrated_to_flat_reference():
    assert dead_load(SPEC, surface_area=4.0) == pytest.approx(0.10, rel=1e-12)
    # a more deformed (larger) surface carries more self-weight
    assert dead_load(SPEC, surface_area=5.0) > dead_load(SPEC, surface_area=4.0)


def test_dead_load_rejects_surface_smaller_than_plan():
    with pytest.raises(ParameterError):
        dead_load(SPEC, surface_area=3.9)


def test_structure_spec_validation():
    for name, value in (("plan_area_a", 0.0), ("thickness_t", -0.01), ("span_L", 0.0),
                        ("unit_weight_rho", 0.0), ("solid_fraction", 0.0)):
        with pytest.raises(ParameterError):
            replace(SPEC, **{name: value})


def test_deflection_limit_values():
    assert deflection_limit(2.0) == 8.0
    assert deflection_limit(0.25) == 1.0
    assert deflection_limit(3.0) == 12.0
    with pytest.raises(ParameterError):
        deflection_limit(0.0)


def test_combined_case_for_group_surfaces(pools42):
    dead_loads = {}
    for group, pool in pools42.items():
        area = measure(pool.surfaces[0]).area_a
        case = combine(SPEC, area)
        variable = case.live_LL + case.snow_SL + case.wind_WL
        assert variable == pytest.approx(7.69, abs=1e-9)
        assert 7.79 <= case.total_TL <= 7.85
        dead_loads[group] = case.dead_DL
    # higher groups deform more, gaining surface area and self-weight
    assert dead_loads[4] > dead_loads[1]
