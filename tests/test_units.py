from __future__ import annotations

import math

import pytest

from chainshell.config import UnitBlock
from chainshell.errors import InfeasibleError, ParameterError
from chainshell.units import (
    STANDARD_DIMENSIONS,
    Shape,
    UnitCell,
    calibrate_pitch,
    moment_of_inertia,
    sheet_weight,
    solid_to_gap_ratio,
    standard_cell,
    unit_solid_volume,
)

from helpers import raster_solid_fraction

RATIO, DENSITY = UnitBlock().target_ratio, UnitBlock().density_g_cm3


def test_unit_cell_rejects_degenerate_dimensions():
    with pytest.raises(ParameterError):
        UnitCell(Shape.CIRCULAR, 11.0, 0.0)
    with pytest.raises(ParameterError):
        UnitCell(Shape.CIRCULAR, 11.0, -1.0)
    with pytest.raises(ParameterError):
        UnitCell(Shape.CIRCULAR, 1.0, 1.0)  # L must exceed d
    with pytest.raises(ParameterError):
        UnitCell(Shape.CIRCULAR, 11.0, 1.0, cell_pitch=0.0)


def test_centreline_lengths_per_shape():
    assert UnitCell(Shape.TRIANGULAR, 7.5, 1.0).centreline_length() == 22.5
    assert UnitCell(Shape.CIRCULAR, 11.0, 1.0).centreline_length() == 11.0
    assert UnitCell(Shape.RECTANGULAR, 11.0, 1.0).centreline_length() == 44.0


def test_solid_to_gap_ratio_square_closed_form():
    # solid area 4 * 11 * 1 = 44 mm2; pitch sqrt(550) makes the cell 550 mm2
    cell = UnitCell(Shape.RECTANGULAR, 11.0, 1.0, cell_pitch=math.sqrt(550.0))
    assert solid_to_gap_ratio(cell) == pytest.approx(0.08, rel=1e-12)


def test_solid_to_gap_ratio_requires_pitch_and_containment():
    with pytest.raises(ParameterError):
        solid_to_gap_ratio(UnitCell(Shape.RECTANGULAR, 11.0, 1.0))
    # solid 44 mm2 cannot fit a 36 mm2 cell
    with pytest.raises(ParameterError):
        solid_to_gap_ratio(UnitCell(Shape.RECTANGULAR, 11.0, 1.0, cell_pitch=6.0))


def test_solid_to_gap_ratio_strictly_decreases_with_pitch():
    cell = UnitCell(Shape.TRIANGULAR, 7.5, 1.0)
    ratios = [solid_to_gap_ratio(cell.with_pitch(p))
              for p in (9.0, 12.0, 16.0, 23.0, 40.0)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_calibrate_pitch_matches_closed_forms():
    # ratio = solid / pitch^2, so the target pitch is sqrt(solid / ratio)
    rect = UnitCell(Shape.RECTANGULAR, 11.0, 1.0)
    assert calibrate_pitch(rect, RATIO) == pytest.approx(math.sqrt(44.0 / RATIO), abs=1e-3)
    tri = UnitCell(Shape.TRIANGULAR, 7.5, 1.0)
    assert calibrate_pitch(tri, RATIO) == pytest.approx(math.sqrt(22.5 / RATIO), abs=1e-3)
    circ = UnitCell(Shape.CIRCULAR, 11.0, 1.0)
    assert calibrate_pitch(circ, RATIO) == pytest.approx(math.sqrt(11.0 / RATIO), abs=1e-3)


def test_calibrate_pitch_roundtrip_across_dimension_range():
    # slender rings (large L, thin rod) cannot reach the ratio at any legal
    # pitch; those combinations must refuse instead of returning junk
    for shape in Shape:
        for L in (5.0, 11.0, 20.0):
            for d in (0.5, 1.0, 2.0):
                if L <= d:
                    continue
                cell = UnitCell(shape, L, d)
                ceiling = solid_to_gap_ratio(
                    cell.with_pitch(cell.footprint_extent()))
                if ceiling < RATIO:
                    with pytest.raises(InfeasibleError):
                        calibrate_pitch(cell, RATIO)
                    continue
                pitch = calibrate_pitch(cell, RATIO)
                ratio = solid_to_gap_ratio(cell.with_pitch(pitch))
                assert abs(ratio - RATIO) <= 1e-6


def test_calibrate_pitch_rejects_unreachable_targets():
    cell = UnitCell(Shape.TRIANGULAR, 7.5, 1.0)
    with pytest.raises(InfeasibleError):
        calibrate_pitch(cell, target_ratio=1.0)
    with pytest.raises(InfeasibleError):
        calibrate_pitch(cell, target_ratio=0.0)
    # at the footprint floor (8.5 mm) the triangle only reaches 22.5/72.25
    with pytest.raises(InfeasibleError):
        calibrate_pitch(cell, target_ratio=0.5)


def test_calibrated_ratio_agrees_with_raster_oracle():
    for shape in Shape:
        cell = standard_cell(shape, RATIO)
        model = solid_to_gap_ratio(cell)
        raster = raster_solid_fraction(cell, resolution=2048)
        assert abs(model - raster) <= 0.005, shape


def test_moment_of_inertia_formulas():
    tri = UnitCell(Shape.TRIANGULAR, 7.5, 1.0)
    assert moment_of_inertia(tri) == pytest.approx(
        math.sqrt(3.0) / 36.0 * 7.5 ** 3 * 1.0, rel=1e-12)
    radius = 11.0 / (2.0 * math.pi)
    assert moment_of_inertia(UnitCell(Shape.CIRCULAR, 11.0, 1.0)) == pytest.approx(
        0.5 * radius ** 3 * 1.0 ** 2, rel=1e-12)
    assert moment_of_inertia(UnitCell(Shape.CIRCULAR, 11.0, 2.0)) == pytest.approx(
        0.5 * radius ** 3 * 2.0 ** 2, rel=1e-12)
    rect = UnitCell(Shape.RECTANGULAR, 11.0, 1.0)
    assert moment_of_inertia(rect) == pytest.approx(2.0 * 11.0 ** 4 / 12.0, rel=1e-12)


def test_moment_of_inertia_ordering_at_catalog_dimensions():
    values = {shape: moment_of_inertia(UnitCell(shape, *STANDARD_DIMENSIONS[shape.value]))
              for shape in Shape}
    assert values[Shape.RECTANGULAR] > values[Shape.TRIANGULAR] > values[Shape.CIRCULAR]


def test_unit_solid_volume_is_centreline_times_rod_section():
    cell = UnitCell(Shape.RECTANGULAR, 11.0, 1.0)
    assert unit_solid_volume(cell) == pytest.approx(
        44.0 * math.pi * 0.25, rel=1e-12)


def test_sheet_weight_hand_value():
    cell = UnitCell(Shape.RECTANGULAR, 11.0, 1.0)
    expected = 9 * 44.0 * math.pi * 0.25 * DENSITY * 1e-3
    assert sheet_weight(cell, 3, 3, DENSITY) == pytest.approx(expected, rel=1e-12)


def test_sheet_weight_linear_in_count_and_density():
    cell = UnitCell(Shape.CIRCULAR, 11.0, 1.0)
    base = sheet_weight(cell, 2, 5, DENSITY)
    assert sheet_weight(cell, 4, 5, DENSITY) == pytest.approx(2 * base, rel=1e-12)
    assert sheet_weight(cell, 2, 5, 2 * DENSITY) == pytest.approx(2 * base, rel=1e-12)
    assert sheet_weight(cell, 0, 5, DENSITY) == 0.0


def test_sheet_weight_tracks_centreline_length():
    # equal rod diameter and density, so grams order by loop length:
    # one 11 mm circumference < three 7.5 mm sides < four 11 mm sides
    weights = {shape: sheet_weight(UnitCell(shape, *STANDARD_DIMENSIONS[shape.value]),
                                   10, 10, DENSITY)
               for shape in Shape}
    assert weights[Shape.CIRCULAR] < weights[Shape.TRIANGULAR] < weights[Shape.RECTANGULAR]


def test_sheet_spec_validation():
    cell = UnitCell(Shape.CIRCULAR, 11.0, 1.0)
    with pytest.raises(ParameterError):
        sheet_weight(cell, -1, 3, DENSITY)
    with pytest.raises(ParameterError):
        sheet_weight(cell, 3, -1, DENSITY)
    with pytest.raises(ParameterError):
        sheet_weight(cell, 3, 3, 0.0)


def test_standard_cell_calibrates_when_pitch_omitted():
    cell = standard_cell(Shape.TRIANGULAR, RATIO)
    assert cell.cell_pitch is not None
    assert solid_to_gap_ratio(cell) == pytest.approx(RATIO, abs=1e-6)
    fixed = standard_cell(Shape.TRIANGULAR, RATIO, pitch=20.0)
    assert fixed.cell_pitch == 20.0
