from __future__ import annotations

import math
import time

import pytest

from chainshell.errors import ParameterError
from chainshell.profile2d import (
    DEFAULT_ENVELOPE_TABLE,
    FeasibilityEnvelope,
    SectionProfile,
    SweepReport,
    default_envelope,
    parse_envelope_file,
    peak_curvature,
    profile_curvature,
    profile_height,
    sweep_2d,
)
from chainshell.config import Sweep2dBlock
from chainshell.units import Shape

SPAN, F_MAX = Sweep2dBlock().span_mm, Sweep2dBlock().frequency_max


def _sweep(shape: Shape, envelope=None):
    """The sweep under the [sweep2d] frequency_max and span_mm defaults."""
    return sweep_2d(shape, envelope or default_envelope(shape), F_MAX, SPAN)


def test_profile_height_examples():
    p = SectionProfile(amplitude_A=35.0, frequency_f=9, span_L=SPAN)
    assert profile_height(0.0, p) == 0.0
    crest = SPAN / (4 * 9)
    assert profile_height(crest, p) == pytest.approx(35.0, rel=1e-12)
    assert profile_height(SPAN / 20, p) == pytest.approx(
        35.0 * math.sin(0.9 * math.pi), rel=1e-12)


def test_profile_height_is_periodic_in_span_over_frequency():
    p = SectionProfile(amplitude_A=20.0, frequency_f=5, span_L=SPAN)
    period = p.span_L / p.frequency_f
    for x in (13.0, 150.0, 333.3, 777.7):
        assert profile_height(x + period, p) == pytest.approx(
            profile_height(x, p), abs=1e-9)
        assert profile_curvature(x + period, p) == pytest.approx(
            profile_curvature(x, p), rel=1e-9, abs=1e-12)


def test_curvature_zero_for_flat_profile():
    p = SectionProfile(amplitude_A=0.0, frequency_f=4, span_L=SPAN)
    assert profile_curvature(500.0, p) == 0.0
    assert peak_curvature(p) == 0.0


def test_peak_curvature_closed_form():
    p = SectionProfile(amplitude_A=35.0, frequency_f=9, span_L=SPAN)
    k = 2.0 * math.pi * 9 / SPAN
    assert peak_curvature(p) == pytest.approx(35.0 * k * k, rel=1e-12)
    # the crest has zero slope, so the full expression collapses to A k^2
    crest = SPAN / (4 * 9)
    assert profile_curvature(crest, p) == pytest.approx(peak_curvature(p), rel=1e-9)


def test_curvature_matches_finite_differences():
    # central differences of the height profile, pushed through the same
    # curvature expression; h = 1e-3 mm keeps truncation below 1e-6 relative
    p = SectionProfile(amplitude_A=35.0, frequency_f=9, span_L=SPAN)
    h = 1e-3
    period = p.span_L / p.frequency_f
    for phase in (1 / 8, 1 / 6, 1 / 4, 1 / 3, 0.45):
        x = phase * period
        y0 = profile_height(x - h, p)
        y1 = profile_height(x, p)
        y2 = profile_height(x + h, p)
        yp = (y2 - y0) / (2 * h)
        ypp = (y2 - 2 * y1 + y0) / (h * h)
        fd = abs(ypp) / (1 + yp * yp) ** 1.5
        exact = profile_curvature(x, p)
        assert abs(fd - exact) / exact < 1e-6


def test_profile_rejects_out_of_range_inputs():
    p = SectionProfile(amplitude_A=10.0, frequency_f=3, span_L=SPAN)
    with pytest.raises(ParameterError):
        profile_height(-1.0, p)
    with pytest.raises(ParameterError):
        profile_height(SPAN + 0.1, p)
    with pytest.raises(ParameterError):
        profile_curvature(-0.5, p)


def test_section_profile_validation():
    with pytest.raises(ParameterError):
        SectionProfile(amplitude_A=45.0, frequency_f=5, span_L=SPAN)
    with pytest.raises(ParameterError):
        SectionProfile(amplitude_A=-1.0, frequency_f=5, span_L=SPAN)
    with pytest.raises(ParameterError):
        SectionProfile(amplitude_A=10.0, frequency_f=2, span_L=SPAN)
    with pytest.raises(ParameterError):
        SectionProfile(amplitude_A=10.0, frequency_f=5, span_L=0.0)


def test_default_envelopes_are_downward_closed():
    # any feasible amplitude stays feasible after stepping 5 mm down
    for shape in Shape:
        env = default_envelope(shape)
        for f in env.frequencies():
            for amp in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
                if env.is_feasible(amp, f) and amp >= 5.0:
                    assert env.is_feasible(amp - 5.0, f)


def test_envelope_missing_frequency_raises():
    env = FeasibilityEnvelope(Shape.RECTANGULAR, ((3, 15.0), (4, 20.0)))
    with pytest.raises(ParameterError):
        env.max_amplitude(9)
    with pytest.raises(ParameterError):
        _sweep(Shape.RECTANGULAR, env)


def test_sweep_dimensions_and_ordering():
    report = _sweep(Shape.RECTANGULAR)
    # 9 amplitude steps (0..40 by 5) by 8 frequencies (3..10)
    assert len(report.cells) == 72
    amplitudes = sorted({c.amplitude_A for c in report.cells})
    assert amplitudes == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    frequencies = sorted({c.frequency_f for c in report.cells})
    assert frequencies == list(range(3, 11))


def test_sweep_feasibility_matches_envelope_table():
    table = DEFAULT_ENVELOPE_TABLE[Shape.RECTANGULAR]
    report = _sweep(Shape.RECTANGULAR)
    for cell in report.cells:
        assert cell.feasible == (cell.amplitude_A <= table[cell.frequency_f])


def test_sweep_maximum_per_shape():
    assert _sweep(Shape.RECTANGULAR).max_feasible_cell == (35.0, 9)
    assert _sweep(Shape.CIRCULAR).max_feasible_cell == (25.0, 9)
    assert _sweep(Shape.TRIANGULAR).max_feasible_cell == (20.0, 9)


def test_sweep_runs_under_a_second():
    start = time.perf_counter()
    _sweep(Shape.RECTANGULAR)
    assert time.perf_counter() - start < 1.0


def test_all_zero_envelope_leaves_only_flat_profiles():
    env = FeasibilityEnvelope(Shape.CIRCULAR,
                              tuple((f, 0.0) for f in range(3, 11)))
    report = _sweep(Shape.CIRCULAR, env)
    assert all(c.feasible == (c.amplitude_A == 0.0) for c in report.cells)
    assert report.max_feasible_cell == (0.0, 10)


def test_empty_report_has_sentinel_maximum():
    assert SweepReport(Shape.CIRCULAR).max_feasible_cell == (0.0, 0)


def test_parse_envelope_file_accepts_comments_and_commas():
    lines = [
        "# per-shape bend limits",
        "",
        "rect, 3, 15",
        "rect 4 20",
        "circ 3 10  # trailing note",
    ]
    tables = parse_envelope_file(lines)
    assert tables[Shape.RECTANGULAR].max_amplitude(3) == 15.0
    assert tables[Shape.RECTANGULAR].max_amplitude(4) == 20.0
    assert tables[Shape.CIRCULAR].max_amplitude(3) == 10.0


def test_parse_envelope_file_reports_line_numbers():
    with pytest.raises(ParameterError, match="line 2"):
        parse_envelope_file(["rect 3 15", "rect 4"])
    with pytest.raises(ParameterError, match="line 1"):
        parse_envelope_file(["rect three 15"])
