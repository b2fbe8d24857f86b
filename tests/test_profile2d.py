from __future__ import annotations

import math
import time

import pytest

from chainshell.errors import EnvelopeError, ParameterError
from chainshell.profile2d import (
    DEFAULT_ENVELOPE_TABLE,
    peak_curvature,
    require_feasible,
    sweep_2d,
)
from chainshell.config import Sweep2dBlock
from chainshell.units import Shape

from helpers import profile_curvature, profile_height

SPAN, F_MAX = Sweep2dBlock().span_mm, Sweep2dBlock().frequency_max


def _sweep(envelope):
    """The sweep of a {frequency: max_amplitude} envelope under the
    [sweep2d] frequency_max and span_mm defaults."""
    return sweep_2d(envelope, F_MAX, SPAN)


def _max_feasible(rows):
    """The largest feasible (A, f), as stage_sweep2d picks it."""
    return max((a, f) for a, f, feasible, _ in rows if feasible)


def test_profile_height_examples():
    assert profile_height(0.0, 35.0, 9, SPAN) == 0.0
    crest = SPAN / (4 * 9)
    assert profile_height(crest, 35.0, 9, SPAN) == pytest.approx(35.0, rel=1e-12)
    assert profile_height(SPAN / 20, 35.0, 9, SPAN) == pytest.approx(
        35.0 * math.sin(0.9 * math.pi), rel=1e-12)


def test_profile_height_is_periodic_in_span_over_frequency():
    period = SPAN / 5
    for x in (13.0, 150.0, 333.3, 777.7):
        assert profile_height(x + period, 20.0, 5, SPAN) == pytest.approx(
            profile_height(x, 20.0, 5, SPAN), abs=1e-9)
        assert profile_curvature(x + period, 20.0, 5, SPAN) == pytest.approx(
            profile_curvature(x, 20.0, 5, SPAN), rel=1e-9, abs=1e-12)


def test_curvature_zero_for_flat_profile():
    assert profile_curvature(500.0, 0.0, 4, SPAN) == 0.0
    assert peak_curvature(0.0, 4, SPAN) == 0.0


def test_peak_curvature_closed_form():
    k = 2.0 * math.pi * 9 / SPAN
    assert peak_curvature(35.0, 9, SPAN) == pytest.approx(35.0 * k * k, rel=1e-12)
    # the crest has zero slope, so the full expression collapses to A k^2
    crest = SPAN / (4 * 9)
    assert profile_curvature(crest, 35.0, 9, SPAN) == pytest.approx(
        peak_curvature(35.0, 9, SPAN), rel=1e-9)


def test_curvature_matches_finite_differences():
    # central differences of the height profile, pushed through the same
    # curvature expression; h = 1e-3 mm keeps truncation below 1e-6 relative
    h = 1e-3
    period = SPAN / 9
    for phase in (1 / 8, 1 / 6, 1 / 4, 1 / 3, 0.45):
        x = phase * period
        y0 = profile_height(x - h, 35.0, 9, SPAN)
        y1 = profile_height(x, 35.0, 9, SPAN)
        y2 = profile_height(x + h, 35.0, 9, SPAN)
        yp = (y2 - y0) / (2 * h)
        ypp = (y2 - 2 * y1 + y0) / (h * h)
        fd = abs(ypp) / (1 + yp * yp) ** 1.5
        exact = profile_curvature(x, 35.0, 9, SPAN)
        assert abs(fd - exact) / exact < 1e-6


def test_profile_rejects_out_of_range_inputs():
    with pytest.raises(ParameterError):
        profile_height(-1.0, 10.0, 3, SPAN)
    with pytest.raises(ParameterError):
        profile_height(SPAN + 0.1, 10.0, 3, SPAN)
    with pytest.raises(ParameterError):
        profile_curvature(-0.5, 10.0, 3, SPAN)


def test_default_envelopes_are_downward_closed():
    # any feasible amplitude stays feasible after stepping 5 mm down
    for shape, table in DEFAULT_ENVELOPE_TABLE.items():
        for f in table:
            for amp in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
                if amp <= table[f]:
                    require_feasible(shape, amp - 5.0, f)


def test_envelope_missing_frequency_raises():
    with pytest.raises(ParameterError, match=r"does not cover frequencies \[5, 6, 7"):
        _sweep({3: 15.0, 4: 20.0})
    with pytest.raises(ParameterError, match="no entry for f=11"):
        require_feasible(Shape.RECTANGULAR, 10.0, 11)


def test_require_feasible_matches_the_table():
    # every table entry is the largest feasible amplitude; NaN is refused
    for shape, table in DEFAULT_ENVELOPE_TABLE.items():
        for f, max_a in table.items():
            require_feasible(shape, float(max_a), f)
            with pytest.raises(EnvelopeError):
                require_feasible(shape, max_a + 0.5, f)
    with pytest.raises(EnvelopeError):
        require_feasible(Shape.RECTANGULAR, math.nan, 3)
    # a negative amplitude is refused as such, whatever the frequency
    with pytest.raises(ParameterError, match="amplitude must be non-negative"):
        require_feasible(Shape.RECTANGULAR, -5.0, 12)


def test_sweep_dimensions_and_ordering():
    rows = _sweep(DEFAULT_ENVELOPE_TABLE[Shape.RECTANGULAR])
    # 9 amplitude steps (0..40 by 5) by 8 frequencies (3..10), f fastest
    amplitudes = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    assert [(a, f) for a, f, _, _ in rows] == [(a, f) for a in amplitudes
                                               for f in range(3, 11)]


def test_sweep_feasibility_matches_envelope_table():
    table = DEFAULT_ENVELOPE_TABLE[Shape.RECTANGULAR]
    for amplitude, frequency, feasible, curvature in _sweep(table):
        assert feasible == (amplitude <= table[frequency])
        assert curvature == peak_curvature(amplitude, frequency, SPAN)


def test_sweep_maximum_per_shape():
    assert _max_feasible(_sweep(DEFAULT_ENVELOPE_TABLE[Shape.RECTANGULAR])) == (35.0, 9)
    assert _max_feasible(_sweep(DEFAULT_ENVELOPE_TABLE[Shape.CIRCULAR])) == (25.0, 9)
    assert _max_feasible(_sweep(DEFAULT_ENVELOPE_TABLE[Shape.TRIANGULAR])) == (20.0, 9)


def test_sweep_runs_under_a_second():
    start = time.perf_counter()
    _sweep(DEFAULT_ENVELOPE_TABLE[Shape.RECTANGULAR])
    assert time.perf_counter() - start < 1.0


def test_all_zero_envelope_leaves_only_flat_profiles():
    rows = _sweep({f: 0.0 for f in range(3, 11)})
    assert all(feasible == (a == 0.0) for a, _, feasible, _ in rows)
    assert _max_feasible(rows) == (0.0, 10)
