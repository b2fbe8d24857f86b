from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from chainshell.errors import ParameterError
from chainshell.filtering import (
    SurfaceMetrics,
    auto_tolerance_from_metrics,
    filter_surfaces,
    measure,
    select_indices,
)
from chainshell.shell3d import TriangleMesh

from helpers import flat_surface


def _metrics(pairs):
    return [SurfaceMetrics(perimeter_P=p, area_a=a) for p, a in pairs]


def test_measure_flat_surface():
    metrics = measure(flat_surface())
    assert metrics.perimeter_P == pytest.approx(8.0, rel=1e-9)
    assert metrics.area_a == pytest.approx(4.0, rel=1e-9)


def test_measure_scales_with_plan_size():
    metrics = measure(flat_surface(span_mm=4000.0))
    assert metrics.perimeter_P == pytest.approx(16.0, rel=1e-9)
    assert metrics.area_a == pytest.approx(16.0, rel=1e-9)


def test_measure_invariant_under_rigid_motion(pools42):
    surface = pools42[4].surfaces[0]
    before = measure(surface)
    angle = math.radians(30.0)
    rot = np.array([[math.cos(angle), -math.sin(angle), 0.0],
                    [math.sin(angle), math.cos(angle), 0.0],
                    [0.0, 0.0, 1.0]])
    moved = surface.mesh.vertices @ rot.T + np.array([3.0, -2.0, 5.0])
    moved_surface = replace(surface, mesh=TriangleMesh(moved, surface.mesh.faces))
    after = measure(moved_surface)
    assert after.perimeter_P == pytest.approx(before.perimeter_P, rel=1e-9)
    assert after.area_a == pytest.approx(before.area_a, rel=1e-9)


def test_measure_finds_the_boundary_once(monkeypatch):
    calls = []
    find = TriangleMesh.boundary_edges

    def counted(mesh):
        calls.append(mesh)
        return find(mesh)

    monkeypatch.setattr(TriangleMesh, "boundary_edges", counted)
    metrics = measure(flat_surface())
    assert len(calls) == 1
    assert metrics.perimeter_P == pytest.approx(8.0, rel=1e-9)


def test_select_indices_greedy_with_zero_tolerance():
    # zero tolerances treat any bitwise difference as distinct
    metrics = _metrics([(8.0, 4.0), (8.1, 4.0), (8.2, 4.0), (8.3, 4.0), (8.4, 4.0)])
    assert select_indices(metrics, 0.0, 0.0, k=4) == [0, 1, 2, 3]


def test_select_indices_skips_near_duplicates():
    metrics = _metrics([(8.00, 4.00), (8.004, 4.00), (8.20, 4.00),
                        (8.21, 4.30), (8.40, 4.00)])
    # 0.01 m perimeter tolerance knocks out index 1; index 3 differs in area
    assert select_indices(metrics, 0.01, 0.01, k=4) == [0, 2, 3, 4]


def test_select_indices_validation():
    metrics = _metrics([(8.0, 4.0)])
    with pytest.raises(ParameterError):
        select_indices(metrics, -0.1, 0.0, k=1)
    with pytest.raises(ParameterError):
        select_indices(metrics, 0.0, 0.0, k=0)
    with pytest.raises(ParameterError):
        filter_surfaces([])


def test_auto_tolerance_without_halving_is_two_percent_of_medians():
    # widely spread pool: the opening tolerance already yields k picks
    metrics = _metrics([(10.0, 5.0), (20.0, 10.0), (30.0, 15.0), (40.0, 20.0)])
    dP, da = auto_tolerance_from_metrics(metrics, k=3)
    assert dP == pytest.approx(0.02 * 25.0, rel=1e-12)
    assert da == pytest.approx(0.02 * 12.5, rel=1e-12)


def test_auto_tolerance_floors_to_zero_for_identical_pool():
    metrics = _metrics([(8.0, 4.0)] * 6)
    assert auto_tolerance_from_metrics(metrics, k=4) == (0.0, 0.0)


def test_filter_identical_pool_keeps_single_surface():
    surfaces = [flat_surface(F=2, resolution=9)] * 20
    outcome = filter_surfaces([measure(s) for s in surfaces], k=4)
    assert outcome.kept_indices == [0]
    assert (outcome.dP, outcome.da) == (0.0, 0.0)


def test_filter_group4_pool_keeps_four_distinct(pools42):
    outcome = filter_surfaces([measure(s) for s in pools42[4].surfaces], k=4)
    assert len(outcome.kept_indices) == 4
    assert outcome.kept_indices == [0, 2, 4, 14]
    kept = [outcome.metrics[i] for i in outcome.kept_indices]
    for i, m1 in enumerate(kept):
        for m2 in kept[i + 1:]:
            assert (abs(m1.perimeter_P - m2.perimeter_P) > outcome.dP
                    or abs(m1.area_a - m2.area_a) > outcome.da)


def test_filter_group1_pool_falls_back_to_zero_tolerance(pools42):
    # frequency-3 fields are nearly identical, so the tolerance bottoms out
    outcome = filter_surfaces([measure(s) for s in pools42[1].surfaces], k=4)
    assert (outcome.dP, outcome.da) == (0.0, 0.0)
    assert outcome.kept_indices == [0, 1, 2, 3]


def test_filter_explicit_tolerances_pass_through(pools42):
    outcome = filter_surfaces([measure(s) for s in pools42[4].surfaces], k=4,
                              dP=0.0, da=0.0)
    assert outcome.kept_indices == [0, 1, 2, 3]
    assert (outcome.dP, outcome.da) == (0.0, 0.0)


def test_filter_outcome_metrics_cover_whole_pool(pools42):
    surfaces = pools42[3].surfaces
    outcome = filter_surfaces([measure(s) for s in surfaces], k=4)
    assert len(outcome.metrics) == len(surfaces)
    assert outcome.kept_indices == sorted(outcome.kept_indices)
    assert all(0 <= i < len(surfaces) for i in outcome.kept_indices)
