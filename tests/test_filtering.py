from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainshell import shell3d
from chainshell.errors import ParameterError
from chainshell.filtering import (
    SurfaceMetrics,
    _median,
    auto_tolerance_from_metrics,
    filter_surfaces,
    measure,
    select_indices,
)
from chainshell.shell3d import TriangleMesh

from helpers import (PROPERTY, edge_length, flat_surface, gather_area, lattice_vertices,
                     per_call_lattice_faces, search_boundary_edges)


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
    # a moved lattice is no longer a height field over the plan: measure
    # it with the general-mesh oracles, which match measure bit for bit
    vertices = lattice_vertices(surface.mesh)
    faces = per_call_lattice_faces(len(surface.mesh.coords_m))
    edges = search_boundary_edges(faces)
    assert (edge_length(vertices, edges), gather_area(vertices, faces)) == (
        before.perimeter_P, before.area_a)
    moved = vertices @ rot.T + np.array([3.0, -2.0, 5.0])
    assert edge_length(moved, edges) == pytest.approx(before.perimeter_P, rel=1e-9)
    assert gather_area(moved, faces) == pytest.approx(before.area_a, rel=1e-9)


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


def test_measuring_a_pool_of_one_lattice_searches_its_boundary_once(pools42):
    pool = pools42[3].surfaces
    assert len(pool) == 20
    shell3d._perimeter_edges.cache_clear()
    shell3d._plan_steps.cache_clear()
    metrics = [measure(surface) for surface in pool]
    assert shell3d._perimeter_edges.cache_info().misses == 1
    assert shell3d._plan_steps.cache_info().misses == 1
    assert len({m.area_a for m in metrics}) > 1  # each surface its own area


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
        filter_surfaces([], k=1)


def test_auto_tolerance_without_halving_is_two_percent_of_medians():
    # widely spread pool: the opening tolerance already yields k picks
    metrics = _metrics([(10.0, 5.0), (20.0, 10.0), (30.0, 15.0), (40.0, 20.0)])
    dP, da = auto_tolerance_from_metrics(metrics, k=3)
    assert dP == pytest.approx(0.02 * 25.0, rel=1e-12)
    assert da == pytest.approx(0.02 * 12.5, rel=1e-12)


# finite values from a small pool, so lists repeat values (signed zeros too)
@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.5, 2.0, 1e308]),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
def test_median_equals_numpy_median_bitwise(values):
    with np.errstate(over="ignore"):  # two values near the float maximum
        ours, oracle = _median(values), float(np.median(values))
    assert ours == oracle and math.copysign(1.0, ours) == math.copysign(1.0, oracle)


def test_auto_tolerance_floors_to_zero_for_identical_pool():
    metrics = _metrics([(8.0, 4.0)] * 6)
    assert auto_tolerance_from_metrics(metrics, k=4) == (0.0, 0.0)


def test_filter_identical_pool_keeps_single_surface():
    surfaces = [flat_surface(F=2, resolution=9)] * 20
    assert filter_surfaces([measure(s) for s in surfaces], k=4) == ([0], 0.0, 0.0)


def test_filter_group4_pool_keeps_four_distinct(pools42):
    metrics = [measure(s) for s in pools42[4].surfaces]
    kept, dP, da = filter_surfaces(metrics, k=4)
    assert kept == [0, 2, 4, 14]
    chosen = [metrics[i] for i in kept]
    for i, m1 in enumerate(chosen):
        for m2 in chosen[i + 1:]:
            assert (abs(m1.perimeter_P - m2.perimeter_P) > dP
                    or abs(m1.area_a - m2.area_a) > da)


def test_filter_group1_pool_falls_back_to_zero_tolerance(pools42):
    # frequency-3 fields are nearly identical, so the tolerance bottoms out
    kept, dP, da = filter_surfaces([measure(s) for s in pools42[1].surfaces], k=4)
    assert (dP, da) == (0.0, 0.0)
    assert kept == [0, 1, 2, 3]


def test_filter_explicit_tolerances_pass_through(pools42):
    assert filter_surfaces([measure(s) for s in pools42[4].surfaces], k=4,
                           dP=0.0, da=0.0) == ([0, 1, 2, 3], 0.0, 0.0)


def test_filter_outcome_metrics_cover_whole_pool(pools42):
    surfaces = pools42[3].surfaces
    kept, _, _ = filter_surfaces([measure(s) for s in surfaces], k=4)
    assert len(kept) == 4
    assert kept == sorted(set(kept))
    assert all(0 <= i < len(surfaces) for i in kept)
