from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from chainshell.config import PipelineConfig
from chainshell.errors import EnvelopeError, GeometryError, ParameterError
from chainshell.optimizer import KINDS, AnchorKind, _shelter_grid, _stream_keys, _stream_length
from chainshell.pipeline import pool_grids
from chainshell.shell3d import (
    TriangleMesh,
    base_field,
    control_grid,
    depth_map,
    generate_iterations,
    group_parameters,
    interpolate_surface,
    random_doubles,
    write_mesh,
    write_pgm,
)
from helpers import (CONFIG, check_single_loop, flat_surface, lattice_vertices,
                     per_call_lattice_faces, read_mesh, read_pgm, search_boundary_edges,
                     shelter_control_grid, unique_rows_boundary_edges)

SPAN = CONFIG.gen3d.span_mm


def test_group_parameters_table():
    assert group_parameters(1) == (10.0, 3)
    assert group_parameters(2) == (15.0, 4)
    assert group_parameters(3) == (20.0, 5)
    assert group_parameters(4) == (25.0, 6)
    with pytest.raises(ParameterError):
        group_parameters(0)


def test_base_field_hand_values():
    assert base_field(0.0, 0.0, 20.0, 2, SPAN) == pytest.approx(0.0, abs=1e-12)
    # crest of the sine at x = L/(4f), cosine still 1 at y = 0
    assert base_field(SPAN / 8, 0.0, 20.0, 2, SPAN) == pytest.approx(20.0, rel=1e-12)
    expected = 20.0 * math.sin(math.pi / 2) * math.cos(math.pi / 4)
    assert base_field(SPAN / 8, SPAN / 16, 20.0, 2, SPAN) == pytest.approx(expected,
                                                                           rel=1e-12)


def test_base_field_cosine_symmetry_in_y():
    xs = np.linspace(0.0, SPAN, 17)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    a = base_field(X, Y, 25.0, 6, SPAN)
    b = base_field(X, SPAN - Y, 25.0, 6, SPAN)
    assert np.allclose(a, b, atol=1e-9)


def test_generate_iterations_bit_identical_reruns():
    first = generate_iterations(25.0, 6, n=5, seed=42, span=SPAN)
    second = generate_iterations(25.0, 6, n=5, seed=42, span=SPAN)
    assert first.shape == (5, 6, 6)
    assert first.tobytes() == second.tobytes()


def test_generate_iterations_streams_independent_of_pool_size():
    # iteration k is keyed by (seed, k), not by how many others were drawn
    long = generate_iterations(25.0, 6, n=5, seed=42, span=SPAN)
    short = generate_iterations(25.0, 6, n=4, seed=42, span=SPAN)
    assert np.array_equal(long[3], short[3])


@pytest.mark.parametrize("iteration", [0, 3, 19])
def test_control_grid_is_one_iteration_of_the_pool(iteration):
    # the pipeline's pool, checked against the envelope, over a 1500 mm span
    config = replace(CONFIG, gen3d=replace(CONFIG.gen3d, iterations=20, span_mm=1500.0))
    pool = pool_grids(config, 25.0, 6, 42)
    grid = control_grid(25.0, 6, 42, iteration, span=1500.0)
    assert grid.shape == (6, 6)
    assert grid.tobytes() == pool[iteration].tobytes()


# Keys fixed before any draw: both words at 0 and at 2**64 - 1, a small
# pair, a negative seed, and a study key (seed * 5 + anchor 4) past 2**64
ORACLE_KEYS = [(0, 0), (7, 19), (2**64 - 1, 2**64 - 1), (-5, 3), (2**62 * 5 + 4, 11)]


def numpy_stream(key0: int, key1: int) -> np.random.Generator:
    """numpy's Philox4x64-10 generator on the key (key0, key1) mod 2**64."""
    key = np.array([key0 % 2**64, key1 % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("n", [1, 4, 5, 26, 49])
def test_random_doubles_are_numpys_philox_streams(n):
    # n crosses the four-word block boundaries; every row is drawn in one call
    draws = random_doubles(ORACLE_KEYS, n)
    assert draws.shape == (len(ORACLE_KEYS), n)
    for row, (key0, key1) in zip(draws, ORACLE_KEYS):
        assert row.tobytes() == numpy_stream(key0, key1).random(n).tobytes()


@pytest.mark.parametrize("seed, iteration", [(0, 0), (-5, 3), (2**64 + 7, 19)])
def test_control_grid_is_numpys_uniform_draw(seed, iteration):
    amplitude, frequency = 25.0, 6
    coords = np.linspace(0.0, SPAN, frequency)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    offsets = numpy_stream(seed, iteration).uniform(0.0, amplitude / 5.0,
                                                    size=(frequency, frequency))
    z = base_field(X, Y, amplitude, frequency, SPAN) + offsets
    z[0, :] = z[-1, :] = z[:, 0] = z[:, -1] = 0.0
    grid = control_grid(amplitude, frequency, seed, iteration, SPAN)
    assert grid.tobytes() == z.tobytes()


@pytest.mark.parametrize("seed, kind, iteration", [
    (11, AnchorKind.FOUR, 3), (-5, AnchorKind.ONE, 7), (2**62, AnchorKind.FOUR, 0)])
def test_shelter_control_grid_is_numpys_uniform_draw(seed, kind, iteration):
    config = PipelineConfig()
    block = config.optimizer
    anchor_index = list(AnchorKind).index(kind)
    rng = numpy_stream(seed * 5 + anchor_index, iteration)
    lo = block.amplitude_min_fraction * block.amplitude_cap_m
    amp_m = float(rng.uniform(lo, block.amplitude_cap_m))
    m = block.control_F + 1
    z = rng.uniform(0.0, amp_m * 1000.0, size=(m, m))
    corners = [(0, 0)] if kind is AnchorKind.ONE else [(0, 0), (m - 1, 0), (m - 1, m - 1),
                                                      (0, m - 1)]
    for i, j in corners:
        z[i, j] = 0.0
    grid = shelter_control_grid(config, seed, kind, anchor_index, iteration)
    assert grid.tobytes() == z.tobytes()


def test_shelter_control_grid_is_the_batched_study_draw(optimize_result):
    # the conftest study (default config, seed 11, every stream in one call):
    # its control table, and the one whole-array map of its (L, n) draws,
    # row by row against each row's stream drawn and mapped alone
    config = PipelineConfig()
    block = config.optimizer
    study = optimize_result.study
    n = block.iterations_per_anchor
    assert len(study.ids) == 5 * n
    grids = _shelter_grid(config, study.kinds,
                          random_doubles(_stream_keys(11, n), _stream_length(block)))
    assert grids.shape == study.controls_mm.shape
    for row, (cid, code) in enumerate(zip(study.ids.tolist(), study.kinds.tolist())):
        iteration = int(cid.rsplit("-", 1)[1])
        grid = shelter_control_grid(config, 11, KINDS[code], code, iteration)
        assert grid.tobytes() == study.controls_mm[row].tobytes() == grids[row].tobytes()


@pytest.mark.parametrize("control_F", [1, 4, 7])
def test_shelter_grid_maps_rows_of_any_kind_order(control_F):
    # the anchor clamps follow each row's own kind, in any order of kinds
    config = replace(CONFIG, optimizer=replace(CONFIG.optimizer, control_F=control_F))
    rng = np.random.default_rng(control_F)
    rows = [(int(code), int(it)) for code, it in zip(rng.integers(0, 5, 23),
                                                      rng.integers(0, 100, 23))]
    u = random_doubles([(3 * 5 + code, it) for code, it in rows], _stream_length(config.optimizer))
    grids = _shelter_grid(config, np.array([code for code, _ in rows]), u)
    for grid, (code, it) in zip(grids, rows):
        assert grid.tobytes() == shelter_control_grid(config, 3, KINDS[code], code, it).tobytes()


@pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
def test_a_non_finite_amplitude_is_refused(amplitude):
    # numpy's uniform refused the range; the mapped draws would be NaN
    with pytest.raises(ParameterError):
        control_grid(amplitude, 3, 0, 0, SPAN)
    with pytest.raises(ParameterError):
        generate_iterations(amplitude, 3, n=2, seed=0, span=SPAN)


def test_generate_iterations_offset_bounds_and_anchored_boundary():
    grids = generate_iterations(25.0, 6, n=20, seed=42, span=SPAN)
    coords = np.linspace(0.0, SPAN, 6)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    base = base_field(X, Y, 25.0, 6, SPAN)
    assert grids.shape == (20, 6, 6)
    for z in grids:
        assert np.all(z[0, :] == 0.0) and np.all(z[-1, :] == 0.0)
        assert np.all(z[:, 0] == 0.0) and np.all(z[:, -1] == 0.0)
        offsets = (z - base)[1:-1, 1:-1]
        assert np.all(offsets >= 0.0)
        assert np.all(offsets <= 25.0 / 5.0)


def test_generate_iterations_zero_amplitude_is_flat():
    grid = generate_iterations(0.0, 4, n=1, seed=7, span=SPAN)[0]
    assert np.all(grid == 0.0)


def test_generate_iterations_envelope_and_parameter_errors():
    # the pipeline checks a pool's (A, f) against the envelope before it is drawn
    with pytest.raises(EnvelopeError) as err:
        pool_grids(CONFIG, 40.0, 3, 0)
    assert str(err.value) == ("(A=40.0 mm, f=3) exceeds the feasibility envelope "
                              "for rectangular (max 15 mm)")
    with pytest.raises(ParameterError):
        generate_iterations(25.0, 6, n=0, seed=0, span=SPAN)
    with pytest.raises(ParameterError):
        generate_iterations(-1.0, 6, n=1, seed=0, span=SPAN)
    with pytest.raises(ParameterError):
        generate_iterations(10.0, 1, n=1, seed=0, span=SPAN)


def test_control_grid_validation():
    # a surface needs a square grid of at least 2 x 2 control heights
    for z in (np.zeros((1, 1)), np.zeros((5, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ParameterError, match="control heights must be"):
            interpolate_surface(z, SPAN, resolution=8)


def test_flat_surface_area_and_perimeter():
    surface = flat_surface()
    assert surface.mesh.area() == pytest.approx(4.0, rel=1e-9)
    assert surface.mesh.boundary_length() == pytest.approx(8.0, rel=1e-9)
    check_single_loop(surface.mesh.boundary_edges())


def test_lattice_mesh_layout():
    coords = np.array([0.0, 1.0, 3.0])
    heights = np.arange(9.0).reshape(3, 3)
    mesh = TriangleMesh(coords_m=coords, heights_m=heights)
    vertices, faces = read_mesh(write_mesh(mesh))
    # vertex i * n + j sits at (x_i, y_j, heights[i, j])
    assert vertices[5].tolist() == [1.0, 3.0, 5.0]
    assert len(faces) == 2 * 2 * 2
    # counter-clockwise seen from +z: every face normal points up
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    assert (normals[:, 2] > 0).all()
    assert mesh.boundary_length() == pytest.approx(
        2 * (np.hypot(1, 1) + np.hypot(2, 1) + np.hypot(1, 3) + np.hypot(2, 3)))


def test_interpolation_passes_through_control_points():
    z = np.zeros((5, 5))
    z[2, 2] = 30.0
    surface = interpolate_surface(z, SPAN, resolution=65)
    assert float(surface.evaluate(1000.0, 1000.0)[0, 0]) == pytest.approx(30.0, abs=1e-6)
    assert float(surface.evaluate(0.0, 0.0)[0, 0]) == pytest.approx(0.0, abs=1e-6)


def test_dense_control_grid_tracks_analytic_field():
    # sampling the field itself onto control grids of rising density must
    # converge on it at the cubic-spline rate; at 97x97 the worst error
    # sits under the 0.5 mm print tolerance everywhere
    fine = np.linspace(0.0, SPAN, 321)
    FX, FY = np.meshgrid(fine, fine, indexing="ij")
    exact = base_field(FX, FY, 35.0, 9, SPAN)
    errs = {}
    for n in (49, 97):
        coords = np.linspace(0.0, SPAN, n)
        X, Y = np.meshgrid(coords, coords, indexing="ij")
        surface = interpolate_surface(base_field(X, Y, 35.0, 9, SPAN), SPAN, resolution=97)
        errs[n] = np.max(np.abs(surface.evaluate(fine, fine) - exact))
    assert errs[97] < 0.5
    assert errs[49] > 8.0 * errs[97]


def test_surface_area_at_least_plan_area(pools42):
    for pool in pools42.values():
        for surface in pool.surfaces[:3]:
            assert surface.mesh.area() > 4.0
            check_single_loop(surface.mesh.boundary_edges())


def test_area_converges_under_resolution_doubling():
    for group in (1, 2, 3, 4):
        amplitude, frequency = group_parameters(group)
        grid = generate_iterations(amplitude, frequency, n=1, seed=42, span=SPAN)[0]
        coarse = interpolate_surface(grid, SPAN, resolution=64).mesh.area()
        fine = interpolate_surface(grid, SPAN, resolution=128).mesh.area()
        assert abs(fine - coarse) / coarse < 0.002


def test_interpolate_surface_rejects_too_coarse_resolution():
    z = np.zeros((5, 5))
    with pytest.raises(ParameterError):
        interpolate_surface(z, SPAN, resolution=4)


def test_spline_queries_keep_fitpacks_input_contract():
    z = np.zeros((4, 4))
    z[1:3, 1:3] = 10.0
    surface = interpolate_surface(z, SPAN, resolution=9)
    coords = np.linspace(0.0, 2000.0, 5)
    for axis in ("z", "X", ""):
        with pytest.raises(ParameterError, match="axis must be 'x' or 'y'"):
            surface.gradient(coords, coords, axis=axis)
    with pytest.raises(ParameterError, match="increasing order"):
        surface.evaluate(coords[::-1], coords)
    with pytest.raises(ParameterError, match="increasing order"):
        surface.gradient(coords, coords[::-1], axis="y")
    linear = interpolate_surface(np.zeros((2, 2)), SPAN, resolution=4)
    for axis in ("x", "y"):
        with pytest.raises(ParameterError, match="degree-1 spline"):
            linear.gradient(coords, coords, axis=axis)
    assert linear.evaluate(coords, coords).shape == (5, 5)


def test_mesh_boundary_edge_and_loop_errors():
    # the general-mesh oracles that vouch for every lattice's boundary must
    # reject what is not one open sheet: one edge shared by three faces is
    # not a manifold surface
    with pytest.raises(GeometryError, match="non-manifold"):
        search_boundary_edges(np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
    with pytest.raises(GeometryError, match="non-manifold"):
        unique_rows_boundary_edges(np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))

    # a closed tetrahedron has no boundary loop at all
    tet_f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    with pytest.raises(GeometryError, match="no boundary"):
        check_single_loop(search_boundary_edges(tet_f))

    # two disjoint triangles form two separate loops
    two_f = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(GeometryError, match="multiple loops"):
        check_single_loop(search_boundary_edges(two_f))

    # a bow tie (two triangles sharing one vertex) is not a simple loop
    with pytest.raises(GeometryError, match="degree"):
        check_single_loop(search_boundary_edges(np.array([[0, 1, 2], [0, 3, 4]])))


def test_depth_map_flat_is_uniform_white():
    image = depth_map(flat_surface(), resolution=64)
    assert image.shape == (64, 64)
    assert image.dtype == np.uint8
    assert np.all(image == 255)


def test_depth_map_peak_is_black_and_range_valid():
    z = np.zeros((5, 5))
    z[2, 2] = 30.0
    surface = interpolate_surface(z, SPAN, resolution=65)
    image = depth_map(surface, resolution=65)
    assert image.min() == 0
    assert image.max() == 255  # boundary stays at ground level


def test_depth_map_invariant_under_height_scaling():
    z = np.zeros((5, 5))
    z[1, 2] = 12.0
    z[3, 3] = 25.0
    a = depth_map(interpolate_surface(z, SPAN, resolution=65), 64)
    b = depth_map(interpolate_surface(z * 2.0, SPAN, resolution=65), 64)
    assert np.array_equal(a, b)


def test_mesh_roundtrip_through_text():
    surface = flat_surface(F=2, resolution=5)
    vertices, faces = read_mesh(write_mesh(surface.mesh))
    assert np.allclose(vertices, lattice_vertices(surface.mesh), rtol=1e-9, atol=1e-12)
    assert np.array_equal(faces, per_call_lattice_faces(5))


def test_pgm_roundtrip_is_exact():
    z = np.zeros((5, 5))
    z[2, 1] = 18.0
    image = depth_map(interpolate_surface(z, SPAN, resolution=33), 32)
    data = write_pgm(image)
    assert data.startswith(b"P5\n32 32\n255\n")
    assert np.array_equal(read_pgm(data), image)
