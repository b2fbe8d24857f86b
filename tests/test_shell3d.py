from __future__ import annotations

import io
import math

import numpy as np
import pytest

from chainshell.errors import EnvelopeError, GeometryError, ParameterError
from chainshell.profile2d import default_envelope
from chainshell.shell3d import (
    ControlGrid,
    TriangleMesh,
    base_field,
    depth_map,
    generate_iterations,
    group_parameters,
    interpolate_surface,
    lattice_mesh,
    read_mesh,
    read_pgm,
    write_mesh,
    write_pgm,
)
from chainshell.units import Shape

from helpers import flat_surface, grid_from_z


def test_group_parameters_table():
    assert group_parameters(1) == (10.0, 3)
    assert group_parameters(2) == (15.0, 4)
    assert group_parameters(3) == (20.0, 5)
    assert group_parameters(4) == (25.0, 6)
    with pytest.raises(ParameterError):
        group_parameters(0)


def test_base_field_hand_values():
    assert base_field(0.0, 0.0, 20.0, 2) == pytest.approx(0.0, abs=1e-12)
    # crest of the sine at x = L/(4f), cosine still 1 at y = 0
    assert base_field(250.0, 0.0, 20.0, 2) == pytest.approx(20.0, rel=1e-12)
    expected = 20.0 * math.sin(math.pi / 2) * math.cos(math.pi / 4)
    assert base_field(250.0, 125.0, 20.0, 2) == pytest.approx(expected, rel=1e-12)


def test_base_field_cosine_symmetry_in_y():
    xs = np.linspace(0.0, 2000.0, 17)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    a = base_field(X, Y, 25.0, 6)
    b = base_field(X, 2000.0 - Y, 25.0, 6)
    assert np.allclose(a, b, atol=1e-9)


def test_generate_iterations_bit_identical_reruns():
    first = generate_iterations(25.0, 6, n=5, seed=42)
    second = generate_iterations(25.0, 6, n=5, seed=42)
    for g1, g2 in zip(first, second):
        assert np.array_equal(g1.z_values, g2.z_values)


def test_generate_iterations_streams_independent_of_pool_size():
    # iteration k is keyed by (seed, k), not by how many others were drawn
    long = generate_iterations(25.0, 6, n=5, seed=42)
    short = generate_iterations(25.0, 6, n=4, seed=42)
    assert np.array_equal(long[3].z_values, short[3].z_values)


def test_generate_iterations_offset_bounds_and_anchored_boundary():
    grids = generate_iterations(25.0, 6, n=20, seed=42)
    coords = np.linspace(0.0, 2000.0, 6)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    base = base_field(X, Y, 25.0, 6)
    for grid in grids:
        assert grid.z_values.shape == (6, 6)
        assert grid.F == 5
        z = grid.z_values
        assert np.all(z[0, :] == 0.0) and np.all(z[-1, :] == 0.0)
        assert np.all(z[:, 0] == 0.0) and np.all(z[:, -1] == 0.0)
        offsets = (z - base)[1:-1, 1:-1]
        assert np.all(offsets >= 0.0)
        assert np.all(offsets <= 25.0 / 5.0)


def test_generate_iterations_zero_amplitude_is_flat():
    grid = generate_iterations(0.0, 4, n=1, seed=7)[0]
    assert np.all(grid.z_values == 0.0)


def test_generate_iterations_envelope_and_parameter_errors():
    env = default_envelope(Shape.RECTANGULAR)
    with pytest.raises(EnvelopeError):
        generate_iterations(40.0, 3, n=1, envelope=env)
    with pytest.raises(ParameterError):
        generate_iterations(25.0, 6, n=0)
    with pytest.raises(ParameterError):
        generate_iterations(-1.0, 6, n=1)
    with pytest.raises(ParameterError):
        generate_iterations(10.0, 1, n=1)


def test_control_grid_validation():
    with pytest.raises(ParameterError):
        ControlGrid(F=0, amplitude_A=0.0, span_L=2000.0,
                    z_values=np.zeros((1, 1)), seed=0, iteration=0)
    with pytest.raises(ParameterError):
        ControlGrid(F=4, amplitude_A=0.0, span_L=2000.0,
                    z_values=np.zeros((3, 3)), seed=0, iteration=0)


def test_flat_surface_area_and_perimeter():
    surface = flat_surface()
    assert surface.mesh.area() == pytest.approx(4.0, rel=1e-9)
    assert surface.mesh.boundary_length() == pytest.approx(8.0, rel=1e-9)
    surface.mesh.require_single_boundary_loop()


def test_lattice_mesh_layout():
    coords = np.array([0.0, 1.0, 3.0])
    heights = np.arange(9.0).reshape(3, 3)
    mesh = lattice_mesh(coords, heights)
    # vertex i * n + j sits at (x_i, y_j, heights[i, j])
    assert mesh.vertices[5].tolist() == [1.0, 3.0, 5.0]
    assert len(mesh.faces) == 2 * 2 * 2
    # counter-clockwise seen from +z: every face normal points up
    a, b, c = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    assert (normals[:, 2] > 0).all()
    assert mesh.boundary_length() == pytest.approx(
        2 * (np.hypot(1, 1) + np.hypot(2, 1) + np.hypot(1, 3) + np.hypot(2, 3)))


def test_interpolation_passes_through_control_points():
    z = np.zeros((5, 5))
    z[2, 2] = 30.0
    surface = interpolate_surface(grid_from_z(z), resolution=65)
    assert float(surface.evaluate(1000.0, 1000.0)[0, 0]) == pytest.approx(30.0, abs=1e-6)
    assert float(surface.evaluate(0.0, 0.0)[0, 0]) == pytest.approx(0.0, abs=1e-6)


def test_dense_control_grid_tracks_analytic_field():
    # sampling the field itself onto control grids of rising density must
    # converge on it at the cubic-spline rate; at 97x97 the worst error
    # sits under the 0.5 mm print tolerance everywhere
    fine = np.linspace(0.0, 2000.0, 321)
    FX, FY = np.meshgrid(fine, fine, indexing="ij")
    exact = base_field(FX, FY, 35.0, 9)
    errs = {}
    for n in (49, 97):
        coords = np.linspace(0.0, 2000.0, n)
        X, Y = np.meshgrid(coords, coords, indexing="ij")
        grid = grid_from_z(base_field(X, Y, 35.0, 9), amplitude=35.0)
        surface = interpolate_surface(grid, resolution=97)
        errs[n] = np.max(np.abs(surface.evaluate(fine, fine) - exact))
    assert errs[97] < 0.5
    assert errs[49] > 8.0 * errs[97]


def test_surface_area_at_least_plan_area(pools42):
    for pool in pools42.values():
        for surface in pool.surfaces[:3]:
            assert surface.mesh.area() > 4.0
            surface.mesh.require_single_boundary_loop()


def test_area_converges_under_resolution_doubling():
    for group in (1, 2, 3, 4):
        amplitude, frequency = group_parameters(group)
        grid = generate_iterations(amplitude, frequency, n=1, seed=42)[0]
        coarse = interpolate_surface(grid, resolution=64).mesh.area()
        fine = interpolate_surface(grid, resolution=128).mesh.area()
        assert abs(fine - coarse) / coarse < 0.002


def test_interpolate_surface_rejects_too_coarse_resolution():
    z = np.zeros((5, 5))
    with pytest.raises(ParameterError):
        interpolate_surface(grid_from_z(z), resolution=4)


def test_mesh_boundary_edge_and_loop_errors():
    # one edge shared by three faces is not a manifold surface
    vertices = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0],
                         [0, 0, 1.0], [1.0, 1.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(GeometryError):
        TriangleMesh(vertices, faces).boundary_edges()

    # a closed tetrahedron has no boundary loop at all
    tet_v = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    tet_f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    with pytest.raises(GeometryError):
        TriangleMesh(tet_v, tet_f).require_single_boundary_loop()

    # two disjoint triangles form two separate loops
    two_v = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0],
                      [5.0, 0, 0], [6.0, 0, 0], [5.0, 1.0, 0]])
    two_f = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(GeometryError):
        TriangleMesh(two_v, two_f).require_single_boundary_loop()


def test_depth_map_flat_is_uniform_white():
    image = depth_map(flat_surface(), resolution=64)
    assert image.shape == (64, 64)
    assert image.dtype == np.uint8
    assert np.all(image == 255)


def test_depth_map_peak_is_black_and_range_valid():
    z = np.zeros((5, 5))
    z[2, 2] = 30.0
    surface = interpolate_surface(grid_from_z(z), resolution=65)
    image = depth_map(surface, resolution=65)
    assert image.min() == 0
    assert image.max() == 255  # boundary stays at ground level


def test_depth_map_invariant_under_height_scaling():
    z = np.zeros((5, 5))
    z[1, 2] = 12.0
    z[3, 3] = 25.0
    a = depth_map(interpolate_surface(grid_from_z(z), resolution=65), 64)
    b = depth_map(interpolate_surface(grid_from_z(z * 2.0), resolution=65), 64)
    assert np.array_equal(a, b)


def test_mesh_roundtrip_through_text():
    surface = flat_surface(F=2, resolution=5)
    buf = io.StringIO()
    write_mesh(surface.mesh, buf)
    buf.seek(0)
    loaded = read_mesh(buf)
    assert np.allclose(loaded.vertices, surface.mesh.vertices, rtol=1e-9, atol=1e-12)
    assert np.array_equal(loaded.faces, surface.mesh.faces)


def test_pgm_roundtrip_is_exact():
    z = np.zeros((5, 5))
    z[2, 1] = 18.0
    image = depth_map(interpolate_surface(grid_from_z(z), resolution=33), 32)
    buf = io.BytesIO()
    write_pgm(image, buf)
    buf.seek(0)
    assert buf.read(2) == b"P5"
    buf.seek(0)
    assert np.array_equal(read_pgm(buf), image)
