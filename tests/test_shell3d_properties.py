"""Property tests: the vectorized mesh routines against their reference forms.

The references in `helpers` are the straightforward implementations the
production code replaced (row-wise unique edges, one f-string per line,
np.cross area); on every generated mesh the results must match bit for bit.
"""
from __future__ import annotations

import io
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from chainshell import shell3d
from chainshell.errors import GeometryError
from chainshell.filtering import SurfaceMetrics, measure
from chainshell.shell3d import TriangleMesh, interpolate_surface, lattice_mesh, write_mesh

from helpers import (PROPERTY, cross_product_area, grid_from_z, line_by_line_write_mesh,
                     per_call_lattice_faces, unique_rows_boundary_edges)


def random_lattice(n: int, seed: int) -> TriangleMesh:
    """Height-field lattice over n x n uneven plan points with random heights."""
    rng = np.random.default_rng(seed)
    coords = np.cumsum(rng.uniform(0.01, 1.0, n))
    heights = rng.normal(0.0, rng.uniform(0.0, 5.0), (n, n))
    return lattice_mesh(coords, heights)


def shuffled(mesh: TriangleMesh, seed: int) -> TriangleMesh:
    """Same surface with faces reordered and each face's vertices rotated."""
    rng = np.random.default_rng(seed)
    faces = mesh.faces[rng.permutation(len(mesh.faces))]
    shift = rng.integers(0, 3, len(faces))
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    faces = np.take_along_axis(faces, cols, axis=1)
    return TriangleMesh(vertices=mesh.vertices, faces=faces)


lattices = st.builds(random_lattice, st.integers(2, 40), st.integers(0, 2**32 - 1))
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(lattices)
def test_boundary_edges_match_the_row_unique_reference(mesh):
    assert np.array_equal(mesh.boundary_edges(), unique_rows_boundary_edges(mesh))


@PROPERTY
@given(lattices, seeds)
def test_boundary_edges_do_not_depend_on_face_order(mesh, seed):
    mixed = shuffled(mesh, seed)
    edges = mixed.boundary_edges()
    assert np.array_equal(edges, unique_rows_boundary_edges(mixed))
    assert np.array_equal(edges, mesh.boundary_edges())


@PROPERTY
@given(lattices)
def test_area_matches_the_cross_product_reference_bitwise(mesh):
    assert mesh.area() == cross_product_area(mesh)


special_floats = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                  1e-300, 1.7976931348623157e308, -1e300,
                                  1.0, -3.0, 123456789.0, 2.0**53, 1e15, 0.1])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | special_floats


@st.composite
def text_meshes(draw):
    n_vertices = draw(st.integers(0, 40))
    vertices = draw(hnp.arrays(np.float64, (n_vertices, 3), elements=finite_floats))
    n_faces = draw(st.integers(0, 40)) if n_vertices else 0
    faces = draw(hnp.arrays(np.int64, (n_faces, 3),
                            elements=st.integers(0, max(n_vertices - 1, 0))))
    return TriangleMesh(vertices=vertices, faces=faces)


def first_mismatch(mesh: TriangleMesh):
    """(line number, written, reference) of the first differing line, or None.

    Comparing line by line keeps a failure report short: a plain string
    assert would diff two whole mesh files on every shrinking step.
    """
    fast, slow = io.StringIO(), io.StringIO()
    write_mesh(mesh, fast)
    line_by_line_write_mesh(mesh, slow)
    pairs = itertools.zip_longest(fast.getvalue().splitlines(keepends=True),
                                  slow.getvalue().splitlines(keepends=True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


@PROPERTY
@given(text_meshes())
def test_write_mesh_matches_the_line_by_line_reference(mesh):
    assert first_mismatch(mesh) is None


@PROPERTY
@given(st.integers(2, 40), seeds)
def test_write_mesh_matches_the_reference_on_lattices(n, seed):
    assert first_mismatch(random_lattice(n, seed)) is None


# write_mesh keeps the x/y and face text of recent meshes; these cases pin
# that a cached text is only ever reused for exactly the same bytes


def test_meshes_sharing_a_lattice_reuse_its_text_and_keep_their_heights():
    first, second = random_lattice(12, 1), random_lattice(12, 1)
    second.vertices[:, 2] = np.random.default_rng(2).normal(size=len(second.vertices))
    assert first_mismatch(first) is None
    hits = shell3d._vertex_template.cache_info().hits
    assert first_mismatch(second) is None
    assert shell3d._vertex_template.cache_info().hits > hits


def test_signed_zero_coordinates_do_not_share_text():
    mesh = random_lattice(5, 3)
    positive = TriangleMesh(vertices=mesh.vertices.copy(), faces=mesh.faces)
    negative = TriangleMesh(vertices=mesh.vertices.copy(), faces=mesh.faces)
    positive.vertices[:, 0] = 0.0
    negative.vertices[:, 0] = -0.0
    for m in (positive, negative, positive):
        assert first_mismatch(m) is None
    out = io.StringIO()
    write_mesh(negative, out)
    assert out.getvalue().startswith("v -0 ")


def test_int32_faces_write_like_int64_faces():
    mesh = random_lattice(7, 4)
    narrow = TriangleMesh(vertices=mesh.vertices, faces=mesh.faces.astype(np.int32))
    assert first_mismatch(narrow) is None
    assert first_mismatch(mesh) is None


def test_more_lattices_than_the_cache_holds():
    held = shell3d._vertex_template.cache_info().maxsize
    meshes = [random_lattice(n, n) for n in range(3, 3 + 2 * held + 1)]
    for mesh in meshes + meshes[::-1] + meshes:
        assert first_mismatch(mesh) is None
    assert shell3d._vertex_template.cache_info().currsize <= held
    assert shell3d._face_text.cache_info().currsize <= held


@PROPERTY
@given(lattices, seeds)
def test_single_lattice_has_one_boundary_loop(mesh, seed):
    edges = shuffled(mesh, seed).require_single_boundary_loop()
    assert np.array_equal(edges, mesh.boundary_edges())


@PROPERTY
@given(lattices, lattices)
def test_two_disjoint_lattices_are_rejected(first, second):
    both = TriangleMesh(
        vertices=np.vstack([first.vertices, second.vertices + [100.0, 0.0, 0.0]]),
        faces=np.vstack([first.faces, second.faces + len(first.vertices)]))
    for _ in range(2):  # a failed check is never cached
        with pytest.raises(GeometryError, match="multiple loops"):
            both.require_single_boundary_loop()


# lattice faces, boundary edges and the loop check are kept per face array;
# these cases pin that the shared arrays are read-only and that every mesh
# is still measured on its own vertices


@PROPERTY
@given(st.integers(2, 40), seeds)
def test_lattice_meshes_of_one_size_share_one_read_only_face_array(n, seed):
    first, second = random_lattice(n, seed), random_lattice(n, seed + 1)
    assert first.faces is second.faces
    reference = per_call_lattice_faces(n)
    assert first.faces.dtype == reference.dtype
    assert np.array_equal(first.faces, reference)
    with pytest.raises(ValueError):
        first.faces[0, 0] = 1
    edges = first.boundary_edges()
    assert edges is second.boundary_edges()
    with pytest.raises(ValueError):
        edges[0, 0] = 1


def lattice_surface(n: int, seed: int):
    """Spline surface sampled on an n x n lattice, random heights on its edges too."""
    z = np.random.default_rng(seed).uniform(-500.0, 500.0, (4, 4))
    return interpolate_surface(grid_from_z(z), resolution=n)


@PROPERTY
@given(st.integers(4, 40), seeds)
def test_measure_depends_on_the_face_values_not_the_face_array(n, seed):
    surface = lattice_surface(n, seed)
    expected = measure(surface)
    faces = surface.mesh.faces
    for copy in (faces.copy(), faces.astype(np.int32)):
        mesh = TriangleMesh(vertices=surface.mesh.vertices, faces=copy)
        assert measure(replace(surface, mesh=mesh)) == expected


@PROPERTY
@given(st.integers(4, 40), seeds, seeds)
def test_surfaces_sharing_faces_keep_their_own_perimeter_and_area(n, seed_a, seed_b):
    a, b = lattice_surface(n, seed_a), lattice_surface(n, seed_b)
    assert a.mesh.faces is b.mesh.faces
    for surface in (a, b, a):
        mesh = surface.mesh
        assert measure(surface) == SurfaceMetrics(
            perimeter_P=mesh.edge_length(unique_rows_boundary_edges(mesh)),
            area_a=cross_product_area(mesh))


def test_threads_measuring_more_lattices_than_the_caches_hold():
    held = shell3d._boundary_edges.cache_info().maxsize
    surfaces = [lattice_surface(n, n) for n in range(4, 4 + 2 * held + 1)]
    expected = [measure(s) for s in surfaces]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(measure, s) for s in surfaces * 8]
            measured = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert measured == expected * 8
