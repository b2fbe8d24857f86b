"""Property tests: the lattice mesh routines against their general-mesh forms.

The references in `helpers` are the general triangle-mesh implementations
the height field replaced (gather-based and np.cross area, a searched
boundary, one f-string per line), run on the lattice spelled out as vertex
and face arrays; on every generated lattice the results must match bit for
bit.
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
from chainshell.shell3d import TriangleMesh, interpolate_surface, write_mesh

from helpers import (CONFIG, PROPERTY, check_single_loop, cross_product_area, edge_length,
                     gather_area, lattice_vertices, line_by_line_write_mesh,
                     per_call_lattice_faces, search_boundary_edges,
                     unique_rows_boundary_edges)

HEIGHT_KINDS = ("random", "negative", "zeros", "negative zeros")


def random_lattice(n: int, seed: int, kind: str = "random") -> TriangleMesh:
    """Height field over n x n uneven plan points with random heights; the
    other kinds make them all negative or set about half of them to 0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    coords = np.cumsum(rng.uniform(0.01, 1.0, n))
    heights = rng.normal(0.0, rng.uniform(0.0, 5.0), (n, n))
    if kind == "negative":
        heights = -np.abs(heights)
    elif kind in ("zeros", "negative zeros"):
        heights[rng.random((n, n)) < 0.5] = 0.0 if kind == "zeros" else -0.0
    return TriangleMesh(coords_m=coords, heights_m=heights)


def spelled_out(mesh: TriangleMesh):
    """The lattice as a general mesh: (vertices, faces)."""
    return lattice_vertices(mesh), per_call_lattice_faces(len(mesh.coords_m))


def shuffled_faces(faces: np.ndarray, seed: int) -> np.ndarray:
    """The same faces reordered, each face's vertices rotated."""
    rng = np.random.default_rng(seed)
    faces = faces[rng.permutation(len(faces))]
    shift = rng.integers(0, 3, len(faces))
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    return np.take_along_axis(faces, cols, axis=1)


seeds = st.integers(0, 2**32 - 1)
lattices = st.builds(random_lattice, st.integers(2, 97), seeds, st.sampled_from(HEIGHT_KINDS))


@PROPERTY
@given(lattices)
def test_boundary_edges_match_the_row_unique_reference(mesh):
    _, faces = spelled_out(mesh)
    edges = mesh.boundary_edges()
    assert edges.shape == (4 * (len(mesh.coords_m) - 1), 2)
    assert np.array_equal(edges, unique_rows_boundary_edges(faces))
    assert np.array_equal(edges, search_boundary_edges(faces))


@PROPERTY
@given(lattices, seeds)
def test_boundary_edges_do_not_depend_on_face_order(mesh, seed):
    _, faces = spelled_out(mesh)
    mixed = shuffled_faces(faces, seed)
    assert np.array_equal(search_boundary_edges(mixed), mesh.boundary_edges())
    assert np.array_equal(unique_rows_boundary_edges(mixed), mesh.boundary_edges())


@PROPERTY
@given(lattices)
def test_area_matches_the_cross_product_reference_bitwise(mesh):
    vertices, faces = spelled_out(mesh)
    assert mesh.area() == gather_area(vertices, faces)
    assert mesh.area() == cross_product_area(vertices, faces)


@PROPERTY
@given(lattices)
def test_boundary_length_matches_the_searched_boundary_bitwise(mesh):
    vertices, faces = spelled_out(mesh)
    assert mesh.boundary_length() == edge_length(vertices, search_boundary_edges(faces))


special_floats = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                  1e-300, 1.7976931348623157e308, -1e300,
                                  1.0, -3.0, 123456789.0, 2.0**53, 1e15, 0.1])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | special_floats


@st.composite
def text_lattices(draw):
    """Any finite coordinates and heights: write_mesh only formats them."""
    n = draw(st.integers(2, 9))
    return TriangleMesh(coords_m=draw(hnp.arrays(np.float64, n, elements=finite_floats)),
                        heights_m=draw(hnp.arrays(np.float64, (n, n),
                                                  elements=finite_floats)))


def first_mismatch(mesh: TriangleMesh):
    """(line number, written, reference) of the first differing line, or None.

    Comparing line by line keeps a failure report short: a plain string
    assert would diff two whole mesh files on every shrinking step.
    """
    slow = io.StringIO()
    line_by_line_write_mesh(*spelled_out(mesh), slow)
    pairs = itertools.zip_longest(write_mesh(mesh).splitlines(keepends=True),
                                  slow.getvalue().encode("ascii").splitlines(keepends=True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


@PROPERTY
@given(text_lattices())
def test_write_mesh_matches_the_line_by_line_reference(mesh):
    assert first_mismatch(mesh) is None


@PROPERTY
@given(lattices)
def test_write_mesh_matches_the_reference_on_lattices(mesh):
    assert first_mismatch(mesh) is None


# write_mesh keeps the x/y text per coordinate vector and the face text per
# lattice size; these cases pin that a cached text is only ever reused for
# exactly the same bytes


def test_meshes_sharing_a_lattice_reuse_its_text_and_keep_their_heights():
    first, second = random_lattice(12, 1), random_lattice(12, 1)
    second.heights_m[:] = np.random.default_rng(2).normal(size=(12, 12))
    assert first_mismatch(first) is None
    hits = shell3d._vertex_template.cache_info().hits
    assert first_mismatch(second) is None
    assert shell3d._vertex_template.cache_info().hits > hits


def test_signed_zero_coordinates_do_not_share_text():
    mesh = random_lattice(5, 3)
    positive = TriangleMesh(coords_m=np.zeros(5), heights_m=mesh.heights_m)
    negative = TriangleMesh(coords_m=np.full(5, -0.0), heights_m=mesh.heights_m)
    for m in (positive, negative, positive):
        assert first_mismatch(m) is None
    assert write_mesh(negative).startswith(b"v -0 -0 ")


def test_strided_heights_write_like_contiguous_heights():
    mesh = random_lattice(7, 4)
    wide = np.zeros((14, 14))
    wide[::2, ::2] = mesh.heights_m
    for heights in (wide[::2, ::2], np.asfortranarray(mesh.heights_m)):
        strided = TriangleMesh(coords_m=mesh.coords_m, heights_m=heights)
        assert first_mismatch(strided) is None
        assert write_mesh(strided) == write_mesh(mesh)


def test_more_lattices_than_the_cache_holds():
    held = shell3d._vertex_template.cache_info().maxsize
    meshes = [random_lattice(n, n) for n in range(3, 3 + 2 * held + 1)]
    for mesh in meshes + meshes[::-1] + meshes:
        assert first_mismatch(mesh) is None
        vertices, faces = spelled_out(mesh)
        assert mesh.area() == gather_area(vertices, faces)
        assert mesh.boundary_length() == edge_length(vertices, search_boundary_edges(faces))
    for cache in (shell3d._vertex_template, shell3d._face_text,
                  shell3d._plan_steps, shell3d._perimeter_edges):
        assert cache.cache_info().currsize <= held


@PROPERTY
@given(lattices, seeds)
def test_single_lattice_has_one_boundary_loop(mesh, seed):
    edges = mesh.boundary_edges()
    check_single_loop(edges)
    _, faces = spelled_out(mesh)
    assert np.array_equal(edges, search_boundary_edges(shuffled_faces(faces, seed)))


@PROPERTY
@given(lattices, lattices)
def test_two_disjoint_lattices_are_rejected(first, second):
    # check_single_loop vouches for one lattice's boundary only because it
    # rejects two lattices' boundaries side by side
    (_, first_faces), (_, second_faces) = spelled_out(first), spelled_out(second)
    offset = len(first.coords_m) ** 2
    both = np.vstack([first_faces, second_faces + offset])
    with pytest.raises(GeometryError, match="multiple loops"):
        check_single_loop(search_boundary_edges(both))


# the boundary edges and the plan steps are kept per lattice; these cases
# pin that the shared arrays are read-only and that every mesh is still
# measured on its own heights


@PROPERTY
@given(st.integers(2, 97), seeds)
def test_lattice_meshes_of_one_size_share_one_read_only_boundary(n, seed):
    first, second = random_lattice(n, seed), random_lattice(n, seed + 1)
    edges = first.boundary_edges()
    assert edges is second.boundary_edges()
    assert edges.dtype == per_call_lattice_faces(n).dtype
    with pytest.raises(ValueError):
        edges[0, 0] = 1
    # so are the plan steps area() reads for one coordinate vector
    first.area()
    for part in shell3d._plan_steps(first.coords_m.tobytes()):
        with pytest.raises(ValueError):
            part[0, 0] = 1.0


def lattice_surface(n: int, seed: int):
    """Spline surface sampled on an n x n lattice, random heights on its edges too."""
    z = np.random.default_rng(seed).uniform(-500.0, 500.0, (4, 4))
    return interpolate_surface(z, CONFIG.gen3d.span_mm, resolution=n)


@PROPERTY
@given(st.integers(4, 40), seeds)
def test_measure_depends_on_the_height_values_not_their_array(n, seed):
    surface = lattice_surface(n, seed)
    expected = measure(surface)
    mesh = surface.mesh
    wide = np.zeros((2 * n, 2 * n))
    wide[::2, ::2] = mesh.heights_m
    for coords, heights in ((mesh.coords_m.copy(), mesh.heights_m.copy()),
                            (mesh.coords_m, np.asfortranarray(mesh.heights_m)),
                            (np.repeat(mesh.coords_m, 2)[::2], wide[::2, ::2])):
        copy = TriangleMesh(coords_m=coords, heights_m=heights)
        assert measure(replace(surface, mesh=copy)) == expected


@PROPERTY
@given(st.integers(4, 40), seeds, seeds)
def test_surfaces_sharing_faces_keep_their_own_perimeter_and_area(n, seed_a, seed_b):
    a, b = lattice_surface(n, seed_a), lattice_surface(n, seed_b)
    assert a.mesh.boundary_edges() is b.mesh.boundary_edges()
    for surface in (a, b, a):
        vertices, faces = spelled_out(surface.mesh)
        assert measure(surface) == SurfaceMetrics(
            perimeter_P=edge_length(vertices, unique_rows_boundary_edges(faces)),
            area_a=cross_product_area(vertices, faces))


def test_threads_measuring_more_lattices_than_the_caches_hold():
    held = shell3d._perimeter_edges.cache_info().maxsize
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
