"""3D shell surface generation from F x F control grids.

The base deformation field z(x, y) = A sin(2 pi f x / L) cos(2 pi f y / L)
is sampled at control points, perturbed by seeded uniform Z offsets in
[0, A/5] at interior points (boundary anchored at z = 0), and interpolated
by a tensor-product cubic spline into a triangle-mesh height field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, TextIO

import numpy as np

from .errors import EnvelopeError, GeometryError, ParameterError
from .profile2d import FeasibilityEnvelope, SPAN_MM
from .spline import GridSpline

DEFAULT_ITERATIONS = 20
DEFAULT_RESOLUTION = 64  # sample points per axis
Z_RANGE_DIVISOR = 5.0    # perturbation range is [0, A/5]

_MASK64 = (1 << 64) - 1


def group_parameters(group: int) -> tuple[float, int]:
    """(amplitude mm, frequency) for study group g: A = 5(g+1), f = g+2."""
    if group < 1:
        raise ParameterError("group number must be >= 1")
    return 5.0 * (group + 1), group + 2


def base_field(x, y, amplitude: float, frequency: int, span: float = SPAN_MM):
    """Deformation field A sin(2 pi f x / L) cos(2 pi f y / L); array-friendly."""
    k = 2.0 * math.pi * frequency / span
    return amplitude * np.sin(k * np.asarray(x)) * np.cos(k * np.asarray(y))


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """(F+1) x (F+1) control heights over an L x L plan, mm."""

    F: int
    amplitude_A: float
    span_L: float
    z_values: np.ndarray  # shape (F+1, F+1), row i = x index, col j = y index
    seed: int
    iteration: int = 0

    def __post_init__(self):
        if self.F < 1:
            raise ParameterError("grid divisions F must be >= 1")
        if self.z_values.shape != (self.F + 1, self.F + 1):
            raise ParameterError(
                f"z_values must be {(self.F + 1, self.F + 1)}, got {self.z_values.shape}"
            )

    def coordinates(self) -> np.ndarray:
        """Control-point coordinates along one axis, mm."""
        return np.linspace(0.0, self.span_L, self.F + 1)


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    # counter-based stream keyed by (seed, iteration): independent of how
    # many other iterations were generated and in what order
    key = np.array([seed & _MASK64, iteration & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def control_grid(amplitude: float, frequency: int, seed: int, iteration: int,
                 span: float = SPAN_MM,
                 envelope: Optional[FeasibilityEnvelope] = None) -> ControlGrid:
    """One seeded control grid for (A, f), drawn from its own (seed, iteration) stream.

    Offsets are drawn per control point in row-major order; the same inputs
    give a bit-identical grid whatever other iterations are generated.
    Boundary points stay anchored at z = 0.
    """
    if amplitude < 0:
        raise ParameterError("amplitude must be non-negative")
    if envelope is not None and not envelope.is_feasible(amplitude, frequency):
        raise EnvelopeError(
            f"(A={amplitude} mm, f={frequency}) exceeds the feasibility envelope "
            f"for {envelope.shape.value} (max {envelope.max_amplitude(frequency)} mm)"
        )
    # f^2 control points total ("3x3 for F=3"), so f points per axis
    m = frequency
    if m < 2:
        raise ParameterError("frequency must be >= 2 for a control grid")
    coords = np.linspace(0.0, span, m)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    rng = _iteration_rng(seed, iteration)
    offsets = rng.uniform(0.0, amplitude / Z_RANGE_DIVISOR, size=(m, m))
    z = base_field(X, Y, amplitude, frequency, span) + offsets
    z[0, :] = 0.0
    z[-1, :] = 0.0
    z[:, 0] = 0.0
    z[:, -1] = 0.0
    return ControlGrid(F=m - 1, amplitude_A=amplitude, span_L=span,
                       z_values=z, seed=seed, iteration=iteration)


def generate_iterations(amplitude: float, frequency: int, n: int = DEFAULT_ITERATIONS,
                        seed: int = 0, span: float = SPAN_MM,
                        envelope: Optional[FeasibilityEnvelope] = None,
                        ) -> List[ControlGrid]:
    """The control grids of iterations 0..n-1 for one (A, f) combination."""
    if n < 1:
        raise ParameterError("iteration count must be >= 1")
    return [control_grid(amplitude, frequency, seed, i, span, envelope)
            for i in range(n)]


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertices in metres, counter-clockwise faces (0-based indices)."""

    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray     # (M, 3) int

    def area(self) -> float:
        # edge vectors u = b - a, w = c - a gathered one coordinate column
        # at a time (no (M, 3) row gathers), then the components of
        # np.cross(u, w) spelled out: same operations, same bits
        i0, i1, i2 = self.faces.T
        (ux, wx), (uy, wy), (uz, wz) = ((p[i1] - p[i0], p[i2] - p[i0])
                                        for p in self.vertices.T)
        cx = uy * wz - uz * wy
        cy = uz * wx - ux * wz
        cz = ux * wy - uy * wx
        return float(0.5 * np.sqrt(cx * cx + cy * cy + cz * cz).sum())

    def boundary_edges(self) -> np.ndarray:
        """Edges used by exactly one face, as read-only (K, 2) vertex index pairs.

        The edges depend only on the faces, so the search runs once per
        distinct face array (exact int64 bytes) and its result is shared.
        """
        return _boundary_edges(self.faces.astype(np.int64, copy=False).tobytes())

    def edge_length(self, edges: np.ndarray) -> float:
        """Summed 3D length of (K, 2) vertex index pairs."""
        seg = self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]]
        return float(np.linalg.norm(seg, axis=1).sum())

    def boundary_length(self) -> float:
        return self.edge_length(self.boundary_edges())

    def require_single_boundary_loop(self) -> np.ndarray:
        """Boundary edges; raises GeometryError unless they form one closed cycle."""
        edges = self.boundary_edges()
        _check_single_loop(edges.astype(np.int64, copy=False).tobytes())
        return edges


# Bounded like the write_mesh caches: an entry is one lattice's boundary.
# lru_cache does not keep exceptions, so a rejected mesh raises every time
@functools.lru_cache(maxsize=4)
def _boundary_edges(faces: bytes) -> np.ndarray:
    """Boundary edges of the int64 index triples packed in `faces`.

    Each edge (lo, hi), lo <= hi, is keyed as lo * n + hi with n above
    every index, so the sorted unique keys list the pairs in
    lexicographic order.
    """
    start = np.frombuffer(faces, dtype=np.int64).reshape(-1, 3)
    end = start[:, [1, 2, 0]]
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    n = int(hi.max(initial=0)) + 1
    keys, counts = np.unique((lo * n + hi).ravel(), return_counts=True)
    if (counts > 2).any():
        raise GeometryError("non-manifold mesh: an edge is shared by >2 faces")
    boundary = keys[counts == 1]
    edges = np.column_stack([boundary // n, boundary % n])
    edges.flags.writeable = False
    return edges


@functools.lru_cache(maxsize=4)
def _check_single_loop(edges: bytes) -> None:
    """Raise GeometryError unless the int64 pairs in `edges` form one cycle."""
    edges = np.frombuffer(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        raise GeometryError("mesh has no boundary (expected an open height field)")
    degree = np.bincount(edges.ravel())
    if ((degree != 0) & (degree != 2)).any():
        raise GeometryError("boundary is not a closed loop (vertex degree != 2)")
    # every vertex has degree 2, so the edges form disjoint cycles: walk
    # the cycle through the first edge and see whether it uses them all
    neighbours = {}
    for a, b in edges.tolist():
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    start, here = edges[0].tolist()
    prev, walked = start, 1
    while here != start:
        a, b = neighbours[here]
        prev, here = here, (b if a == prev else a)
        walked += 1
    if walked != len(edges):
        raise GeometryError("boundary splits into multiple loops")


@dataclass(frozen=True, eq=False)
class ShellSurface:
    """Interpolated surface: control grid, sampled heights, and mesh."""

    control: ControlGrid
    mesh: TriangleMesh
    sample_resolution: int
    heights_mm: np.ndarray  # (res, res) lattice heights, [i, j] = (x_i, y_j)

    @functools.cached_property
    def spline(self) -> GridSpline:
        """The interpolating spline through the control grid, fitted once."""
        return _fit_spline(self.control)

    def evaluate(self, x_mm, y_mm) -> np.ndarray:
        """Spline height (mm) on the grid of increasing plan coordinates (mm)."""
        return self.spline(x_mm, y_mm)

    def gradient(self, x_mm, y_mm, axis: str = "x") -> np.ndarray:
        """Spline slope dz/dx (axis "x") or dz/dy (axis "y") on the query grid."""
        if axis not in ("x", "y"):
            raise ParameterError(f"gradient axis must be 'x' or 'y', got {axis!r}")
        dx, dy = (1, 0) if axis == "x" else (0, 1)
        return self.spline(x_mm, y_mm, dx, dy)

    @property
    def span_mm(self) -> float:
        return self.control.span_L


def _fit_spline(grid: ControlGrid) -> GridSpline:
    coords = grid.coordinates()
    # interpolating tensor-product spline (s=0); cubic once the grid allows it
    return GridSpline(coords, coords, grid.z_values, k=min(3, grid.F))


def lattice_mesh(coords_m: np.ndarray, heights_m: np.ndarray) -> TriangleMesh:
    """Height-field mesh over the plan lattice coords_m x coords_m, metres.

    heights_m[i, j] is the height at (x_i, y_j); vertex i * n + j sits
    there.  Each cell is split along its (i, j)-(i+1, j+1) diagonal into
    two faces, counter-clockwise seen from +z.  Every mesh of one lattice
    size shares one read-only face array.
    """
    X, Y = np.meshgrid(coords_m, coords_m, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), heights_m.ravel()])
    return TriangleMesh(vertices=vertices, faces=_lattice_faces(len(coords_m)))


@functools.lru_cache(maxsize=4)
def _lattice_faces(n: int) -> np.ndarray:
    """The (2 (n-1)^2, 3) faces of an n x n lattice, built once and read-only."""
    idx = np.arange(n * n).reshape(n, n)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[1:, :-1].ravel()
    v01 = idx[:-1, 1:].ravel()
    v11 = idx[1:, 1:].ravel()
    faces = np.concatenate([
        np.column_stack([v00, v10, v11]),
        np.column_stack([v00, v11, v01]),
    ])
    faces.flags.writeable = False
    return faces


def interpolate_surface(grid: ControlGrid,
                        resolution: int = DEFAULT_RESOLUTION) -> ShellSurface:
    """Sample the interpolating spline on a resolution^2 lattice and mesh it."""
    if resolution < grid.F + 1:
        raise ParameterError(
            f"resolution {resolution} below control grid size {grid.F + 1}"
        )
    spline = _fit_spline(grid)
    coords = np.linspace(0.0, grid.span_L, resolution)
    heights = spline(coords, coords)  # (res, res), [i, j] = (x_i, y_j)
    mesh = lattice_mesh(coords / 1000.0, heights / 1000.0)
    surface = ShellSurface(control=grid, mesh=mesh, sample_resolution=resolution,
                           heights_mm=heights)
    surface.__dict__["spline"] = spline  # seed the cache: one fit per surface
    return surface


def depth_map(surface: ShellSurface, resolution: int = 256) -> np.ndarray:
    """Grayscale depth image: z = z_max maps to 0 (black), z = 0 to 255 (white).

    Pixel value = round(255 (1 - z / z_max)), clamped to [0, 255]; a flat
    surface renders uniform white.  Row 0 is the y = L edge.
    """
    coords = np.linspace(0.0, surface.span_mm, resolution)
    z = surface.evaluate(coords, coords)  # [i, j] = (x_i, y_j)
    z_max = float(z.max())
    if z_max <= 0.0:
        return np.full((resolution, resolution), 255, dtype=np.uint8)
    values = np.rint(255.0 * (1.0 - z / z_max))
    img = np.clip(values, 0, 255).astype(np.uint8)
    # image rows top-down: row 0 at y = L; columns left-right along x
    return img.T[::-1, :]


def write_pgm(image: np.ndarray, stream) -> None:
    """Write a binary portable graymap (maxval 255)."""
    h, w = image.shape
    stream.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
    stream.write(image.astype(np.uint8).tobytes())


def read_pgm(stream) -> np.ndarray:
    magic = stream.readline().strip()
    if magic != b"P5":
        raise ParameterError("not a binary portable graymap")
    dims = stream.readline().split()
    w, h = int(dims[0]), int(dims[1])
    maxval = int(stream.readline())
    if maxval != 255:
        raise ParameterError("expected maxval 255")
    data = stream.read(w * h)
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def write_mesh(mesh: TriangleMesh, stream: TextIO) -> None:
    """ASCII triangle mesh: `v x y z` lines (metres), `f i j k` 1-based."""
    v = mesh.vertices
    # only z changes between the surfaces of one lattice: the x/y text and
    # the face block are formatted once per distinct (exact-bytes) key
    xy = v[:, :2].astype(np.float64, copy=False).tobytes()
    stream.write(_vertex_template(xy) % tuple(v[:, 2].tolist()))
    stream.write(_face_text(mesh.faces.astype(np.int64, copy=False).tobytes()))


# '%.9g' formats a float exactly as f"{x:.9g}".  Bounded: an entry holds
# one lattice's text, ~0.1 MB for each cache at 64 x 64
@functools.lru_cache(maxsize=4)
def _vertex_template(xy: bytes) -> str:
    """`v <x> <y> %.9g` lines for the float64 (x, y) pairs packed in `xy`."""
    values = np.frombuffer(xy, dtype=np.float64)
    return ("v %.9g %.9g %%.9g\n" * (len(values) // 2)) % tuple(values.tolist())


@functools.lru_cache(maxsize=4)
def _face_text(faces: bytes) -> str:
    """`f i j k` lines, 1-based, for the int64 index triples packed in `faces`."""
    f = np.frombuffer(faces, dtype=np.int64) + 1
    return ("f %d %d %d\n" * (len(f) // 3)) % tuple(f.tolist())
