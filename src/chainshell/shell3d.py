"""3D shell surface generation from F x F control grids.

The base deformation field z(x, y) = A sin(2 pi f x / L) cos(2 pi f y / L)
is sampled at control points, perturbed by seeded uniform Z offsets in
[0, A/5] at interior points (boundary anchored at z = 0), and interpolated
by a tensor-product cubic spline into a triangle-mesh height field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import EnvelopeError, GeometryError, ParameterError
from .profile2d import FeasibilityEnvelope, SPAN_MM

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


def generate_iterations(amplitude: float, frequency: int, n: int = DEFAULT_ITERATIONS,
                        seed: int = 0, span: float = SPAN_MM,
                        envelope: Optional[FeasibilityEnvelope] = None,
                        ) -> List[ControlGrid]:
    """Generate n seeded control grids for one (A, f) combination.

    Offsets are drawn per control point in row-major order from a stream
    keyed by (seed, iteration); same inputs give bit-identical grids.
    Boundary points stay anchored at z = 0.
    """
    if n < 1:
        raise ParameterError("iteration count must be >= 1")
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
    base = base_field(X, Y, amplitude, frequency, span)
    grids = []
    for i in range(n):
        rng = _iteration_rng(seed, i)
        offsets = rng.uniform(0.0, amplitude / Z_RANGE_DIVISOR, size=(m, m))
        z = base + offsets
        z[0, :] = 0.0
        z[-1, :] = 0.0
        z[:, 0] = 0.0
        z[:, -1] = 0.0
        grids.append(ControlGrid(F=m - 1, amplitude_A=amplitude, span_L=span,
                                 z_values=z, seed=seed, iteration=i))
    return grids


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertices in metres, counter-clockwise faces (0-based indices)."""

    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray     # (M, 3) int

    def area(self) -> float:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        cross = np.cross(b - a, c - a)
        return float(0.5 * np.linalg.norm(cross, axis=1).sum())

    def boundary_edges(self) -> np.ndarray:
        """Edges used by exactly one face, as (K, 2) vertex index pairs."""
        edges = np.concatenate([
            self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]],
        ])
        canon = np.sort(edges, axis=1)
        uniq, counts = np.unique(canon, axis=0, return_counts=True)
        if (counts > 2).any():
            raise GeometryError("non-manifold mesh: an edge is shared by >2 faces")
        return uniq[counts == 1]

    def edge_length(self, edges: np.ndarray) -> float:
        """Summed 3D length of (K, 2) vertex index pairs."""
        seg = self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]]
        return float(np.linalg.norm(seg, axis=1).sum())

    def boundary_length(self) -> float:
        return self.edge_length(self.boundary_edges())

    def require_single_boundary_loop(self) -> np.ndarray:
        """Boundary edges; raises GeometryError unless they form one closed cycle."""
        edges = self.boundary_edges()
        if len(edges) == 0:
            raise GeometryError("mesh has no boundary (expected an open height field)")
        degree: dict[int, int] = {}
        for a, b in edges:
            degree[int(a)] = degree.get(int(a), 0) + 1
            degree[int(b)] = degree.get(int(b), 0) + 1
        if any(d != 2 for d in degree.values()):
            raise GeometryError("boundary is not a closed loop (vertex degree != 2)")
        # walk the cycle; a single loop visits every boundary edge
        adj: dict[int, list[int]] = {}
        for a, b in edges:
            adj.setdefault(int(a), []).append(int(b))
            adj.setdefault(int(b), []).append(int(a))
        start = int(edges[0, 0])
        prev, node = None, start
        visited = 0
        while True:
            nxt = [v for v in adj[node] if v != prev]
            if not nxt:
                raise GeometryError("boundary walk terminated early")
            prev, node = node, nxt[0]
            visited += 1
            if node == start:
                break
        if visited != len(edges):
            raise GeometryError("boundary splits into multiple loops")
        return edges


@dataclass(frozen=True, eq=False)
class ShellSurface:
    """Interpolated surface: control grid, sampled heights, and mesh."""

    control: ControlGrid
    mesh: TriangleMesh
    sample_resolution: int
    heights_mm: np.ndarray  # (res, res) lattice heights, [i, j] = (x_i, y_j)

    def evaluate(self, x_mm, y_mm) -> np.ndarray:
        """Spline height (mm) at plan coordinates given in mm (grid query)."""
        return _fit_spline(self.control)(np.atleast_1d(x_mm), np.atleast_1d(y_mm))

    def gradient(self, x_mm, y_mm, axis: str = "x") -> np.ndarray:
        """Spline slope dz/dx or dz/dy (dimensionless) on the query grid."""
        dx, dy = (1, 0) if axis == "x" else (0, 1)
        return _fit_spline(self.control)(np.atleast_1d(x_mm), np.atleast_1d(y_mm),
                                         dx=dx, dy=dy)

    @property
    def span_mm(self) -> float:
        return self.control.span_L


def _fit_spline(grid: ControlGrid) -> RectBivariateSpline:
    coords = grid.coordinates()
    # interpolating tensor-product spline (s=0); cubic once the grid allows it
    k = min(3, grid.F)
    return RectBivariateSpline(coords, coords, grid.z_values, kx=k, ky=k, s=0)


def lattice_mesh(coords_m: np.ndarray, heights_m: np.ndarray) -> TriangleMesh:
    """Height-field mesh over the plan lattice coords_m x coords_m, metres.

    heights_m[i, j] is the height at (x_i, y_j); vertex i * n + j sits
    there.  Each cell is split along its (i, j)-(i+1, j+1) diagonal into
    two faces, counter-clockwise seen from +z.
    """
    X, Y = np.meshgrid(coords_m, coords_m, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), heights_m.ravel()])
    n = len(coords_m)
    idx = np.arange(n * n).reshape(n, n)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[1:, :-1].ravel()
    v01 = idx[:-1, 1:].ravel()
    v11 = idx[1:, 1:].ravel()
    faces = np.concatenate([
        np.column_stack([v00, v10, v11]),
        np.column_stack([v00, v11, v01]),
    ])
    return TriangleMesh(vertices=vertices, faces=faces)


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
    return ShellSurface(control=grid, mesh=mesh, sample_resolution=resolution,
                        heights_mm=heights)


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
    for v in mesh.vertices:
        stream.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
    for f in mesh.faces:
        stream.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def read_mesh(stream: TextIO) -> TriangleMesh:
    vertices, faces = [], []
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(p) - 1 for p in parts[1:4]])
    return TriangleMesh(vertices=np.array(vertices, dtype=float),
                        faces=np.array(faces, dtype=int))
