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

from .errors import EnvelopeError, ParameterError
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
    """Height field over the n x n plan lattice coords_m x coords_m, metres.

    Vertex i * n + j sits at (x_i, y_j, heights_m[i, j]).  Each cell is
    split along its (i, j)-(i+1, j+1) diagonal into a lower face (v00, v10,
    v11) and an upper face (v00, v11, v01), counter-clockwise seen from +z.
    """

    coords_m: np.ndarray   # (n,) plan coordinates along either axis
    heights_m: np.ndarray  # (n, n), [i, j] = (x_i, y_j)

    def area(self) -> float:
        # each face's (b - a) x (c - a), component by component as np.cross
        # forms it.  An edge's x or y part that is +0.0 can only change the
        # sign of a zero, which squaring drops, so it is left out; the plan
        # steps and (dx dy)^2 are cached per lattice.  Lower faces
        # row-major, then upper faces, summed once: a general mesh's bits
        h = self.heights_m
        dx, dy, czcz = _plan_steps(self.coords_m.astype(np.float64, copy=False).tobytes())
        d10 = h[1:, :-1] - h[:-1, :-1]
        d11 = h[1:, 1:] - h[:-1, :-1]
        d01 = h[:-1, 1:] - h[:-1, :-1]
        sq = np.empty((2,) + d11.shape)
        cx, cy = d10 * dy, d10 * dx - dx * d11  # lower face
        sq[0] = cx * cx + cy * cy + czcz
        cx, cy = dy * d01 - d11 * dy, dx * d01  # upper face
        sq[1] = cx * cx + cy * cy + czcz
        return float(0.5 * np.sqrt(sq.ravel()).sum())

    def boundary_edges(self) -> np.ndarray:
        """The 4 (n - 1) perimeter edges as read-only (lo, hi) vertex index
        pairs in lexicographic order, one shared array per lattice size."""
        return _perimeter_edges(len(self.coords_m))

    def boundary_length(self) -> float:
        """Summed 3D length of the boundary edges, lo - hi, in their order."""
        (ilo, ihi), (jlo, jhi) = np.divmod(self.boundary_edges().T, len(self.coords_m))
        x, h = self.coords_m, self.heights_m
        seg = np.column_stack([x[ilo] - x[ihi], x[jlo] - x[jhi], h[ilo, jlo] - h[ihi, jhi]])
        return float(np.linalg.norm(seg, axis=1).sum())


# Bounded like the write_mesh caches: an entry is one lattice's plan data
@functools.lru_cache(maxsize=4)
def _plan_steps(coords: bytes):
    """Steps dx (column) and dy (row) of the float64 lattice coordinates
    packed in `coords`, and each cell's squared cross-product z part,
    (dx dy)^2, which is the same for both of its faces."""
    step = np.diff(np.frombuffer(coords, dtype=np.float64))
    step.flags.writeable = False  # shared by every mesh of the lattice
    dx, dy = step[:, None], step[None, :]
    cz = dx * dy
    czcz = cz * cz
    czcz.flags.writeable = False
    return dx, dy, czcz


@functools.lru_cache(maxsize=4)
def _perimeter_edges(n: int) -> np.ndarray:
    """The perimeter edges of an n x n lattice, (lo, hi) sorted, read-only."""
    idx = np.arange(n * n).reshape(n, n)
    sides = (idx[0], idx[-1], idx[:, 0], idx[:, -1])
    edges = np.concatenate([np.column_stack([s[:-1], s[1:]]) for s in sides])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    edges.flags.writeable = False
    return edges


@dataclass(frozen=True, eq=False)
class ShellSurface:
    """Interpolated surface: control grid and the mesh of its sampled lattice."""

    control: ControlGrid
    mesh: TriangleMesh
    sample_resolution: int

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
    mesh = TriangleMesh(coords_m=coords / 1000.0, heights_m=heights / 1000.0)
    surface = ShellSurface(control=grid, mesh=mesh, sample_resolution=resolution)
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
    """ASCII triangle mesh: `v x y z` lines (metres), `f i j k` 1-based.

    Vertex lines run i * n + j; the faces are every cell's lower face,
    row-major, then every upper face.
    """
    # only z changes between the surfaces of one lattice: the x/y text is
    # formatted once per distinct (exact-bytes) coordinate vector, the face
    # block once per lattice size
    xy = _vertex_template(mesh.coords_m.astype(np.float64, copy=False).tobytes())
    stream.write(xy % tuple(mesh.heights_m.ravel().tolist()))
    stream.write(_face_text(len(mesh.coords_m)))


# '%.9g' formats a float exactly as f"{x:.9g}".  Bounded: an entry holds
# one lattice's text, ~0.1 MB for each cache at 64 x 64
@functools.lru_cache(maxsize=4)
def _vertex_template(coords: bytes) -> str:
    """`v <x_i> <y_j> %.9g` lines over the float64 coordinates packed in `coords`."""
    text = ["%.9g" % c for c in np.frombuffer(coords, dtype=np.float64).tolist()]
    return "".join(f"v {x} {y} %.9g\n" for x in text for y in text)


@functools.lru_cache(maxsize=4)
def _face_text(n: int) -> str:
    """`f i j k` lines, 1-based, of the lower then the upper faces of an n x n lattice."""
    idx = np.arange(1, n * n + 1).reshape(n, n)
    v00, v10, v01, v11 = idx[:-1, :-1], idx[1:, :-1], idx[:-1, 1:], idx[1:, 1:]
    faces = np.stack([np.stack([v00, v10, v11], axis=-1),
                      np.stack([v00, v11, v01], axis=-1)])
    return ("f %d %d %d\n" * (faces.size // 3)) % tuple(faces.ravel().tolist())
