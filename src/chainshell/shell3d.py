"""3D shell surface generation from F x F control grids.

The base deformation field z(x, y) = A sin(2 pi f x / L) cos(2 pi f y / L)
is sampled at control points, perturbed by seeded uniform Z offsets in
[0, A/5] at interior points (boundary anchored at z = 0), and interpolated
by a tensor-product cubic spline into a triangle-mesh height field.

Every seeded draw comes from a Philox4x64-10 stream (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011) keyed by two
64-bit words, computed here with numpy uint64 arithmetic: the doubles are
bit for bit those numpy's `Generator(Philox(key=...)).random()` returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ParameterError
from .spline import GridSpline
from .units import Shape

Z_RANGE_DIVISOR = 5.0    # perturbation range is [0, A/5]
GROUP_SHAPE = Shape.RECTANGULAR  # printed group parameters are rectangular

_MASK64 = (1 << 64) - 1
# Philox4x64-10 constants.  Rows: the round multipliers of words 0 and 2,
# their low and high 32-bit halves, the 32-bit mask, the shift 32.  Then
# each round's key offset: the round number times the Weyl increments, mod
# 2**64.  All are uint64 arrays: numpy 1.x promotes uint64 mixed with a
# Python int to float64
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_CONSTANTS = np.array(
    [_PHILOX_M, [m & 0xFFFFFFFF for m in _PHILOX_M], [m >> 32 for m in _PHILOX_M],
     [0xFFFFFFFF] * 2, [32] * 2], dtype=np.uint64).reshape(5, 2, 1, 1)
_PHILOX_KEY_STEPS = np.array(
    [[r * w & _MASK64 for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)]
     for r in range(10)], dtype=np.uint64).reshape(10, 2, 1, 1)
_U11 = np.uint64(11)


def group_parameters(group: int) -> tuple[float, int]:
    """(amplitude mm, frequency) for study group g: A = 5(g+1), f = g+2."""
    if group < 1:
        raise ParameterError("group number must be >= 1")
    return 5.0 * (group + 1), group + 2


def base_field(x, y, amplitude: float, frequency: int, span: float):
    """Deformation field A sin(2 pi f x / L) cos(2 pi f y / L); array-friendly."""
    k = 2.0 * math.pi * frequency / span
    return amplitude * np.sin(k * np.asarray(x)) * np.cos(k * np.asarray(y))


def random_doubles(keys: Sequence[Tuple[int, int]], n: int) -> np.ndarray:
    """(len(keys), n) doubles in [0, 1), one Philox4x64-10 stream per row.

    Each key is a pair of ints taken mod 2**64.  Row k holds the first n
    doubles of numpy's `Generator(Philox(key=keys[k])).random()`:
    block b encrypts the counter (b + 1, 0, 0, 0), its four words are used
    in order, and each word w gives (w >> 11) * 2**-53.  One call draws every
    stream at once; numpy's fixed cost per call dominates a single stream.
    """
    key = np.array([[k0 & _MASK64, k1 & _MASK64] for k0, k1 in keys],
                   dtype=np.uint64).reshape(-1, 2)
    shape = (2, len(key), -(-n // 4))  # (word pair, stream, block)
    # constants and round keys as whole arrays: on arrays this small a
    # ufunc with a broadcast operand costs several times one without
    m, m_lo, m_hi, low32, u32 = np.broadcast_to(_PHILOX_CONSTANTS, (5,) + shape).copy()
    round_keys = np.broadcast_to(key.T[:, :, None] + _PHILOX_KEY_STEPS,
                                 (10,) + shape).copy()
    # a holds words (0, 2) of each block, which a round multiplies, b words (1, 3)
    a = np.zeros(shape, dtype=np.uint64)
    a[0] = np.arange(1, shape[2] + 1, dtype=np.uint64)
    b = np.zeros_like(a)
    for k in round_keys:
        # high words of the 128-bit products m a, from 32-bit halves
        a_lo, a_hi = a & low32, a >> u32
        t = a_hi * m_lo + ((a_lo * m_lo) >> u32)
        w = (t & low32) + a_lo * m_hi
        hi = a_hi * m_hi + (t >> u32) + (w >> u32)
        # words 0, 1, 2, 3 become hi(M1 w2) ^ w1 ^ k0, lo(M1 w2),
        # hi(M0 w0) ^ w3 ^ k1, lo(M0 w0)
        a, b = hi[::-1] ^ b ^ k, (a * m)[::-1]
    words = np.stack([a[0], b[0], a[1], b[1]], axis=-1).reshape(shape[1], -1)[:, :n]
    return (words >> _U11) * 2.0 ** -53


def _control_grids(amplitude: float, frequency: int, seed: int,
                   iterations: Sequence[int], span: float) -> np.ndarray:
    """The (len(iterations), f, f) control heights (mm) of `iterations` for
    (A, f) over an L x L plan, drawn in one call; [k, i, j] sits at (x_i, y_j).

    Iteration i's offsets are the first f^2 doubles of its (seed, i) stream
    in row-major order, each mapped to [0, A/5] as numpy's uniform(low,
    high) maps it: low + (high - low) * u.
    """
    if amplitude < 0:
        raise ParameterError("amplitude must be non-negative")
    # the mapped offsets of an infinite or NaN range would all be NaN
    if not math.isfinite(amplitude):
        raise ParameterError(f"amplitude must be finite, got {amplitude}")
    amplitude += 0.0  # -0.0 becomes 0.0: the offsets are drawn from [0, 0]
    # f^2 control points total ("3x3 for F=3"), so f points per axis
    m = frequency
    if m < 2:
        raise ParameterError("frequency must be >= 2 for a control grid")
    coords = np.linspace(0.0, span, m)
    u = random_doubles([(seed, i) for i in iterations], m * m).reshape(-1, m, m)
    high = amplitude / Z_RANGE_DIVISOR
    base = base_field(coords[:, None], coords[None, :], amplitude, frequency, span)
    z = base + (0.0 + (high - 0.0) * u)
    z[:, [0, -1], :] = 0.0
    z[:, :, [0, -1]] = 0.0
    return z


def control_grid(amplitude: float, frequency: int, seed: int, iteration: int,
                 span: float) -> np.ndarray:
    """One seeded (f, f) control grid (mm) for (A, f), drawn from its own
    (seed, iteration) stream.

    Offsets are drawn per control point in row-major order; the same inputs
    give a bit-identical grid whatever other iterations are generated.
    Boundary points stay anchored at z = 0.
    """
    return _control_grids(amplitude, frequency, seed, (iteration,), span)[0]


def generate_iterations(amplitude: float, frequency: int, n: int, seed: int,
                        span: float) -> np.ndarray:
    """The (n, f, f) control grids (mm) of iterations 0..n-1 for one (A, f)
    combination, every stream drawn in one call."""
    if n < 1:
        raise ParameterError("iteration count must be >= 1")
    return _control_grids(amplitude, frequency, seed, range(n), span)


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
        return float(lattice_area(self.coords_m, self.heights_m))

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


def lattice_area(coords_m: np.ndarray, h: np.ndarray):
    """TriangleMesh's area for each lane of the heights h (..., n, n)."""
    # each face's (b - a) x (c - a) as np.cross forms it, less the +0.0 x and y
    # edge parts (they can only flip a zero's sign, which squaring drops); lower
    # faces row-major, then upper faces, summed once per lane: a mesh's bits
    dx, dy, czcz = _plan_steps(coords_m.astype(np.float64, copy=False).tobytes())
    h00 = h[..., :-1, :-1]
    d10, d11, d01 = h[..., 1:, :-1] - h00, h[..., 1:, 1:] - h00, h[..., :-1, 1:] - h00
    sq = np.empty(h.shape[:-2] + (2,) + d11.shape[-2:])
    cx, cy = d10 * dy, d10 * dx - dx * d11  # lower face
    sq[..., 0, :, :] = cx * cx + cy * cy + czcz
    cx, cy = dy * d01 - d11 * dy, dx * d01  # upper face
    sq[..., 1, :, :] = cx * cx + cy * cy + czcz
    return 0.5 * np.sqrt(sq.reshape(h.shape[:-2] + (-1,))).sum(axis=-1)


# Bounded like the write_mesh caches: an entry is one lattice's plan data
@functools.lru_cache(maxsize=4)
def _plan_steps(coords: bytes):
    """Steps dx (column) and dy (row) of the float64 lattice coordinates
    packed in `coords`, and each cell's squared cross-product z part,
    (dx dy)^2, which is the same for both of its faces."""
    step = np.diff(np.frombuffer(coords, dtype=np.float64))
    step.flags.writeable = False  # shared by every mesh of the lattice
    dx, dy = step[:, None], step[None, :]
    czcz = np.square(dx * dy)
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
    """Interpolated surface over a span_mm x span_mm plan: the spline
    through its control grid and the mesh of its sampled lattice."""

    span_mm: float
    spline: GridSpline
    mesh: TriangleMesh

    def evaluate(self, x_mm, y_mm) -> np.ndarray:
        """Spline height (mm) on the grid of increasing plan coordinates (mm)."""
        return self.spline(x_mm, y_mm)

    def gradient(self, x_mm, y_mm, axis: str = "x") -> np.ndarray:
        """Spline slope dz/dx (axis "x") or dz/dy (axis "y") on the query grid."""
        if axis not in ("x", "y"):
            raise ParameterError(f"gradient axis must be 'x' or 'y', got {axis!r}")
        return self.spline(x_mm, y_mm, int(axis == "x"), int(axis == "y"))


def control_spline(z_mm, span_mm: float) -> GridSpline:
    """The interpolating spline, cubic once the grid allows it, through the (m, m)
    control heights z_mm (mm) over a span_mm square plan, or each lane of a stack."""
    m = np.shape(z_mm)[-1]
    coords = np.linspace(0.0, span_mm, m)
    return GridSpline(coords, coords, z_mm, k=min(3, m - 1))


def interpolate_surface(z_mm, span_mm: float, resolution: int) -> ShellSurface:
    """Fit the spline through the (m, m) control heights z_mm (mm), [i, j] at
    (x_i, y_j) of a span_mm x span_mm plan, and mesh it sampled on a
    resolution^2 lattice."""
    shape = np.shape(z_mm)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        raise ParameterError(f"control heights must be (m, m) with m >= 2, got {shape}")
    if resolution < shape[0]:
        raise ParameterError(f"resolution {resolution} below control grid size {shape[0]}")
    spline = control_spline(z_mm, span_mm)
    lattice = np.linspace(0.0, span_mm, resolution)
    mesh = TriangleMesh(coords_m=lattice / 1000.0, heights_m=spline(lattice, lattice) / 1000.0)
    return ShellSurface(span_mm=span_mm, spline=spline, mesh=mesh)


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
    img = np.clip(np.rint(255.0 * (1.0 - z / z_max)), 0, 255).astype(np.uint8)
    # image rows top-down: row 0 at y = L; columns left-right along x
    return img.T[::-1, :]


def write_pgm(image: np.ndarray) -> bytes:
    """A binary portable graymap (maxval 255) of the image."""
    h, w = image.shape
    return b"P5\n%d %d\n255\n" % (w, h) + image.astype(np.uint8).tobytes()


def write_mesh(mesh: TriangleMesh) -> bytes:
    """ASCII triangle mesh: `v x y z` lines (metres), `f i j k` 1-based.

    Vertex lines run i * n + j; the faces are every cell's lower face,
    row-major, then every upper face.
    """
    # only z changes between the surfaces of one lattice: the x/y text is
    # formatted once per distinct (exact-bytes) coordinate vector, the face
    # block once per lattice size
    xy = _vertex_template(mesh.coords_m.astype(np.float64, copy=False).tobytes())
    return xy % tuple(mesh.heights_m.ravel().tolist()) + _face_text(len(mesh.coords_m))


# b'%.9g' formats a float exactly as f"{x:.9g}".  Bounded: an entry holds
# one lattice's text, ~0.1 MB for each cache at 64 x 64
@functools.lru_cache(maxsize=4)
def _vertex_template(coords: bytes) -> bytes:
    """`v <x_i> <y_j> %.9g` lines over the float64 coordinates packed in `coords`."""
    text = [b"%.9g" % c for c in np.frombuffer(coords, dtype=np.float64).tolist()]
    return b"".join(b"v %s %s %%.9g\n" % (x, y) for x in text for y in text)


@functools.lru_cache(maxsize=4)
def _face_text(n: int) -> bytes:
    """`f i j k` lines, 1-based, of the lower then the upper faces of an n x n lattice."""
    idx = np.arange(1, n * n + 1).reshape(n, n)
    v00, v10, v01, v11 = idx[:-1, :-1], idx[1:, :-1], idx[:-1, 1:], idx[1:, 1:]
    faces = np.stack([np.stack([v00, v10, v11], axis=-1),
                      np.stack([v00, v11, v01], axis=-1)])
    return (b"f %d %d %d\n" * (faces.size // 3)) % tuple(faces.ravel().tolist())
