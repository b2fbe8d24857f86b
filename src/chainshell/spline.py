"""Interpolating grid splines and the thin-plate fit, in numpy.

`GridSpline` is FITPACK's interpolating (s = 0) tensor-product spline on a
rectangular grid.  The fit follows regrid/fpregr/fpgrre and the grid
evaluation follows bispev/parder/fpbisp operation for operation, in the
same order, so heights and slopes equal scipy's RectBivariateSpline bit
for bit (Dierckx, *Curve and Surface Fitting with Splines*, 1993).  A
lane stack (L, nx, ny) is fitted and evaluated in one call, with the same
operations on (L,) arrays in place of floats: each lane has its own bits.

`thin_plate_grid` is the thin-plate interpolant r^2 log r plus a degree-1
polynomial that scipy's RBFInterpolator builds: the same shift and scale,
LAPACK's dgesv (numpy's OpenBLAS, through `chainshell.lapack`) on the
same matrices and the same final product.

Everything that does not depend on the data values (knots, Givens
rotations, basis rows, interval offsets, kernel columns) is computed once
per distinct exact-bytes key and kept in a bounded cache.
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

import numpy as np

from .errors import GeometryError, ParameterError
from .lapack import flapack

# query grids up to this size are summed as one block of terms (_grid_sum)
_BLOCK_POINTS = 4096


def _bspline_rows(t: np.ndarray, k: int, x: np.ndarray):
    """fpbspl at every x in [t[k], t[n-k-1]]: (l, h), one row per x.

    l is the knot interval of x, t[l] <= x < t[l+1] (the last interval
    closed), and h holds the k+1 B-splines that are non-zero on it, in
    fpbspl's operations.  Between the clamped end knots t[l] < t[l+1], so
    no divisor below is zero.
    """
    l = np.clip(np.searchsorted(t, x, side="right") - 1, k, len(t) - k - 2)
    h = np.zeros((len(x), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for i in range(1, j + 1):
            tli, tlj = t[l + i], t[l + i - j]
            f = hh[:, i - 1] / (tli - tlj)
            h[:, i - 1] = h[:, i - 1] + f * (tli - x)
            h[:, i] = f * (x - tlj)
    return l, h


def _knots(x: List[float], k: int) -> Tuple[float, ...]:
    """regrid's s = 0 knots: k+1 end knots each side, interior from the data.

    Odd k takes data points, even k the midpoints of neighbouring ones.
    """
    m, k3 = len(x), k // 2
    if k % 2:
        interior = [x[k3 + 1 + i] for i in range(m - k - 1)]
    else:
        interior = [(x[k3 + 1 + i] + x[k3 + i]) * 0.5 for i in range(m - k - 1)]
    return (min(x),) * (k + 1) + tuple(interior) + (max(x),) * (k + 1)


def _givens(piv: float, ww: float) -> Tuple[float, float, float]:
    """fpgivs: (cos, sin, new diagonal) of the rotation that zeroes piv."""
    store = abs(piv)
    if store >= ww:
        r = ww / piv
        dd = store * math.sqrt(1.0 + r * r)
    else:
        r = piv / ww
        dd = ww * math.sqrt(1.0 + r * r)
    return ww / dd, piv / dd, dd


# Bounded: an entry is one data axis (a few kB); lru_cache keeps no
# exceptions, so rejected coordinates raise every time
@functools.lru_cache(maxsize=32)
def _axis_fit(coords: bytes, k: int):
    """fpgrre along one axis, without the data.

    Returns (knots, steps, rows).  steps[it] lists the (row, cos, sin)
    Givens rotations that fold data point `it` into the triangle, zero
    pivots skipped.  rows lists the rows of the banded upper-triangular
    factor R last first, as (i, diagonal, ((column, value), ...)) with the
    zero entries of row i left out: subtracting c * 0.0 can only flip the
    sign of a zero, never change a non-zero value.
    """
    x = np.frombuffer(coords, dtype=np.float64)
    if not np.all(x[1:] > x[:-1]):
        raise ParameterError("spline data coordinates must be strictly increasing")
    if not 1 <= k < len(x):
        raise ParameterError(f"a degree-{k} spline needs more than {k} points per axis")
    t = _knots(x.tolist(), k)
    k1, nk1 = k + 1, len(t) - k - 1
    band = [[0.0] * k1 for _ in range(nk1)]
    steps = []
    intervals, basis = _bspline_rows(np.array(t), k, x)
    for l, h in zip(intervals.tolist(), basis.tolist()):
        number = l - k
        row = []
        for i in range(k1):
            piv = h[i]
            if piv == 0.0:
                continue
            irot = number + i
            a = band[irot]
            cos, sin, a[0] = _givens(piv, a[0])
            row.append((irot, cos, sin))
            for j in range(i + 1, k1):
                hj, aj = h[j], a[j - i]
                a[j - i] = cos * aj + sin * hj
                h[j] = cos * hj - sin * aj
        steps.append(tuple(row))
    rows = tuple((i, a[0], tuple((i + l, a[l]) for l in range(1, k1)
                                 if i + l < nk1 and a[l] != 0.0))
                 for i, a in reversed(list(enumerate(band))))
    return t, tuple(steps), rows


def _rotate(lanes, steps, width: int) -> List[List[float]]:
    """Fold the data into the triangle with fpgrre's Givens rotations (fprota).

    Each lane holds one value per data point, a float or the (L,) array of
    a stack; the same rotations act on every lane, so each lane is reduced
    on its own.  Returns the reduced lanes, `width` values each.
    """
    out = []
    for lane in lanes:
        q = [0.0] * width
        for r, rotations in zip(lane, steps):
            for irot, cos, sin in rotations:
                b = q[irot]
                q[irot] = cos * b + sin * r
                r = cos * r - sin * b
        out.append(q)
    return out


def _back(rows, lanes) -> List[List[float]]:
    """fpback on each lane: solve R c = lane in place, last row first."""
    out = []
    for lane in lanes:
        c = list(lane)
        for i, diag, terms in rows:
            store = c[i]
            for col, a in terms:
                store = store - c[col] * a
            c[i] = store / diag
        out.append(c)
    return out


# Bounded: an entry is one query vector's basis, ~16 kB at 256 queries
@functools.lru_cache(maxsize=64)
def _basis(knots: Tuple[float, ...], k: int, query: bytes):
    """fpbisp's basis for increasing queries, clamped to the end knots.

    Returns read-only (index, weights), both (q, k+1): query i takes
    coefficient index[i, i1] with weight weights[i, i1].
    """
    t = np.array(knots)
    x = np.frombuffer(query, dtype=np.float64)
    if not np.all(x[1:] >= x[:-1]):
        raise ParameterError("spline queries must be in increasing order")
    l, weights = _bspline_rows(t, k, np.clip(x, t[k], t[len(t) - k - 1]))
    index = (l - k)[:, None] + np.arange(k + 1)
    index.flags.writeable = False
    weights.flags.writeable = False
    return index, weights


# Bounded: an entry is ~80 kB at 256 queries and 10 coefficients
@functools.lru_cache(maxsize=64)
def _expand(knots: Tuple[float, ...], k: int, query: bytes) -> np.ndarray:
    """The y weights as (k+1) matrices that multiply exactly.

    blocks[j1] is (n, q) with blocks[j1][index[j, j1], j] = weights[j, j1]
    and zeros elsewhere.  Each column holds one weight, so (row @
    blocks[j1])[j] is the single product row[index[j, j1]] * weights[j, j1],
    rounded once, whatever order the product sums its zero terms in.
    """
    index, weights = _basis(knots, k, query)
    blocks = np.zeros((k + 1, len(knots) - k - 1, len(index)))
    blocks[np.arange(k + 1), index, np.arange(len(index))[:, None]] = weights
    blocks.flags.writeable = False
    return blocks


def _grid_sum(c: np.ndarray, index, wx, blocks) -> np.ndarray:
    """fpbisp's double sum on each lane of c (..., n, n): 0.0 plus, i1 outer
    and j1 inner, (c * wx) * wy."""
    nx, kx1 = wx.shape
    ky1, n, ny = blocks.shape
    # [i1] = c * wx, the lanes' x rows stacked: (L nx, n)
    rows = np.moveaxis(c[..., index, :] * wx[:, :, None], -2, 0).reshape(kx1, -1, n)
    if rows.shape[1] * ny <= _BLOCK_POINTS:  # every term in one product, [i1 * ky1 + j1]
        terms = iter(np.matmul(rows[:, None], blocks[None]).reshape(kx1 * ky1, -1, ny))
    else:
        term = np.empty((rows.shape[1], ny))
        terms = (np.matmul(row, block, out=term) for row in rows for block in blocks)
    z = next(terms) + 0.0  # a new array, not a view that keeps every term
    for term in terms:
        z += term
    return z.reshape(c.shape[:-2] + (nx, ny))


class GridSpline:
    """Interpolating spline of degree k through z on the grid x by y (s = 0),
    or one per lane of a stack z (L, nx, ny); indexing a stack picks lanes.

    Calling it evaluates on the grid spanned by increasing query vectors,
    `[..., i, j] = (x_i, y_j)`, with queries clamped to the data range.
    """

    __slots__ = ("k", "tx", "ty", "coeffs")

    def __init__(self, x, y, z, k: int):
        tx, steps_x, rows_x = _axis_fit(np.asarray(x, dtype=np.float64).tobytes(), k)
        ty, steps_y, rows_y = _axis_fit(np.asarray(y, dtype=np.float64).tobytes(), k)
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (2, 3) or z.shape[-2:] != (len(rows_x), len(rows_y)):
            raise ParameterError(f"z must be {(len(rows_x), len(rows_y))} or a stack "
                                 f"of them, got {z.shape}")
        self.k, self.tx, self.ty = k, tx, ty
        # the x direction on the rows of z, one lane per y, then the y
        # direction; g is indexed [y][x row of R], h [x row][y row]
        g = _rotate(z.T.tolist() if z.ndim == 2 else z.T, steps_x, len(rows_x))
        h = _rotate(zip(*g), steps_y, len(rows_y))
        # R_y c1 = h for every x row, then c R_x' = c1 for every y column
        c = _back(rows_x, zip(*_back(rows_y, h)))
        self.coeffs = np.array(c).T  # [..., i, j]: x B-spline i, y B-spline j

    def __getitem__(self, lanes) -> "GridSpline":
        part = object.__new__(GridSpline)
        part.k, part.tx, part.ty, part.coeffs = self.k, self.tx, self.ty, self.coeffs[lanes]
        return part

    def __call__(self, x, y, dx: int = 0, dy: int = 0) -> np.ndarray:
        if (dx or dy) and not (0 <= dx < self.k and 0 <= dy < self.k):
            raise ParameterError(f"derivative order ({dx}, {dy}) of a degree-{self.k} "
                                 f"spline: each order must be 0..{self.k - 1}")
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.size == 0 or y.size == 0:
            return np.zeros(self.coeffs.shape[:-2] + (x.size, y.size))
        c, tx, ty = self._coefficients(dx, dy)
        index, wx = _basis(tx, self.k - dx, x.tobytes())
        return _grid_sum(c, index, wx, _expand(ty, self.k - dy, y.tobytes()))

    def _coefficients(self, dx: int, dy: int):
        """parder: coefficients and knots of the (dx, dy) partial derivative."""
        c, tx, ty = self.coeffs, self.tx, self.ty
        for order in range(dx):
            kk = self.k - order
            fac = np.subtract(tx[1 + kk:len(tx) - 1], tx[1:len(tx) - 1 - kk])
            c = (c[..., 1:, :] - c[..., :-1, :]) * float(kk) / fac[:, None]
            tx = tx[1:-1]
        for order in range(dy):
            kk = self.k - order
            fac = np.subtract(ty[1 + kk:len(ty) - 1], ty[1:len(ty) - 1 - kk])
            c = (c[..., 1:] - c[..., :-1]) * float(kk) / fac
            ty = ty[1:-1]
        return c, tx, ty


def thin_plate_grid(points: np.ndarray, values: np.ndarray,
                    coords: np.ndarray) -> np.ndarray:
    """Thin-plate interpolant through (x, y) points, sampled on coords x coords.

    Returns the (n, n) heights, [i, j] at (coords[i], coords[j]).
    """
    y = np.ascontiguousarray(points, dtype=np.float64)
    d = np.asarray(values, dtype=np.float64)
    p = len(y)
    if y.shape != (p, 2) or d.shape != (p,) or p < 3:
        raise ParameterError("a thin-plate fit needs at least 3 (x, y) points")
    mins, maxs = y.min(axis=0), y.max(axis=0)
    shift, scale = (maxs + mins) / 2, (maxs - mins) / 2
    scale[scale == 0.0] = 1.0
    poly = np.column_stack([np.ones(p), (y - shift) / scale])

    lhs = np.zeros((p + 3, p + 3), order="F")
    r = np.sqrt(np.square(y[:, None, 0] - y[None, :, 0])
                + np.square(y[:, None, 1] - y[None, :, 1]))
    lhs[:p, :p] = _thin_plate(r)
    lhs[:p, p:] = poly
    lhs[p:, :p] = poly.T
    rhs = np.zeros((p + 3, 1), order="F")
    rhs[:p, 0] = d
    _, _, coeffs, info = flapack().dgesv(lhs, rhs, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise GeometryError("thin-plate fit is singular: the points are collinear")

    grid = np.ascontiguousarray(coords, dtype=np.float64).tobytes()
    n = len(coords)
    vec = np.empty((n * n, p + 3))
    for i, point in enumerate(y):
        vec[:, i] = _kernel_column(point.tobytes(), grid)
    vec[:, p] = 1.0
    vec[:, p + 1:] = (_grid_points(grid) - shift) / scale
    return (vec @ coeffs).reshape(n, n)


def _thin_plate(r: np.ndarray) -> np.ndarray:
    """r^2 log r elementwise (0 at r = 0), with libm's log as scipy uses it.

    numpy's vectorized log can differ from libm's in the last bit, so the
    log runs per value; on a lattice most distances repeat, so once per
    distinct value.
    """
    values, inverse = np.unique(r, return_inverse=True)
    kernel = [v * v * math.log(v) if v != 0.0 else 0.0 for v in values.tolist()]
    return np.array(kernel)[inverse].reshape(r.shape)


@functools.lru_cache(maxsize=8)
def _grid_points(coords: bytes) -> np.ndarray:
    """The (n*n, 2) plan points of the coords x coords grid, x-major."""
    c = np.frombuffer(coords, dtype=np.float64)
    X, Y = np.meshgrid(c, c, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    pts.flags.writeable = False
    return pts


@functools.lru_cache(maxsize=64)
def _kernel_column(point: bytes, coords: bytes) -> np.ndarray:
    """Kernel values from one data point to every point of the grid."""
    pts = _grid_points(coords)
    px, py = np.frombuffer(point, dtype=np.float64)
    col = _thin_plate(np.sqrt(np.square(pts[:, 0] - px) + np.square(pts[:, 1] - py)))
    col.flags.writeable = False
    return col
