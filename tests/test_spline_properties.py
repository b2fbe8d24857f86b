"""Property tests: the numpy spline and thin-plate fit against scipy, bit for bit.

`GridSpline` repeats FITPACK's floating-point operations in FITPACK's
order and `thin_plate_grid` those of RBFInterpolator, so on every
generated case the results must be equal, signs of zeros included.  The
oracles in `helpers` are the scipy.interpolate classes the package
replaced.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import RectBivariateSpline

from chainshell import shell3d
from chainshell.errors import ParameterError
from chainshell.optimizer import COLUMN_GRID_POSITIONS_M, AnchorConfig, AnchorKind
from chainshell.spline import GridSpline, thin_plate_grid

from helpers import PROPERTY, fitpack_spline, grid_from_z, rbf_thin_plate

seeds = st.integers(0, 2**32 - 1)


def same_bits(ours: np.ndarray, oracle: np.ndarray) -> bool:
    return (ours.shape == oracle.shape and np.array_equal(ours, oracle)
            and np.array_equal(np.signbit(ours), np.signbit(oracle)))


@st.composite
def spline_cases(draw):
    """(control grid, x queries, y queries): m = 2..10 points a side.

    Grids are random, or random inside a zero boundary as gen3d draws
    them (-0.0 too: FITPACK's sums start at +0.0); queries are uniform
    over the span or sorted random points that may fall outside it.
    """
    m = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(seeds))
    z = rng.normal(0.0, rng.uniform(0.0, 50.0), (m, m))
    boundary = draw(st.sampled_from([None, 0.0, -0.0]))
    if boundary is not None:
        z[0, :] = z[-1, :] = z[:, 0] = z[:, -1] = boundary
    span = draw(st.sampled_from([2000.0, 1.0, 3.7]))

    def queries():
        n = draw(st.integers(1, 70))
        if draw(st.booleans()):
            return np.linspace(0.0, span, n)
        return np.sort(rng.uniform(-0.1 * span, 1.1 * span, n))

    return grid_from_z(z, span), queries(), queries()


@PROPERTY
@given(spline_cases())
def test_spline_values_and_slopes_match_fitpack_bitwise(case):
    grid, qx, qy = case
    ours, oracle = shell3d._fit_spline(grid), fitpack_spline(grid)
    assert same_bits(ours(qx, qy), oracle(qx, qy))
    for dx, dy in ((1, 0), (0, 1)):
        if grid.F == 1:  # FITPACK's parder takes no slope of a linear spline
            with pytest.raises(ValueError):
                oracle(qx, qy, dx=dx, dy=dy)
            with pytest.raises(ParameterError, match="degree-1"):
                ours(qx, qy, dx, dy)
        else:
            assert same_bits(ours(qx, qy, dx, dy), oracle(qx, qy, dx=dx, dy=dy))


@PROPERTY
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 5), seeds)
def test_any_degree_on_uneven_coordinates_matches_fitpack_bitwise(mx, my, k, seed):
    # beyond the production grids: unequal axes, uneven spacing, even
    # degrees with midpoint knots, degrees above 3
    k = min(k, mx - 1, my - 1)
    rng = np.random.default_rng(seed)
    x, y = np.cumsum(rng.uniform(0.1, 2.0, mx)), np.cumsum(rng.uniform(0.1, 2.0, my))
    z = rng.normal(0.0, 3.0, (mx, my))
    ours, oracle = GridSpline(x, y, z, k), RectBivariateSpline(x, y, z, kx=k, ky=k, s=0)
    qx = np.sort(rng.uniform(x[0] - 1.0, x[-1] + 1.0, rng.integers(1, 40)))
    qy = np.sort(rng.uniform(y[0] - 1.0, y[-1] + 1.0, rng.integers(1, 40)))
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))[:4 if k > 1 else 1]:
        assert same_bits(ours(qx, qy, dx, dy), oracle(qx, qy, dx=dx, dy=dy))


@PROPERTY
@given(spline_cases())
def test_surfaces_evaluate_and_slope_like_fitpack(case):
    grid, qx, qy = case
    if grid.F == 1:
        return
    surface = shell3d.interpolate_surface(grid, resolution=grid.F + 1)
    oracle = fitpack_spline(grid)
    # at resolution F + 1 the sampled lattice is the control grid
    lattice = oracle(grid.coordinates(), grid.coordinates())
    assert same_bits(surface.evaluate(grid.coordinates(), grid.coordinates()), lattice)
    assert same_bits(surface.mesh.heights_m, lattice / 1000.0)
    assert same_bits(surface.evaluate(qx, qy), oracle(qx, qy))
    assert same_bits(surface.gradient(qx, qy, axis="x"), oracle(qx, qy, dx=1))
    assert same_bits(surface.gradient(qx, qy, axis="y"), oracle(qx, qy, dy=1))


_COLUMNS = [(x, y) for x in COLUMN_GRID_POSITIONS_M for y in COLUMN_GRID_POSITIONS_M]
_LOAD_BEARING = [p for p in _COLUMNS if {p[0], p[1]} <= {COLUMN_GRID_POSITIONS_M[0],
                                                          COLUMN_GRID_POSITIONS_M[-1]}]
_FORMWORK = [p for p in _COLUMNS if p not in _LOAD_BEARING]


@PROPERTY
@given(st.sampled_from(list(AnchorKind)),
       st.lists(st.booleans(), min_size=len(_FORMWORK), max_size=len(_FORMWORK)),
       seeds)
def test_thin_plate_fit_matches_rbf_interpolator_bitwise(kind, kept, seed):
    # the optimizer's fits: ground pins on the anchors, then the four
    # load-bearing columns and a subset of the formwork columns
    anchors = list(AnchorConfig(kind=kind, span_m=2.0).points)
    columns = _LOAD_BEARING + [p for p, keep in zip(_FORMWORK, kept) if keep]
    heights = np.random.default_rng(seed).uniform(0.0, 3.0, len(columns))
    xy = np.array(anchors + columns)
    z = np.concatenate([np.zeros(len(anchors)), heights])
    coords = np.linspace(0.0, 2.0, 33)
    assert same_bits(thin_plate_grid(xy, z, coords), rbf_thin_plate(xy, z, coords))
