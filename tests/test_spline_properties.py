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
from chainshell.lapack import flapack
from chainshell.optimizer import (COLUMN_POSITIONS_M, LOAD_BEARING, AnchorKind,
                                  _anchor_points)
from chainshell.spline import GridSpline, thin_plate_grid

from helpers import PROPERTY, fitpack_spline, lane_stacks, rbf_thin_plate, same_bits

seeds = st.integers(0, 2**32 - 1)


@st.composite
def spline_cases(draw):
    """(control heights, span, x queries, y queries): m = 2..10 points a side.

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

    return z, span, queries(), queries()


@PROPERTY
@given(spline_cases())
def test_spline_values_and_slopes_match_fitpack_bitwise(case):
    z, span, qx, qy = case
    ours = shell3d.interpolate_surface(z, span, len(z)).spline
    oracle = fitpack_spline(z, span)
    assert same_bits(ours(qx, qy), oracle(qx, qy))
    for dx, dy in ((1, 0), (0, 1)):
        if len(z) == 2:  # FITPACK's parder takes no slope of a linear spline
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
    z, span, qx, qy = case
    if len(z) == 2:
        return
    surface = shell3d.interpolate_surface(z, span, resolution=len(z))
    oracle = fitpack_spline(z, span)
    # at resolution m the sampled lattice is the control grid
    coords = np.linspace(0.0, span, len(z))
    lattice = oracle(coords, coords)
    assert same_bits(surface.evaluate(coords, coords), lattice)
    assert same_bits(surface.mesh.heights_m, lattice / 1000.0)
    assert same_bits(surface.evaluate(qx, qy), oracle(qx, qy))
    assert same_bits(surface.gradient(qx, qy, axis="x"), oracle(qx, qy, dx=1))
    assert same_bits(surface.gradient(qx, qy, axis="y"), oracle(qx, qy, dy=1))


@PROPERTY
@given(lane_stacks())
def test_a_stack_fits_each_lane_as_its_own_grid_bitwise(case):
    # the fit's Givens loops on (L,) arrays: m = 2..10 points a side, each
    # with the production degree k = min(3, m - 1)
    z, span, _ = case
    stack = shell3d.control_spline(z, span)
    assert stack.coeffs.shape == z.shape
    for lane, grid in zip(stack.coeffs, z):
        assert same_bits(lane, shell3d.control_spline(grid, span).coeffs)


@PROPERTY
@given(lane_stacks(), st.sampled_from([4, 10, 64, 100, None]), st.integers(1, 3))
def test_a_stack_evaluates_each_lane_as_its_own_spline_bitwise(case, points, chunk):
    # the study's 4, 10, 64 and 100 point grids (None: uneven, unequal
    # random queries), on the whole stack and on chunks of it; each lane is
    # checked against its single spline and FITPACK, so an operation order
    # changed on both paths fails too
    z, span, rng = case
    if points is None:
        qx, qy = (np.sort(rng.uniform(-0.1 * span, 1.1 * span, rng.integers(1, 70)))
                  for _ in range(2))
    else:
        qx = qy = np.linspace(0.0, span, points)
    stack = shell3d.control_spline(z, span)
    whole = stack(qx, qy)
    parts = np.concatenate([stack[lo:lo + chunk](qx, qy) for lo in range(0, len(z), chunk)])
    slopes = [stack(qx, qy, 1, 0), stack(qx, qy, 0, 1)] if len(z[0]) > 2 else []
    for i, grid in enumerate(z):
        single = shell3d.control_spline(grid, span)
        oracle = fitpack_spline(grid, span)
        assert same_bits(single(qx, qy), oracle(qx, qy))
        assert same_bits(whole[i], oracle(qx, qy)) and same_bits(parts[i], whole[i])
        for (dx, dy), slope in zip(((1, 0), (0, 1)), slopes):
            assert same_bits(slope[i], oracle(qx, qy, dx=dx, dy=dy))


_LOAD_BEARING = [tuple(p) for p in COLUMN_POSITIONS_M[LOAD_BEARING].tolist()]
_FORMWORK = [tuple(p) for p in COLUMN_POSITIONS_M[~LOAD_BEARING].tolist()]


@PROPERTY
@given(st.sampled_from(list(AnchorKind)),
       st.lists(st.booleans(), min_size=len(_FORMWORK), max_size=len(_FORMWORK)),
       seeds)
def test_thin_plate_fit_matches_rbf_interpolator_bitwise(kind, kept, seed):
    # the optimizer's fits: ground pins on the anchors, then the four
    # load-bearing columns and a subset of the formwork columns
    anchors = list(_anchor_points(kind, 2.0))
    columns = _LOAD_BEARING + [p for p, keep in zip(_FORMWORK, kept) if keep]
    heights = np.random.default_rng(seed).uniform(0.0, 3.0, len(columns))
    xy = np.array(anchors + columns)
    z = np.concatenate([np.zeros(len(anchors)), heights])
    coords = np.linspace(0.0, 2.0, 33)
    fit = thin_plate_grid(xy, z, coords)
    # the same operations on the same dgesv give the same bits; scipy's own
    # dgesv, a different OpenBLAS build, differs in the last bits only:
    # within 1e-12 of the largest height (the fit is 0 at the anchors, so
    # the bound is relative to the field, not to each sample)
    assert same_bits(fit, rbf_thin_plate(xy, z, coords, dgesv=flapack().dgesv))
    oracle = rbf_thin_plate(xy, z, coords)
    assert np.abs(fit - oracle).max() <= 1e-12 * np.abs(oracle).max()
