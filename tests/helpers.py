"""Shared fixtures-in-code: independent oracles and cheap model builders."""
from __future__ import annotations

import dataclasses
import importlib
import io
import math
import os
from contextlib import nullcontext
from pathlib import Path
from typing import TextIO
from unittest import mock

import numpy as np
from hypothesis import settings, strategies as st
from scipy.interpolate import RBFInterpolator, RectBivariateSpline

import chainshell
from chainshell import loads, pipeline
from chainshell.config import PipelineConfig, derive_seed
from chainshell.errors import GeometryError, ParameterError
from chainshell.fem import (FIXED, PINNED, BeamSection, FrameModel, _local_stiffness,
                            _rotations, analyze_shell, assemble_stiffness, default_supports,
                            frame_from_surface)
from chainshell.filtering import measure
from chainshell.optimizer import (_ANCHOR_CORNERS, COLUMN_POSITIONS_M, KINDS, LOAD_BEARING,
                                  AnchorKind, Study, _anchor_points)
from chainshell.pipeline import filter_pool, structure_spec
from chainshell.shell3d import (ShellSurface, TriangleMesh, generate_iterations,
                               group_parameters, interpolate_surface, random_doubles)
from chainshell.units import Shape, UnitCell

# reproducible property examples, no example database written next to the tests
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

def fresh_interpreter_env() -> dict:
    """os.environ with this chainshell first on PYTHONPATH, for a child
    interpreter."""
    src = str(Path(chainshell.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# the default config and what the pipeline reads from it
CONFIG = PipelineConfig()
SPEC = structure_spec(CONFIG)
# the frame moduli the default config gives, as FrameModel keywords
MODULI = {"elastic_modulus": SPEC.elastic_modulus, "shear_modulus": SPEC.shear_modulus}
BEAM_E = SPEC.elastic_modulus  # Pa
BEAM_SECTION = BeamSection(area=1e-3, inertia_y=2e-6, inertia_z=3e-6,
                           torsion_J=5e-6)


def profile_height(x: float, amplitude: float, frequency: int, span: float) -> float:
    """Section profile height y(x) = A sin(2 pi f x / L), mm, for 0 <= x <= L."""
    if not 0.0 <= x <= span:
        raise ParameterError(f"x={x} outside span [0, {span}]")
    return amplitude * math.sin(2.0 * math.pi * frequency * x / span)


def profile_curvature(x: float, amplitude: float, frequency: int, span: float) -> float:
    """Unsigned analytic curvature |y''| / (1 + y'^2)^(3/2) of the section
    profile, 1/mm, for 0 <= x <= L."""
    if not 0.0 <= x <= span:
        raise ParameterError(f"x={x} outside span [0, {span}]")
    k = 2.0 * math.pi * frequency / span
    yp = amplitude * k * math.cos(k * x)
    ypp = -amplitude * k * k * math.sin(k * x)
    return abs(ypp) / (1.0 + yp * yp) ** 1.5


def raster_solid_fraction(cell: UnitCell, resolution: int = 2048) -> float:
    """Pixel-count the ring band inside one tiling cell.

    Independent of the closed-form area model: a pixel is solid when its
    centre lies within d/2 of the ring centreline.  Centrelines use mitred
    (sharp) corners, so the band area is exactly centreline_length * d and
    the two estimates must agree up to pixelation error.
    """
    pitch = cell.cell_pitch
    assert pitch is not None and pitch > 0
    L, d = cell.member_length_L, cell.rod_diameter_d
    centres = (np.arange(resolution) + 0.5) / resolution * pitch
    X, Y = np.meshgrid(centres, centres, indexing="ij")
    px = X - pitch / 2.0
    py = Y - pitch / 2.0

    if cell.shape is Shape.RECTANGULAR:
        # square outline: Chebyshev distance from centre equals L/2 on it
        dist = np.abs(np.maximum(np.abs(px), np.abs(py)) - L / 2.0)
    elif cell.shape is Shape.CIRCULAR:
        radius = L / (2.0 * math.pi)
        dist = np.abs(np.hypot(px, py) - radius)
    else:
        # equilateral triangle, side L, centroid at the cell centre; the
        # signed distance to the boundary is the smallest inward distance
        # over the three edge half-planes (inradius L / (2 sqrt(3)))
        inradius = L / (2.0 * math.sqrt(3.0))
        inward = []
        for k in range(3):
            angle = math.pi / 2.0 + 2.0 * math.pi * k / 3.0
            inward.append(inradius - (px * math.cos(angle) + py * math.sin(angle)))
        dist = np.abs(np.minimum(np.minimum(inward[0], inward[1]), inward[2]))

    solid = dist <= d / 2.0
    return float(solid.sum()) / float(resolution * resolution)


def same_bits(ours, oracle) -> bool:
    """Equal shapes and equal bits, signs of zeros included."""
    ours, oracle = np.asarray(ours), np.asarray(oracle)
    return (ours.shape == oracle.shape and np.array_equal(ours, oracle)
            and np.array_equal(np.signbit(ours), np.signbit(oracle)))


@st.composite
def lane_stacks(draw, scale_mm: float = 50.0):
    """(stack, span, rng): 1 to 7 lanes of (m, m) control grids, m = 2..10,
    heights around +-scale_mm, the boundary maybe all +0.0 or all -0.0 as the
    pools and the anchors set it, and one lane maybe all +0.0 or -0.0."""
    m, lanes = draw(st.integers(2, 10)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(0.0, rng.uniform(0.0, scale_mm), (lanes, m, m))
    boundary = draw(st.sampled_from([None, 0.0, -0.0]))
    if boundary is not None:
        z[:, 0, :] = z[:, -1, :] = z[:, :, 0] = z[:, :, -1] = boundary
    flat = draw(st.sampled_from([None, 0.0, -0.0]))
    if flat is not None:
        z[rng.integers(lanes)] = flat
    return z, draw(st.sampled_from([2000.0, 1.0, 3.7])), rng


def fitpack_spline(z_mm: np.ndarray, span_mm: float) -> RectBivariateSpline:
    """FITPACK's interpolating spline through (m, m) control heights over a
    span_mm square (the GridSpline oracle)."""
    m = len(z_mm)
    coords = np.linspace(0.0, span_mm, m)
    k = min(3, m - 1)
    return RectBivariateSpline(coords, coords, z_mm, kx=k, ky=k, s=0)


def _rbf_solver_module():
    """The scipy.interpolate module whose `dgesv` RBFInterpolator solves
    its system with (`_rbfinterp_np` from scipy 1.17, `_rbfinterp` before)."""
    for name in ("scipy.interpolate._rbfinterp_np", "scipy.interpolate._rbfinterp"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(module, "dgesv"):
            return module
    raise LookupError("no scipy.interpolate module binds dgesv")


def rbf_thin_plate(xy: np.ndarray, z: np.ndarray, coords: np.ndarray,
                   dgesv=None) -> np.ndarray:
    """RBFInterpolator's thin-plate fit sampled on coords x coords, [i, j] = (x_i, y_j).

    With `dgesv` given, RBFInterpolator solves its system with that routine
    in place of scipy's own."""
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    with mock.patch.object(_rbf_solver_module(), "dgesv", dgesv) if dgesv else nullcontext():
        rbf = RBFInterpolator(xy, z, kernel="thin_plate_spline")
    return rbf(np.column_stack([X.ravel(), Y.ravel()])).reshape(len(coords), len(coords))


def flat_surface(height_mm: float = 0.0, span_mm: float = CONFIG.gen3d.span_mm,
                 F: int = 4, resolution: int = 33) -> ShellSurface:
    z = np.full((F + 1, F + 1), float(height_mm))
    return interpolate_surface(z, span_mm, resolution)


def pool_surfaces(amplitude: float, frequency: int, seed: int = 42) -> list:
    """A default-config pool's surfaces for (A, f), keyed by `seed`."""
    gen3d = CONFIG.gen3d
    grids = generate_iterations(amplitude, frequency, gen3d.iterations, seed, gen3d.span_mm)
    return [interpolate_surface(g, gen3d.span_mm, gen3d.resolution) for g in grids]


def default_frame(surface: ShellSurface, grid: int = CONFIG.fem.lattice_grid) -> FrameModel:
    """The frame the default config builds for a surface."""
    return frame_from_surface(surface, grid, SPEC, default_supports(grid, CONFIG.fem.supports))


def default_analysis(surface: ShellSurface, case: loads.LoadCase,
                     grid: int = CONFIG.fem.lattice_grid):
    """The frame solve the default config makes of a surface under a load case."""
    return analyze_shell(surface, case, SPEC, default_supports(grid, CONFIG.fem.supports),
                         grid)


def chain_ends(n_elems: int) -> np.ndarray:
    """Ends of the elements joining nodes 0, 1, ..., n_elems in a chain."""
    return np.column_stack([np.arange(n_elems), np.arange(1, n_elems + 1)])


def dense_stiffness(model: FrameModel) -> np.ndarray:
    """Dense global K, each element block added at its DOFs with np.add.at."""
    ke, dofs = assemble_stiffness(model)
    K = np.zeros((model.dof_count, model.dof_count))
    np.add.at(K, (dofs[:, :, None], dofs[:, None, :]), ke)
    return K


def einsum_element_blocks(model: FrameModel, block: slice = slice(None)) -> np.ndarray:
    """The (b, 12, 12) global element blocks lam^T k lam of the elements in
    block, contracted by np.einsum lam with k first: the oracle for
    assemble_stiffness's matmul form."""
    ends = model.ends[block]
    delta = model.nodes[ends[:, 1]] - model.nodes[ends[:, 0]]
    length = np.linalg.norm(delta, axis=1)
    lam = np.zeros((len(ends), 12, 12))
    t3 = _rotations(delta / length[:, None])
    for b in range(4):
        lam[:, 3 * b:3 * b + 3, 3 * b:3 * b + 3] = t3
    return np.einsum("eki,ekl,elj->eij", lam, _local_stiffness(model, length), lam,
                     optimize=["einsum_path", (0, 1), (0, 1)])


def restraint(n_nodes: int, nodes, kind: np.ndarray) -> np.ndarray:
    """(n_nodes, 6) restraint mask holding the DOFs of `kind` at `nodes`."""
    mask = np.zeros((n_nodes, 6), dtype=bool)
    mask[list(nodes)] = kind
    return mask


def point_forces(model: FrameModel, forces: dict) -> np.ndarray:
    """The model's (N, 3) nodal force table, N, from {node: (fx, fy, fz)}."""
    table = np.zeros((len(model.nodes), 3))
    for node, force in forces.items():
        table[node] = force
    return table


def cantilever_model(n_elems: int = 6, length: float = 1.5) -> FrameModel:
    """Horizontal beam along x, fully fixed at node 0."""
    xs = np.linspace(0.0, length, n_elems + 1)
    nodes = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    return FrameModel(nodes=nodes, ends=chain_ends(n_elems), section=BEAM_SECTION,
                      restrained=restraint(n_elems + 1, [0], FIXED), **MODULI)


def simply_supported_model(n_elems: int = 16, span: float = 2.0) -> FrameModel:
    """Pin-pin beam with a short transverse stub at each end.

    A bare chain of collinear elements can spin freely about its own axis;
    the stubs (pinned at their far ends) restrain that twist while leaving
    the bending plane untouched.
    """
    xs = np.linspace(0.0, span, n_elems + 1)
    nodes = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    nodes = np.vstack([nodes, [0.0, 0.25, 0.0], [span, 0.25, 0.0]])
    ends = np.vstack([chain_ends(n_elems), [(0, n_elems + 1), (n_elems, n_elems + 2)]])
    pinned = restraint(n_elems + 3, [0, n_elems, n_elems + 1, n_elems + 2], PINNED)
    return FrameModel(nodes=nodes, ends=ends, section=BEAM_SECTION, restrained=pinned,
                      **MODULI)


def uniform_beam_loads(n_elems: int, span: float, w: float) -> np.ndarray:
    """Distributed w N/m lumped at the nodes of simply_supported_model's
    span, as its (n_elems + 3, 3) force table; the stubs carry none."""
    h = span / n_elems
    loads = np.zeros((n_elems + 3, 3))
    loads[1:n_elems, 2] = -w * h
    loads[[0, n_elems], 2] = -w * h / 2.0
    return loads


# The {node: kind} support dicts the restraint masks replaced, kept as
# oracles: each kind restrains its tuple of DOFs, and a node keeps the last
# kind written to it, so the design supports write their pins last
_KIND_DOFS = {"fixed": (0, 1, 2, 3, 4, 5), "pinned": (0, 1, 2), "sliding": (2,)}


def dict_restraint(n_nodes: int, supports: dict) -> np.ndarray:
    """Reference (n_nodes, 6) restraint mask of a {node: kind} dict."""
    flat = np.zeros(n_nodes * 6, dtype=bool)
    flat[[node * 6 + d for node, kind in sorted(supports.items())
          for d in _KIND_DOFS[kind]]] = True
    return flat.reshape(n_nodes, 6)


def dict_default_supports(grid: int, mode: str) -> dict:
    """Reference shell supports: every edge node fixed, or the four corners pinned."""
    n = grid + 1
    if mode == "boundary-fixed":
        return {i * n + j: "fixed" for i in range(n) for j in range(n)
                if i in (0, grid) or j in (0, grid)}
    return {c: "pinned" for c in (0, grid, grid * n, grid * n + grid)}


def _nearest_node(span_m: float, grid: int, x: float, y: float) -> int:
    """Nearest (grid+1)^2 lattice node to one plan point, clamped to the span."""
    step = span_m / grid
    i = min(max(int(round(x / step)), 0), grid)
    j = min(max(int(round(y / step)), 0), grid)
    return i * (grid + 1) + j


def dict_support_nodes(grid: int, kind: AnchorKind, span_m: float, kept: np.ndarray) -> dict:
    """Reference shelter-design supports, each column placed on its own:
    sliding bases under the kept formwork columns, then pins under the
    anchors and the kept load-bearing columns, which win a shared node."""
    supports = {_nearest_node(span_m, grid, *COLUMN_POSITIONS_M[k].tolist()): "sliding"
                for k in np.flatnonzero(kept & ~LOAD_BEARING).tolist()}
    for x, y in _anchor_points(kind, span_m):
        supports[_nearest_node(span_m, grid, x, y)] = "pinned"
    for k in np.flatnonzero(kept & LOAD_BEARING).tolist():
        supports[_nearest_node(span_m, grid, *COLUMN_POSITIONS_M[k].tolist())] = "pinned"
    return supports


def pairwise_noncollinear(pts: np.ndarray) -> bool:
    """Reference collinearity test: some pair of offsets from the first point
    has a plan cross product above 1e-12, checked pair by pair."""
    p0 = pts[0]
    for a in range(1, len(pts)):
        for b in range(a + 1, len(pts)):
            cross = ((pts[a][0] - p0[0]) * (pts[b][1] - p0[1])
                     - (pts[a][1] - p0[1]) * (pts[b][0] - p0[0]))
            if abs(cross) > 1e-12:
                return True
    return False


def synthetic_study(rows) -> Study:
    """Hand-built study table for exercising the ranking rules in isolation,
    one row per (cid, cms, ua, lc_m3, fc_m3, drainage) tuple: LC and FC
    spread evenly over the load-bearing and the formwork columns.  A row
    that fails drainage fails it at the plan origin."""
    cids, cms, ua, lc, fc, drainage = (list(column) for column in zip(*rows))
    volumes = np.where(LOAD_BEARING, np.divide(lc, LOAD_BEARING.sum())[:, None],
                       np.divide(fc, (~LOAD_BEARING).sum())[:, None])
    fails = np.zeros((len(cids), 100), dtype=bool)
    fails[:, 0] = np.logical_not(drainage)
    return Study(ids=np.array(cids, dtype=str),
                 kinds=np.full(len(cids), KINDS.index(AnchorKind.FOUR)),
                 controls_mm=np.full((len(cids), 5, 5), 1600.0),
                 heights_m=np.ones((len(cids), 16)), volumes_m3=volumes,
                 cms_m2=np.array(cms, dtype=float), ua_m2=np.array(ua, dtype=float),
                 min_slope=np.full(len(cids), 0.05), fails=fails)


def synthetic_candidate(cid: str, cms: float, ua: float, lc_m3: float = 0.012,
                        fc_m3: float = 0.036, drainage: bool = True) -> tuple:
    """One synthetic_study row, with the default LC and FC."""
    return cid, cms, ua, lc_m3, fc_m3, drainage


def list_grade(values) -> list:
    """The cohort grades as a list, one value at a time: lowest 100, highest 1."""
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return [100.0] * len(arr)
    return list(1.0 + 99.0 * ((hi - arr) / (hi - lo)))


@dataclasses.dataclass(frozen=True, eq=False)
class _Candidate:
    """One study row as its own record, as the per-candidate ranking kept it."""

    row: int
    cms_m2: float
    ua_m2: float
    column_volumes_m3: np.ndarray
    drains: bool
    grades: dict = None
    weighted_score: float = None

    @property
    def lc_m3(self) -> float:
        return sum(self.column_volumes_m3[LOAD_BEARING].tolist())

    @property
    def fc_m3(self) -> float:
        return sum(self.column_volumes_m3[~LOAD_BEARING].tolist())


def record_rank_designs(study: Study, weights) -> tuple:
    """Oracle for rank_designs: one record per candidate, each survivor
    graded with dataclasses.replace and the survivors sorted by sorted() on
    the key (-score, CMS, -UA, index).  Returns the row order (survivors best
    first, then the rejects in input order), and the grades and scores by row."""
    candidates = [_Candidate(i, cms, ua, volumes, drains) for i, (cms, ua, volumes, drains)
                  in enumerate(zip(study.cms_m2.tolist(), study.ua_m2.tolist(),
                                   study.volumes_m3, study.drains.tolist()))]
    survivors = [c for c in candidates if c.drains]
    rejected = [c for c in candidates if not c.drains]
    grades, scores = {}, {}
    if survivors:
        g_cms = list_grade([c.cms_m2 for c in survivors])
        g_ua = list_grade([-c.ua_m2 for c in survivors])
        g_lc = list_grade([c.lc_m3 for c in survivors])
        g_fc = list_grade([c.fc_m3 for c in survivors])
        w_cms, w_ua, w_lc, w_fc = weights
        scored = [dataclasses.replace(c, grades={"CMS": cms, "UA": ua, "LC": lc, "FC": fc},
                                      weighted_score=w_cms * cms + w_ua * ua + w_lc * lc
                                      + w_fc * fc)
                  for c, cms, ua, lc, fc in zip(survivors, g_cms, g_ua, g_lc, g_fc)]
        order = sorted(range(len(scored)),
                       key=lambda i: (-scored[i].weighted_score, scored[i].cms_m2,
                                      -scored[i].ua_m2, i))
        survivors = [scored[i] for i in order]
        grades = {c.row: [c.grades[k] for k in ("CMS", "UA", "LC", "FC")] for c in survivors}
        scores = {c.row: c.weighted_score for c in survivors}
    return [c.row for c in survivors + rejected], grades, scores


def shelter_control_grid(config: PipelineConfig, seed: int, kind: AnchorKind,
                         anchor_index: int, iteration: int) -> np.ndarray:
    """One shelter candidate's control heights (mm) drawn from its own
    stream alone, the oracle for the study's one batched draw: random dome
    heights, anchors at zero.

    Heights are drawn uniformly in [0, A_i] metres where the iteration's
    amplitude A_i is itself drawn within the [optimizer] cap; control points
    over anchor corners are clamped to the ground.  The draws are the first
    doubles of the (seed * 5 + anchor_index, iteration) stream: A_i, then
    the heights in row-major order, each mapped as low + (high - low) * u.
    """
    block = config.optimizer
    m = block.control_F + 1
    u = random_doubles([(seed * 5 + anchor_index, iteration)], 1 + m * m)[0]
    lo = block.amplitude_min_fraction * block.amplitude_cap_m
    amp_m = float(lo + (block.amplitude_cap_m - lo) * u[0])
    z_mm = 0.0 + (amp_m * 1000.0 - 0.0) * u[1:].reshape(m, m)
    for fx, fy in _ANCHOR_CORNERS[kind]:
        z_mm[fx * (m - 1), fy * (m - 1)] = 0.0
    return z_mm


def dome_control(height_m: float = 3.0, radius_m: float = 0.95,
                 span_mm: float = CONFIG.gen3d.span_mm, F: int = 16) -> np.ndarray:
    """(F+1, F+1) control heights (mm) of a clipped paraboloid dome centred
    on the plan: z(r) = H (1 - r^2 / R^2) above the rim, 0 outside."""
    coords_m = np.linspace(0.0, span_mm / 1000.0, F + 1)
    X, Y = np.meshgrid(coords_m, coords_m, indexing="ij")
    cx = cy = span_mm / 2000.0
    r2 = (X - cx) ** 2 + (Y - cy) ** 2
    return np.maximum(height_m * (1.0 - r2 / radius_m ** 2), 0.0) * 1000.0


def dome_surface(height_m: float = 3.0, radius_m: float = 0.95,
                 span_mm: float = CONFIG.gen3d.span_mm, F: int = 16,
                 resolution: int = CONFIG.gen3d.resolution) -> ShellSurface:
    """The surface through dome_control; closed-form clear area.

    The plan region with clear height >= h is the disc r <= R sqrt(1 - h / H)
    of area pi R^2 (1 - h / H).
    """
    return interpolate_surface(dome_control(height_m, radius_m, span_mm, F),
                               span_mm, resolution)


def read_pgm(data: bytes) -> np.ndarray:
    """Parse the binary portable graymap (maxval 255) `shell3d.write_pgm` returns."""
    stream = io.BytesIO(data)
    magic = stream.readline().strip()
    if magic != b"P5":
        raise ParameterError("not a binary portable graymap")
    w, h = (int(v) for v in stream.readline().split())
    if int(stream.readline()) != 255:
        raise ParameterError("expected maxval 255")
    return np.frombuffer(stream.read(w * h), dtype=np.uint8).reshape(h, w)


def read_mesh(data: bytes):
    """Parse the `v` / `f` lines `shell3d.write_mesh` returns: (vertices, faces)."""
    vertices, faces = [], []
    for line in data.decode("ascii").splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(p) - 1 for p in parts[1:4]])
    return np.array(vertices, dtype=float), np.array(faces, dtype=int)


# The general triangle-mesh routines the lattice height field replaced, kept
# as oracles: a lattice mesh is spelled out as its (n^2, 3) vertex array and
# (2 (n-1)^2, 3) face array, and measured the way any mesh would be


def lattice_vertices(mesh: TriangleMesh) -> np.ndarray:
    """Reference vertex array: vertex i * n + j at (x_i, y_j, heights_m[i, j])."""
    X, Y = np.meshgrid(mesh.coords_m, mesh.coords_m, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel(), mesh.heights_m.ravel()])


def per_call_lattice_faces(n: int) -> np.ndarray:
    """Reference lattice faces: every cell's lower face (v00, v10, v11), row-major,
    then every upper face (v00, v11, v01)."""
    idx = np.arange(n * n).reshape(n, n)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[1:, :-1].ravel()
    v01 = idx[:-1, 1:].ravel()
    v11 = idx[1:, 1:].ravel()
    return np.concatenate([
        np.column_stack([v00, v10, v11]),
        np.column_stack([v00, v11, v01]),
    ])


def gather_area(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Reference surface area: edge vectors gathered one coordinate column at
    a time, the components of np.cross spelled out."""
    i0, i1, i2 = faces.T
    (ux, wx), (uy, wy), (uz, wz) = ((p[i1] - p[i0], p[i2] - p[i0])
                                    for p in vertices.T)
    cx = uy * wz - uz * wy
    cy = uz * wx - ux * wz
    cz = ux * wy - uy * wx
    return float(0.5 * np.sqrt(cx * cx + cy * cy + cz * cz).sum())


def cross_product_area(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Reference surface area: half the summed np.cross norms."""
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


def search_boundary_edges(faces: np.ndarray) -> np.ndarray:
    """Reference boundary finder: edges used by exactly one face, (lo, hi).

    Each edge is keyed as lo * n + hi with n above every index, so the
    sorted unique keys list the pairs in lexicographic order.
    """
    start = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    end = start[:, [1, 2, 0]]
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    n = int(hi.max(initial=0)) + 1
    keys, counts = np.unique((lo * n + hi).ravel(), return_counts=True)
    if (counts > 2).any():
        raise GeometryError("non-manifold mesh: an edge is shared by >2 faces")
    boundary = keys[counts == 1]
    return np.column_stack([boundary // n, boundary % n])


def unique_rows_boundary_edges(faces: np.ndarray) -> np.ndarray:
    """Reference boundary finder: row-wise np.unique over sorted edge pairs."""
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    canon = np.sort(edges, axis=1)
    uniq, counts = np.unique(canon, axis=0, return_counts=True)
    if (counts > 2).any():
        raise GeometryError("non-manifold mesh: an edge is shared by >2 faces")
    return uniq[counts == 1]


def check_single_loop(edges: np.ndarray) -> None:
    """Raise GeometryError unless the (K, 2) index pairs form one closed cycle."""
    edges = np.asarray(edges, dtype=np.int64)
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


def edge_length(vertices: np.ndarray, edges: np.ndarray) -> float:
    """Reference summed 3D length of (K, 2) vertex index pairs."""
    seg = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    return float(np.linalg.norm(seg, axis=1).sum())


def line_by_line_write_mesh(vertices: np.ndarray, faces: np.ndarray,
                            stream: TextIO) -> None:
    """Reference mesh writer: one f-string per vertex and face line."""
    for v in vertices:
        stream.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
    for f in faces:
        stream.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def meshgrid_usable_area(surface: ShellSurface, section_side: float, headroom: float,
                         raster: int) -> float:
    """Reference usable area: each column footprint compared on a full meshgrid."""
    span_m = surface.span_mm / 1000.0
    cell = span_m / raster
    centres_m = (np.arange(raster) + 0.5) * cell
    z_m = np.asarray(surface.evaluate(centres_m * 1000.0, centres_m * 1000.0)) / 1000.0
    obstructed = z_m < headroom
    X, Y = np.meshgrid(centres_m, centres_m, indexing="ij")
    half = math.sqrt(section_side * section_side) / 2.0
    for cx, cy in COLUMN_POSITIONS_M.tolist():
        obstructed |= (np.abs(X - cx) <= half) & (np.abs(Y - cy) <= half)
    return int((~obstructed).sum()) * cell * cell


def per_point_column_heights(surface: ShellSurface) -> list:
    """Reference column heights (m) in grid order: one spline evaluation per
    column."""
    return [max(float(surface.evaluate(x * 1000.0, y * 1000.0)[0, 0]) / 1000.0, 0.0)
            for x, y in COLUMN_POSITIONS_M.tolist()]


def per_node_displacement_rows(displacements: np.ndarray, coords_m: np.ndarray) -> str:
    """Reference `winner_displacements.csv` node rows: one f-string per field."""
    n = len(coords_m)
    rows = []
    for node in range(n * n):
        i, j = divmod(node, n)
        t = displacements[node, :3] * 1000.0
        rows.append(",".join([
            str(node), f"{coords_m[i]:.4f}", f"{coords_m[j]:.4f}",
            f"{t[0]:.6f}", f"{t[1]:.6f}", f"{t[2]:.6f}",
            f"{float(np.linalg.norm(t)):.6f}"]) + "\n")
    return "".join(rows)


def carried_surface_displacement_rows(config: PipelineConfig) -> str:
    """Reference analyze/displacements.csv: every pool surface built once,
    measured, and carried to the frame solves of the kept models."""
    spec = structure_spec(config)
    grid = config.fem.lattice_grid
    rows = ["model,group,iteration,DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,"
            "max_displacement_mm,limit_mm,passed"]
    for group in range(1, config.gen3d.groups + 1):
        amplitude, frequency = group_parameters(group)
        grids = generate_iterations(amplitude, frequency, n=config.gen3d.iterations,
                                    seed=derive_seed(config.seed, f"gen3d:g{group}"),
                                    span=config.gen3d.span_mm)
        surfaces = [interpolate_surface(g, config.gen3d.span_mm, config.gen3d.resolution)
                    for g in grids]
        metrics = [measure(s) for s in surfaces]
        kept, _, _ = filter_pool(config, metrics)
        limit = loads.deflection_limit(config.gen3d.span_mm / 1000.0)
        for idx in kept:
            case = loads.combine(spec, metrics[idx].area_a)
            result = analyze_shell(surfaces[idx], case, spec,
                                   default_supports(grid, config.fem.supports), grid)
            rows.append(",".join(
                [f"g{group}-{idx:02d}", str(group), str(idx)]
                + [f"{v:.4f}" for v in (case.dead_DL, case.live_LL, case.snow_SL,
                                        case.wind_WL, case.total_TL,
                                        result.max_translation_mm, limit)]
                + ["1" if result.max_translation_mm <= limit else "0"]))
    return "\n".join(rows) + "\n"


def fail_gen3d_at_group_2(monkeypatch) -> None:
    """Make the gen3d stage fail at group 2, after group 1's pool is written:
    its pool asks for 30 mm at f = 4, beyond the rectangular envelope's 20 mm."""
    original = pipeline.pool_grids

    def pool_grids(config, amplitude, frequency, seed):
        if (amplitude, frequency) == group_parameters(2):
            amplitude = 30.0
        return original(config, amplitude, frequency, seed)

    monkeypatch.setattr(pipeline, "pool_grids", pool_grids)


def holds_geometry(obj) -> bool:
    """Whether obj reaches a ShellSurface or TriangleMesh through dataclass
    fields, sequences or mappings."""
    if isinstance(obj, (ShellSurface, TriangleMesh)):
        return True
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return any(holds_geometry(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return any(holds_geometry(item) for item in obj)
    if isinstance(obj, dict):
        return any(holds_geometry(k) or holds_geometry(v) for k, v in obj.items())
    return False
