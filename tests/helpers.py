"""Shared fixtures-in-code: independent oracles and cheap model builders."""
from __future__ import annotations

import dataclasses
import math
from typing import TextIO

import numpy as np
from hypothesis import settings
from scipy.interpolate import RBFInterpolator, RectBivariateSpline

from chainshell import loads, profile2d
from chainshell.config import PipelineConfig, derive_seed
from chainshell.errors import GeometryError
from chainshell.fem import (BeamSection, FrameModel, SupportKind, analyze_shell,
                            assemble_stiffness, default_supports)
from chainshell.filtering import measure
from chainshell.optimizer import (COLUMN_GRID_POSITIONS_M, AnchorConfig, AnchorKind,
                                  CandidateDesign, Column, ColumnSet, SlopeReport)
from chainshell.pipeline import GROUP_SHAPE, filter_pool, structure_spec
from chainshell.shell3d import (ControlGrid, ShellSurface, TriangleMesh, generate_iterations,
                               group_parameters, interpolate_surface)
from chainshell.units import Shape, UnitCell

# reproducible property examples, no example database written next to the tests
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

BEAM_E = 2.1e9  # default material modulus, Pa
BEAM_SECTION = BeamSection(area=1e-3, inertia_y=2e-6, inertia_z=3e-6,
                           torsion_J=5e-6)


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


def grid_from_z(z_mm: np.ndarray, span_mm: float = 2000.0,
                amplitude: float = 0.0) -> ControlGrid:
    z = np.asarray(z_mm, dtype=float)
    return ControlGrid(F=z.shape[0] - 1, amplitude_A=amplitude, span_L=span_mm,
                       z_values=z, seed=0, iteration=0)


def fitpack_spline(grid: ControlGrid) -> RectBivariateSpline:
    """FITPACK's interpolating spline through a control grid (the GridSpline oracle)."""
    coords = grid.coordinates()
    k = min(3, grid.F)
    return RectBivariateSpline(coords, coords, grid.z_values, kx=k, ky=k, s=0)


def rbf_thin_plate(xy: np.ndarray, z: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """RBFInterpolator's thin-plate fit sampled on coords x coords, [i, j] = (x_i, y_j)."""
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    rbf = RBFInterpolator(xy, z, kernel="thin_plate_spline")
    return rbf(np.column_stack([X.ravel(), Y.ravel()])).reshape(len(coords), len(coords))


def flat_surface(height_mm: float = 0.0, span_mm: float = 2000.0,
                 F: int = 4, resolution: int = 33) -> ShellSurface:
    z = np.full((F + 1, F + 1), float(height_mm))
    return interpolate_surface(grid_from_z(z, span_mm), resolution)


def pool_surfaces(amplitude: float, frequency: int, n: int = 20, seed: int = 42,
                  resolution: int = 64) -> list:
    grids = generate_iterations(amplitude, frequency, n=n, seed=seed)
    return [interpolate_surface(g, resolution) for g in grids]


def chain_ends(n_elems: int) -> np.ndarray:
    """Ends of the elements joining nodes 0, 1, ..., n_elems in a chain."""
    return np.column_stack([np.arange(n_elems), np.arange(1, n_elems + 1)])


def dense_stiffness(model: FrameModel) -> np.ndarray:
    """Dense global K, each element block added at its DOFs with np.add.at."""
    ke, dofs = assemble_stiffness(model)
    K = np.zeros((model.dof_count, model.dof_count))
    np.add.at(K, (dofs[:, :, None], dofs[:, None, :]), ke)
    return K


def cantilever_model(n_elems: int = 6, length: float = 1.5) -> FrameModel:
    """Horizontal beam along x, fully fixed at node 0."""
    xs = np.linspace(0.0, length, n_elems + 1)
    nodes = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    return FrameModel(nodes=nodes, ends=chain_ends(n_elems), section=BEAM_SECTION,
                      supports={0: SupportKind.FIXED})


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
    supports = {0: SupportKind.PINNED, n_elems: SupportKind.PINNED,
                n_elems + 1: SupportKind.PINNED, n_elems + 2: SupportKind.PINNED}
    return FrameModel(nodes=nodes, ends=ends, section=BEAM_SECTION, supports=supports)


def uniform_beam_loads(n_elems: int, span: float, w: float) -> dict:
    """Distributed w N/m lumped at the nodes of a simply supported span."""
    h = span / n_elems
    loads = {i: (0.0, 0.0, -w * h) for i in range(1, n_elems)}
    loads[0] = (0.0, 0.0, -w * h / 2.0)
    loads[n_elems] = (0.0, 0.0, -w * h / 2.0)
    return loads


def synthetic_candidate(cid: str, cms: float, ua: float, lc_vol: float = 0.012,
                        fc_vol: float = 0.036, lc_count: int = 4,
                        fc_count: int = 12, drainage: bool = True) -> CandidateDesign:
    """Hand-built design for exercising the ranking rules in isolation.

    Each column group is one column holding the whole volume plus empty
    ones up to the count, so its volume sums to exactly `lc_vol` or `fc_vol`.
    """
    def columns(volume: float, count: int) -> tuple:
        return ((Column((0.0, 0.0), height=1.0, section_area=volume),)
                + (Column((0.0, 0.0), height=0.0, section_area=0.0),) * (count - 1))

    report = SlopeReport(slopes=np.full((10, 10), 0.05), passed=drainage,
                         failing_points=())
    return CandidateDesign(candidate_id=cid,
                           anchors=AnchorConfig(AnchorKind.FOUR, span_m=2.0),
                           columns=ColumnSet(columns(lc_vol, lc_count),
                                             columns(fc_vol, fc_count)),
                           control=grid_from_z(np.full((5, 5), 1600.0)),
                           resolution=17, cms_m2=cms, ua_m2=ua, slope_report=report)


def dome_surface(height_m: float = 3.0, radius_m: float = 0.95,
                 span_mm: float = 2000.0, F: int = 16,
                 resolution: int = 64) -> ShellSurface:
    """Clipped paraboloid dome centred on the plan; closed-form clear area.

    z(r) = H (1 - r^2 / R^2) above the rim, 0 outside, so the plan region
    with clear height >= h is the disc r <= R sqrt(1 - h / H) of area
    pi R^2 (1 - h / H).
    """
    coords_m = np.linspace(0.0, span_mm / 1000.0, F + 1)
    X, Y = np.meshgrid(coords_m, coords_m, indexing="ij")
    cx = cy = span_mm / 2000.0
    r2 = (X - cx) ** 2 + (Y - cy) ** 2
    z_m = np.maximum(height_m * (1.0 - r2 / radius_m ** 2), 0.0)
    grid = grid_from_z(z_m * 1000.0, span_mm, amplitude=height_m * 1000.0)
    return interpolate_surface(grid, resolution)


def read_mesh(stream: TextIO):
    """Parse the `v` / `f` lines `shell3d.write_mesh` writes: (vertices, faces)."""
    vertices, faces = [], []
    for line in stream:
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


def meshgrid_usable_area(surface: ShellSurface, columns: ColumnSet, headroom: float,
                         raster: int) -> float:
    """Reference usable area: each column footprint compared on a full meshgrid."""
    span_m = surface.span_mm / 1000.0
    cell = span_m / raster
    centres_m = (np.arange(raster) + 0.5) * cell
    z_m = np.asarray(surface.evaluate(centres_m * 1000.0, centres_m * 1000.0)) / 1000.0
    obstructed = z_m < headroom
    if columns is not None:
        X, Y = np.meshgrid(centres_m, centres_m, indexing="ij")
        for col in columns.all_columns():
            half = math.sqrt(col.section_area) / 2.0
            cx, cy = col.position
            obstructed |= (np.abs(X - cx) <= half) & (np.abs(Y - cy) <= half)
    return int((~obstructed).sum()) * cell * cell


def per_point_column_heights(surface: ShellSurface) -> dict:
    """Reference column heights (m): one spline evaluation per grid position."""
    return {(x, y): max(float(surface.evaluate(x * 1000.0, y * 1000.0)[0, 0]) / 1000.0, 0.0)
            for x in COLUMN_GRID_POSITIONS_M for y in COLUMN_GRID_POSITIONS_M}


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
                                    span=config.gen3d.span_mm,
                                    envelope=profile2d.default_envelope(GROUP_SHAPE))
        surfaces = [interpolate_surface(g, config.gen3d.resolution) for g in grids]
        outcome = filter_pool(config, [measure(s) for s in surfaces])
        for idx in outcome.kept_indices:
            case = loads.combine(spec, outcome.metrics[idx].area_a)
            analysis = analyze_shell(surfaces[idx], case, spec,
                                     default_supports(grid, config.fem.supports), grid)
            rows.append(",".join(
                [f"g{group}-{idx:02d}", str(group), str(idx)]
                + [f"{v:.4f}" for v in (case.dead_DL, case.live_LL, case.snow_SL,
                                        case.wind_WL, case.total_TL,
                                        analysis.max_displacement_mm,
                                        analysis.limit_mm)]
                + ["1" if analysis.passed else "0"]))
    return "\n".join(rows) + "\n"


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
