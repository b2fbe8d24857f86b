"""Linear-elastic 3D beam-frame solver for sampled shell lattices.

Shell surfaces are idealized as space frames: lattice rows, columns, and one
diagonal per cell become 12-degree-of-freedom Euler-Bernoulli beam elements
with homogenized rectangular sections (McGuire, Gallagher & Ziemian,
*Matrix Structural Analysis*, 2000).  The element matrices are built in one
batch into a sparse K; after constraint elimination K u = F is solved by
banded Cholesky on the band the node numbering gives (row-major lattices are
banded already).  Singular systems raise a mechanism error naming the
offending degrees of freedom.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eigh

from .errors import GeometryError, MechanismError, ParameterError
from .loads import (DEFAULT_ELASTIC_MODULUS_PA, DEFAULT_SHEAR_MODULUS_PA,
                    LoadCase, StructureSpec, deflection_limit)
from .shell3d import ShellSurface

DEFAULT_LATTICE_GRID = 10
MEMBRANE_PRECOMPRESSION_N = 1.0  # total vacuum pre-compression along the normals
DOF_PER_NODE = 6
DOF_NAMES = ("ux", "uy", "uz", "rx", "ry", "rz")

_VERTICAL_TOL = 1e-8


@dataclass(frozen=True)
class Material:
    elastic_modulus: float = DEFAULT_ELASTIC_MODULUS_PA  # Pa
    shear_modulus: float = DEFAULT_SHEAR_MODULUS_PA      # Pa

    def __post_init__(self):
        if self.elastic_modulus <= 0 or self.shear_modulus <= 0:
            raise ParameterError("moduli must be positive")


@dataclass(frozen=True)
class BeamSection:
    """Prismatic section: axial area and the three stiffness constants, SI."""

    area: float        # m2
    inertia_y: float   # m4, bending about the local horizontal axis
    inertia_z: float   # m4, bending about the local vertical axis
    torsion_J: float   # m4

    def __post_init__(self):
        if min(self.area, self.inertia_y, self.inertia_z, self.torsion_J) <= 0:
            raise ParameterError("section constants must be positive")


def homogenized_section(tributary_width: float, thickness: float,
                        solid_fraction: float) -> BeamSection:
    """Equivalent rectangle for a strip of vacuum-jammed chainmail sheet.

    The sheet is treated as a continuum; a strip of the given tributary
    width carries an effective rectangle solid_fraction * width wide and
    thickness deep.
    """
    if tributary_width <= 0 or thickness <= 0 or not 0 < solid_fraction <= 1:
        raise ParameterError("invalid homogenization parameters")
    b = solid_fraction * tributary_width
    t = thickness
    iy = b * t ** 3 / 12.0
    iz = t * b ** 3 / 12.0
    return BeamSection(area=b * t, inertia_y=iy, inertia_z=iz,
                       torsion_J=iy + iz)


class SupportKind(enum.Enum):
    FIXED = "fixed"
    PINNED = "pinned"
    SLIDING_BASE = "sliding"

    @property
    def constrained_dofs(self) -> Tuple[int, ...]:
        if self is SupportKind.FIXED:
            return (0, 1, 2, 3, 4, 5)
        if self is SupportKind.PINNED:
            return (0, 1, 2)
        return (2,)  # sliding base: vertical translation only


@dataclass(frozen=True)
class FrameElement:
    node_i: int
    node_j: int
    section: BeamSection


@dataclass(frozen=True, eq=False)
class FrameModel:
    nodes: np.ndarray  # (N, 3) metres
    elements: List[FrameElement]
    supports: Dict[int, SupportKind]
    material: Material = field(default_factory=Material)

    def __post_init__(self):
        n = len(self.nodes)
        for e in self.elements:
            if e.node_i == e.node_j:
                raise GeometryError("element connects a node to itself")
            if not (0 <= e.node_i < n and 0 <= e.node_j < n):
                raise GeometryError("element references a missing node")
        for node in self.supports:
            if not 0 <= node < n:
                raise ParameterError(f"support on missing node {node}")

    @property
    def dof_count(self) -> int:
        return len(self.nodes) * DOF_PER_NODE

    def constrained_dof_indices(self) -> np.ndarray:
        idx = [node * DOF_PER_NODE + d
               for node, kind in sorted(self.supports.items())
               for d in kind.constrained_dofs]
        return np.array(sorted(idx), dtype=int)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Displacements (m, rad) per node, support reactions (kN) and the
    solver's diagnostics."""

    displacements: np.ndarray          # (N, 6)
    reactions: Dict[int, np.ndarray]   # node -> (3,) force, kN
    max_translation_mm: float
    pivot_ratio: float                 # min / max squared Cholesky pivot
    equilibrium_residual: float        # |K u - F| on free DOFs / max(|F|, 1)

    def translation(self, node: int) -> np.ndarray:
        return self.displacements[node, :3]


def _local_stiffness(model: FrameModel, length: np.ndarray) -> np.ndarray:
    """(m, 12, 12) element stiffness matrices in local axes, one per element."""
    E, G = model.material.elastic_modulus, model.material.shear_modulus
    sections = np.array([(e.section.area, e.section.inertia_y,
                          e.section.inertia_z, e.section.torsion_J)
                         for e in model.elements]).reshape(-1, 4)
    A, Iy, Iz, J = sections.T
    l = length
    k = np.zeros((len(l), 12, 12))
    ax = E * A / l
    tr = G * J / l
    k[:, 0, 0] = k[:, 6, 6] = ax
    k[:, 0, 6] = k[:, 6, 0] = -ax
    k[:, 3, 3] = k[:, 9, 9] = tr
    k[:, 3, 9] = k[:, 9, 3] = -tr
    # bending in the local x-y plane (deflection v, rotation about z)
    cz = E * Iz / l ** 3
    for (r, c, v) in ((1, 1, 12), (1, 5, 6 * l), (1, 7, -12), (1, 11, 6 * l),
                      (5, 5, 4 * l * l), (5, 7, -6 * l), (5, 11, 2 * l * l),
                      (7, 7, 12), (7, 11, -6 * l), (11, 11, 4 * l * l)):
        k[:, r, c] = k[:, c, r] = cz * v
    # bending in the local x-z plane (deflection w, rotation about y)
    cy = E * Iy / l ** 3
    for (r, c, v) in ((2, 2, 12), (2, 4, -6 * l), (2, 8, -12), (2, 10, -6 * l),
                      (4, 4, 4 * l * l), (4, 8, 6 * l), (4, 10, 2 * l * l),
                      (8, 8, 12), (8, 10, 6 * l), (10, 10, 4 * l * l)):
        k[:, r, c] = k[:, c, r] = cy * v
    return k


def _rotations(d: np.ndarray) -> np.ndarray:
    """(m, 3, 3) local axes as rows: x along each unit direction d, z as
    upward as possible; a vertical member takes y along global y."""
    horiz = np.hypot(d[:, 0], d[:, 1])
    vertical = horiz < _VERTICAL_TOL
    h = np.where(vertical, 1.0, horiz)
    y = np.column_stack([-d[:, 1] / h, d[:, 0] / h, np.zeros(len(d))])
    t3 = np.stack([d, y, np.cross(d, y)], axis=1)
    s = np.where(d[vertical, 2] > 0, 1.0, -1.0)
    t3[vertical] = 0.0
    t3[vertical, 0, 2] = s
    t3[vertical, 1, 1] = 1.0
    t3[vertical, 2, 0] = -s
    return t3


def assemble_stiffness(model: FrameModel) -> sparse.csr_array:
    """Global stiffness matrix, every element matrix built in one batch."""
    ends = np.array([(e.node_i, e.node_j) for e in model.elements],
                    dtype=np.intp).reshape(-1, 2)
    delta = model.nodes[ends[:, 1]] - model.nodes[ends[:, 0]]
    length = np.linalg.norm(delta, axis=1)
    if np.any(length < 1e-12):
        raise GeometryError("zero-length element")
    lam = np.zeros((len(ends), 12, 12))
    t3 = _rotations(delta / length[:, None])
    for b in range(4):
        lam[:, 3 * b:3 * b + 3, 3 * b:3 * b + 3] = t3
    ke = np.einsum("eki,ekl,elj->eij", lam, _local_stiffness(model, length),
                   lam, optimize=True)
    dofs = (ends[:, :, None] * DOF_PER_NODE
            + np.arange(DOF_PER_NODE)).reshape(-1, 12)
    rows = np.broadcast_to(dofs[:, :, None], ke.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], ke.shape).ravel()
    n = model.dof_count
    return sparse.coo_array((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _load_vector(model: FrameModel, nodal_loads) -> np.ndarray:
    n_nodes = len(model.nodes)
    F = np.zeros(model.dof_count)
    if isinstance(nodal_loads, Mapping):
        for node, vec in nodal_loads.items():
            vec = np.asarray(vec, dtype=float)
            F[node * 6:node * 6 + len(vec)] = vec
        return F
    arr = np.asarray(nodal_loads, dtype=float)
    if arr.shape == (n_nodes, 3):
        F.reshape(n_nodes, 6)[:, :3] = arr
    elif arr.shape == (n_nodes, 6):
        F[:] = arr.ravel()
    elif arr.shape == (model.dof_count,):
        F[:] = arr
    else:
        raise ParameterError(f"load array shape {arr.shape} not understood")
    return F


def _describe_mechanism(K_ff: np.ndarray, free: np.ndarray) -> MechanismError:
    vals, vecs = eigh(K_ff)
    scale = max(abs(vals[-1]), 1.0)
    dofs: List[Tuple[int, str]] = []
    for mode in range(len(vals)):
        if vals[mode] > 1e-10 * scale:
            break
        vec = np.abs(vecs[:, mode])
        for k in np.nonzero(vec > 0.5 * vec.max())[0]:
            g = int(free[k])
            entry = (g // DOF_PER_NODE, DOF_NAMES[g % DOF_PER_NODE])
            if entry not in dofs:
                dofs.append(entry)
    names = ", ".join(f"node {n}:{d}" for n, d in dofs) or "unidentified"
    return MechanismError(
        f"stiffness matrix is singular; unconstrained degrees of freedom: {names}",
        dofs=dofs)


def _lower_band(K_ff: sparse.csr_array) -> np.ndarray:
    """K_ff in LAPACK lower-band storage: ab[i - j, j] = K_ff[i, j], i >= j.

    The band is the widest coupling between the model's own free DOFs, so
    no node numbering is assumed; a badly numbered model only stores more.
    """
    coo = K_ff.tocoo()
    offset = coo.row - coo.col
    lower = offset >= 0
    ab = np.zeros((int(offset.max(initial=0)) + 1, K_ff.shape[0]))
    ab[offset[lower], coo.col[lower]] = coo.data[lower]
    return ab


def solve(model: FrameModel, nodal_loads) -> SolveResult:
    """Solve K u = F for the constrained frame; loads in newtons.

    Returns nodal displacements, support reactions (kN), the largest
    translation magnitude in millimetres, the pivot ratio and the relative
    equilibrium residual.
    """
    if not model.supports:
        raise MechanismError("frame has no supports", dofs=[])
    K = assemble_stiffness(model)
    F = _load_vector(model, nodal_loads)
    fixed = model.constrained_dof_indices()
    mask = np.ones(model.dof_count, dtype=bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    K_ff = K[free][:, free]
    try:
        factor = cholesky_banded(_lower_band(K_ff), lower=True,
                                 check_finite=False)
    except LinAlgError:
        raise _describe_mechanism(K_ff.toarray(), free) from None
    # a singular system can slip through the factorization on rounding noise
    # (zero pivot computed as +epsilon); the pivot ratio catches it reliably
    pivots = factor[0] ** 2
    if pivots.min() <= 1e-12 * pivots.max():
        raise _describe_mechanism(K_ff.toarray(), free)
    u = np.zeros(model.dof_count)
    u[free] = cho_solve_banded((factor, True), F[free], check_finite=False)
    residual = K @ u - F
    reactions = {node: residual[node * 6:node * 6 + 3] / 1e3
                 for node in sorted(model.supports)}
    disp = u.reshape(len(model.nodes), 6)
    max_mm = float(np.linalg.norm(disp[:, :3], axis=1).max() * 1000.0)
    return SolveResult(
        displacements=disp, reactions=reactions, max_translation_mm=max_mm,
        pivot_ratio=float(pivots.min() / pivots.max()),
        equilibrium_residual=float(np.linalg.norm(residual[free])
                                   / max(np.linalg.norm(F), 1.0)))


def _tributary_weights(grid: int) -> np.ndarray:
    """Plan-area fractions on a (grid+1)^2 lattice; sums to 1."""
    w = np.ones(grid + 1)
    w[0] = w[-1] = 0.5
    w /= grid
    return np.outer(w, w)


def default_supports(grid: int, mode: str = "boundary-fixed") -> Dict[int, SupportKind]:
    """Support sets for shell analysis lattices.

    boundary-fixed clamps every edge node (the sealed membrane edge);
    corner-pinned pins only the four corners.
    """
    n = grid + 1
    if mode == "boundary-fixed":
        return {i * n + j: SupportKind.FIXED for i in range(n) for j in range(n)
                if i in (0, grid) or j in (0, grid)}
    if mode == "corner-pinned":
        corners = (0, grid, grid * n, grid * n + grid)
        return {c: SupportKind.PINNED for c in corners}
    raise ParameterError(f"unknown support mode {mode!r}")


def frame_from_surface(surface: ShellSurface, grid: int = DEFAULT_LATTICE_GRID,
                       structure: StructureSpec = StructureSpec(),
                       supports: Optional[Dict[int, SupportKind]] = None) -> FrameModel:
    """Sample the surface on a (grid+1)^2 lattice and frame it.

    Elements run along lattice rows, columns, and one diagonal per cell,
    with the structure's homogenized section and moduli.  Node ids are
    row-major: node(i, j) = i * (grid + 1) + j.  Supports default to
    boundary-fixed.
    """
    if grid < 2:
        raise ParameterError("lattice grid must be >= 2")
    span_m = surface.span_mm / 1000.0
    coords_mm = np.linspace(0.0, surface.span_mm, grid + 1)
    z_mm = surface.evaluate(coords_mm, coords_mm)
    xs = coords_mm / 1000.0
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), z_mm.ravel() / 1000.0])

    section = homogenized_section(span_m / grid, structure.thickness_t,
                                  structure.solid_fraction)

    n = grid + 1
    node_id = lambda i, j: i * n + j
    elements = []
    for i in range(n):
        for j in range(n):
            if i < grid:
                elements.append(FrameElement(node_id(i, j), node_id(i + 1, j), section))
            if j < grid:
                elements.append(FrameElement(node_id(i, j), node_id(i, j + 1), section))
            if i < grid and j < grid:
                elements.append(FrameElement(node_id(i, j), node_id(i + 1, j + 1), section))

    model = FrameModel(nodes=nodes, elements=elements,
                       supports=supports if supports is not None
                       else default_supports(grid),
                       material=Material(structure.elastic_modulus,
                                         structure.shear_modulus))
    ends = np.array([(e.node_i, e.node_j) for e in elements])
    if np.linalg.norm(nodes[ends[:, 1]] - nodes[ends[:, 0]], axis=1).min() < 1e-12:
        raise GeometryError("degenerate surface produced a zero-area cell")
    return model


def _require_noncollinear_supports(model: FrameModel) -> None:
    pts = model.nodes[sorted(model.supports), :2]
    if len(pts) < 3:
        raise ParameterError("need at least 3 supported nodes")
    p0 = pts[0]
    for a in range(1, len(pts)):
        for b in range(a + 1, len(pts)):
            cross = ((pts[a][0] - p0[0]) * (pts[b][1] - p0[1])
                     - (pts[a][1] - p0[1]) * (pts[b][0] - p0[0]))
            if abs(cross) > 1e-12:
                return
    raise ParameterError("supported nodes are collinear")


@dataclass(frozen=True, eq=False)
class ShellAnalysis:
    """Shell solve outcome with the serviceability verdict."""

    result: SolveResult
    load_case: LoadCase
    limit_mm: float

    @property
    def max_displacement_mm(self) -> float:
        return self.result.max_translation_mm

    @property
    def passed(self) -> bool:
        return self.max_displacement_mm <= self.limit_mm


def shell_node_loads(surface: ShellSurface, grid: int,
                     total_load_kn: float) -> np.ndarray:
    """Nodal force vectors (N): gravity share of TL plus normal pre-compression.

    The total load is split over lattice nodes by tributary plan area and
    applied downward.  The membrane pre-compression (1 N in total) is
    applied along the inward surface normal with the same area weights.
    """
    weights = _tributary_weights(grid)
    coords_mm = np.linspace(0.0, surface.span_mm, grid + 1)
    loads = np.zeros(((grid + 1) ** 2, 3))
    loads[:, 2] = -total_load_kn * 1e3 * weights.ravel()
    gx = surface.gradient(coords_mm, coords_mm, axis="x")
    gy = surface.gradient(coords_mm, coords_mm, axis="y")
    normals = np.column_stack([-gx.ravel(), -gy.ravel(), np.ones(weights.size)])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    loads -= MEMBRANE_PRECOMPRESSION_N * weights.ravel()[:, None] * normals
    return loads


def analyze_shell(surface: ShellSurface, load_case: LoadCase,
                  structure: StructureSpec = StructureSpec(),
                  supports: Optional[Dict[int, SupportKind]] = None,
                  grid: int = DEFAULT_LATTICE_GRID) -> ShellAnalysis:
    """Solve one shell under a load case and check span/250.

    The frame takes its section and moduli from the structure; supports
    default to boundary-fixed.  TL is distributed by tributary plan area;
    the membrane pre-compression acts along inward surface normals.
    """
    model = frame_from_surface(surface, grid, structure, supports)
    _require_noncollinear_supports(model)
    loads = shell_node_loads(surface, grid, load_case.total_TL)
    result = solve(model, loads)
    limit = deflection_limit(surface.span_mm / 1000.0)
    return ShellAnalysis(result=result, load_case=load_case, limit_mm=limit)
