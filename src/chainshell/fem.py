"""Linear-elastic 3D beam-frame solver for sampled shell lattices.

Shell surfaces are idealized as space frames: lattice rows, columns, and one
diagonal per cell become 12-degree-of-freedom Euler-Bernoulli beam elements
with homogenized rectangular sections (McGuire, Gallagher & Ziemian,
*Matrix Structural Analysis*, 2000).  The element matrices are built in
blocks of at most a fixed number of elements; each block's free-DOF entries
are summed straight into the LAPACK band of K_ff, which LAPACK's banded
Cholesky (dpbtrf, dpbtrs) factors and solves on the band the node numbering
gives (row-major lattices are banded already).  Singular systems raise a
mechanism error naming the offending degrees of freedom, read from the null
vector of the leading minor where the factorization failed (one banded
triangular solve, dtbtrs, on the factor), so neither K_ff nor any other
n x n array is formed.  The routines come from the OpenBLAS numpy already
loaded (`chainshell.lapack`); scipy is not imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import GeometryError, MechanismError, ParameterError
from .lapack import flapack
from .loads import LoadCase, StructureSpec
from .shell3d import ShellSurface

MEMBRANE_PRECOMPRESSION_N = 1.0  # total vacuum pre-compression along the normals
DOF_PER_NODE = 6
DOF_NAMES = ("ux", "uy", "uz", "rx", "ry", "rz")

_VERTICAL_TOL = 1e-8
# the most elements in one assembly block: each (block, 12, 12) temporary
# is at most ~0.3 MB
_BLOCK_ELEMENTS = 256


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


# the DOFs (ux, uy, uz, rx, ry, rz) each kind of support holds; a node under
# several holds keeps all of them, the union of their masks
FIXED = np.ones(DOF_PER_NODE, dtype=bool)
PINNED = np.array([True, True, True, False, False, False])
SLIDING_BASE = np.array([False, False, True, False, False, False])  # vertical only
for _mask in (FIXED, PINNED, SLIDING_BASE):
    _mask.flags.writeable = False
del _mask


@dataclass(frozen=True, eq=False)
class FrameModel:
    nodes: np.ndarray  # (N, 3) metres
    ends: np.ndarray   # (m, 2) node ids: element e runs from ends[e, 0] to ends[e, 1]
    section: BeamSection  # shared by every element
    restrained: np.ndarray  # (N, 6) bool: the DOFs the supports hold
    elastic_modulus: float  # Pa
    shear_modulus: float    # Pa

    def __post_init__(self):
        if self.elastic_modulus <= 0 or self.shear_modulus <= 0:
            raise ParameterError("moduli must be positive")
        n = len(self.nodes)
        if np.any(self.ends[:, 0] == self.ends[:, 1]):
            raise GeometryError("element connects a node to itself")
        if np.any((self.ends < 0) | (self.ends >= n)):
            raise GeometryError("element references a missing node")
        mask = self.restrained
        if mask.dtype != bool or mask.shape != (n, DOF_PER_NODE):
            raise ParameterError(f"restrained must be an ({n}, {DOF_PER_NODE}) bool "
                                 f"mask, got {mask.dtype} {mask.shape}")

    @property
    def dof_count(self) -> int:
        return len(self.nodes) * DOF_PER_NODE


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Displacements (m, rad) per node, support reactions (kN) and the
    solver's diagnostics."""

    displacements: np.ndarray          # (N, 6)
    reactions: np.ndarray              # (N, 3) force, kN; 0 where nothing restrains
    max_translation_mm: float
    pivot_ratio: float                 # min / max squared Cholesky pivot
    equilibrium_residual: float        # |K u - F| on free DOFs / max(|F|, 1)


def _local_stiffness(model: FrameModel, length: np.ndarray) -> np.ndarray:
    """(m, 12, 12) element stiffness matrices in local axes, one per element."""
    E, G = model.elastic_modulus, model.shear_modulus
    sec = model.section
    A, Iy, Iz, J = sec.area, sec.inertia_y, sec.inertia_z, sec.torsion_J
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


def _element_dofs(ends: np.ndarray) -> np.ndarray:
    """The global DOF of each row of the elements' 12 x 12 blocks, (m, 12)."""
    return (ends[:, :, None] * DOF_PER_NODE + np.arange(DOF_PER_NODE)).reshape(-1, 12)


def assemble_stiffness(model: FrameModel, block: slice = slice(None),
                       out: np.ndarray | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Element stiffness matrices in global axes, (b, 12, 12), of the elements
    in block (every element by default), written into out if it is given,
    and the global DOF of each of their rows, (b, 12)."""
    ends = model.ends[block]
    delta = model.nodes[ends[:, 1]] - model.nodes[ends[:, 0]]
    length = np.linalg.norm(delta, axis=1)
    if np.any(length < 1e-12):
        raise GeometryError("zero-length element")
    lam = np.zeros((len(ends), 12, 12))
    t3 = _rotations(delta / length[:, None])
    for b in range(4):
        lam[:, 3 * b:3 * b + 3, 3 * b:3 * b + 3] = t3
    ke = np.matmul(np.matmul(lam.transpose(0, 2, 1), _local_stiffness(model, length)), lam,
                   out=out)
    return ke, _element_dofs(ends)


def _free_positions(model: FrameModel) -> Tuple[np.ndarray, np.ndarray]:
    """pos, the free-DOF index of each global DOF (-1 if restrained), and the
    free DOFs in order."""
    free = np.flatnonzero(~model.restrained.ravel())
    pos = np.full(model.dof_count, -1, dtype=np.intp)
    pos[free] = np.arange(len(free))
    return pos, free


def _free_band(model: FrameModel, pos: np.ndarray,
               n_free: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_ff in LAPACK lower-band storage, ab[i - j, j] = K_ff[i, j] for i >= j,
    and the element blocks ke with their DOFs; pos is the free-DOF index of
    each global DOF, -1 if fixed.

    The elements are assembled into one ke in blocks of at most
    _BLOCK_ELEMENTS, and each block's lower free entries are added into the
    band in element order, as one sum over all elements would add them.
    The band is the widest coupling between free DOFs of any element, so no
    node numbering is assumed; a bad one only stores more.  It is
    Fortran-ordered, so LAPACK can factor it in place."""
    dofs = _element_dofs(model.ends)
    p = pos[dofs]
    lowest = np.where(p >= 0, p, n_free).min(axis=1)
    height = int((p.max(axis=1) - lowest).max(initial=0)) + 1
    flat = np.zeros(n_free * height)  # column j of the band at flat[j * height:]
    ke = np.empty((len(dofs), 12, 12))
    # blocks of equal size: a last block of a few elements would cost a whole
    # block's fixed overhead
    bounds = np.linspace(0, len(dofs), -(-len(dofs) // _BLOCK_ELEMENTS) + 1).astype(int)
    for block in map(slice, bounds[:-1], bounds[1:]):
        assemble_stiffness(model, block, out=ke[block])
        rows, cols = p[block, :, None], p[block, None, :]
        lower = (rows >= cols) & (cols >= 0)
        # K_ff[row, col] sits at flat[col * height + row - col]
        np.add.at(flat, (cols * (height - 1) + rows)[lower], ke[block][lower])
    return flat.reshape(n_free, height).T, ke, dofs


def _describe_mechanism(factor: np.ndarray, j: int, free: np.ndarray) -> MechanismError:
    """Name the free DOFs of a mechanism from the banded Cholesky factor of
    K_ff whose column j failed (or gave a vanishing pivot).

    Columns 0..j-1 of the factor, L11, and row j of L, l12, are complete, so
    the leading (j+1) minor of K_ff has the null vector x = [-L11^-T l12, 1]
    up to the failed pivot; one banded triangular solve (dtbtrs) gives it.
    The DOFs with |x| > 0.5 max|x| are named.  A frame with several zero
    modes is named by the first one the factorization meets, not by all."""
    kd = len(factor) - 1
    x = np.ones(j + 1)
    if j:
        k = np.arange(max(0, j - kd), j)
        l12 = np.zeros((j, 1))
        l12[k, 0] = factor[j - k, k]
        y, info = flapack().dtbtrs(factor[:, :j], l12, uplo="L", trans="T")
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs failed (info {info})")
        x[:j] = -y[:, 0]
    x = np.abs(x)
    dofs: List[Tuple[int, str]] = [
        (int(g) // DOF_PER_NODE, DOF_NAMES[g % DOF_PER_NODE])
        for g in free[np.nonzero(x > 0.5 * x.max())[0]]]
    names = ", ".join(f"node {n}:{d}" for n, d in dofs) or "unidentified"
    return MechanismError(
        f"stiffness matrix is singular; unconstrained degrees of freedom: {names}",
        dofs=dofs)


def solve(model: FrameModel, forces: np.ndarray) -> SolveResult:
    """Solve K u = F for the restrained frame under (N, 3) nodal forces, N.

    Returns nodal displacements, support reactions (kN), the largest
    translation magnitude in millimetres, the pivot ratio and the relative
    equilibrium residual.
    """
    forces = np.asarray(forces)
    n = len(model.nodes)
    if forces.shape != (n, 3):
        raise ParameterError(f"forces must be an ({n}, 3) table, got {forces.shape}")
    if not model.restrained.any():
        raise MechanismError("frame has no supports", dofs=[])
    F = np.zeros((n, DOF_PER_NODE))
    F[:, :3] = forces
    F = F.ravel()
    pos, free = _free_positions(model)
    band, ke, dofs = _free_band(model, pos, len(free))
    factor, info = flapack().dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:  # a leading minor is not positive definite
        raise _describe_mechanism(factor, info - 1, free)
    # a singular system can slip through the factorization on rounding noise
    # (zero pivot computed as +epsilon); the pivot ratio catches it reliably
    pivots = factor[0] ** 2
    if pivots.min() <= 1e-12 * pivots.max():
        raise _describe_mechanism(factor, int(pivots.argmin()), free)
    u = np.zeros(model.dof_count)
    u[free], info = flapack().dpbtrs(factor, F[free], lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrs failed (info {info})")
    ku = np.einsum("eij,ej->ei", ke, u[dofs])
    residual = np.bincount(dofs.ravel(), weights=ku.ravel(),
                           minlength=model.dof_count) - F
    reactions = np.where(model.restrained[:, :3],
                         residual.reshape(n, DOF_PER_NODE)[:, :3] / 1e3, 0.0)
    disp = u.reshape(n, DOF_PER_NODE)
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


def default_supports(grid: int, mode: str) -> np.ndarray:
    """The (N, 6) restraint mask of a (grid+1)^2 shell analysis lattice.

    boundary-fixed clamps every edge node (the sealed membrane edge);
    corner-pinned pins only the four corners.
    """
    n = grid + 1
    restrained = np.zeros((n, n, DOF_PER_NODE), dtype=bool)
    if mode == "boundary-fixed":
        edge = np.ones((n, n), dtype=bool)
        edge[1:-1, 1:-1] = False
        restrained[edge] |= FIXED
    elif mode == "corner-pinned":
        restrained[np.ix_([0, -1], [0, -1])] |= PINNED
    else:
        raise ParameterError(f"unknown support mode {mode!r}")
    return restrained.reshape(-1, DOF_PER_NODE)


def frame_from_surface(surface: ShellSurface, grid: int, structure: StructureSpec,
                       restrained: np.ndarray) -> FrameModel:
    """Sample the surface on a (grid+1)^2 lattice and frame it.

    Elements run along lattice rows, columns, and one diagonal per cell,
    with the structure's homogenized section and moduli.  Node ids are
    row-major: node(i, j) = i * (grid + 1) + j.
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

    # per node (i, j), row-major: to (i+1, j), to (i, j+1), to (i+1, j+1);
    # -1 marks the members that would leave the lattice
    n = grid + 1
    node_id = np.arange(n * n).reshape(n, n)
    pairs = np.full((n, n, 3, 2), -1)
    pairs[..., 0] = node_id[..., None]
    pairs[:-1, :, 0, 1] = node_id[1:, :]
    pairs[:, :-1, 1, 1] = node_id[:, 1:]
    pairs[:-1, :-1, 2, 1] = node_id[1:, 1:]
    ends = pairs[pairs[..., 1] >= 0]

    model = FrameModel(nodes=nodes, ends=ends, section=section,
                       restrained=restrained,
                       elastic_modulus=structure.elastic_modulus,
                       shear_modulus=structure.shear_modulus)
    if np.linalg.norm(nodes[ends[:, 1]] - nodes[ends[:, 0]], axis=1).min() < 1e-12:
        raise GeometryError("degenerate surface produced a zero-area cell")
    return model


def _require_noncollinear_supports(model: FrameModel) -> None:
    pts = model.nodes[model.restrained.any(axis=1), :2]
    if len(pts) < 3:
        raise ParameterError("need at least 3 supported nodes")
    # the plan cross product of every pair of offsets from the first node
    d = pts[1:] - pts[0]
    cross = np.outer(d[:, 0], d[:, 1]) - np.outer(d[:, 1], d[:, 0])
    if not (np.abs(cross) > 1e-12).any():
        raise ParameterError("supported nodes are collinear")


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
                  structure: StructureSpec, restrained: np.ndarray,
                  grid: int) -> SolveResult:
    """Solve one shell under a load case.

    The frame takes its section and moduli from the structure.  TL is
    distributed by tributary plan area; the membrane pre-compression acts
    along inward surface normals.
    """
    model = frame_from_surface(surface, grid, structure, restrained)
    _require_noncollinear_supports(model)
    return solve(model, shell_node_loads(surface, grid, load_case.total_TL))
