from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from chainshell import fem
from chainshell.errors import GeometryError, MechanismError, ParameterError
from chainshell.fem import (
    FIXED,
    PINNED,
    SLIDING_BASE,
    BeamSection,
    FrameModel,
    analyze_shell,
    assemble_stiffness,
    default_supports,
    frame_from_surface,
    homogenized_section,
    shell_node_loads,
    solve,
    _free_band,
    _free_positions,
    _require_noncollinear_supports,
    _tributary_weights,
)
from chainshell.loads import combine
from chainshell.filtering import measure

from helpers import (
    BEAM_E as E,
    BEAM_SECTION as SECTION,
    CONFIG,
    MODULI,
    SPEC,
    cantilever_model,
    chain_ends,
    default_analysis,
    default_frame,
    einsum_element_blocks,
    dense_stiffness,
    dict_default_supports,
    dict_restraint,
    flat_surface,
    pairwise_noncollinear,
    point_forces,
    restraint,
    simply_supported_model,
    uniform_beam_loads,
)


def test_cantilever_tip_deflection_both_bending_planes():
    model = cantilever_model()
    tip = len(model.nodes) - 1
    load = 800.0
    length = 1.5

    down = solve(model, point_forces(model, {tip: (0.0, 0.0, -load)}))
    expected_z = load * length ** 3 / (3.0 * E * SECTION.inertia_y)
    assert down.displacements[tip, 2] == pytest.approx(-expected_z, rel=1e-9)

    side = solve(model, point_forces(model, {tip: (0.0, load, 0.0)}))
    expected_y = load * length ** 3 / (3.0 * E * SECTION.inertia_z)
    assert side.displacements[tip, 1] == pytest.approx(expected_y, rel=1e-9)


def test_vertical_cantilever_uses_rotated_local_axes():
    zs = np.linspace(0.0, 1.5, 7)
    nodes = np.column_stack([np.zeros_like(zs), np.zeros_like(zs), zs])
    model = FrameModel(nodes=nodes, ends=chain_ends(6), section=SECTION,
                       restrained=restraint(7, [0], FIXED), **MODULI)
    result = solve(model, point_forces(model, {6: (800.0, 0.0, 0.0)}))
    expected = 800.0 * 1.5 ** 3 / (3.0 * E * SECTION.inertia_y)
    assert result.displacements[6, 0] == pytest.approx(expected, rel=1e-9)


def test_simply_supported_midspan_deflection():
    n = 16
    span = 2.0
    w = 500.0  # N/m
    model = simply_supported_model(n, span)
    result = solve(model, uniform_beam_loads(n, span, w))
    expected = -5.0 * w * span ** 4 / (384.0 * E * SECTION.inertia_y)
    mid = result.displacements[n // 2, 2]
    assert abs(mid - expected) / abs(expected) < 0.01


def test_reactions_balance_applied_loads():
    n = 16
    model = simply_supported_model(n)
    result = solve(model, uniform_beam_loads(n, 2.0, 500.0))
    total_reaction_n = result.reactions[:, 2].sum() * 1e3
    assert abs(total_reaction_n - 1000.0) / 1000.0 < 1e-6


def test_solution_is_linear_and_superposable():
    model = cantilever_model()
    case_a = point_forces(model, {6: (0.0, 0.0, -500.0)})
    case_b = point_forces(model, {3: (0.0, 200.0, 0.0)})
    combined = point_forces(model, {6: (0.0, 0.0, -500.0), 3: (0.0, 200.0, 0.0)})
    u_a = solve(model, case_a).displacements
    u_b = solve(model, case_b).displacements
    u_ab = solve(model, combined).displacements
    assert np.allclose(u_a + u_b, u_ab, rtol=1e-9, atol=1e-15)
    doubled = solve(model, point_forces(model, {6: (0.0, 0.0, -1000.0)})).displacements
    assert np.allclose(doubled, 2.0 * u_a, rtol=1e-9, atol=1e-15)


# loads keyed by node are refused whole, so a load on a node the 7-node
# cantilever lacks, or with moments beside its force, never reaches K u = F
# (`node` is the key each case loads)
@pytest.mark.parametrize("loads, node", [({-1: (0.0, 0.0, -1.0)}, -1),
                                         ({7: (0.0, 0.0, -1.0)}, 7),
                                         ({3: np.ones(7)}, 3)])
def test_a_load_on_a_missing_node_or_with_too_many_components_is_rejected(loads, node):
    with pytest.raises(ParameterError, match=r"forces must be an \(7, 3\) table"):
        solve(cantilever_model(), loads)


# the cantilever has 7 nodes: a force on an eighth node, moments beside the
# forces and the flat DOF vector are all refused
@pytest.mark.parametrize("forces", [np.zeros((8, 3)), np.zeros((7, 6)), np.zeros(42)],
                         ids=["extra-node", "six-columns", "flat"])
def test_forces_that_are_not_an_n_by_3_table_are_rejected(forces):
    with pytest.raises(ParameterError, match=r"forces must be an \(7, 3\) table"):
        solve(cantilever_model(), forces)


def test_zero_load_gives_zero_displacement():
    model = cantilever_model()
    result = solve(model, point_forces(model, {}))
    assert np.all(result.displacements == 0.0)
    assert result.max_translation_mm == 0.0


def test_unrestrained_torsion_chain_is_reported_as_mechanism():
    # a bare pin-pin chain of collinear beams can spin about its own axis
    xs = np.linspace(0.0, 2.0, 9)
    nodes = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    model = FrameModel(nodes=nodes, ends=chain_ends(8), section=SECTION,
                       restrained=restraint(9, [0, 8], PINNED), **MODULI)
    with pytest.raises(MechanismError) as err:
        solve(model, point_forces(model, {4: (0.0, 0.0, -100.0)}))
    assert err.value.dofs == [(node, "rx") for node in range(9)]
    assert str(err.value) == ("stiffness matrix is singular; unconstrained degrees of "
                              "freedom: " + ", ".join(f"node {n}:rx" for n in range(9)))


def test_near_mechanism_square_is_detected():
    # negligible bending stiffness turns the frame into a pin-jointed
    # square, which shears freely; the solver must refuse it
    floppy = BeamSection(area=1e-3, inertia_y=1e-30, inertia_z=1e-30,
                         torsion_J=1e-30)
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    model = FrameModel(nodes=nodes, ends=np.array([(0, 1), (1, 2), (2, 3), (3, 0)]),
                       section=floppy, restrained=restraint(4, [0, 1], PINNED), **MODULI)
    with pytest.raises(MechanismError):
        solve(model, point_forces(model, {2: (100.0, 0.0, 0.0)}))


def test_no_supports_is_a_mechanism():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    model = FrameModel(nodes=nodes, ends=chain_ends(1), section=SECTION,
                       restrained=restraint(2, [], FIXED), **MODULI)
    with pytest.raises(MechanismError) as err:
        solve(model, point_forces(model, {1: (0.0, 0.0, -1.0)}))
    assert err.value.dofs == []


def test_constrained_dofs_per_support_kind():
    assert np.flatnonzero(FIXED).tolist() == [0, 1, 2, 3, 4, 5]
    assert np.flatnonzero(PINNED).tolist() == [0, 1, 2]
    assert np.flatnonzero(SLIDING_BASE).tolist() == [2]
    for mask in (FIXED, PINNED, SLIDING_BASE):
        assert mask.dtype == bool and not mask.flags.writeable


def test_supported_nodes_do_not_translate():
    model = simply_supported_model()
    result = solve(model, point_forces(model, {8: (0.0, 0.0, -500.0)}))
    supported = model.restrained.any(axis=1)
    assert supported.sum() == 4
    assert np.allclose(result.displacements[supported, :3], 0.0, atol=1e-15)


def test_section_and_material_validation():
    with pytest.raises(ParameterError):
        BeamSection(area=0.0, inertia_y=1e-6, inertia_z=1e-6, torsion_J=1e-6)
    with pytest.raises(ParameterError):
        BeamSection(area=1e-3, inertia_y=-1e-6, inertia_z=1e-6, torsion_J=1e-6)
    with pytest.raises(ParameterError):
        FrameModel(nodes=np.zeros((2, 3)), ends=chain_ends(1), section=SECTION,
                   restrained=restraint(2, [0], FIXED), elastic_modulus=0.0,
                   shear_modulus=SPEC.shear_modulus)
    with pytest.raises(ParameterError):
        FrameModel(nodes=np.zeros((2, 3)), ends=chain_ends(1), section=SECTION,
                   restrained=restraint(2, [0], FIXED), elastic_modulus=SPEC.elastic_modulus,
                   shear_modulus=-1.0)


def test_frame_model_validation():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    held = restraint(2, [0], FIXED)
    with pytest.raises(GeometryError):
        FrameModel(nodes=nodes, ends=np.array([(0, 0)]), section=SECTION, restrained=held,
                   **MODULI)
    with pytest.raises(GeometryError):
        FrameModel(nodes=nodes, ends=np.array([(0, 5)]), section=SECTION, restrained=held,
                   **MODULI)
    # a mask for a missing node, one without the rotations, and one not of bools
    for mask in (restraint(8, [7], PINNED), held[:, :3], held.astype(int)):
        with pytest.raises(ParameterError, match="restrained must be an"):
            FrameModel(nodes=nodes, ends=chain_ends(1), section=SECTION,
                       restrained=mask, **MODULI)


def test_homogenized_section_dimensions():
    section = homogenized_section(0.2, 0.08, 0.08)
    width = 0.08 * 0.2
    assert section.area == pytest.approx(width * 0.08, rel=1e-12)
    assert section.inertia_y == pytest.approx(width * 0.08 ** 3 / 12.0, rel=1e-12)
    assert section.inertia_z == pytest.approx(0.08 * width ** 3 / 12.0, rel=1e-12)
    assert section.torsion_J == pytest.approx(section.inertia_y + section.inertia_z,
                                              rel=1e-12)


def test_tributary_weights_sum_to_one():
    for grid in (2, 5, 10):
        weights = _tributary_weights(grid)
        assert weights.shape == (grid + 1, grid + 1)
        assert float(weights.sum()) == pytest.approx(1.0, rel=1e-12)
        assert weights[0, 0] == pytest.approx(0.25 / grid ** 2, rel=1e-12)


def test_default_supports_counts():
    fixed = default_supports(10, "boundary-fixed")
    assert fixed.shape == (121, 6)
    held = fixed.any(axis=1)
    assert held.sum() == 40 and fixed[held].all()
    pinned = default_supports(10, "corner-pinned")
    assert np.flatnonzero(pinned.any(axis=1)).tolist() == [0, 10, 110, 120]
    assert (pinned[[0, 10, 110, 120]] == PINNED).all()
    with pytest.raises(ParameterError):
        default_supports(10, "edges-only")


def test_frame_from_surface_lattice_shape():
    model = default_frame(flat_surface(F=2, resolution=5), grid=2)
    assert len(model.nodes) == 9
    # 2 rows x 3 lines + 2 cols x 3 lines + 4 cell diagonals
    assert len(model.ends) == 16
    with pytest.raises(ParameterError):
        default_frame(flat_surface(F=2, resolution=5), grid=1)


def test_flat_plate_response_is_symmetric_and_downward():
    surface = flat_surface()
    corners = restraint(121, [0, 10, 110, 120], FIXED)
    model = frame_from_surface(surface, 10, SPEC, corners)
    loads = np.zeros((121, 3))
    loads[:, 2] = -50.0
    result = solve(model, loads)
    uz = result.displacements[:, 2].reshape(11, 11)
    assert np.all(uz <= 1e-15)
    assert np.allclose(uz, uz.T, rtol=1e-9, atol=1e-15)
    centre = abs(uz[5, 5])
    assert centre == pytest.approx(np.abs(uz).max(), rel=1e-12)


def test_shell_solution_balances_every_component(pools42):
    surface = pools42[4].surfaces[0]
    case = combine(SPEC, measure(surface).area_a)
    loads = shell_node_loads(surface, CONFIG.fem.lattice_grid, case.total_TL)
    result = default_analysis(surface, case)
    applied = loads.sum(axis=0)
    reacted = result.reactions.sum(axis=0) * 1e3
    for axis in range(3):
        residual = applied[axis] + reacted[axis]
        assert abs(residual) <= 1e-6 * max(1.0, abs(applied[axis]))
    # within the default span's span/250 limit
    assert result.max_translation_mm <= 8.0


def test_refinement_keeps_peak_displacement_stable(pools42):
    surface = pools42[4].surfaces[0]
    case = combine(SPEC, measure(surface).area_a)
    d10, d20, d40 = (default_analysis(surface, case, grid).max_translation_mm
                     for grid in (10, 20, 40))
    assert abs(d20 - d10) / d10 < 0.10
    # the frame stiffens monotonically and the steps shrink at least twofold
    assert d10 > d20 > d40
    assert abs(d40 - d20) <= 0.5 * abs(d20 - d10)


def test_zero_length_element_is_rejected():
    nodes = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    model = FrameModel(nodes=nodes, ends=chain_ends(2), section=SECTION,
                       restrained=restraint(3, [0], FIXED), **MODULI)
    with pytest.raises(GeometryError):
        solve(model, point_forces(model, {2: (0.0, 0.0, -1.0)}))


def test_homogenization_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        homogenized_section(0.0, 0.08, 0.08)
    with pytest.raises(ParameterError):
        homogenized_section(0.2, 0.08, 0.0)
    with pytest.raises(ParameterError):
        homogenized_section(0.2, 0.08, 1.5)


def _loop_element_stiffness(model, node_i, node_j):
    """One element's global 12x12 matrix, built entry by entry."""
    E, G = model.elastic_modulus, model.shear_modulus
    sec = model.section
    p1, p2 = model.nodes[node_i], model.nodes[node_j]
    l = float(np.linalg.norm(p2 - p1))
    k = np.zeros((12, 12))
    for (r, c, v) in ((0, 0, E * sec.area / l), (0, 6, -E * sec.area / l),
                      (6, 6, E * sec.area / l), (3, 3, G * sec.torsion_J / l),
                      (3, 9, -G * sec.torsion_J / l), (9, 9, G * sec.torsion_J / l)):
        k[r, c] = k[c, r] = v
    for inertia, table in (
            (sec.inertia_z, ((1, 1, 12), (1, 5, 6 * l), (1, 7, -12), (1, 11, 6 * l),
                             (5, 5, 4 * l * l), (5, 7, -6 * l), (5, 11, 2 * l * l),
                             (7, 7, 12), (7, 11, -6 * l), (11, 11, 4 * l * l))),
            (sec.inertia_y, ((2, 2, 12), (2, 4, -6 * l), (2, 8, -12), (2, 10, -6 * l),
                             (4, 4, 4 * l * l), (4, 8, 6 * l), (4, 10, 2 * l * l),
                             (8, 8, 12), (8, 10, 6 * l), (10, 10, 4 * l * l)))):
        for (r, c, v) in table:
            k[r, c] = k[c, r] = E * inertia / l ** 3 * v
    d = (p2 - p1) / l
    horiz = np.hypot(d[0], d[1])
    if horiz < 1e-8:
        s = 1.0 if d[2] > 0 else -1.0
        t3 = np.array([[0.0, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, 0.0]])
    else:
        y = np.array([-d[1], d[0], 0.0]) / horiz
        t3 = np.array([d, y, np.cross(d, y)])
    lam = np.kron(np.eye(4), t3)
    return lam.T @ k @ lam


def test_batched_assembly_matches_element_loop():
    # inclined, horizontal, upward- and downward-vertical members
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.3], [1.0, 0.2, 1.3],
                      [1.0, 0.2, 0.8], [0.0, 1.5, -0.4], [2.0, 0.0, 0.0]])
    ends = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5), (5, 0)])
    model = FrameModel(nodes=nodes, ends=ends, section=SECTION,
                       restrained=restraint(6, [0], FIXED),
                       elastic_modulus=70e9, shear_modulus=26e9)
    expected = np.zeros((model.dof_count, model.dof_count))
    for i, j in ends:
        dofs = np.r_[i * 6:i * 6 + 6, j * 6:j * 6 + 6]
        expected[np.ix_(dofs, dofs)] += _loop_element_stiffness(model, i, j)
    K = dense_stiffness(model)
    assert np.allclose(K, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_a05_shell_reports_solver_diagnostics(pools42):
    surface = pools42[1].surfaces[0]
    case = combine(SPEC, measure(surface).area_a)
    model = default_frame(surface)
    result = solve(model, shell_node_loads(surface, CONFIG.fem.lattice_grid,
                                           case.total_TL))
    assert result.equilibrium_residual <= 1e-10
    assert result.pivot_ratio > 1e-12
    # the same ratio a dense Cholesky of the free block gives
    free = np.flatnonzero(~model.restrained.ravel())
    K_ff = dense_stiffness(model)[np.ix_(free, free)]
    pivots = np.diag(np.linalg.cholesky(K_ff)) ** 2
    assert result.pivot_ratio == pytest.approx(pivots.min() / pivots.max(), rel=1e-9)


def test_renumbered_frame_gives_the_same_displacements(pools42):
    surface = pools42[2].surfaces[0]
    model = default_frame(surface)
    loads = shell_node_loads(surface, CONFIG.fem.lattice_grid, 5.0)
    # new_id[old] scatters lattice neighbours across the whole numbering
    new_id = np.random.default_rng(3).permutation(len(model.nodes))
    nodes = np.empty_like(model.nodes)
    nodes[new_id] = model.nodes
    renumbered = FrameModel(
        nodes=nodes, ends=new_id[model.ends], section=model.section,
        restrained=model.restrained[np.argsort(new_id)],
        elastic_modulus=model.elastic_modulus, shear_modulus=model.shear_modulus)
    permuted_loads = np.empty_like(loads)
    permuted_loads[new_id] = loads
    expected = solve(model, loads).displacements
    got = solve(renumbered, permuted_loads).displacements[new_id]
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def test_degenerate_surface_is_rejected():
    # a 1e-9 mm span puts every lattice node within 1e-12 m of its neighbours
    with pytest.raises(GeometryError, match="zero-area cell"):
        default_frame(flat_surface(span_mm=1e-9, resolution=5), grid=2)


def _bincount_band(ke, pos, n_free):
    """The lower band of K_ff summed from every element block in one bincount."""
    col = np.broadcast_to(pos[:, None, :], ke.shape)
    offset = pos[:, :, None] - col
    lower = (offset >= 0) & (col >= 0)
    offset, col = offset[lower], col[lower]
    height = int(offset.max(initial=0)) + 1
    return np.bincount(col * height + offset, weights=ke[lower],
                       minlength=n_free * height).reshape(n_free, height).T


def test_free_band_is_the_fortran_ordered_lower_band_of_k_ff(pools42, monkeypatch):
    # the blocked band holds the bits of one bincount over every element and
    # of the dense K, whichever block size splits the elements
    for group, grid, supports in ((2, 6, "corner-pinned"), (3, 10, "boundary-fixed"),
                                  (4, 9, "corner-pinned")):
        model = frame_from_surface(pools42[group].surfaces[0], grid, SPEC,
                                   default_supports(grid, supports))
        pos, free = _free_positions(model)
        whole_ke, whole_dofs = assemble_stiffness(model)
        expected = _bincount_band(whole_ke, pos[whole_dofs], len(free))
        K_ff = dense_stiffness(model)[np.ix_(free, free)]
        assert not np.tril(K_ff, -len(expected)).any()  # nothing couples beyond the band
        for block in (1, 7, len(model.ends)):
            monkeypatch.setattr(fem, "_BLOCK_ELEMENTS", block)
            ab, ke, dofs = _free_band(model, pos, len(free))
            assert np.array_equal(dofs, whole_dofs)
            assert ke.tobytes() == whole_ke.tobytes()
            assert ab.shape == expected.shape
            assert ab.tobytes(order="A") == expected.tobytes(order="A")
            # F order lets LAPACK factor the band in place instead of copying it
            assert ab.flags.f_contiguous
            for offset in range(len(ab)):
                assert np.array_equal(ab[offset, :len(free) - offset],
                                      np.diagonal(K_ff, -offset))


def _oriented_frame(rng, n_elements: int) -> FrameModel:
    """Elements with two nodes of their own each, of every orientation the
    rotations tell apart in turn: inclined, horizontal, straight up and
    straight down."""
    start = rng.uniform(-2.0, 2.0, size=(n_elements, 3))
    step = rng.uniform(0.05, 1.0, size=(n_elements, 3)) * rng.choice([-1.0, 1.0], (n_elements, 3))
    kind = np.arange(n_elements) % 4
    step[kind == 1, 2] = 0.0
    step[kind >= 2, :2] = 0.0
    step[kind == 2, 2] = np.abs(step[kind == 2, 2])
    step[kind == 3, 2] = -np.abs(step[kind == 3, 2])
    nodes = np.stack([start, start + step], axis=1).reshape(-1, 3)
    return FrameModel(nodes=nodes, ends=np.arange(2 * n_elements).reshape(-1, 2),
                      section=SECTION, restrained=np.zeros((2 * n_elements, 6), dtype=bool),
                      **MODULI)


@pytest.mark.parametrize("seed", range(3))
def test_element_blocks_are_the_einsum_contraction_bitwise(seed):
    # a block of one element, a whole assembly block and an uneven tail,
    # returned and written into out as the band assembly writes them
    n = 2 * fem._BLOCK_ELEMENTS + 37
    model = _oriented_frame(np.random.default_rng(seed), n)
    for block in (slice(5, 6), slice(0, fem._BLOCK_ELEMENTS),
                  slice(2 * fem._BLOCK_ELEMENTS, n)):
        expected = einsum_element_blocks(model, block)
        ke, _ = assemble_stiffness(model, block)
        assert ke.tobytes() == expected.tobytes()
        out = np.empty_like(expected)
        assemble_stiffness(model, block, out=out)
        assert out.tobytes() == expected.tobytes()


# what a solve may hold beside the band and the element blocks: one block's
# temporaries, the DOF tables and the load and displacement vectors
_SOLVE_ALLOWANCE_BYTES = 2.5e6


def _traced_peak(call):
    """What a call returns, and the bytes it allocates at its peak above what
    was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _band_and_blocks_bytes(model) -> int:
    pos, free = _free_positions(model)
    ke, dofs = assemble_stiffness(model)
    return _bincount_band(ke, pos[dofs], len(free)).nbytes + ke.nbytes


def test_a_fine_lattice_solve_holds_the_band_and_the_element_blocks_and_little_more(pools42):
    surface = pools42[3].surfaces[0]
    model = frame_from_surface(surface, 26, SPEC, default_supports(26, "corner-pinned"))
    assert model.dof_count == 4374  # the fem-fine benchmark's lattice
    loads = shell_node_loads(surface, 26, 5.0)
    _, peak = _traced_peak(lambda: solve(model, loads))
    assert peak <= _band_and_blocks_bytes(model) + _SOLVE_ALLOWANCE_BYTES


def test_a_lattice_mechanism_is_named_from_the_factor_without_an_n_by_n_array(pools42):
    # pinned at two corners, the lattice turns freely about the line through them
    surface = pools42[1].surfaces[0]
    model = frame_from_surface(surface, 16, SPEC, restraint(17 * 17, [0, 16], PINNED))
    loads = shell_node_loads(surface, 16, 5.0)

    def mechanism():
        with pytest.raises(MechanismError) as err:
            solve(model, loads)
        return err.value

    error, peak = _traced_peak(mechanism)
    assert peak <= _band_and_blocks_bytes(model) + _SOLVE_ALLOWANCE_BYTES
    named = error.dofs
    assert named
    assert not any(model.restrained[node, fem.DOF_NAMES.index(name)]
                   for node, name in named)
    # the turn about the y axis: every node's ry and the far nodes' uz
    assert {name for _, name in named} == {"uz", "ry"}


def _flat_shell_case():
    surface = flat_surface(height_mm=800.0)
    return surface, combine(SPEC, measure(surface).area_a)


@pytest.mark.parametrize("nodes", [[], [0], [0, 120]])
def test_fewer_than_three_supports_are_rejected(nodes):
    surface, case = _flat_shell_case()
    supports = restraint(121, nodes, PINNED)
    with pytest.raises(ParameterError, match="at least 3 supported nodes"):
        analyze_shell(surface, case, SPEC, supports, 10)


# node i * 11 + j of the 11 x 11 lattice sits at (x_i, y_j)
@pytest.mark.parametrize("nodes", [range(0, 11),             # the row i = 0
                                   range(10, 121, 11),       # the column j = 10
                                   range(0, 121, 12),        # the diagonal
                                   [55, 57, 59, 62, 65]])    # part of the row i = 5
def test_supports_on_one_line_are_rejected(nodes):
    surface, case = _flat_shell_case()
    supports = restraint(121, nodes, FIXED)
    with pytest.raises(ParameterError, match="collinear"):
        analyze_shell(surface, case, SPEC, supports, 10)


def test_three_noncollinear_supports_are_accepted():
    surface, case = _flat_shell_case()
    supports = restraint(121, [0, 10, 120], PINNED)
    result = analyze_shell(surface, case, SPEC, supports, 10)
    assert result.equilibrium_residual <= 1e-10
    assert result.reactions.shape == (121, 3)
    assert np.flatnonzero(result.reactions.any(axis=1)).tolist() == [0, 10, 120]


def _plan_frame(xy):
    """A frame whose only use is its supported nodes: every node at a plan
    point of xy, held by a pin, joined in a chain."""
    nodes = np.column_stack([xy, np.zeros(len(xy))])
    return FrameModel(nodes=nodes, ends=chain_ends(len(xy) - 1), section=SECTION,
                      restrained=restraint(len(xy), range(len(xy)), PINNED), **MODULI)


@pytest.mark.parametrize("seed", range(6))
def test_collinearity_check_matches_the_pairwise_loop(seed):
    # points on one line, then the same nudged off it by less and by more
    # than the 1e-12 cross-product threshold
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(3 + seed))
    direction = rng.normal(size=2)
    line = t[:, None] * direction
    for nudge in (0.0, 1e-14, 1e-13, 1e-11, 1e-6):
        xy = line.copy()
        xy[-1] += nudge * np.array([-direction[1], direction[0]])
        model = _plan_frame(xy)
        if pairwise_noncollinear(xy):
            _require_noncollinear_supports(model)
        else:
            with pytest.raises(ParameterError, match="collinear"):
                _require_noncollinear_supports(model)
