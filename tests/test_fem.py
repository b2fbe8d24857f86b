from __future__ import annotations

import numpy as np
import pytest

from chainshell.errors import GeometryError, MechanismError, ParameterError
from chainshell.fem import (
    BeamSection,
    FrameElement,
    FrameModel,
    Material,
    SupportKind,
    analyze_shell,
    assemble_stiffness,
    default_supports,
    frame_from_surface,
    homogenized_section,
    shell_node_loads,
    solve,
    _tributary_weights,
)
from chainshell.loads import StructureSpec, combine
from chainshell.filtering import measure

from helpers import (
    BEAM_E as E,
    BEAM_SECTION as SECTION,
    cantilever_model,
    flat_surface,
    simply_supported_model,
    uniform_beam_loads,
)


def test_cantilever_tip_deflection_both_bending_planes():
    model = cantilever_model()
    tip = len(model.nodes) - 1
    load = 800.0
    length = 1.5

    down = solve(model, {tip: (0.0, 0.0, -load)})
    expected_z = load * length ** 3 / (3.0 * E * SECTION.inertia_y)
    assert down.displacements[tip, 2] == pytest.approx(-expected_z, rel=1e-9)

    side = solve(model, {tip: (0.0, load, 0.0)})
    expected_y = load * length ** 3 / (3.0 * E * SECTION.inertia_z)
    assert side.displacements[tip, 1] == pytest.approx(expected_y, rel=1e-9)


def test_vertical_cantilever_uses_rotated_local_axes():
    zs = np.linspace(0.0, 1.5, 7)
    nodes = np.column_stack([np.zeros_like(zs), np.zeros_like(zs), zs])
    elements = [FrameElement(i, i + 1, SECTION) for i in range(6)]
    model = FrameModel(nodes=nodes, elements=elements,
                       supports={0: SupportKind.FIXED})
    result = solve(model, {6: (800.0, 0.0, 0.0)})
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
    total_reaction_n = sum(r[2] for r in result.reactions.values()) * 1e3
    assert abs(total_reaction_n - 1000.0) / 1000.0 < 1e-6


def test_solution_is_linear_and_superposable():
    model = cantilever_model()
    case_a = {6: (0.0, 0.0, -500.0)}
    case_b = {3: (0.0, 200.0, 0.0)}
    combined = {6: (0.0, 0.0, -500.0), 3: (0.0, 200.0, 0.0)}
    u_a = solve(model, case_a).displacements
    u_b = solve(model, case_b).displacements
    u_ab = solve(model, combined).displacements
    assert np.allclose(u_a + u_b, u_ab, rtol=1e-9, atol=1e-15)
    doubled = solve(model, {6: (0.0, 0.0, -1000.0)}).displacements
    assert np.allclose(doubled, 2.0 * u_a, rtol=1e-9, atol=1e-15)


def test_load_layout_variants_are_equivalent():
    model = cantilever_model()
    as_dict = solve(model, {6: (0.0, 0.0, -800.0)})
    table3 = np.zeros((7, 3))
    table3[6, 2] = -800.0
    as_table = solve(model, table3)
    table6 = np.zeros((7, 6))
    table6[6, 2] = -800.0
    as_wide = solve(model, table6)
    assert np.array_equal(as_dict.displacements, as_table.displacements)
    assert np.array_equal(as_dict.displacements, as_wide.displacements)


def test_zero_load_gives_zero_displacement():
    model = cantilever_model()
    result = solve(model, {})
    assert np.all(result.displacements == 0.0)
    assert result.max_translation_mm == 0.0


def test_unrestrained_torsion_chain_is_reported_as_mechanism():
    # a bare pin-pin chain of collinear beams can spin about its own axis
    xs = np.linspace(0.0, 2.0, 9)
    nodes = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    elements = [FrameElement(i, i + 1, SECTION) for i in range(8)]
    model = FrameModel(nodes=nodes, elements=elements,
                       supports={0: SupportKind.PINNED, 8: SupportKind.PINNED})
    with pytest.raises(MechanismError) as err:
        solve(model, {4: (0.0, 0.0, -100.0)})
    assert any(name == "rx" for _, name in err.value.dofs)


def test_near_mechanism_square_is_detected():
    # negligible bending stiffness turns the frame into a pin-jointed
    # square, which shears freely; the solver must refuse it
    floppy = BeamSection(area=1e-3, inertia_y=1e-30, inertia_z=1e-30,
                         torsion_J=1e-30)
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    elements = [FrameElement(0, 1, floppy), FrameElement(1, 2, floppy),
                FrameElement(2, 3, floppy), FrameElement(3, 0, floppy)]
    model = FrameModel(nodes=nodes, elements=elements,
                       supports={0: SupportKind.PINNED, 1: SupportKind.PINNED})
    with pytest.raises(MechanismError):
        solve(model, {2: (100.0, 0.0, 0.0)})


def test_no_supports_is_a_mechanism():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    model = FrameModel(nodes=nodes, elements=[FrameElement(0, 1, SECTION)],
                       supports={})
    with pytest.raises(MechanismError) as err:
        solve(model, {1: (0.0, 0.0, -1.0)})
    assert err.value.dofs == []


def test_constrained_dofs_per_support_kind():
    assert SupportKind.FIXED.constrained_dofs == (0, 1, 2, 3, 4, 5)
    assert SupportKind.PINNED.constrained_dofs == (0, 1, 2)
    assert SupportKind.SLIDING_BASE.constrained_dofs == (2,)


def test_supported_nodes_do_not_translate():
    model = simply_supported_model()
    result = solve(model, {8: (0.0, 0.0, -500.0)})
    for node in model.supports:
        assert np.allclose(result.translation(node), 0.0, atol=1e-15)


def test_section_and_material_validation():
    with pytest.raises(ParameterError):
        BeamSection(area=0.0, inertia_y=1e-6, inertia_z=1e-6, torsion_J=1e-6)
    with pytest.raises(ParameterError):
        BeamSection(area=1e-3, inertia_y=-1e-6, inertia_z=1e-6, torsion_J=1e-6)
    with pytest.raises(ParameterError):
        Material(elastic_modulus=0.0)


def test_frame_model_validation():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GeometryError):
        FrameModel(nodes=nodes, elements=[FrameElement(0, 0, SECTION)], supports={})
    with pytest.raises(GeometryError):
        FrameModel(nodes=nodes, elements=[FrameElement(0, 5, SECTION)], supports={})
    with pytest.raises(ParameterError):
        FrameModel(nodes=nodes, elements=[FrameElement(0, 1, SECTION)],
                   supports={7: SupportKind.PINNED})


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
    assert len(fixed) == 40
    assert all(kind is SupportKind.FIXED for kind in fixed.values())
    pinned = default_supports(10, "corner-pinned")
    assert set(pinned) == {0, 10, 110, 120}
    with pytest.raises(ParameterError):
        default_supports(10, "edges-only")


def test_frame_from_surface_lattice_shape():
    model = frame_from_surface(flat_surface(F=2, resolution=5), grid=2)
    assert len(model.nodes) == 9
    # 2 rows x 3 lines + 2 cols x 3 lines + 4 cell diagonals
    assert len(model.elements) == 16
    with pytest.raises(ParameterError):
        frame_from_surface(flat_surface(F=2, resolution=5), grid=1)


def test_flat_plate_response_is_symmetric_and_downward():
    surface = flat_surface()
    corners = {c: SupportKind.FIXED for c in (0, 10, 110, 120)}
    model = frame_from_surface(surface, grid=10, supports=corners)
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
    case = combine(StructureSpec(), measure(surface).area_a)
    loads = shell_node_loads(surface, 10, case.total_TL)
    analysis = analyze_shell(surface, case)
    applied = loads.sum(axis=0)
    reacted = np.sum([r for r in analysis.result.reactions.values()], axis=0) * 1e3
    for axis in range(3):
        residual = applied[axis] + reacted[axis]
        assert abs(residual) <= 1e-6 * max(1.0, abs(applied[axis]))
    assert analysis.limit_mm == 8.0
    assert analysis.passed


def test_refinement_keeps_peak_displacement_stable(pools42):
    surface = pools42[4].surfaces[0]
    case = combine(StructureSpec(), measure(surface).area_a)
    d10, d20, d40 = (analyze_shell(surface, case, grid=grid).max_displacement_mm
                     for grid in (10, 20, 40))
    assert abs(d20 - d10) / d10 < 0.10
    # the frame stiffens monotonically and the steps shrink at least twofold
    assert d10 > d20 > d40
    assert abs(d40 - d20) <= 0.5 * abs(d20 - d10)


def test_zero_length_element_is_rejected():
    nodes = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    model = FrameModel(nodes=nodes,
                       elements=[FrameElement(0, 1, SECTION),
                                 FrameElement(1, 2, SECTION)],
                       supports={0: SupportKind.FIXED})
    with pytest.raises(GeometryError):
        solve(model, {2: (0.0, 0.0, -1.0)})


def test_homogenization_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        homogenized_section(0.0, 0.08, 0.08)
    with pytest.raises(ParameterError):
        homogenized_section(0.2, 0.08, 0.0)
    with pytest.raises(ParameterError):
        homogenized_section(0.2, 0.08, 1.5)


def _loop_element_stiffness(model, e):
    """One element's global 12x12 matrix, built entry by entry."""
    E, G = model.material.elastic_modulus, model.material.shear_modulus
    sec = e.section
    p1, p2 = model.nodes[e.node_i], model.nodes[e.node_j]
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
    # inclined, horizontal, upward- and downward-vertical members, two sections
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.3], [1.0, 0.2, 1.3],
                      [1.0, 0.2, 0.8], [0.0, 1.5, -0.4], [2.0, 0.0, 0.0]])
    thin = homogenized_section(0.05, 0.02, 0.5)
    elements = [FrameElement(0, 1, SECTION), FrameElement(1, 2, thin),
                FrameElement(2, 3, SECTION), FrameElement(3, 4, thin),
                FrameElement(4, 0, SECTION), FrameElement(1, 5, SECTION),
                FrameElement(5, 0, thin)]
    model = FrameModel(nodes=nodes, elements=elements,
                       supports={0: SupportKind.FIXED},
                       material=Material(70e9, 26e9))
    expected = np.zeros((model.dof_count, model.dof_count))
    for e in elements:
        dofs = np.r_[e.node_i * 6:e.node_i * 6 + 6, e.node_j * 6:e.node_j * 6 + 6]
        expected[np.ix_(dofs, dofs)] += _loop_element_stiffness(model, e)
    K = assemble_stiffness(model).toarray()
    assert np.allclose(K, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_a05_shell_reports_solver_diagnostics(pools42):
    surface = pools42[1].surfaces[0]
    case = combine(StructureSpec(), measure(surface).area_a)
    model = frame_from_surface(surface, grid=10)
    result = solve(model, shell_node_loads(surface, 10, case.total_TL))
    assert result.equilibrium_residual <= 1e-10
    assert result.pivot_ratio > 1e-12
    # the same ratio a dense Cholesky of the free block gives
    free = np.setdiff1d(np.arange(model.dof_count), model.constrained_dof_indices())
    K_ff = assemble_stiffness(model).toarray()[np.ix_(free, free)]
    pivots = np.diag(np.linalg.cholesky(K_ff)) ** 2
    assert result.pivot_ratio == pytest.approx(pivots.min() / pivots.max(), rel=1e-9)


def test_renumbered_frame_gives_the_same_displacements(pools42):
    surface = pools42[2].surfaces[0]
    model = frame_from_surface(surface, grid=10)
    loads = shell_node_loads(surface, 10, 5.0)
    # new_id[old] scatters lattice neighbours across the whole numbering
    new_id = np.random.default_rng(3).permutation(len(model.nodes))
    nodes = np.empty_like(model.nodes)
    nodes[new_id] = model.nodes
    renumbered = FrameModel(
        nodes=nodes,
        elements=[FrameElement(int(new_id[e.node_i]), int(new_id[e.node_j]), e.section)
                  for e in model.elements],
        supports={int(new_id[n]): kind for n, kind in model.supports.items()},
        material=model.material)
    permuted_loads = np.empty_like(loads)
    permuted_loads[new_id] = loads
    expected = solve(model, loads).displacements
    got = solve(renumbered, permuted_loads).displacements[new_id]
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def test_degenerate_surface_is_rejected():
    # a 1e-9 mm span puts every lattice node within 1e-12 m of its neighbours
    with pytest.raises(GeometryError, match="zero-area cell"):
        frame_from_surface(flat_surface(span_mm=1e-9, resolution=5), grid=2)
