"""Node layouts, shifted nodes, modified local bases, dof maps."""

import math

import numpy as np
import pytest

from shiftfem.errors import (InconsistentDof, NoConvergence, SingularLocalSystem,
                             UnsupportedDegree)
from shiftfem import geometry, spaces
from shiftfem.geometry import annulus, ellipse, ray_boundary_intersection, unit_square
from shiftfem.mesh import (INTERIOR, TAG_DIRICHLET, TAG_SYMMETRY,
                           classify_elements,
                           gen_quarter_annulus_mesh, gen_quarter_ellipse_mesh,
                           gen_unit_square_mesh, make_mesh)
from shiftfem.spaces import (SUPPORTED_DEGREES, build_dof_map,
                             build_local_bases,
                             edge_interior_locals, element_node_layouts,
                             lagrange_layout)

from oracles import element_coeffs, eval_basis_physical, eval_uh

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _dof_map(mesh, geom, k, dirichlet_data=None):
    bases = build_local_bases(mesh, k, element_node_layouts(mesh, geom, k))
    return build_dof_map(mesh, bases, dirichlet_data=dirichlet_data)


def _random_triangle(rng):
    while True:
        tri = rng.uniform(-1.0, 1.0, size=(3, 2))
        u, v = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * (u[0] * v[1] - u[1] * v[0])
        if area < 0:
            tri = tri[::-1]
            area = -area
        if area > 0.1:
            return tri


def test_local_dimensions_and_unsupported_degrees():
    assert [len(lagrange_layout(k, REF_TRI)) for k in SUPPORTED_DEGREES] == [6, 10]
    mesh = classify_elements(gen_unit_square_mesh(2), unit_square())
    for k in SUPPORTED_DEGREES:
        bases = build_local_bases(mesh, k, element_node_layouts(mesh, unit_square(), k))
        assert bases.k == k and bases.nodes.shape[1] == (k + 1) * (k + 2) // 2
    for bad in (1, 4, 0):
        layouts = np.zeros((mesh.num_triangles, (bad + 1) * (bad + 2) // 2, 2))
        with pytest.raises(UnsupportedDegree):
            build_local_bases(mesh, bad, layouts)


def test_layout_reference_triangle():
    nodes = lagrange_layout(2, REF_TRI)
    expected = [(0, 0), (1, 0), (0, 1), (0.5, 0), (0.5, 0.5), (0, 0.5)]
    assert np.allclose(nodes, expected)

    nodes3 = lagrange_layout(3, REF_TRI)
    assert len(nodes3) == 10
    assert np.allclose(nodes3[-1], (1.0 / 3.0, 1.0 / 3.0))


@pytest.mark.parametrize("k", [2, 3])
def test_standard_basis_nodal_duality(k):
    rng = np.random.default_rng(1000 + k)
    for _ in range(10):
        tri = _random_triangle(rng)
        nodes = lagrange_layout(k, tri)
        vals, _ = eval_basis_physical(k, tri, nodes)
        assert np.max(np.abs(vals - np.eye(len(nodes)))) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_partition_of_unity(k):
    rng = np.random.default_rng(2000 + k)
    tri = _random_triangle(rng)
    pts = rng.uniform(-0.5, 1.0, size=(30, 2))
    vals, grads = eval_basis_physical(k, tri, pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(grads.sum(axis=1))) <= 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_polynomial_reproduction_by_standard_basis(k):
    def poly(x, y):
        return (x + 0.5 * y) ** k + 2.0 * x - y + 1.0

    def poly_grad(x, y):
        base = k * (x + 0.5 * y) ** (k - 1)
        return np.array([base + 2.0, 0.5 * base - 1.0])

    rng = np.random.default_rng(3000 + k)
    tri = _random_triangle(rng)
    nodes = lagrange_layout(k, tri)
    coeffs = np.array([poly(x, y) for x, y in nodes])
    pts = rng.uniform(-0.5, 1.0, size=(20, 2))
    vals, grads = eval_basis_physical(k, tri, pts)
    assert np.max(np.abs(vals @ coeffs - [poly(x, y) for x, y in pts])) <= 1e-11
    got = np.einsum("njd,j->nd", grads, coeffs)
    want = np.array([poly_grad(x, y) for x, y in pts])
    assert np.max(np.abs(got - want)) <= 1e-9


def _ref_triangle_layout(geom, k):
    """Layout of REF_TRI with its edge 1, (1,0) -> (0,1), tagged "D"."""
    mesh = make_mesh(REF_TRI, [(0, 1, 2)],
                     [(0, 1, TAG_SYMMETRY), (1, 2, TAG_DIRICHLET), (2, 0, TAG_SYMMETRY)])
    return element_node_layouts(classify_elements(mesh, geom), geom, k)[0]


def test_shift_is_identity_on_polygon():
    nodes = _ref_triangle_layout(unit_square(), 2)
    assert np.array_equal(nodes, lagrange_layout(2, REF_TRI))


def test_shift_on_unit_circle_chord():
    # rays from the origin are radial
    geom = annulus(0.5)
    nodes2 = _ref_triangle_layout(geom, 2)
    s = math.sqrt(0.5)
    assert np.allclose(nodes2[edge_interior_locals(2, 1)[0]], (s, s), atol=1e-12)

    nodes3 = _ref_triangle_layout(geom, 3)
    locs = edge_interior_locals(3, 1)
    r5 = math.sqrt(5.0)
    assert np.allclose(nodes3[locs[0]], (2.0 / r5, 1.0 / r5), atol=1e-12)
    assert np.allclose(nodes3[locs[1]], (1.0 / r5, 2.0 / r5), atol=1e-12)
    # non-edge nodes untouched
    plain = lagrange_layout(3, REF_TRI)
    untouched = [i for i in range(10) if i not in locs]
    assert np.array_equal(nodes3[untouched], plain[untouched])


@pytest.mark.parametrize("geom, raw, k, n_rays", [
    (ellipse(0.5), gen_quarter_ellipse_mesh(8, 0.5), 2, 8),
    (annulus(0.5), gen_quarter_annulus_mesh(8, 4, 0.5), 3, 32),
])
def test_layouts_make_one_ray_call_per_entry(monkeypatch, geom, raw, k, n_rays):
    # the ray solver is looked up in shiftfem.spaces and called once per
    # mesh, with one ray per moved node (k-1 per shifted element), so
    # wrapping it there times all the ray work
    calls = []

    def counted(geom, piece, origin, through):
        calls.append(len(piece))
        return ray_boundary_intersection(geom, piece, origin, through)

    monkeypatch.setattr(spaces, "ray_boundary_intersection", counted)
    mesh = classify_elements(raw, geom)
    element_node_layouts(mesh, geom, k)
    assert calls == [(k - 1) * int(np.sum(mesh.element_class != INTERIOR))] == [n_rays]


def test_ray_no_convergence_names_element_and_edge(monkeypatch):
    # no ray converges in one iteration; the first is cast from the first
    # shifted element's Dirichlet edge
    monkeypatch.setattr(geometry, "MAX_NEWTON_ITER", 1)
    geom = annulus(0.5)
    mesh = classify_elements(gen_quarter_annulus_mesh(8, 4, 0.5), geom)
    t = int(np.flatnonzero(mesh.element_class != INTERIOR)[0])
    tri, edge = mesh.triangles[t], mesh.boundary_edges[mesh.element_class[t]]
    m = next(m for m in range(3) if {tri[m], tri[(m + 1) % 3]} == set(edge[:2]))
    with pytest.raises(NoConvergence, match=f"^node layouts: element {t}, edge {m}: "
                                            "ray-boundary Newton did not reach .* in 1 iterations"):
        element_node_layouts(mesh, geom, 3)


@pytest.mark.parametrize("k", [2, 3])
def test_annulus_arc_nodes_land_on_their_own_circle(k):
    # an inner-arc edge's nodes move onto r = e, an outer-arc edge's onto r = 1
    geom = annulus(0.5)
    mesh = classify_elements(gen_quarter_annulus_mesh(8, 4, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, k)
    radii = set()
    for t in np.flatnonzero(mesh.element_class != INTERIOR):
        i1, i2, _ = mesh.boundary_edges[mesh.element_class[t]]
        ids = list(mesh.triangles[t])
        m = next(m for m in range(3) if {ids[m], ids[(m + 1) % 3]} == {i1, i2})
        radius = 0.5 if math.hypot(*mesh.vertices[i1]) < 0.75 else 1.0
        radii.add(radius)
        for loc in edge_interior_locals(k, m):
            assert abs(math.hypot(*layouts[t, loc]) - radius) <= 1e-12
    assert radii == {0.5, 1.0}


@pytest.mark.parametrize("k", [2, 3])
def test_shifted_nodes_land_on_boundary(k):
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, k)
    for t in range(mesh.num_triangles):
        if mesh.element_class[t] == INTERIOR:
            continue
        plain = lagrange_layout(k, mesh.vertices[mesh.triangles[t]])
        moved = np.linalg.norm(layouts[t] - plain, axis=1)
        for loc in range(len(plain)):
            if moved[loc] > 0:
                x, y = layouts[t, loc]
                assert abs(geom.value_many([(x, y)])[0]) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_shift_distance_scales_with_h_squared(k):
    geom = ellipse(0.5)
    ratios = []
    for J in (4, 16, 64):
        mesh = classify_elements(gen_quarter_ellipse_mesh(J, 0.5), geom)
        layouts = element_node_layouts(mesh, geom, k)
        worst = 0.0
        for t in range(mesh.num_triangles):
            if mesh.element_class[t] == INTERIOR:
                continue
            plain = lagrange_layout(k, mesh.vertices[mesh.triangles[t]])
            d = float(np.linalg.norm(layouts[t] - plain, axis=1).max())
            worst = max(worst, d / mesh.h_per_element[t] ** 2)
        ratios.append(worst)
    assert max(ratios) < 0.5
    assert max(ratios) / min(ratios) < 1.5


def test_interior_local_basis_is_exact_identity():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    bases = build_local_bases(mesh, 2, element_node_layouts(mesh, geom, 2))
    interior = np.flatnonzero(mesh.element_class == INTERIOR)
    assert len(interior) == mesh.num_triangles - 4
    assert np.array_equal(bases.shifted, np.flatnonzero(mesh.element_class != INTERIOR))
    assert np.all(bases.kt_deviation[interior] == 0.0)
    assert np.all(bases.kt_deviation[bases.shifted] > 0.0)
    for t in interior:
        assert np.array_equal(element_coeffs(bases, t), np.eye(6))
        assert np.array_equal(bases.nodes[t], lagrange_layout(2, mesh.vertices[mesh.triangles[t]]))


@pytest.mark.parametrize("k", [2, 3])
def test_modified_basis_nodal_duality(k):
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(16, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, k)
    bases = build_local_bases(mesh, k, layouts)
    for t, coeffs in zip(bases.shifted, bases.coeffs):
        nodes = bases.nodes[t]
        vals, _ = eval_basis_physical(k, nodes[:3], nodes)
        assert np.max(np.abs(vals @ coeffs - np.eye(len(nodes)))) <= 1e-10
    assert len(bases.shifted) == 16


@pytest.mark.parametrize("k", [2, 3])
def test_kt_deviation_halves_per_refinement(k):
    geom = ellipse(0.5)
    devs = []
    for J in (8, 16, 32):
        mesh = classify_elements(gen_quarter_ellipse_mesh(J, 0.5), geom)
        bases = build_local_bases(mesh, k, element_node_layouts(mesh, geom, k))
        devs.append(bases.kt_deviation.max())
    for coarse, fine in zip(devs, devs[1:]):
        assert 1.5 <= coarse / fine <= 3.0


def test_annulus_rings_have_comparable_deviations():
    geom = annulus(0.5)
    mesh = classify_elements(gen_quarter_annulus_mesh(16, 8, 0.5), geom)
    bases = build_local_bases(mesh, 2, element_node_layouts(mesh, geom, 2))
    inner, outer = [], []
    for t in bases.shifted:
        edge = mesh.boundary_edges[mesh.element_class[t]]
        r = math.hypot(*mesh.vertices[edge[0]])
        (inner if abs(r - 0.5) < 1e-9 else outer).append(bases.kt_deviation[t])
    assert inner and outer
    assert 0.1 <= max(inner) / max(outer) <= 10.0


def test_coincident_nodes_make_local_system_singular():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, 2)
    t = int(np.flatnonzero(mesh.element_class != INTERIOR)[2])
    layouts[t, 4] = layouts[t, 3]
    with pytest.raises(SingularLocalSystem, match=f"element {t} has condition"):
        build_local_bases(mesh, 2, layouts)


def test_local_bases_reject_mismatched_layouts():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, 2)
    with pytest.raises(InconsistentDof):
        build_local_bases(mesh, 3, layouts)
    with pytest.raises(InconsistentDof):
        build_local_bases(mesh, 2, layouts[:-1])


def test_dof_map_single_element_ellipse():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(1, 0.5), geom)
    dm = _dof_map(mesh, geom, 2)
    assert len(dm.node_coords) == 6
    assert int(dm.dirichlet_mask.sum()) == 3
    assert dm.n_unknowns == 3
    # the Dirichlet set is the two arc endpoints plus the relocated node
    for i in np.nonzero(dm.dirichlet_mask)[0]:
        assert abs(geom.value_many(dm.node_coords[i:i + 1])[0]) <= 1e-9


def test_dof_map_dirichlet_values():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(2, 0.5), geom)
    dm0 = _dof_map(mesh, geom, 2)
    assert np.all(dm0.dirichlet_values == 0.0)
    dm = _dof_map(mesh, geom, 2, dirichlet_data=lambda x, y: x + 2.0 * y)
    for i in range(len(dm.node_coords)):
        if dm.dirichlet_mask[i]:
            x, y = dm.node_coords[i]
            assert dm.dirichlet_values[i] == pytest.approx(x + 2.0 * y)
        else:
            assert dm.dirichlet_values[i] == 0.0


@pytest.mark.parametrize("J", [2, 3])
def test_square_patch_unknown_counts(J):
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(J), geom)
    dm2 = _dof_map(mesh, geom, 2)
    assert dm2.n_unknowns == (2 * J - 1) ** 2
    dm3 = _dof_map(mesh, geom, 3)
    assert dm3.n_unknowns == (3 * J - 1) ** 2


def test_symmetry_edge_nodes_stay_unknown():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    dm = _dof_map(mesh, geom, 2)
    on_axis = (np.abs(dm.node_coords[:, 0]) < 1e-14) | (np.abs(dm.node_coords[:, 1]) < 1e-14)
    axis_unknowns = (~dm.dirichlet_mask) & on_axis
    # all axis nodes except the two arc endpoints are unknowns
    assert int(axis_unknowns.sum()) == int(on_axis.sum()) - 2


def _scaled_square(J, scale, bottom_tag=TAG_DIRICHLET):
    base = gen_unit_square_mesh(J)
    bedges = [(i1, i2, bottom_tag if max(i1, i2) <= J else tag)
              for i1, i2, tag in base.boundary_edges]
    geom = unit_square()  # a polygon's geometry holds no vertices, so any scale fits it
    return classify_elements(make_mesh(base.vertices * scale, base.triangles, bedges), geom), geom


@pytest.mark.parametrize("scale", [1e-8, 1e-10, 1e5])
@pytest.mark.parametrize("k", [2, 3])
def test_square_patch_numbering_is_scale_free(k, scale):
    J = 8
    mesh, geom = _scaled_square(J, scale)
    dm = _dof_map(mesh, geom, k)
    assert dm.n_unknowns == (k * J - 1) ** 2
    ref_mesh, ref_geom = _scaled_square(J, 1.0)
    ref = _dof_map(ref_mesh, ref_geom, k)
    assert np.array_equal(dm.element_to_global, ref.element_to_global)
    assert np.array_equal(dm.dirichlet_mask, ref.dirichlet_mask)


@pytest.mark.parametrize("k", [2, 3])
def test_symmetry_tagged_polygon_side_keeps_its_nodes(k):
    # the bottom side of the square tagged "S": its nodes are unknowns
    # except the two corners, which also lie on "D" sides
    J = 2
    mesh, geom = _scaled_square(J, 1.0, bottom_tag=TAG_SYMMETRY)
    dm = _dof_map(mesh, geom, k)
    bottom = dm.node_coords[:, 1] == 0.0
    assert int(bottom.sum()) == k * J + 1
    assert int(dm.dirichlet_mask[bottom].sum()) == 2
    assert dm.n_unknowns == (k * J - 1) ** 2 + k * J - 1


def _interior_edges(mesh):
    seen = {}
    for t, (i, j, k) in enumerate(mesh.triangles):
        for a, b in ((i, j), (j, k), (k, i)):
            key = (a, b) if a < b else (b, a)
            seen.setdefault(key, []).append(t)
    return [(key, ts) for key, ts in seen.items() if len(ts) == 2]


@pytest.mark.parametrize("k", [2, 3])
def test_trial_functions_continuous_across_interior_edges(k):
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, k)
    bases = build_local_bases(mesh, k, layouts)
    dm = build_dof_map(mesh, bases)
    rng = np.random.default_rng(777)
    coeffs = rng.standard_normal(len(dm.node_coords))
    for (a, b), (t1, t2) in _interior_edges(mesh):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = pa + s * (pb - pa)
            v1 = eval_uh(dm, bases, coeffs, t1, p).value
            v2 = eval_uh(dm, bases, coeffs, t2, p).value
            assert abs(v1 - v2) <= 1e-9


@pytest.mark.parametrize("k", [2, 3])
def test_test_space_vanishes_on_curved_chords(k):
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(8, 0.5), geom)
    for t in np.flatnonzero(mesh.element_class != INTERIOR):
        edge = mesh.boundary_edges[mesh.element_class[t]]
        tri = mesh.vertices[mesh.triangles[t]]
        locals_tri = mesh.triangles[t]
        m = next(mloc for mloc in range(3)
                 if {locals_tri[mloc], locals_tri[(mloc + 1) % 3]} == {edge[0], edge[1]})
        on_edge = {m, (m + 1) % 3, *edge_interior_locals(k, m)}
        pa, pb = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
        pts = np.array([pa + s * (pb - pa) for s in (0.05, 0.25, 0.5, 0.75, 0.95)])
        vals, _ = eval_basis_physical(k, tri, pts)
        for loc in range(vals.shape[1]):
            if loc not in on_edge:
                assert np.max(np.abs(vals[:, loc])) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_eval_uh_reproduces_global_polynomial(k):
    def poly(x, y):
        return (0.3 * x - y) ** k + x * y + 0.25

    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    layouts = element_node_layouts(mesh, geom, k)
    bases = build_local_bases(mesh, k, layouts)
    dm = build_dof_map(mesh, bases)
    coeffs = np.array([poly(x, y) for x, y in dm.node_coords])
    rng = np.random.default_rng(555)
    for t in rng.choice(mesh.num_triangles, size=10, replace=False):
        lam = rng.dirichlet((1.0, 1.0, 1.0), size=3)
        for pt in lam @ mesh.vertices[mesh.triangles[t]]:
            got = eval_uh(dm, bases, coeffs, int(t), pt)
            assert got.value == pytest.approx(poly(*pt), abs=1e-11)


def test_eval_uh_zero_coefficients():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(2, 0.5), geom)
    bases = build_local_bases(mesh, 2, element_node_layouts(mesh, geom, 2))
    dm = build_dof_map(mesh, bases)
    out = eval_uh(dm, bases, np.zeros(len(dm.node_coords)), 0, (0.1, 0.1))
    assert out.value == 0.0
    assert np.array_equal(out.gradient, [0.0, 0.0])
