"""Mesh generators, classification, element sizes, and the text dump."""

import math
import re

import numpy as np
import pytest

from shiftfem.errors import InvalidParam, MeshAssumptionViolated
from shiftfem.geometry import annulus, ellipse, unit_square
from shiftfem.mesh import (INTERIOR, TAG_DIRICHLET, TAG_SYMMETRY,
                           classify_elements, gen_quarter_annulus_mesh,
                           gen_quarter_ellipse_mesh, gen_unit_square_mesh,
                           make_mesh, mesh_text)
from shiftfem.spaces import element_node_layouts

from oracles import inradius, load_mesh


def _signed_area(tri):
    (x0, y0), (x1, y1), (x2, y2) = tri
    return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def _gamma(mesh):
    return float(np.max(mesh.h_per_element / inradius(mesh)))


def _tag_count(mesh, tag):
    return sum(1 for _, _, t in mesh.boundary_edges if t == tag)


def test_ellipse_single_cell():
    mesh = gen_quarter_ellipse_mesh(1, 0.5)
    assert mesh.num_vertices == 3
    assert mesh.num_triangles == 1
    got = {tuple(v) for v in mesh.vertices}
    assert got == {(0.0, 0.0), (0.5, 0.0), (0.0, 1.0)}
    assert _tag_count(mesh, TAG_DIRICHLET) == 1
    assert _tag_count(mesh, TAG_SYMMETRY) == 2


@pytest.mark.parametrize("J", [2, 3, 4, 8])
def test_ellipse_counts(J):
    mesh = gen_quarter_ellipse_mesh(J, 0.5)
    assert mesh.num_vertices == J * J + J + 1
    assert mesh.num_triangles == 2 * J * J - J
    assert _tag_count(mesh, TAG_DIRICHLET) == J
    assert _tag_count(mesh, TAG_SYMMETRY) == 2 * J


def test_annulus_single_cell():
    mesh = gen_quarter_annulus_mesh(1, 1, 0.5)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert _tag_count(mesh, TAG_DIRICHLET) == 2


@pytest.mark.parametrize("I,J", [(4, 2), (8, 4), (3, 5)])
def test_annulus_counts(I, J):
    mesh = gen_quarter_annulus_mesh(I, J, 0.5)
    assert mesh.num_vertices == (I + 1) * (J + 1)
    assert mesh.num_triangles == 2 * I * J
    assert _tag_count(mesh, TAG_DIRICHLET) == 2 * I


def test_generated_meshes_are_counterclockwise():
    meshes = [gen_quarter_ellipse_mesh(4, 0.5),
              gen_quarter_annulus_mesh(4, 2, 0.5),
              gen_unit_square_mesh(3)]
    for mesh in meshes:
        for t in range(mesh.num_triangles):
            assert _signed_area(mesh.vertices[mesh.triangles[t]]) > 0.0


@pytest.mark.parametrize("J", [4, 16])
def test_ellipse_dirichlet_endpoints_on_boundary(J):
    geom = ellipse(0.5)
    mesh = gen_quarter_ellipse_mesh(J, 0.5)
    ends = [e[:2] for e in mesh.boundary_edges if e[2] == TAG_DIRICHLET]
    assert np.max(np.abs(geom.value_many(mesh.vertices[np.ravel(ends)]))) <= 1e-12


def test_annulus_dirichlet_endpoints_on_boundary():
    geom = annulus(0.5)
    mesh = gen_quarter_annulus_mesh(8, 4, 0.5)
    ends = [e[:2] for e in mesh.boundary_edges if e[2] == TAG_DIRICHLET]
    assert np.max(np.abs(geom.value_many(mesh.vertices[np.ravel(ends)]))) <= 1e-12


def test_classification_counts_boundary_elements():
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), ellipse(0.5))
    n_boundary = int(np.sum(mesh.element_class != INTERIOR))
    assert n_boundary == 4
    for idx in mesh.element_class[mesh.element_class != INTERIOR]:
        assert mesh.boundary_edges[idx][2] == TAG_DIRICHLET

    mesh = classify_elements(gen_quarter_annulus_mesh(4, 2, 0.5), annulus(0.5))
    assert int(np.sum(mesh.element_class != INTERIOR)) == 8


def test_polygon_classification_is_all_interior():
    mesh = classify_elements(gen_unit_square_mesh(2), unit_square())
    assert np.all(mesh.element_class == INTERIOR)


def test_boundary_edge_listed_twice_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(InvalidParam, match=r"boundary edge \(2, 1, 'S'\) \(listing 2\) "
                                           r"repeats \(1, 2, 'D'\) \(listing 0\)"):
        make_mesh(verts, [(0, 1, 2)], [(1, 2, "D"), (0, 1, "S"), (2, 1, "S")])
    with pytest.raises(InvalidParam, match=r"\(0, 1, 'D'\) \(listing 1\) repeats"):
        make_mesh(verts, [(0, 1, 2)], [(0, 1, "D"), (0, 1, "D")])



@pytest.mark.parametrize("edge", [(0, 1), (0, 1, "D", 5)])
def test_boundary_listing_that_is_not_a_triple_rejected(edge):
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(InvalidParam, match=rf"boundary edge {re.escape(repr(edge))} "
                                           r"\(listing 1\) is not an \(i, j, tag\) triple"):
        make_mesh(verts, [(0, 1, 2)], [(1, 2, "D"), edge])


@pytest.mark.parametrize("tris", [[(0.9, 1, 2)], [(True, 1, 2)], [(0, 1, np.True_)],
                                  np.array([(1, 1, 1)], dtype=bool), [(0, 1, "2")]])
def test_triangle_index_that_is_not_an_integer_rejected(tris):
    # float indices used to be truncated, and bools read as 0 and 1
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(InvalidParam, match="triangle vertex indices must be integers"):
        make_mesh(verts, tris, [])


@pytest.mark.parametrize("edge", [(0.7, 1, "D"), (0, True, "D"), ("0", 1, "D")])
def test_boundary_index_that_is_not_an_integer_rejected(edge):
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(InvalidParam, match=rf"boundary edge {re.escape(repr(edge))} "
                                           r"\(listing 0\) has a vertex index that is not"):
        make_mesh(verts, [(0, 1, 2)], [edge])


def test_numpy_integer_indices_accepted():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    mesh = make_mesh(verts, np.array([(0, 1, 2)], dtype=np.int32),
                     [(np.int64(0), np.uint8(1), "D")])
    assert mesh.triangles.tolist() == [[0, 1, 2]] and mesh.boundary_edges == ((0, 1, "D"),)


def test_unclassified_mesh_rejects_element_queries():
    mesh = gen_quarter_ellipse_mesh(2, 0.5)
    with pytest.raises(MeshAssumptionViolated, match="not been classified"):
        element_node_layouts(mesh, ellipse(0.5), 2)


def _two_curved_edge_mesh():
    s = math.sqrt(0.5)
    verts = [(1.0, 0.0), (s, s), (0.0, 1.0), (0.1, 0.1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    bedges = [(0, 1, TAG_DIRICHLET), (1, 2, TAG_DIRICHLET)]
    return make_mesh(verts, tris, bedges)


def test_two_dirichlet_edges_on_one_triangle_rejected():
    with pytest.raises(MeshAssumptionViolated):
        classify_elements(_two_curved_edge_mesh(), annulus(0.5))


def test_dirichlet_endpoint_off_boundary_rejected():
    s = math.sqrt(0.5)
    verts = [(1.0, 0.0), (s, s), (0.1, 0.1)]
    mesh = make_mesh(verts, [(0, 1, 2)], [(0, 2, TAG_DIRICHLET)])
    with pytest.raises(MeshAssumptionViolated):
        classify_elements(mesh, annulus(0.5))


def test_dirichlet_edge_joining_two_pieces_rejected():
    # each end lies on a circle, but the edge is a chord of neither, so no
    # refinement can place its nodes
    mesh = make_mesh([(0.5, 0.0), (1.0, 0.0), (0.75, 0.2)], [(0, 1, 2)],
                     [(0, 1, TAG_DIRICHLET), (1, 2, TAG_SYMMETRY), (2, 0, TAG_SYMMETRY)])
    with pytest.raises(MeshAssumptionViolated,
                       match=r"Dirichlet edge \(0, 1\) joins two boundary pieces"):
        classify_elements(mesh, annulus(0.5))


def test_stats_on_reference_shapes():
    right = make_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], [])
    assert right.h_per_element.max() == pytest.approx(math.sqrt(2.0))
    assert _gamma(right) == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-12)

    equi = make_mesh([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5 * math.sqrt(3.0))],
                     [(0, 1, 2)], [])
    assert _gamma(equi) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


def test_ellipse_h_halves_under_refinement():
    hs = [gen_quarter_ellipse_mesh(J, 0.5).h_per_element.max() for J in (4, 8, 16)]
    for coarse, fine in zip(hs, hs[1:]):
        assert 0.5 * 0.85 <= fine / coarse <= 0.5 * 1.15


def test_quasi_uniform_diameters():
    for mesh in (gen_quarter_ellipse_mesh(4, 0.5),
                 gen_quarter_ellipse_mesh(16, 0.5),
                 gen_quarter_ellipse_mesh(64, 0.5),
                 gen_quarter_annulus_mesh(8, 4, 0.5),
                 gen_quarter_annulus_mesh(32, 16, 0.5)):
        ratio = float(np.max(mesh.h_per_element) / np.min(mesh.h_per_element))
        assert ratio < 4.0


def test_gamma_bounded_on_annulus_and_square_families():
    for mesh in (gen_quarter_annulus_mesh(8, 4, 0.5),
                 gen_quarter_annulus_mesh(32, 16, 0.5),
                 gen_quarter_annulus_mesh(128, 64, 0.5),
                 gen_unit_square_mesh(4),
                 gen_unit_square_mesh(16)):
        assert _gamma(mesh) < 10.0


def test_ellipse_center_cells_degrade_but_boundary_cells_stay_regular():
    # The collapsed parameter grid makes near-origin cells thin (angular
    # width ~ r/J), so the global gamma grows ~ J. Boundary elements are
    # the ones driving the method's local systems and stay well shaped.
    geom = ellipse(0.5)
    for J in (8, 32):
        mesh = classify_elements(gen_quarter_ellipse_mesh(J, 0.5), geom)
        boundary = mesh.element_class != INTERIOR
        ratios = mesh.h_per_element[boundary] / inradius(mesh)[boundary]
        assert float(np.max(ratios)) < 10.0
    g8 = _gamma(gen_quarter_ellipse_mesh(8, 0.5))
    g32 = _gamma(gen_quarter_ellipse_mesh(32, 0.5))
    assert g32 > g8


@pytest.mark.parametrize("build", [
    lambda: gen_quarter_ellipse_mesh(3, 0.5),
    lambda: gen_unit_square_mesh(2),
    lambda: gen_quarter_annulus_mesh(4, 2, 0.5),
])
def test_file_round_trip_is_bit_exact(build, tmp_path):
    mesh = build()
    path = tmp_path / "mesh.txt"
    path.write_text(mesh_text(mesh))
    back = load_mesh(path)
    assert np.array_equal(mesh.vertices, back.vertices)
    assert np.array_equal(mesh.triangles, back.triangles)
    assert mesh.boundary_edges == back.boundary_edges
    assert mesh_text(back) == path.read_text()


def test_make_mesh_rejects_nonconforming_input():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.5)]
    tris = [(0, 1, 2), (1, 3, 2), (0, 2, 4)]
    # edge (0, 2) belongs to triangles 0 and 2; adding it again breaks conformity
    with pytest.raises(InvalidParam):
        make_mesh(verts, tris + [(0, 2, 3)], [])
    # boundary edge that is not a mesh edge
    with pytest.raises(InvalidParam):
        make_mesh(verts, tris, [(1, 4, TAG_DIRICHLET)])


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_nearly_coincident_vertices_rejected(scale):
    eps = 5e-11
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, eps), (1.0, 1.0)]) * scale
    with pytest.raises(InvalidParam, match="triangle 1 is a sliver"):
        make_mesh(verts[:4], [(0, 1, 2), (1, 3, 2)], [])
    # the same two vertices in two well-shaped triangles that share no edge
    with pytest.raises(InvalidParam, match="vertices 1 and 3 coincide"):
        make_mesh(verts, [(0, 1, 2), (3, 4, 2)], [])
    make_mesh(verts[[0, 1, 2, 4]], [(0, 1, 2), (1, 3, 2)], [])


def test_non_finite_coordinates_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, math.nan)]
    with pytest.raises(InvalidParam, match="must be finite"):
        make_mesh(verts, [(0, 1, 2)], [])


def test_cracked_square_rejected():
    # the centre vertex of the J=2 square duplicated for half the triangles:
    # every triangle is fine, but the two halves share no centre node
    mesh = gen_unit_square_mesh(2)
    verts = np.vstack((mesh.vertices, mesh.vertices[4]))
    tris = mesh.triangles.copy()
    half = tris[len(tris) // 2:]
    half[half == 4] = len(verts) - 1
    with pytest.raises(InvalidParam, match="vertices 4 and 9 coincide"):
        make_mesh(verts, tris, mesh.boundary_edges)
    make_mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges)


@pytest.mark.parametrize("call", [
    lambda: gen_quarter_ellipse_mesh(0, 0.5),
    lambda: gen_quarter_ellipse_mesh(4, 0.0),
    lambda: gen_quarter_annulus_mesh(0, 3, 0.5),
    lambda: gen_quarter_annulus_mesh(2, 2, 1.0),
    lambda: gen_unit_square_mesh(0),
    # sizes that are not integers used to fail inside the generators, with
    # numpy's IndexError, a TypeError and a ValueError in turn
    lambda: gen_quarter_ellipse_mesh(2.5, 0.5),
    lambda: gen_unit_square_mesh(2.5),
    lambda: gen_quarter_ellipse_mesh(True, 0.5),
    lambda: gen_quarter_annulus_mesh(4, 2.0, 0.5),
    lambda: gen_quarter_annulus_mesh(True, 2, 0.5),
    lambda: gen_quarter_ellipse_mesh(4, True),
    lambda: gen_quarter_ellipse_mesh(4, np.True_),
])
def test_generator_parameter_validation(call):
    with pytest.raises(InvalidParam):
        call()


def test_numpy_integer_sizes_accepted():
    assert gen_quarter_ellipse_mesh(np.int64(2), 0.5).num_triangles == 6
    assert gen_quarter_annulus_mesh(np.int32(2), np.uint8(1), 0.5).num_triangles == 4
    assert gen_unit_square_mesh(np.int16(2)).num_triangles == 8
