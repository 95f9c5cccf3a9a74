"""Assembly: Galerkin degeneracy on polygons, lift, extension modes, Gram matrices."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from shiftfem.assembly import (ProblemSpec, assemble, assemble_gram,
                               bordered_schur, element_geometry, fill_order)
from shiftfem.errors import InconsistentDof, InvalidParam
from shiftfem.geometry import annulus, ellipse, unit_square
from shiftfem.linsolve import solve
from shiftfem.mesh import (INTERIOR, classify_elements,
                           gen_quarter_annulus_mesh, gen_quarter_ellipse_mesh,
                           gen_unit_square_mesh)
from shiftfem.problems import annulus_test2, ellipse_test1, polygon_patch
from shiftfem.quadrature import rule_for_degree, triangle_area
from shiftfem.spaces import (build_dof_map, build_local_bases,
                             element_node_layouts, eval_basis_bary,
                             eval_basis_bary_grad)


def _pipeline(mesh, geom, k, problem):
    layouts = element_node_layouts(mesh, geom, k)
    bases = build_local_bases(mesh, k, layouts)
    dm = build_dof_map(mesh, k, layouts, dirichlet_data=problem.d)
    return dm, bases, assemble(mesh, dm, bases, problem)


def test_polygon_matrix_symmetric():
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(4), geom)
    _, _, sys = _pipeline(mesh, geom, 2, polygon_patch(2))
    D = (sys.A - sys.A.T).toarray()
    assert np.max(np.abs(D)) <= 1e-12 * np.max(np.abs(sys.A.toarray()))


@pytest.mark.parametrize("k", [2, 3])
def test_patch_solution_exact_at_nodes(k):
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(3), geom)
    prob = polygon_patch(k)
    dm, bases, sys = _pipeline(mesh, geom, k, prob)
    rep = solve(sys.A, sys.rhs)
    full = dm.full_vector(rep.x)
    exact = prob.exact.value(dm.node_coords[:, 0], dm.node_coords[:, 1])
    assert np.max(np.abs(full - exact)) <= 1e-10


# -- independent textbook P2 Galerkin oracle (own shapes, own bookkeeping) --

def _p2_values(lam):
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                     4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0], axis=1)


def _p2_oracle_solution(mesh, f):
    """Nodal P2 Galerkin solution with zero Dirichlet data on every boundary node.

    Stiffness by the edge-midpoint rule (exact for the quadratic integrand),
    which is a rule this library never uses internally.
    """
    key = lambda p: (round(float(p[0]), 12), round(float(p[1]), 12))
    index, coords = {}, []

    def node_id(p):
        k_ = key(p)
        if k_ not in index:
            index[k_] = len(coords)
            coords.append(k_)
        return index[k_]

    load_rule = rule_for_degree(6)
    load_vals = _p2_values(load_rule.points)
    mids_bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    rows, cols, vals, loads = [], [], [], {}
    for t in range(mesh.num_triangles):
        tri = mesh.triangle_coords(t)
        (x0, y0), (x1, y1), (x2, y2) = tri
        twoA = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        gl = np.array([[y1 - y2, x2 - x1], [y2 - y0, x0 - x2],
                       [y0 - y1, x1 - x0]]) / twoA
        ids = [node_id(tri[0]), node_id(tri[1]), node_id(tri[2]),
               node_id((tri[0] + tri[1]) / 2), node_id((tri[1] + tri[2]) / 2),
               node_id((tri[2] + tri[0]) / 2)]
        K = np.zeros((6, 6))
        for lam in mids_bary:
            g = np.vstack([(4 * lam[m] - 1) * gl[m] for m in range(3)]
                          + [4 * (lam[(m + 1) % 3] * gl[m] + lam[m] * gl[(m + 1) % 3])
                             for m in range(3)])
            K += (abs(twoA) / 6.0) * (g @ g.T)
        pts = load_rule.physical_points(tri)
        F = 0.5 * abs(twoA) * (load_vals.T @ (load_rule.weights * f(pts[:, 0], pts[:, 1])))
        for a in range(6):
            loads[ids[a]] = loads.get(ids[a], 0.0) + F[a]
            for b in range(6):
                rows.append(ids[a])
                cols.append(ids[b])
                vals.append(K[a, b])
    n = len(coords)
    free = [i for i, (x, y) in enumerate(coords)
            if 1e-12 < x < 1 - 1e-12 and 1e-12 < y < 1 - 1e-12]
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()[free][:, free]
    b = np.array([loads[i] for i in free])
    x = spsolve(sp.csc_matrix(K), b)
    return {coords[i]: v for i, v in zip(free, x)}, key


def test_matches_textbook_galerkin_on_square():
    def f(x, y):
        return 2.0 * y * (1.0 - y) + 2.0 * x * (1.0 - x)

    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(3), geom)
    prob = ProblemSpec(geom=geom, f=f)
    dm, bases, sys = _pipeline(mesh, geom, 2, prob)
    full = dm.full_vector(solve(sys.A, sys.rhs).x)
    oracle, key = _p2_oracle_solution(mesh, f)
    compared = 0
    for i, p in enumerate(dm.node_coords):
        if key(p) in oracle:
            assert full[i] == pytest.approx(oracle[key(p)], abs=1e-10)
            compared += 1
    assert compared == dm.n_unknowns == 25


def test_single_element_rhs_against_high_order_rule():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(1, 0.5), geom)
    prob = ellipse_test1()
    dm, bases, sys = _pipeline(mesh, geom, 2, prob)
    assert sys.A.shape == (3, 3)
    assert np.all(np.isfinite(sys.A.toarray()))
    rule = rule_for_degree(8)
    tri = mesh.triangle_coords(0)
    pts = rule.physical_points(tri)
    F = abs(triangle_area(tri)) * (
        eval_basis_bary(2, rule.points).T @ (rule.weights * prob.f(pts[:, 0], pts[:, 1]))
    )
    ui = dm.unknown_index[dm.element_to_global[0]]
    manual = np.zeros(3)
    manual[ui[ui >= 0]] = F[ui >= 0]
    assert np.allclose(sys.rhs, manual, rtol=1e-12, atol=1e-15)


def test_extension_modes_identical_on_convex_domain():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    _, _, s1 = _pipeline(mesh, geom, 2, ellipse_test1(extension_mode="analytic"))
    _, _, s2 = _pipeline(mesh, geom, 2, ellipse_test1(extension_mode="zero_outside"))
    assert np.array_equal(s1.rhs, s2.rhs)


def test_zero_extension_touches_only_inner_ring_rows():
    # The k=2 load rule (degree 6) has no points within ~5% of an edge, so it
    # never samples the sliver between an inner chord and the arc; the k=3
    # load rule (degree 8) has near-edge points and does on the coarse mesh.
    geom = annulus(0.5)
    mesh = classify_elements(gen_quarter_annulus_mesh(4, 2, 0.5), geom)
    dm, _, s1 = _pipeline(mesh, geom, 3, annulus_test2(extension_mode="analytic"))
    _, _, s2 = _pipeline(mesh, geom, 3, annulus_test2(extension_mode="zero_outside"))
    changed = set(np.nonzero(s1.rhs != s2.rhs)[0])
    assert len(changed) == 24
    inner_rows = set()
    for t in range(mesh.num_triangles):
        edge = mesh.dirichlet_edge_of(t)
        if edge is None or abs(math.hypot(*mesh.vertices[edge[0]]) - 0.5) > 1e-9:
            continue
        ui = dm.unknown_index[dm.element_to_global[t]]
        inner_rows.update(int(i) for i in ui[ui >= 0])
    assert changed <= inner_rows


def test_default_load_rule_blind_to_inner_skin():
    # Documented behavior: on the radial-ring meshes the default rule's
    # points all stay inside the true domain, so both extension modes
    # assemble bit-identical systems.
    geom = annulus(0.5)
    mesh = classify_elements(gen_quarter_annulus_mesh(8, 4, 0.5), geom)
    _, _, s1 = _pipeline(mesh, geom, 2, annulus_test2(extension_mode="analytic"))
    _, _, s2 = _pipeline(mesh, geom, 2, annulus_test2(extension_mode="zero_outside"))
    assert np.array_equal(s1.rhs, s2.rhs)


def test_nonsymmetry_concentrated_on_boundary_elements():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    dm, bases, sys = _pipeline(mesh, geom, 2, ellipse_test1())
    D = (sys.A - sys.A.T).tocoo()
    scale = np.max(np.abs(sys.A.toarray()))
    big = np.abs(D.data) > 1e-14 * scale
    assert big.any()
    boundary_rows = set()
    for t in range(mesh.num_triangles):
        if mesh.element_class[t] != INTERIOR:
            ui = dm.unknown_index[dm.element_to_global[t]]
            boundary_rows.update(int(i) for i in ui[ui >= 0])
    assert set(D.row[big]) <= boundary_rows
    assert set(D.col[big]) <= boundary_rows


def test_gram_equals_stiffness_on_polygon():
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(3), geom)
    _, bases, sys = _pipeline(mesh, geom, 2, polygon_patch(2))
    g_test = assemble_gram(sys, bases, "test_space")
    g_trial = assemble_gram(sys, bases, "trial_space")
    assert np.array_equal(g_test.toarray(), sys.A.toarray())
    assert np.array_equal(g_trial.toarray(), sys.A.toarray())


@pytest.mark.parametrize("choice", ["test_space", "trial_space"])
def test_gram_symmetric_spd_on_curved_mesh(choice):
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(8, 0.5), geom)
    _, bases, sys = _pipeline(mesh, geom, 2, ellipse_test1())
    G = assemble_gram(sys, bases, choice)
    bordered_schur(G, sp.csc_matrix((G.shape[0], 0)), None, fill_order(G))
    dense = G.toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))


def test_gram_spaces_differ_on_curved_mesh():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    _, bases, sys = _pipeline(mesh, geom, 2, ellipse_test1())
    g_test = assemble_gram(sys, bases, "test_space")
    g_trial = assemble_gram(sys, bases, "trial_space")
    assert np.max(np.abs((g_test - g_trial).toarray())) > 1e-6


def test_invalid_inputs_rejected():
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(2), geom)
    dm = build_dof_map(mesh, 2, element_node_layouts(mesh, geom, 2))
    bases2 = build_local_bases(mesh, 2, element_node_layouts(mesh, geom, 2))
    bases3 = build_local_bases(mesh, 3, element_node_layouts(mesh, geom, 3))
    with pytest.raises(InconsistentDof):
        assemble(mesh, dm, bases3, polygon_patch(2))
    short = replace(bases2, nodes=bases2.nodes[:-1], kt_deviation=bases2.kt_deviation[:-1])
    with pytest.raises(InconsistentDof):
        assemble(mesh, dm, short, polygon_patch(2))
    with pytest.raises(InvalidParam):
        assemble_gram(assemble(mesh, dm, bases2, polygon_patch(2)), bases2, "both_spaces")


@pytest.mark.parametrize("k", [2, 3])
def test_builtin_rules_are_exact_for_their_integrands(k):
    # The stiffness integrand has degree 2(k-1), and the load's, for a source
    # of degree k+2, degree 2k+2: both must match the degree-10 rule.
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(2), geom)
    prob = ProblemSpec(geom=geom, f=lambda x, y: x ** (k + 2) - 3.0 * x * y ** (k + 1))
    dm, _, sys = _pipeline(mesh, geom, k, prob)
    fine = rule_for_degree(10)
    tris, grads, area = element_geometry(mesh)
    dphi = eval_basis_bary_grad(k, fine.points)[None] @ grads[:, None]
    B = area[:, None, None] * np.einsum("tqid,tqjd,q->tij", dphi, dphi, fine.weights)
    assert np.allclose(sys.blocks, B, rtol=0.0, atol=1e-13)
    pts = fine.physical_points(tris)
    F = area[:, None] * np.einsum("qj,q,tq->tj", eval_basis_bary(k, fine.points),
                                  fine.weights, prob.f(pts[..., 0], pts[..., 1]))
    ui = dm.unknown_index[dm.element_to_global]
    rhs = np.bincount(ui[ui >= 0], F[ui >= 0], minlength=dm.n_unknowns)
    assert np.allclose(sys.rhs, rhs, rtol=1e-13, atol=1e-15)

