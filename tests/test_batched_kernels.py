"""The stacked element kernels against per-element reference loops.

Each oracle below is the loop the library ran before its kernels worked on
whole-mesh stacks. The stacked kernels must reproduce them bit for bit (the
frozen reference tables are compared to 1e-9 relative, and the k=3 error
cells move by more than that under a reordered sum); the one exception is
the Dirichlet lift of a problem with nonzero boundary data.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from shiftfem.analysis import error_norms, kt_perturbation_report
from shiftfem.assembly import (assemble, assemble_gram, default_rules,
                               source_values)
from shiftfem.errors import InvalidParam
from shiftfem.linsolve import solve
from shiftfem.mesh import (INTERIOR, classify_elements,
                           gen_quarter_annulus_mesh, gen_quarter_ellipse_mesh,
                           gen_unit_square_mesh, make_mesh)
from shiftfem.problems import annulus_test2, ellipse_test1, polygon_patch
from shiftfem.quadrature import rule_for_degree
from shiftfem.spaces import (build_dof_map, build_local_bases,
                             element_node_layouts,
                             eval_basis_bary, eval_basis_bary_grad,
                             lagrange_layout, shift_boundary_nodes)


def _area(tri):
    (x0, y0), (x1, y1), (x2, y2) = tri
    return abs(0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)))


def _bary_grads(tri):
    (x0, y0), (x1, y1), (x2, y2) = tri
    twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return np.array([[y1 - y2, x2 - x1],
                     [y2 - y0, x0 - x2],
                     [y0 - y1, x1 - x0]]) / twice_area


def _bary_coords(tri, pts):
    mat = np.column_stack((tri[1] - tri[0], tri[2] - tri[0]))
    lam12 = np.linalg.solve(mat, (pts - tri[0]).T).T
    return np.column_stack((1.0 - lam12.sum(axis=1), lam12))


def _loop_h_rho(mesh):
    h, rho = [], []
    for i, j, k in mesh.triangles:
        p0, p1, p2 = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
        area = 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
        a = float(np.linalg.norm(p1 - p2))
        b = float(np.linalg.norm(p2 - p0))
        c = float(np.linalg.norm(p0 - p1))
        h.append(max(a, b, c))
        rho.append(area / (0.5 * (a + b + c)))
    return np.array(h), np.array(rho)


def _loop_layouts(mesh, geom, k):
    out = []
    for t, tri_ids in enumerate(mesh.triangles):
        tri = mesh.triangle_coords(t)
        edge = mesh.dirichlet_edge_of(t)
        if edge is None:
            out.append(lagrange_layout(k, tri))
            continue
        m = next(m for m in range(3)
                 if {tri_ids[m], tri_ids[(m + 1) % 3]} == {edge[0], edge[1]})
        out.append(shift_boundary_nodes(tri, m, geom, k))
    return np.array(out)


def _loop_local_bases(mesh, k, layouts):
    """Per-element (coeffs, kt_deviation); identity and 0 on interior elements."""
    n_k = layouts.shape[1]
    coeffs, dev = [], []
    for t in range(mesh.num_triangles):
        if mesh.element_class[t] == INTERIOR:
            coeffs.append(np.eye(n_k))
            dev.append(0.0)
            continue
        kt = eval_basis_bary(k, _bary_coords(mesh.triangle_coords(t), layouts[t]))
        coeffs.append(np.linalg.inv(kt))
        dev.append(float(np.max(np.abs(kt - np.eye(n_k)))))
    return coeffs, dev


def _loop_blocks(mesh, k, rules):
    dphi_bary = eval_basis_bary_grad(k, rules.stiffness.points)
    w_s = rules.stiffness.weights
    for t in range(mesh.num_triangles):
        tri = mesh.triangle_coords(t)
        area = _area(tri)
        dphi = dphi_bary @ _bary_grads(tri)
        yield t, tri, area, area * np.einsum("qid,qjd,q->ij", dphi, dphi, w_s)


def _loop_scatter(blocks, n):
    if not blocks:
        return sp.csr_matrix((n, n))
    rows = np.concatenate([np.repeat(r, len(r)) for r, _ in blocks])
    cols = np.concatenate([np.tile(r, len(r)) for r, _ in blocks])
    vals = np.concatenate([b.ravel() for _, b in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _loop_assemble(mesh, dm, coeffs, dev, problem, k):
    rules = default_rules(k)
    phi_load = eval_basis_bary(k, rules.load.points)
    blocks, rhs = [], np.zeros(dm.n_unknowns)
    for t, tri, area, B in _loop_blocks(mesh, k, rules):
        if dev[t] != 0.0:
            B = B @ coeffs[t]
        pts = rules.load.physical_points(tri)
        F = area * (phi_load.T @ (rules.load.weights * source_values(problem, pts)))
        g = dm.element_to_global[t]
        ui = dm.unknown_index[g]
        free, fixed = np.nonzero(ui >= 0)[0], np.nonzero(ui < 0)[0]
        r = ui[free]
        rhs[r] += F[free]
        if len(fixed):
            rhs[r] -= B[np.ix_(free, fixed)] @ dm.dirichlet_values[g[fixed]]
        blocks.append((r, B[np.ix_(free, free)]))
    return _loop_scatter(blocks, dm.n_unknowns), rhs


def _loop_gram(mesh, dm, coeffs, dev, choice, k):
    blocks = []
    for t, _tri, _area, B in _loop_blocks(mesh, k, default_rules(k)):
        if choice == "trial_space" and dev[t] != 0.0:
            B = coeffs[t].T @ B @ coeffs[t]
        ui = dm.unknown_index[dm.element_to_global[t]]
        free = np.nonzero(ui >= 0)[0]
        blocks.append((ui[free], B[np.ix_(free, free)]))
    return _loop_scatter(blocks, dm.n_unknowns)


def _loop_errors(mesh, dm, coeffs, full, exact, k):
    rule = rule_for_degree(2 * k + 4)
    dphi_bary = eval_basis_bary_grad(k, rule.points)
    phi = eval_basis_bary(k, rule.points)
    g2 = l2 = 0.0
    for t in range(mesh.num_triangles):
        tri = mesh.triangle_coords(t)
        area = _area(tri)
        a = coeffs[t] @ full[dm.element_to_global[t]]
        pts = rule.physical_points(tri)
        gh = np.einsum("qjd,j->qd", dphi_bary @ _bary_grads(tri), a)
        dg = gh - exact.grad(pts[:, 0], pts[:, 1])
        dv = phi @ a - exact.value(pts[:, 0], pts[:, 1])
        g2 += area * float(rule.weights @ np.einsum("qd,qd->q", dg, dg))
        l2 += area * float(rule.weights @ (dv * dv))
    return math.sqrt(g2), math.sqrt(l2)


def _case(name):
    if name == "ellipse_k2_J8":
        return ellipse_test1(), gen_quarter_ellipse_mesh(8, 0.5), 2
    if name == "annulus_k3_I8_zero":
        return (annulus_test2(extension_mode="zero_outside"),
                gen_quarter_annulus_mesh(8, 4, 0.5), 3)
    return polygon_patch(2), gen_unit_square_mesh(4), 2


def _exact_csr(A, B):
    A, B = A.tocsr(), B.tocsr()
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


@pytest.mark.parametrize("name", ["ellipse_k2_J8", "annulus_k3_I8_zero", "polygon_k2_J4"])
def test_stacked_kernels_reproduce_the_element_loops(name):
    prob, raw, k = _case(name)
    mesh = classify_elements(raw, prob.geom)
    h, rho = _loop_h_rho(mesh)
    assert np.array_equal(mesh.h_per_element, h)
    assert np.array_equal(mesh.rho_per_element, rho)

    lay = element_node_layouts(mesh, prob.geom, k)
    assert np.array_equal(lay, _loop_layouts(mesh, prob.geom, k))
    bases = build_local_bases(mesh, k, lay)
    coeffs, dev = _loop_local_bases(mesh, k, lay)
    assert np.array_equal(bases.shifted, np.flatnonzero(mesh.element_class != INTERIOR))
    assert np.array_equal(bases.coeffs, np.array([coeffs[t] for t in bases.shifted])
                          .reshape(bases.coeffs.shape))
    assert np.array_equal(bases.kt_deviation, dev)
    assert kt_perturbation_report(bases).max_dev == max(dev)

    dm = build_dof_map(mesh, prob.geom, k, dirichlet_data=prob.d, layouts=lay)
    sysm = assemble(mesh, dm, bases, prob)
    A, rhs = _loop_assemble(mesh, dm, coeffs, dev, prob, k)
    assert _exact_csr(sysm.A, A)
    if name.startswith("polygon"):  # nonzero Dirichlet lift
        assert np.max(np.abs(sysm.rhs - rhs)) <= 1e-13
    else:
        assert np.array_equal(sysm.rhs, rhs)
    for choice in ("test_space", "trial_space"):
        assert _exact_csr(assemble_gram(mesh, dm, bases, choice),
                          _loop_gram(mesh, dm, coeffs, dev, choice, k))

    x = solve(sysm.A, sysm.rhs).x
    rep = error_norms(mesh, dm, bases, x, prob.exact, param=8)
    full = dm.full_vector(x)
    nodal = np.abs(full - prob.exact.value(dm.node_coords[:, 0], dm.node_coords[:, 1]))
    assert (rep.grad_err, rep.l2_err) == _loop_errors(mesh, dm, coeffs, full, prob.exact, k)
    assert rep.max_nodal_err == float(nodal[~dm.dirichlet_mask].max())
    assert rep.h == float(h.max())
    assert rep.param == 8


def test_make_mesh_names_the_first_offender_in_element_order():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.5), (0.5, -1.0)]
    ok = [(0, 1, 2), (1, 3, 2), (0, 2, 4)]
    # triangle 3 repeats edge (0, 2) a third time, triangle 4 is clockwise
    with pytest.raises(InvalidParam, match=r"edge \(0, 2\) shared by more than two"):
        make_mesh(verts, ok + [(0, 5, 2)] + [(0, 2, 1)], [])
    with pytest.raises(InvalidParam, match="triangle 3 is degenerate or clockwise"):
        make_mesh(verts, ok + [(0, 2, 5), (0, 5, 2)], [])
    with pytest.raises(InvalidParam, match="triangle 1 is degenerate"):
        make_mesh(verts, [(0, 1, 2), (1, 1, 3), (1, 3, 2)], [])
    with pytest.raises(InvalidParam, match="unknown boundary tag 'X'"):
        make_mesh(verts, ok, [(0, 1, "X"), (1, 4, "D")])
    with pytest.raises(InvalidParam, match=r"boundary edge \(1, 4\) is not an edge"):
        make_mesh(verts, ok, [(0, 1, "D"), (1, 4, "S")])
    with pytest.raises(InvalidParam, match=r"boundary edge \(1, 2\) is not an edge"):
        make_mesh(verts, ok, [(1, 2, "S")])
    with pytest.raises(InvalidParam, match=r"boundary edge \(0, 9\) is not an edge"):
        make_mesh(verts, ok, [(0, 9, "S")])
