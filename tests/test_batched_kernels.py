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

from shiftfem.analysis import error_norms
from shiftfem.assembly import assemble, assemble_gram, source_values
from shiftfem.errors import InvalidParam, MeshAssumptionViolated
from shiftfem.geometry import annulus, ellipse, unit_square
from shiftfem.linsolve import solve
from shiftfem.mesh import (INTERIOR, TAG_DIRICHLET, TAG_SYMMETRY,
                           classify_elements, gen_quarter_annulus_mesh,
                           gen_quarter_ellipse_mesh, gen_unit_square_mesh,
                           make_mesh)
from shiftfem.problems import annulus_test2, ellipse_test1, polygon_patch
from shiftfem.quadrature import rule_for_degree
from shiftfem.spaces import (build_dof_map, build_local_bases,
                             edge_interior_locals, element_node_layouts,
                             eval_basis_bary, eval_basis_bary_grad,
                             lagrange_layout)

from oracles import scalar_pieces, scalar_ray_intersection


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


def _loop_layouts(mesh, pieces, k):
    """Layouts with one scalar ray solve per moved node, onto ``pieces``
    (the geometry's scalar pieces, none for a polygon)."""
    out = []
    for t, tri_ids in enumerate(mesh.triangles):
        tri = mesh.vertices[tri_ids]
        nodes = lagrange_layout(k, tri)
        if mesh.element_class[t] != INTERIOR and pieces:
            edge = mesh.boundary_edges[mesh.element_class[t]]
            m = next(m for m in range(3)
                     if {tri_ids[m], tri_ids[(m + 1) % 3]} == {edge[0], edge[1]})
            # the piece nearest the edge: smallest max |g| over its two ends
            piece = min(pieces, key=lambda p: max(abs(p.value(*tri[m])),
                                                  abs(p.value(*tri[(m + 1) % 3]))))
            for loc in edge_interior_locals(k, m):
                nodes[loc] = scalar_ray_intersection(piece, tuple(tri[(m + 2) % 3]),
                                                     tuple(nodes[loc]))
        out.append(nodes)
    return np.array(out)


@pytest.mark.parametrize("kind, e, k, n", [
    # on each of these, at least one node moves by a bit when the ellipse
    # squares by x * x or the annulus radius is np.hypot
    ("ellipse", 0.3, 2, 16), ("ellipse", 0.7, 3, 64),
    ("annulus", 0.4, 2, 16), ("annulus", 0.7, 3, 16),
])
def test_batched_layouts_reproduce_the_scalar_newton(kind, e, k, n):
    if kind == "ellipse":
        geom, raw = ellipse(e), gen_quarter_ellipse_mesh(n, e)
    else:
        geom, raw = annulus(e), gen_quarter_annulus_mesh(n, n // 2, e)
    mesh = classify_elements(raw, geom)
    assert np.array_equal(element_node_layouts(mesh, geom, k),
                          _loop_layouts(mesh, scalar_pieces(kind, e), k))


def _loop_local_bases(mesh, k, layouts):
    """Per-element (coeffs, kt_deviation); identity and 0 on interior elements."""
    n_k = layouts.shape[1]
    coeffs, dev = [], []
    for t in range(mesh.num_triangles):
        if mesh.element_class[t] == INTERIOR:
            coeffs.append(np.eye(n_k))
            dev.append(0.0)
            continue
        kt = eval_basis_bary(k, _bary_coords(mesh.vertices[mesh.triangles[t]], layouts[t]))
        coeffs.append(np.linalg.inv(kt))
        dev.append(float(np.max(np.abs(kt - np.eye(n_k)))))
    return coeffs, dev


def _loop_blocks(mesh, k):
    rule = rule_for_degree(2 * (k - 1))
    dphi_bary = eval_basis_bary_grad(k, rule.points)
    w_s = rule.weights
    for t in range(mesh.num_triangles):
        tri = mesh.vertices[mesh.triangles[t]]
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
    load = rule_for_degree(2 * k + 2)
    phi_load = eval_basis_bary(k, load.points)
    blocks, rhs = [], np.zeros(dm.n_unknowns)
    for t, tri, area, B in _loop_blocks(mesh, k):
        if dev[t] != 0.0:
            B = B @ coeffs[t]
        pts = load.physical_points(tri)
        F = area * (phi_load.T @ (load.weights * source_values(problem, pts)))
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
    for t, _tri, _area, B in _loop_blocks(mesh, k):
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
        tri = mesh.vertices[mesh.triangles[t]]
        area = _area(tri)
        a = coeffs[t] @ full[dm.element_to_global[t]]
        pts = rule.physical_points(tri)
        gh = np.einsum("qjd,j->qd", dphi_bary @ _bary_grads(tri), a)
        dg = gh - exact.grad(pts[:, 0], pts[:, 1])
        dv = phi @ a - exact.value(pts[:, 0], pts[:, 1])
        g2 += area * float(rule.weights @ np.einsum("qd,qd->q", dg, dg))
        l2 += area * float(rule.weights @ (dv * dv))
    return math.sqrt(g2), math.sqrt(l2)


def _hash_dof_map(mesh, geom, k, dirichlet_data, layouts):
    """Global numbering by merging element nodes closer than 1e-10 (a 1e-6
    spatial hash); Dirichlet iff |g| <= 1e-9 at the node, where g of a
    geometry without curved pieces is the distance to the unit square's
    boundary."""
    n_k = layouts.shape[1]
    cell, tol = 1e-6, 1e-10
    buckets, coords = {}, []
    elem_to_global = np.empty((mesh.num_triangles, n_k), dtype=int)
    for t in range(mesh.num_triangles):
        for loc in range(n_k):
            p = layouts[t, loc]
            cx, cy = int(np.floor(p[0] / cell)), int(np.floor(p[1] / cell))
            near = [idx for nx in (cx - 1, cx, cx + 1) for ny in (cy - 1, cy, cy + 1)
                    for idx in buckets.get((nx, ny), ())
                    if np.sum((coords[idx] - p) ** 2) <= tol * tol]
            if near:
                found = near[0]
            else:
                found = len(coords)
                coords.append(p.copy())
                buckets.setdefault((cx, cy), []).append(found)
            elem_to_global[t, loc] = found
    node_coords = np.array(coords)
    if geom.fields is not None:
        g = geom.value_many(node_coords)
    else:
        g = np.min(np.hstack((node_coords, 1.0 - node_coords)), axis=1)
    mask = np.abs(g) <= 1e-9
    values = np.zeros(len(node_coords))
    if dirichlet_data is not None:
        for i in np.flatnonzero(mask):
            values[i] = dirichlet_data(node_coords[i, 0], node_coords[i, 1])
    unknown_index = np.full(len(node_coords), -1, dtype=int)
    unknown_index[~mask] = np.arange(int(np.sum(~mask)))
    return node_coords, mask, values, elem_to_global, unknown_index


def _case(name):
    if name == "ellipse_k2_J8":
        return ellipse_test1(), gen_quarter_ellipse_mesh(8, 0.5), 2
    if name == "ellipse_k3_J16":
        return ellipse_test1(), gen_quarter_ellipse_mesh(16, 0.5), 3
    if name == "annulus_k3_I8_zero":
        return (annulus_test2(extension_mode="zero_outside"),
                gen_quarter_annulus_mesh(8, 4, 0.5), 3)
    if name == "annulus_k2_I16":
        return annulus_test2(), gen_quarter_annulus_mesh(16, 8, 0.5), 2
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
    pieces = () if prob.geom.fields is None else scalar_pieces(prob.geom.kind, 0.5)
    assert np.array_equal(lay, _loop_layouts(mesh, pieces, k))
    bases = build_local_bases(mesh, k, lay)
    coeffs, dev = _loop_local_bases(mesh, k, lay)
    assert np.array_equal(bases.shifted, np.flatnonzero(mesh.element_class != INTERIOR))
    assert np.array_equal(bases.coeffs, np.array([coeffs[t] for t in bases.shifted])
                          .reshape(bases.coeffs.shape))
    assert np.array_equal(bases.kt_deviation, dev)
    assert bases.kt_deviation.max(initial=0.0) == max(dev)

    dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
    sysm = assemble(mesh, dm, bases, prob)
    A, rhs = _loop_assemble(mesh, dm, coeffs, dev, prob, k)
    assert _exact_csr(sysm.A, A)
    if name.startswith("polygon"):  # nonzero Dirichlet lift
        assert np.max(np.abs(sysm.rhs - rhs)) <= 1e-13
    else:
        assert np.array_equal(sysm.rhs, rhs)
    for choice in ("test_space", "trial_space"):
        assert _exact_csr(assemble_gram(sysm, bases, choice),
                          _loop_gram(mesh, dm, coeffs, dev, choice, k))

    x = solve(sysm.A, sysm.rhs).x
    rep = error_norms(mesh, dm, bases, x, prob.exact, param=8)
    full = dm.full_vector(x)
    nodal = np.abs(full - prob.exact.value(dm.node_coords[:, 0], dm.node_coords[:, 1]))
    assert (rep.grad_err, rep.l2_err) == _loop_errors(mesh, dm, coeffs, full, prob.exact, k)
    assert rep.max_nodal_err == float(nodal[~dm.dirichlet_mask].max())
    assert rep.h == float(h.max())
    assert rep.param == 8


@pytest.mark.parametrize("name", ["ellipse_k2_J8", "annulus_k3_I8_zero", "polygon_k2_J4",
                                  "ellipse_k3_J16", "annulus_k2_I16"])
def test_topological_numbering_reproduces_the_spatial_hash(name):
    prob, raw, k = _case(name)
    mesh = classify_elements(raw, prob.geom)
    lay = element_node_layouts(mesh, prob.geom, k)
    dm = build_dof_map(mesh, build_local_bases(mesh, k, lay), dirichlet_data=prob.d)
    coords, mask, values, e2g, unknown = _hash_dof_map(mesh, prob.geom, k, prob.d, lay)
    assert np.array_equal(dm.element_to_global, e2g)
    assert np.array_equal(dm.node_coords, coords)
    assert np.array_equal(dm.dirichlet_mask, mask)
    assert np.array_equal(dm.dirichlet_values, values)
    assert np.array_equal(dm.unknown_index, unknown)
    assert dm.n_unknowns == int(np.sum(~mask))


def test_one_pass_classification_matches_the_element_loop():
    for geom, raw in ((ellipse_test1().geom, gen_quarter_ellipse_mesh(8, 0.5)),
                      (annulus_test2().geom, gen_quarter_annulus_mesh(8, 4, 0.5))):
        classes = classify_elements(raw, geom).element_class
        owner = {frozenset(e[:2]): n for n, e in enumerate(raw.boundary_edges)
                 if e[2] == TAG_DIRICHLET}
        for t, (i, j, l) in enumerate(raw.triangles):
            hits = [owner[e] for e in map(frozenset, ((i, j), (j, l), (l, i))) if e in owner]
            assert classes[t] == (hits[0] if hits else INTERIOR)


def test_classification_names_the_first_offender():
    s = math.sqrt(0.5)
    verts = [(1.0, 0.0), (s, s), (0.0, 1.0), (0.1, 0.1)]
    tris = [(0, 2, 3), (0, 1, 2)]
    geom = annulus_test2().geom
    two = make_mesh(verts, tris, [(0, 1, "D"), (1, 2, "D"), (2, 3, "S")])
    with pytest.raises(MeshAssumptionViolated, match="triangle 1 has 2 Dirichlet edges"):
        classify_elements(two, geom)
    off = make_mesh(verts, tris, [(1, 2, "D"), (3, 0, "D"), (2, 3, "D")])
    with pytest.raises(MeshAssumptionViolated,
                       match=r"Dirichlet edge \(3, 0\) endpoint 3 is off the boundary: "
                             r"\|g\| = 3\.586e-01 > 1e-10"):
        classify_elements(off, geom)


def _code_edge_numbers(mesh):
    """Edge numbers as the dof map derived them, from the codes lo * nv + hi
    of the sorted vertex pairs: the codes (T, 3), the number of each edge of
    each triangle (T, 3) and the numbers of the boundary edges (B,)."""
    nv = max(mesh.num_vertices, 1)
    ends = np.sort(np.stack((mesh.triangles, np.roll(mesh.triangles, -1, axis=1)), axis=-1),
                   axis=-1)
    codes = ends[..., 0] * nv + ends[..., 1]
    edge_ids, edge_of = np.unique(codes, return_inverse=True)
    lo, hi = np.sort(np.array([e[:2] for e in mesh.boundary_edges], dtype=int)
                     .reshape(-1, 2), axis=1).T
    return codes, edge_of.reshape(codes.shape), np.searchsorted(edge_ids, lo * nv + hi)


def _code_local_dirichlet_edges(mesh, shifted, codes):
    """Local edge index (0..2) of the Dirichlet edge of each shifted element,
    found by matching its code among the element's three."""
    ends = [mesh.boundary_edges[i][:2] for i in mesh.element_class[shifted]]
    want = np.sort(np.array(ends, dtype=int).reshape(-1, 2), axis=1) @ [mesh.num_vertices, 1]
    return np.argmax(codes[shifted] == want[:, None], axis=1)


@pytest.mark.parametrize("case", (
    [("ellipse", J) for J in (1, 4, 64)]
    + [("annulus", I) for I in (4, 8, 16, 32)]
    + [("square", 6)]))
def test_mesh_edge_numbers_reproduce_the_code_numbering(case):
    kind, n = case
    raw, geom = {
        "ellipse": lambda: (gen_quarter_ellipse_mesh(n, 0.5), ellipse(0.5)),
        "annulus": lambda: (gen_quarter_annulus_mesh(n, n // 2, 0.5), annulus(0.5)),
        "square": lambda: (gen_unit_square_mesh(n), unit_square()),
    }[kind]()
    codes, edge_of, boundary_ids = _code_edge_numbers(raw)
    assert np.array_equal(raw.edge_of, edge_of)
    assert np.array_equal(raw.boundary_edge_ids, boundary_ids)
    uses = np.bincount(raw.edge_of.ravel())
    assert np.all(uses[raw.boundary_edge_ids] == 1)
    assert np.all(np.delete(uses, raw.boundary_edge_ids) == 2)

    mesh = classify_elements(raw, geom)
    shifted = np.flatnonzero(mesh.element_class != INTERIOR)
    assert len(shifted) == (0 if kind == "square" else n * (1 + (kind == "annulus")))
    want = _code_local_dirichlet_edges(mesh, shifted, codes)
    lay = element_node_layouts(mesh, geom, 2)
    moved = lay[shifted] != lagrange_layout(2, mesh.vertices[mesh.triangles[shifted]])
    # the one moved node of each shifted element is the midpoint of that local edge
    assert np.array_equal(np.flatnonzero(moved.any(axis=-1)) % 6, 3 + want)


def test_make_mesh_without_triangles_rejects_a_boundary_edge():
    verts, none = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], np.zeros((0, 3), dtype=int)
    with pytest.raises(InvalidParam, match=r"boundary edge \(0, 1\) is not an edge"):
        make_mesh(verts, none, [(0, 1, "D")])
    mesh = make_mesh(verts, none, [])
    assert mesh.edge_of.shape == (0, 3) and mesh.boundary_edge_ids.shape == (0,)


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


def _loop_orient_ccw(verts, tris):
    """Each triangle with a negative signed area gets vertices 1 and 2 swapped."""
    out = []
    for i, j, k in tris:
        (x0, y0), (x1, y1), (x2, y2) = verts[i], verts[j], verts[k]
        if (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0) < 0.0:
            j, k = k, j
        out.append([i, j, k])
    return out


def _loop_ellipse_mesh(J, e):
    cos_t = np.cos(0.5 * math.pi * np.arange(J + 1) / J)
    sin_t = np.sin(0.5 * math.pi * np.arange(J + 1) / J)
    cos_t[0], sin_t[0] = 1.0, 0.0
    cos_t[J], sin_t[J] = 0.0, 1.0

    def vid(i, j):
        return 0 if j == 0 else 1 + (j - 1) * (J + 1) + i

    verts = np.empty((J * (J + 1) + 1, 2))
    verts[0] = (0.0, 0.0)
    for j in range(1, J + 1):
        r = j / J
        for i in range(J + 1):
            verts[vid(i, j)] = (e * r * cos_t[i], r * sin_t[i])
    tris = []
    for i in range(J):
        tris.append([vid(i, 1), vid(i + 1, 1), 0])
    for j in range(1, J):
        for i in range(J):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    tris = _loop_orient_ccw(verts, tris)
    bedges = []
    for i in range(J):
        bedges.append((vid(i, J), vid(i + 1, J), TAG_DIRICHLET))
    for j in range(J):
        bedges.append((vid(0, j), vid(0, j + 1), TAG_SYMMETRY))
        bedges.append((vid(J, j), vid(J, j + 1), TAG_SYMMETRY))
    return make_mesh(verts, tris, bedges)


def _loop_annulus_mesh(I, J, e):
    cos_t = np.cos(0.5 * math.pi * np.arange(I + 1) / I)
    sin_t = np.sin(0.5 * math.pi * np.arange(I + 1) / I)
    cos_t[0], sin_t[0] = 1.0, 0.0
    cos_t[I], sin_t[I] = 0.0, 1.0

    def vid(i, j):
        return j * (I + 1) + i

    verts = np.empty(((I + 1) * (J + 1), 2))
    for j in range(J + 1):
        r = e + (1.0 - e) * j / J
        for i in range(I + 1):
            verts[vid(i, j)] = (r * cos_t[i], r * sin_t[i])
    tris = []
    for j in range(J):
        for i in range(I):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    tris = _loop_orient_ccw(verts, tris)
    bedges = []
    for i in range(I):
        bedges.append((vid(i, 0), vid(i + 1, 0), TAG_DIRICHLET))
        bedges.append((vid(i, J), vid(i + 1, J), TAG_DIRICHLET))
    for j in range(J):
        bedges.append((vid(0, j), vid(0, j + 1), TAG_SYMMETRY))
        bedges.append((vid(I, j), vid(I, j + 1), TAG_SYMMETRY))
    return make_mesh(verts, tris, bedges)


def _loop_square_mesh(J):
    def vid(i, j):
        return j * (J + 1) + i

    grid = np.arange(J + 1) / J
    verts = np.array([(x, y) for y in grid for x in grid])
    tris = []
    for j in range(J):
        for i in range(J):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    bedges = []
    for i in range(J):
        bedges.append((vid(i, 0), vid(i + 1, 0), TAG_DIRICHLET))
        bedges.append((vid(i, J), vid(i + 1, J), TAG_DIRICHLET))
        bedges.append((vid(0, i), vid(0, i + 1), TAG_DIRICHLET))
        bedges.append((vid(J, i), vid(J, i + 1), TAG_DIRICHLET))
    return make_mesh(verts, tris, bedges)


@pytest.mark.parametrize("case", (
    [("ellipse", J, 0.3) for J in (1, 4, 12, 64)]
    + [("annulus", I, J, 0.3) for I, J in ((1, 1), (2, 1), (3, 5), (8, 4), (12, 6), (16, 2),
                                            (64, 32), (6, 12))]
    + [("square", J) for J in (1, 6, 8)]))
def test_array_mesh_generators_reproduce_the_loops(case):
    kind, *args = case
    new, old = {
        "ellipse": (gen_quarter_ellipse_mesh, _loop_ellipse_mesh),
        "annulus": (gen_quarter_annulus_mesh, _loop_annulus_mesh),
        "square": (gen_unit_square_mesh, _loop_square_mesh),
    }[kind]
    got, want = new(*args), old(*args)
    assert np.array_equal(got.vertices, want.vertices)
    assert got.triangles.dtype == want.triangles.dtype
    assert np.array_equal(got.triangles, want.triangles)
    assert got.boundary_edges == want.boundary_edges
