"""Assembly: Galerkin degeneracy on polygons, lift, extension modes, Gram matrices."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from shiftfem import assembly, linsolve
from shiftfem.assembly import (ProblemSpec, assemble, assemble_gram, element_geometry,
                               shift_update, trial_gram)
from shiftfem.errors import InconsistentDof
from shiftfem.geometry import annulus, ellipse, unit_square
from shiftfem.linsolve import bordered_schur, fill_order, solve
from shiftfem.mesh import (INTERIOR, classify_elements,
                           gen_quarter_annulus_mesh, gen_quarter_ellipse_mesh,
                           gen_unit_square_mesh)
from shiftfem.problems import annulus_test2, ellipse_test1, polygon_patch
from shiftfem.quadrature import rule_for_degree, triangle_area
from shiftfem.spaces import (build_dof_map, build_local_bases,
                             element_node_layouts, eval_basis_bary,
                             eval_basis_bary_grad, full_vector)

from oracles import assert_within_rounding


def _pipeline(mesh, geom, k, problem):
    layouts = element_node_layouts(mesh, geom, k)
    bases = build_local_bases(mesh, k, layouts)
    dm = build_dof_map(mesh, bases, dirichlet_data=problem.d)
    return dm, bases, assemble(mesh, dm, bases, problem)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mesh, prob, k", [
    (gen_quarter_ellipse_mesh(8, 0.5), ellipse_test1(), 2),
    (gen_quarter_annulus_mesh(8, 4, 0.5), annulus_test2(extension_mode="zero_outside"), 3)])
def test_chunk_size_moves_no_bit(monkeypatch, mesh, prob, k):
    # 7 divides neither triangle count (120, 64), so the last chunk is short;
    # zero_outside chunks source_values' boundary field too.
    mesh = classify_elements(mesh, prob.geom)
    assert mesh.num_triangles % 7
    systems = []
    for chunk in (mesh.num_triangles, 7):
        monkeypatch.setattr(assembly, "CHUNK", chunk)
        systems.append(_pipeline(mesh, prob.geom, k, prob)[2])
    whole, chunked = systems
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(whole.A, name), getattr(chunked.A, name))
    assert _same_bits(whole.rhs, chunked.rhs)
    assert _same_bits(whole.blocks, chunked.blocks)


def _root_size(a):
    """Slots of the buffer a view of ``a`` is cut from."""
    return (a if a.base is None else a.base).size


def _summed_csr(blocks, dm):
    """The element blocks' COO, element by element and row-major over the
    free locals, summed to CSR by SciPy."""
    ui = dm.unknown_index[dm.element_to_global]
    free = (ui[:, :, None] >= 0) & (ui[:, None, :] >= 0)
    rows = np.broadcast_to(ui[:, :, None], free.shape)[free]
    cols = np.broadcast_to(ui[:, None, :], free.shape)[free]
    return sp.coo_matrix((blocks[free], (rows, cols)), shape=(dm.n_unknowns,) * 2).tocsr()


@pytest.mark.parametrize("mesh, prob, k", [
    (gen_quarter_ellipse_mesh(8, 0.5), ellipse_test1(), 2),
    (gen_quarter_annulus_mesh(8, 4, 0.5), annulus_test2(extension_mode="zero_outside"), 3)])
def test_a_is_csc_and_reaches_superlu_uncopied(monkeypatch, mesh, prob, k):
    mesh = classify_elements(mesh, prob.geom)
    dm, bases, system = _pipeline(mesh, prob.geom, k, prob)
    A = system.A
    assert A.format == "csc"
    assert _root_size(A.data) == _root_size(A.indices) == A.nnz
    # the oracle: the summed CSR converted to CSC
    blocks = system.blocks.copy()
    blocks[bases.shifted] = blocks[bases.shifted] @ bases.coeffs
    want = _summed_csr(blocks, dm).tocsc()
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(A, name), getattr(want, name))
    # A's blocks were swapped into B to scatter A: the plain ones are back, bit for bit
    assert _same_bits(system.blocks, assembly._stiffness_blocks(mesh, k)[2])
    factored = []
    splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", lambda M: factored.append(M) or splu(M))
    solve(A, system.rhs)
    assert np.shares_memory(factored[0].data, A.data)
    assert np.shares_memory(factored[0].indices, A.indices)


def test_grams_own_exactly_nnz_slots():
    # SciPy's COO -> CSR leaves the duplicates' slots behind (28 % more than
    # nnz here) and prunes only past 50 %; the test Gram stays under both
    # bordered factors
    prob = annulus_test2(extension_mode="zero_outside")
    mesh = classify_elements(gen_quarter_annulus_mesh(8, 4, 0.5), prob.geom)
    dm, bases, system = _pipeline(mesh, prob.geom, 3, prob)
    want = _summed_csr(system.blocks, dm)
    assert _root_size(want.data) > 1.2 * want.nnz  # the slack is there to drop
    G = assemble_gram(dm, system.blocks)
    assert _root_size(G.data) == _root_size(G.indices) == G.nnz
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(G, name), getattr(want, name))


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
    full = full_vector(dm.dirichlet_values, dm.dirichlet_mask, dm.n_unknowns, rep.x)
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
        tri = mesh.vertices[mesh.triangles[t]]
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
    x = solve(sys.A, sys.rhs).x
    full = full_vector(dm.dirichlet_values, dm.dirichlet_mask, dm.n_unknowns, x)
    oracle, key = _p2_oracle_solution(mesh, f)
    shared = [i for i, p in enumerate(dm.node_coords) if key(p) in oracle]
    want = np.array([oracle[key(dm.node_coords[i])] for i in shared])
    assert len(shared) == dm.n_unknowns == 25
    assert_within_rounding(full[shared], want, np.abs(want).max(), 64)


def test_single_element_rhs_against_high_order_rule():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(1, 0.5), geom)
    prob = ellipse_test1()
    dm, bases, sys = _pipeline(mesh, geom, 2, prob)
    assert sys.A.shape == (3, 3)
    assert np.all(np.isfinite(sys.A.toarray()))
    rule = rule_for_degree(8)
    tri = mesh.vertices[mesh.triangles[0]]
    pts = rule.physical_points(tri)
    F = abs(triangle_area(tri)) * (
        eval_basis_bary(2, rule.points).T @ (rule.weights * prob.f(pts[:, 0], pts[:, 1]))
    )
    ui = dm.unknown_index[dm.element_to_global[0]]
    manual = np.zeros(3)
    manual[ui[ui >= 0]] = F[ui >= 0]
    assert_within_rounding(sys.rhs, manual, np.abs(manual).max(), 16)


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
    for t in np.flatnonzero(mesh.element_class != INTERIOR):
        edge = mesh.boundary_edges[mesh.element_class[t]]
        if abs(math.hypot(*mesh.vertices[edge[0]]) - 0.5) > 1e-9:
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
    dm, bases, sys = _pipeline(mesh, geom, 2, polygon_patch(2))
    g_test = assemble_gram(dm, sys.blocks)
    g_trial = trial_gram(g_test, shift_update(dm, sys.blocks, bases))
    assert np.array_equal(g_test.toarray(), sys.A.toarray())
    assert np.array_equal(g_trial.toarray(), sys.A.toarray())


@pytest.mark.parametrize("choice", ["test_space", "trial_space"])
def test_gram_symmetric_spd_on_curved_mesh(choice):
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(8, 0.5), geom)
    dm, bases, sys = _pipeline(mesh, geom, 2, ellipse_test1())
    G = assemble_gram(dm, sys.blocks)
    if choice == "trial_space":
        G = trial_gram(G, shift_update(dm, sys.blocks, bases))
    bordered_schur(G, sp.csc_matrix((G.shape[0], 0)), None, fill_order(G))
    dense = G.toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))


def test_gram_spaces_differ_on_curved_mesh():
    geom = ellipse(0.5)
    mesh = classify_elements(gen_quarter_ellipse_mesh(4, 0.5), geom)
    dm, bases, sys = _pipeline(mesh, geom, 2, ellipse_test1())
    g_test = assemble_gram(dm, sys.blocks)
    g_trial = trial_gram(g_test, shift_update(dm, sys.blocks, bases))
    assert np.max(np.abs((g_test - g_trial).toarray())) > 1e-6


def test_invalid_inputs_rejected():
    geom = unit_square()
    mesh = classify_elements(gen_unit_square_mesh(2), geom)
    bases2 = build_local_bases(mesh, 2, element_node_layouts(mesh, geom, 2))
    dm = build_dof_map(mesh, bases2)
    bases3 = build_local_bases(mesh, 3, element_node_layouts(mesh, geom, 3))
    with pytest.raises(InconsistentDof):
        assemble(mesh, dm, bases3, polygon_patch(2))
    short = replace(bases2, nodes=bases2.nodes[:-1])
    with pytest.raises(InconsistentDof):
        assemble(mesh, dm, short, polygon_patch(2))


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
    assert_within_rounding(sys.blocks, B, np.abs(B).max(), 64)
    pts = fine.physical_points(tris)
    F = area[:, None] * np.einsum("qj,q,tq->tj", eval_basis_bary(k, fine.points),
                                  fine.weights, prob.f(pts[..., 0], pts[..., 1]))
    ui = dm.unknown_index[dm.element_to_global]
    rhs = np.bincount(ui[ui >= 0], F[ui >= 0], minlength=dm.n_unknowns)
    assert_within_rounding(sys.rhs, rhs, np.abs(rhs).max(), 64)

