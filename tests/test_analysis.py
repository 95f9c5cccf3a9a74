"""Error norms, convergence orders, interpolation, and stability estimates."""

import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag, solve_triangular
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from shiftfem import cli, linsolve
from shiftfem.analysis import (ConvergenceTable, ErrorReport, chord_node_gap,
                               convergence_orders, error_norms, error_setup,
                               inf_sup_estimate)
from shiftfem.assembly import (ExactSolution, ProblemSpec, ShiftUpdate, assemble,
                               assemble_gram, shift_update, trial_gram)
from shiftfem.cli import MESH_FAMILIES
from shiftfem.errors import (DimensionMismatch, InconsistentDof, InvalidParam,
                             MeshAssumptionViolated, MissingExact, NonDyadicSequence,
                             NotSPD)
from shiftfem.linsolve import bordered_schur, fill_order, solve
from shiftfem.mesh import (INTERIOR, classify_elements, gen_quarter_annulus_mesh,
                           gen_quarter_ellipse_mesh, gen_unit_square_mesh)
from shiftfem.problems import annulus_test2, by_name, ellipse_test1, polygon_patch
from shiftfem.spaces import (build_dof_map, build_local_bases,
                             element_node_layouts, full_vector, lagrange_layout)

from oracles import assert_within_rounding, element_trial_gram, eval_uh

# Frozen outputs of this pipeline (splu solve, default quadrature). These
# pin regressions: any change to mesh generation, node relocation, assembly,
# or the error integrands moves them far beyond the tolerance.
ELLIPSE_K2 = {
    4: (1.093809e-02, 3.768761e-04, 1.577172e-03),
    8: (3.101832e-03, 4.412911e-05, 1.634429e-04),
    16: (8.061157e-04, 5.364087e-06, 1.653671e-05),
}
ANNULUS_K2 = {
    4: (1.325699e-02, 4.471422e-04, 6.810375e-04),
    8: (3.342333e-03, 5.554390e-05, 7.163105e-05),
}
ELLIPSE_ALPHA = {4: 0.979817, 8: 0.993772}
ANNULUS_ALPHA = {4: 0.984187}
ELLIPSE_CHORD_GAP = {4: 6.447559e-03, 8: 1.756879e-03}
ANNULUS_CHORD_GAP = {4: 9.238154e-03, 8: 2.384450e-03}


def _interpolant(prob, dm):
    """Trial-space interpolant of the exact solution: its value at every node."""
    return prob.exact.value(dm.node_coords[:, 0], dm.node_coords[:, 1])


def _solve_problem(prob, mesh, k=2):
    mesh = classify_elements(mesh, prob.geom)
    lay = element_node_layouts(mesh, prob.geom, k)
    bases = build_local_bases(mesh, k, lay)
    dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
    sysm = assemble(mesh, dm, bases, prob)
    x = solve(sysm.A, sysm.rhs).x
    return mesh, dm, bases, sysm, x


def _ellipse_case(J, k=2):
    prob = ellipse_test1()
    return prob, *_solve_problem(prob, gen_quarter_ellipse_mesh(J, 0.5), k)


def _annulus_case(I, k=2):
    prob = annulus_test2()
    return prob, *_solve_problem(prob, gen_quarter_annulus_mesh(I, I // 2, 0.5), k)


def test_patch_errors_vanish():
    prob = polygon_patch(2)
    mesh, dm, bases, _, x = _solve_problem(prob, gen_unit_square_mesh(4))
    r = error_norms(error_setup(mesh, dm, bases, prob.exact), x, param=4)
    assert r.grad_err <= 1e-10
    assert r.l2_err <= 1e-10
    assert r.max_nodal_err <= 1e-10


def test_cubic_polygon_patch_is_not_reproduced_at_k2():
    # negative control: polygon_patch(3) carries terms a k = 2 space cannot hold
    prob = polygon_patch(3)
    mesh, dm, bases, _, x = _solve_problem(prob, gen_unit_square_mesh(4))
    assert error_norms(error_setup(mesh, dm, bases, prob.exact), x, param=4).grad_err > 1e-6


# Curved patch solutions: both have zero normal derivative on the axes, the
# natural symmetry edges, so the degree-k trial space holds them exactly.
QUADRATIC_PATCH = ExactSolution(
    value=lambda x, y: 1.0 + x * x + 2.0 * y * y,
    grad=lambda x, y: np.stack((2.0 * x, 4.0 * y), axis=-1))
CUBIC_PATCH = ExactSolution(
    value=lambda x, y: 1.0 + x * x + 2.0 * y * y + x ** 3 - y ** 3,
    grad=lambda x, y: np.stack((2.0 * x + 3.0 * x * x, 4.0 * y - 3.0 * y * y), axis=-1))


def _curved_patch_errors(exact, f, name, param, k):
    """README pipeline on the named problem's domain and mesh, with the exact
    solution as Dirichlet data on the arcs."""
    prob = ProblemSpec(by_name(name).geom, f, d=exact.value, exact=exact)
    raw = MESH_FAMILIES[name][1](param, 0.5)
    mesh, dm, bases, _, x = _solve_problem(prob, raw, k)
    return error_norms(error_setup(mesh, dm, bases, exact), x, param=param)


@pytest.mark.parametrize("name", ["ellipse_test1", "annulus_test2"], ids=["ellipse", "annulus"])
@pytest.mark.parametrize("exact, f, k", [
    (QUADRATIC_PATCH, lambda x, y: -6.0, 2),
    (QUADRATIC_PATCH, lambda x, y: -6.0, 3),
    (CUBIC_PATCH, lambda x, y: -6.0 - 6.0 * x + 6.0 * y, 3),
], ids=["quadratic_k2", "quadratic_k3", "cubic_k3"])
def test_curved_patch_is_reproduced(name, exact, f, k):
    # nonzero Dirichlet data imposed at the moved boundary nodes
    for param in (4, 8, 16):
        r = _curved_patch_errors(exact, f, name, param, k)
        assert r.grad_err < 1e-11 and r.l2_err < 1e-11, (param, r)


@pytest.mark.parametrize("name", ["ellipse_test1", "annulus_test2"], ids=["ellipse", "annulus"])
def test_cubic_patch_is_not_reproduced_at_k2(name):
    r = _curved_patch_errors(CUBIC_PATCH, lambda x, y: -6.0 - 6.0 * x + 6.0 * y, name, 16, 2)
    assert r.grad_err > 1e-4


def test_interpolant_of_space_polynomial_exact():
    prob = polygon_patch(3)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(3), k=3)
    coeffs = _interpolant(prob, dm)
    r = error_norms(error_setup(mesh, dm, bases, prob.exact), coeffs[~dm.dirichlet_mask],
                    param=3)
    assert max(r.grad_err, r.l2_err, r.max_nodal_err) <= 1e-10


def test_error_norms_requires_exact():
    # error_setup takes no solution: the check runs before anything is solved
    prob = polygon_patch(2)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(2))
    with pytest.raises(MissingExact):
        error_setup(mesh, dm, bases, None)


def test_error_norms_rejects_bases_of_another_degree():
    # a k=3 dof map with k=2 local bases, as assemble already rejects
    prob, mesh, dm3, _, _, _ = _ellipse_case(4, k=3)
    bases2 = build_local_bases(mesh, 2, element_node_layouts(mesh, prob.geom, 2))
    with pytest.raises(InconsistentDof, match="disagrees with dof map"):
        error_setup(mesh, dm3, bases2, prob.exact)
    with pytest.raises(InconsistentDof, match="disagrees with dof map"):
        assemble(mesh, dm3, bases2, prob)


def test_full_and_reduced_vectors_agree():
    # the solve's reduced vector is the only form error_norms takes;
    # full_vector, which expands it, rejects any other length
    prob, mesh, dm, bases, _, x = _ellipse_case(4)
    full = full_vector(dm.dirichlet_values, dm.dirichlet_mask, dm.n_unknowns, x)
    assert np.array_equal(full[~dm.dirichlet_mask], x)
    for wrong in (x[:-1], full):
        with pytest.raises(DimensionMismatch, match=f"expected \\({dm.n_unknowns},\\)"):
            error_norms(error_setup(mesh, dm, bases, prob.exact), wrong)
        with pytest.raises(DimensionMismatch, match=f"expected \\({dm.n_unknowns},\\)"):
            full_vector(dm.dirichlet_values, dm.dirichlet_mask, dm.n_unknowns, wrong)


@pytest.mark.parametrize("J", [4, 8, 16])
def test_ellipse_errors_frozen(J):
    prob, mesh, dm, bases, _, x = _ellipse_case(J)
    r = error_norms(error_setup(mesh, dm, bases, prob.exact), x, param=J)
    grad, l2, mx = ELLIPSE_K2[J]
    assert r.grad_err == pytest.approx(grad, rel=1e-6)
    assert r.l2_err == pytest.approx(l2, rel=1e-6)
    assert r.max_nodal_err == pytest.approx(mx, rel=1e-6)
    assert r.param == J


@pytest.mark.parametrize("I", [4, 8])
def test_annulus_errors_frozen(I):
    prob, mesh, dm, bases, _, x = _annulus_case(I)
    r = error_norms(error_setup(mesh, dm, bases, prob.exact), x, param=I)
    grad, l2, mx = ANNULUS_K2[I]
    assert r.grad_err == pytest.approx(grad, rel=1e-6)
    assert r.l2_err == pytest.approx(l2, rel=1e-6)
    assert r.max_nodal_err == pytest.approx(mx, rel=1e-6)


def test_order_computation_on_reference_decay():
    # Second-order gradient decay and third-order L2 decay with the
    # ratios of the published curved-domain benchmark.
    reps = [
        ErrorReport(0.539250e-2, 0.149655e-3, 0.604305e-2, 0.42, 4),
        ErrorReport(0.143615e-2, 0.183918e-4, 0.172473e-2, 0.22, 8),
        ErrorReport(0.367543e-3, 0.230310e-5, 0.446493e-3, 0.11, 16),
    ]
    tab = convergence_orders(reps)
    assert tab.grad_orders[0] == pytest.approx(1.909, abs=5e-4)
    assert tab.l2_orders[1] == pytest.approx(2.997, abs=5e-4)
    assert tab.max_orders[0] == pytest.approx(1.809, abs=5e-4)
    assert len(tab.grad_orders) == 2


def test_identical_errors_give_zero_order():
    reps = [ErrorReport(1e-3, 1e-4, 1e-5, 0.4, 4),
            ErrorReport(1e-3, 1e-4, 1e-5, 0.2, 8)]
    tab = convergence_orders(reps)
    assert tab.grad_orders == (0.0,)
    assert tab.l2_orders == (0.0,)


def test_zero_error_gives_nan_order():
    reps = [ErrorReport(1e-15, 0.0, 0.0, 0.4, 4),
            ErrorReport(0.0, 0.0, 0.0, 0.2, 8)]
    tab = convergence_orders(reps)
    assert math.isnan(tab.grad_orders[0])
    assert math.isnan(tab.l2_orders[0])


def test_errors_at_their_rounding_floor_give_no_order():
    # each order needs both errors above their own floors
    above = ErrorReport(4e-12, 4e-12, 4e-12, 0.4, 4, 1e-12, 1e-12, 1e-12)
    at = ErrorReport(2e-12, 1e-12, 1e-12, 0.2, 8, 1e-12, 1e-12, 1e-12)
    tab = convergence_orders([above, at])
    assert tab.grad_orders == (1.0,)
    assert math.isnan(tab.l2_orders[0]) and math.isnan(tab.max_orders[0])
    assert math.isnan(convergence_orders([replace(above, grad_floor=4e-12), at]).grad_orders[0])


def test_error_floors_scale_with_the_unknowns_and_the_solution():
    prob, mesh, dm, bases, _, x = _ellipse_case(8)
    rep = error_norms(error_setup(mesh, dm, bases, prob.exact), x)
    full = full_vector(dm.dirichlet_values, dm.dirichlet_mask, dm.n_unknowns, x)
    floor = dm.n_unknowns * np.finfo(float).eps
    assert rep.max_nodal_floor == floor * np.abs(full[~dm.dirichlet_mask]).max()
    # the same norms of the discrete solution, which u_h = u would give
    zero = ExactSolution(value=lambda px, py: 0.0 * px,
                         grad=lambda px, py: np.zeros(np.shape(px) + (2,)))
    norms = error_norms(error_setup(mesh, dm, bases, zero), x)
    assert rep.grad_floor == pytest.approx(floor * norms.grad_err, rel=1e-12)
    assert rep.l2_floor == pytest.approx(floor * norms.l2_err, rel=1e-12)


def test_patch_test_rounding_prints_no_order(tmp_path):
    # the cubic patch errors are rounding that grows with the unknowns;
    # an absolute floor of 1e-13 printed a grad order of -1.96 at J = 32
    out = tmp_path / "out"
    assert cli.main(["run", "--problem", "polygon_patch", "--k", "3",
                     "--sweep", "4,8,16,32", "--out", str(out)]) == 0
    with open(out / "table.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["param"] for r in rows] == ["4", "8", "16", "32"]
    assert all(r[c] == "nan" for r in rows[1:] for c in ("grad_order", "l2_order", "max_order"))


def test_non_dyadic_sequence_rejected():
    r4 = ErrorReport(1e-3, 1e-4, 1e-5, 0.4, 4)
    r6 = ErrorReport(5e-4, 5e-5, 5e-6, 0.3, 6)
    with pytest.raises(NonDyadicSequence):
        convergence_orders([r4, r6])
    with pytest.raises(NonDyadicSequence):
        convergence_orders([])
    # one report has no pair, hence no orders
    assert convergence_orders([r4]) == ConvergenceTable((), (), ())


def test_error_report_rejects_bad_values():
    with pytest.raises(InvalidParam):
        ErrorReport(-1.0, 0.0, 0.0, 0.1, 4)
    with pytest.raises(InvalidParam):
        ErrorReport(1.0, math.nan, 0.0, 0.1, 4)


def test_interpolant_nodal_duality():
    prob, mesh, dm, bases, _, _ = _ellipse_case(8)
    coeffs = _interpolant(prob, dm)
    rng = np.random.default_rng(7)
    # every shifted element, where the coefficient map is not the identity
    ts = np.union1d(bases.shifted, rng.choice(mesh.num_triangles, size=12, replace=False))
    got = [eval_uh(dm, bases, coeffs, int(t), dm.node_coords[g]).value
           for t in ts for g in dm.element_to_global[t]]
    assert_within_rounding(got, coeffs[dm.element_to_global[ts]].ravel(),
                           np.abs(coeffs).max(), 64)


def test_interpolant_gradient_converges_at_order_two():
    prob = ellipse_test1()
    errs = []
    for J in (8, 16, 32):
        mesh, dm, bases, _, _ = _solve_problem(prob, gen_quarter_ellipse_mesh(J, 0.5))
        coeffs = _interpolant(prob, dm)
        errs.append(error_norms(error_setup(mesh, dm, bases, prob.exact),
                                coeffs[~dm.dirichlet_mask], param=J))
    assert errs[0].grad_err == pytest.approx(3.192000e-03, rel=1e-6)
    tab = convergence_orders(errs)
    for p in tab.grad_orders:
        assert 1.85 <= p <= 2.05


@pytest.mark.parametrize("J", [4, 8])
def test_chord_gap_frozen_ellipse(J):
    prob, mesh, dm, bases, _, _ = _ellipse_case(J)
    gap = chord_node_gap(mesh, bases, prob.exact.value)
    assert gap == pytest.approx(ELLIPSE_CHORD_GAP[J], rel=1e-6)


@pytest.mark.parametrize("I", [4, 8])
def test_chord_gap_frozen_annulus(I):
    prob, mesh, dm, bases, _, _ = _annulus_case(I)
    gap = chord_node_gap(mesh, bases, prob.exact.value)
    assert gap == pytest.approx(ANNULUS_CHORD_GAP[I], rel=1e-6)


def test_chord_gap_zero_on_polygon():
    prob = polygon_patch(2)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(3))
    assert chord_node_gap(mesh, bases, prob.exact.value) == 0.0


def _lattice_chord_gap(mesh, dm, u, k):
    """The gap found from every non-interior element's plain lattice and the
    dof map's node positions, as before ``LocalBases.moved`` held the mask."""
    elems = np.flatnonzero(mesh.element_class != INTERIOR)
    plain = lagrange_layout(k, mesh.vertices[mesh.triangles[elems]])
    shifted = dm.node_coords[dm.element_to_global[elems]]
    moved = np.linalg.norm(shifted - plain, axis=-1) > 0.0
    plain, shifted = plain[moved], shifted[moved]
    gap = np.abs(u(plain[:, 0], plain[:, 1]) - u(shifted[:, 0], shifted[:, 1]))
    return float(np.max(gap, initial=0.0))


def test_chord_gap_matches_the_lattice_oracle():
    for prob, mesh, k in ((ellipse_test1(), gen_quarter_ellipse_mesh(8, 0.5), 2),
                          (annulus_test2(extension_mode="zero_outside"),
                           gen_quarter_annulus_mesh(8, 4, 0.5), 3)):
        mesh, dm, bases, _, _ = _solve_problem(prob, mesh, k)
        gap = chord_node_gap(mesh, bases, prob.exact.value)
        assert gap > 0.0
        assert gap == _lattice_chord_gap(mesh, dm, prob.exact.value, k)


def test_chord_gap_second_order():
    # The relocated-node gap decays at O(h^2), slower than the
    # superconverging unknown-node maximum.
    for gaps in (ELLIPSE_CHORD_GAP, ANNULUS_CHORD_GAP):
        p = math.log2(gaps[4] / gaps[8])
        assert 1.7 <= p <= 2.1


def test_kt_report_polygon_zero():
    prob = polygon_patch(2)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(3))
    assert bases.kt_deviation.max(initial=0.0) == 0.0
    assert len(bases.shifted) == 0


def test_kt_report_scales_with_h():
    devs = {}
    for J in (8, 16):
        _, mesh, dm, bases, _, _ = _ellipse_case(J)
        dev = bases.kt_deviation
        devs[J] = dev.max()
        assert len(dev)
        assert np.all((dev > 0.0) & (dev <= mesh.h_per_element[bases.shifted]))
    assert 1.5 <= devs[8] / devs[16] <= 3.0


def _no_shift(n):
    """The update of a trial space that moves no node (r = 0)."""
    return ShiftUpdate(N=sp.csc_matrix((n, 0)), L=sp.csc_matrix((n, 0)), Q=np.zeros((0, 0)))


def test_inf_sup_polygon_is_one():
    prob = polygon_patch(2)
    mesh, dm, bases, sysm, _ = _solve_problem(prob, gen_unit_square_mesh(4))
    update = shift_update(dm, sysm.blocks, bases)
    assert update.N.shape == (dm.n_unknowns, 0)
    assert inf_sup_estimate(assemble_gram(dm, sysm.blocks), update) == 1.0


def test_inf_sup_frozen_on_curved_domains():
    for J, expected in ELLIPSE_ALPHA.items():
        _, mesh, dm, bases, sysm, _ = _ellipse_case(J)
        a = inf_sup_estimate(assemble_gram(dm, sysm.blocks),
                             shift_update(dm, sysm.blocks, bases))
        assert a == pytest.approx(expected, abs=1e-5)
        assert 0.1 <= a <= 1.0
    _, mesh, dm, bases, sysm, _ = _annulus_case(4)
    a = inf_sup_estimate(assemble_gram(dm, sysm.blocks), shift_update(dm, sysm.blocks, bases))
    assert a == pytest.approx(ANNULUS_ALPHA[4], abs=1e-5)


def _alpha_h(name, k, e, param):
    """alpha_h of the named problem on the CLI's mesh of (param, e) at degree k."""
    prob = by_name(name, e=e, k=k)
    mesh = classify_elements(MESH_FAMILIES[name][1](param, e), prob.geom)
    bases = build_local_bases(mesh, k, element_node_layouts(mesh, prob.geom, k))
    dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
    blocks = assemble(mesh, dm, bases, prob).blocks
    return inf_sup_estimate(assemble_gram(dm, blocks), shift_update(dm, blocks, bases))


@pytest.mark.parametrize("e", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("k", [2, 3])
def test_alpha_h_rises_with_the_mesh_on_every_ellipse(k, e):
    alphas = [_alpha_h("ellipse_test1", k, e, J) for J in (4, 8, 16)]
    assert 0.92 <= alphas[0] < alphas[1] < alphas[2] <= 1.0


@pytest.mark.parametrize("e", [0.05, 0.5])
@pytest.mark.parametrize("k", [2, 3])
def test_alpha_h_stays_near_one_on_annuli_up_to_half_thin(k, e):
    alphas = [_alpha_h("annulus_test2", k, e, I) for I in (4, 8, 16)]
    assert 0.96 <= alphas[0] < alphas[1] < alphas[2] <= 1.0


@pytest.mark.parametrize("name,k,e", [("ellipse_test1", 2, 0.5), ("ellipse_test1", 3, 0.5),
                                      ("annulus_test2", 2, 0.5), ("annulus_test2", 3, 0.5),
                                      ("annulus_test2", 3, 0.9)])
def test_one_minus_alpha_h_decays_at_second_order(name, k, e):
    # the discrete inf-sup constant tends to 1 at O(h^2) on every refined
    # pair: the order from 16 to 32 is 1.90 to 2.19 over these cases
    alphas = [_alpha_h(name, k, e, param) for param in (8, 16, 32)]
    assert min(alphas) >= 0.85
    assert 1.8 <= math.log2((1.0 - alphas[1]) / (1.0 - alphas[2])) <= 2.3


def test_thin_annulus_alpha_h_is_small_on_coarse_meshes():
    # Documented behaviour at e = 0.95, not a bound the method promises: the
    # ring is 0.05 wide, so a coarse mesh barely resolves it. At k = 2 the
    # I=4 mesh is rejected outright; at k = 3 it runs and alpha_h is 0.15.
    # A coarse-mesh check on alpha_h would change this test.
    with pytest.raises(MeshAssumptionViolated, match="too coarse"):
        _alpha_h("annulus_test2", 2, 0.95, 4)
    measured = {(k, I): _alpha_h("annulus_test2", k, 0.95, I)
                for k, I in ((2, 8), (2, 16), (3, 4), (3, 8), (3, 16))}
    assert measured == pytest.approx({(2, 8): 0.877651, (2, 16): 0.979998,
                                      (3, 4): 0.153858, (3, 8): 0.605708,
                                      (3, 16): 0.940780}, abs=1e-5)


def _dense_inf_sup(A, G_test, G_trial):
    """Reference: smallest singular value of L_test^-1 A L_trial^-T (Cholesky)."""
    dense = [M.toarray() if sp.issparse(M) else np.asarray(M) for M in (A, G_test, G_trial)]
    Lt = np.linalg.cholesky(dense[1])
    Lw = np.linalg.cholesky(dense[2])
    M = solve_triangular(Lt, dense[0], lower=True)
    return float(np.linalg.svd(solve_triangular(Lw, M.T, lower=True).T,
                               compute_uv=False).min())


def _curved_pipeline(case):
    domain, param, k = case
    run = _ellipse_case if domain == "ellipse" else _annulus_case
    _, mesh, dm, bases, sysm, _ = run(param, k)
    return dm, bases, sysm


def _curved_system(case):
    """A, the test Gram, the element-by-element trial Gram and the update."""
    dm, bases, sysm = _curved_pipeline(case)
    return (sysm.A, assemble_gram(dm, sysm.blocks),
            element_trial_gram(dm, bases, sysm.blocks), shift_update(dm, sysm.blocks, bases))


@pytest.mark.parametrize("case", [("ellipse", 8, 2), ("ellipse", 8, 3),
                                  ("annulus", 8, 2), ("annulus", 8, 3)])
def test_shift_update_reproduces_a_and_the_trial_gram(case):
    # A wrong set of moved locals leaves errors of order kt_dev, not rounding.
    dm, bases, sysm = _curved_pipeline(case)
    G_test, u = assemble_gram(dm, sysm.blocks), shift_update(dm, sysm.blocks, bases)
    assert u.N.shape[1] == (case[2] - 1) * len(bases.shifted)  # k-1 per curved edge
    tol = 1e-13 * abs(sysm.A).max()
    assert abs(sysm.A - G_test - u.N @ u.L.T).max() <= tol
    assert abs(trial_gram(G_test, u) - element_trial_gram(dm, bases, sysm.blocks)).max() <= tol


def test_shift_update_rejects_a_moved_unknown():
    dm, bases, sysm = _curved_pipeline(("ellipse", 4, 2))
    free = dm.unknown_index[dm.element_to_global[bases.shifted[0]]] >= 0
    moved = bases.moved.copy()
    moved[0, np.argmax(free)] = True
    assert free.any() and not (bases.moved[0] & free).any()
    with pytest.raises(InconsistentDof, match="moved node is an unknown"):
        shift_update(dm, sysm.blocks, replace(bases, moved=moved))


@pytest.mark.parametrize("case", [("ellipse", 8, 2), ("ellipse", 16, 2),
                                  ("annulus", 8, 3), ("ellipse", 8, 3),
                                  ("annulus", 16, 3)])
def test_inf_sup_matches_dense_svd(case):
    A, G_test, G_trial, update = _curved_system(case)
    a = inf_sup_estimate(G_test, update)
    assert a == pytest.approx(_dense_inf_sup(A, G_test, G_trial), rel=1e-12)
    assert inf_sup_estimate(G_test, update) == a


def test_inf_sup_matches_lanczos_on_the_full_pencil():
    # Oracle: shift-invert Lanczos on A^T G_test^-1 A w = s G_trial w with a
    # sparse LU of A, at a size (n = 4,064) where the dense SVD is slow.
    A, G_test, G_trial, update = _curved_system(("ellipse", 32, 2))
    assert A.shape[0] == 4064
    lu = splu(sp.csc_matrix(A))
    op_inv = LinearOperator(A.shape, dtype=float,
                            matvec=lambda x: lu.solve(G_test @ lu.solve(x, trans="T")))
    s2 = eigsh(op_inv, k=1, M=G_trial, sigma=0.0, OPinv=op_inv,
               v0=np.ones(A.shape[0]), return_eigenvectors=False)[0]
    assert inf_sup_estimate(G_test, update) == pytest.approx(math.sqrt(s2), rel=1e-12)


def test_inf_sup_small_systems():
    # Hand-made updates: [[G_test, N], [N^T, Q]] positive semidefinite, A and
    # G_trial built from them as the moved nodes build them.
    def pencil(G, N, L, Q):
        G, N, L, Q = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (G, N, L, Q))
        A = G + N @ L.T
        return A, G, G + N @ L.T + L @ N.T + L @ Q @ L.T, ShiftUpdate(
            N=sp.csc_matrix(N), L=sp.csc_matrix(L), Q=Q)

    A, G, Gw, u = pencil([[4.0]], [[-1.0]], [[2.0]], [[3.0]])
    assert inf_sup_estimate(G, u) == pytest.approx(_dense_inf_sup(A, G, Gw), rel=1e-14)
    A, G, Gw, u = pencil([[2.0, -1.0], [-1.0, 2.0]], [[-1.0], [0.5]], [[0.3], [0.2]], [[1.5]])
    assert inf_sup_estimate(G, u) == pytest.approx(_dense_inf_sup(A, G, Gw), rel=1e-12)
    A, G, Gw, u = pencil(np.eye(3), [[-1.0, 0.0], [0.0, -0.5], [0.5, 0.5]],
                         [[0.1, 0.0], [0.2, 0.3], [0.0, -0.4]], [[2.0, 0.5], [0.5, 1.0]])
    assert inf_sup_estimate(G, u) == pytest.approx(_dense_inf_sup(A, G, Gw), rel=1e-12)
    # A = 1 - 1 = 0 while G_trial = 1: no inf-sup stability at all
    A, G, Gw, u = pencil([[1.0]], [[-1.0]], [[1.0]], [[2.0]])
    assert A[0, 0] == 0.0 and Gw[0, 0] == 1.0
    assert inf_sup_estimate(G, u) == 0.0


def _neumann_laplacian(n, scale=1.0):
    main = np.r_[1.0, 2.0 * np.ones(n - 2), 1.0]
    return scale * sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1]).toarray()


# Each is rejected by dense Cholesky or is not symmetric. The scaled Neumann
# Laplacian rounds to a positive last pivot in the sparse factorization, so it
# checks the pivot threshold, not just the sign.
NOT_SPD = {
    "negative_identity": -np.eye(3),
    "indefinite_positive_diagonal": np.array([[1.0, 2.0], [2.0, 1.0]]),
    "singular_neumann": _neumann_laplacian(6),
    "singular_neumann_scaled": _neumann_laplacian(20, 7.3),
    "nonsymmetric": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "zero_diagonal": np.array([[0.0, 1.0], [1.0, 0.0]]),  # needs an off-diagonal pivot
}


def _beside(G, M):
    """block_diag(G, M) in CSR: a small matrix set beside a mesh's Gram."""
    return sp.block_diag((sp.csr_matrix(G), M), format="csr")


# The test Gram c I over which a spoiled update builds a bad trial Gram: at
# c = 2.5, every G - c I in NOT_SPD factors with nonzero diagonal pivots.
SHIFT = 2.5


def _stacked(a, b):
    """The updates of two sets of unknowns side by side: N, L and Q block diagonal."""
    return ShiftUpdate(N=sp.block_diag((a.N, b.N), format="csc"),
                       L=sp.block_diag((a.L, b.L), format="csc"),
                       Q=block_diag(a.Q, b.Q))


@pytest.mark.parametrize("name", list(NOT_SPD))
def test_sparse_spd_proof_rejects_what_dense_cholesky_rejects(name):
    # Both Grams must be proved SPD, alone and beside a real ellipse mesh's
    # Gram and update, out of reach of its border. A bad test Gram is passed
    # in; a bad trial Gram comes from a spoiled update: one moved node per
    # unknown with L = I, N = 0 and Q = (G - c I)^T makes the trial Gram over
    # the test Gram c I exactly G. With no moved node (r = 0) the trial Gram
    # is the test Gram, so a bad one alone cannot arise there.
    G = NOT_SPD[name]
    m = len(G)
    eye, none = np.eye(m), _no_shift(m)
    if name != "nonsymmetric":  # dense Cholesky reads one triangle only
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(G)
    _, G_test, _, u = _curved_system(("ellipse", 4, 2))
    bad = ShiftUpdate(N=sp.csc_matrix((m, m)), L=sp.identity(m, format="csc"),
                      Q=(G - SHIFT * eye).T)
    assert np.array_equal(np.asarray(trial_gram(SHIFT * eye, bad)), G)
    assert u.N.shape[1] > 0
    for bad_test_slot, bad_trial_slot in (
            ((G, none), (SHIFT * eye, bad)),
            ((_beside(G, G_test), _stacked(none, u)),
             (_beside(SHIFT * eye, G_test), _stacked(bad, u)))):
        with pytest.raises(NotSPD, match="^test-space Gram: "):
            inf_sup_estimate(*bad_test_slot)
        with pytest.raises(NotSPD, match="^trial-space Gram: "):
            inf_sup_estimate(*bad_trial_slot)
    assert inf_sup_estimate(eye, none) == 1.0
    assert inf_sup_estimate(_beside(eye, G_test), _stacked(none, u)) \
        == pytest.approx(inf_sup_estimate(G_test, u), rel=1e-14)


def test_fill_order_failure_is_not_spd():
    # The incomplete LU that orders the bordered factors breaks down on the
    # exactly singular Neumann Laplacian before any bordered factor is built.
    with pytest.raises(NotSPD, match="singular"):
        fill_order(sp.csc_matrix(NOT_SPD["singular_neumann"]))


@pytest.mark.parametrize("case", [("ellipse", 8, 2), ("annulus", 16, 3)])
def test_fill_order_is_the_complete_lu_order(case):
    _, G_test, _, _ = _curved_system(case)
    lu = splu(sp.csc_matrix(G_test), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    assert np.array_equal(fill_order(G_test), lu.perm_c)


def test_bordered_schur_matches_dense_oracles():
    # The trailing blocks of K_N and K_L are Q - N^T G_test^-1 N and
    # -L^T G_trial^-1 L, and their pivots those of the blocks' LDL^T:
    # positive for the plain stiffness, negative for K_L.
    for case in (("ellipse", 8, 2), ("ellipse", 8, 3), ("annulus", 8, 2), ("annulus", 8, 3)):
        _, G_test, G_trial, u = _curved_system(case)
        order = fill_order(G_test)
        for G, X, C, sign in ((G_test, u.N, u.Q, 1.0), (G_trial, u.L, None, -1.0)):
            Xd = X.toarray()
            want = (0.0 if C is None else C) - Xd.T @ np.linalg.solve(G.toarray(), Xd)
            S, pivots = bordered_schur(G, X, C, order)
            assert np.abs(S - want).max() <= 1e-12 * np.abs(want).max()
            assert np.all(sign * pivots > 0.0)
            d = np.diagonal(np.linalg.cholesky(sign * want)) ** 2
            assert np.abs(sign * pivots - d).max() <= 1e-12 * d.max()


def test_bordered_schur_rejects_an_off_diagonal_trailing_pivot():
    # K = [[1, 1, 0], [1, 1, 1], [0, 1, 0]]: eliminating G leaves
    # S = [[0, 1], [1, 0]], whose first pivot is exactly zero. A row swap
    # there would make the trailing block of L U a row permutation of S.
    with pytest.raises(InconsistentDof, match="off-diagonal pivot"):
        bordered_schur(sp.csr_matrix([[1.0]]), sp.csc_matrix([[1.0, 0.0]]),
                       np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0]))


def test_inf_sup_solves_nothing(monkeypatch):
    # R and W are read off the bordered factors: no factor is solved with.
    factors, solves = [], []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, *args, **kwargs):
            solves.append(args)
            return self.lu.solve(*args, **kwargs)

    def counted(fn):
        def wrapper(*args, **kwargs):
            factors.append(fn.__name__)
            return Counted(fn(*args, **kwargs))
        return wrapper

    _, G_test, _, update = _curved_system(("ellipse", 8, 2))
    expected = inf_sup_estimate(G_test, update)
    monkeypatch.setattr(linsolve, "splu", counted(linsolve.splu))
    monkeypatch.setattr(linsolve, "spilu", counted(linsolve.spilu))
    assert inf_sup_estimate(G_test, update) == expected
    assert factors == ["spilu", "splu", "splu"] and solves == []


@pytest.mark.parametrize("case", [("ellipse", 8, 2), ("annulus", 8, 3)])
def test_inf_sup_needs_no_symmetric_eigendecomposition(case, monkeypatch):
    # W's factor Z is a Cholesky factor; no eigh of W is taken
    A, G_test, G_trial, update = _curved_system(case)
    want = _dense_inf_sup(A, G_test, G_trial)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert inf_sup_estimate(G_test, update) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("pair", [(0, 1), (0, -1), (2, 3)])
def test_inf_sup_rejects_dependent_moved_node_rows(pair):
    # A moved node listed twice gives L two equal columns and K_L a singular
    # trailing block; SuperLU may then raise, pivot off the diagonal or leave
    # a rounding-sized pivot of either sign, so the rank is checked first.
    _, G_test, _, u = _curved_system(("ellipse", 8, 2))
    cols = np.arange(u.L.shape[1])
    cols[pair[1]] = pair[0]
    with pytest.raises(InconsistentDof, match="linearly dependent"):
        inf_sup_estimate(G_test, replace(u, L=u.L[:, cols]))


def test_inf_sup_rejects_a_trailing_pivot_at_rounding_size():
    # L has full rank (cond(L^T L) ~ 1e12), but G_trial = G + L L^T, about
    # diag(1.02e-4, 1), stretches its common direction so far that K_L's last
    # pivot, -3.5e-18, is rounding next to max|W| = 9.8e-3: W is not
    # numerically positive definite.
    G = sp.csr_matrix(np.diag([1e-4, 1.0]))
    update = ShiftUpdate(N=sp.csc_matrix((2, 2)),
                         L=sp.csc_matrix([[1e-3, 1e-3], [0.0, 2e-9]]), Q=np.eye(2))
    with pytest.raises(InconsistentDof, match="not positive definite"):
        inf_sup_estimate(G, update)


def test_inf_sup_memory_is_bounded():
    # Peak of Python-heap allocations of one estimate at n = 4,559, r = 128:
    # 5.1 MiB. Densifying the factors' border columns before taking their
    # trailing rows would hold (n + r) x r arrays and reach 14.6 MiB.
    _, G_test, _, update = _curved_system(("annulus", 32, 3))
    tracemalloc.start()
    try:
        inf_sup_estimate(G_test, update)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_assemble_memory_is_bounded():
    # Peak of Python-heap allocations of assemble at ellipse k=2, J=64
    # (8,128 triangles): 12.5 MiB, with the blocks and the COO build of A.
    # A copy of the blocks with A's swapped in, instead of a swap in place,
    # reached 15.1 MiB.
    # Whole-mesh stiffness and load kernels reached 19.4 MiB, and the heap
    # they left stayed resident under the LU of A.
    prob = ellipse_test1()
    mesh = classify_elements(gen_quarter_ellipse_mesh(64, 0.5), prob.geom)
    bases = build_local_bases(mesh, 2, element_node_layouts(mesh, prob.geom, 2))
    dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
    tracemalloc.start()
    try:
        assemble(mesh, dm, bases, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * 2**20


def test_inf_sup_rejects_indefinite_gram():
    # the trial Gram is G_trial - c L L^T for Q - c I, indefinite for large c
    _, G_test, _, update = _curved_system(("ellipse", 4, 2))
    r = update.N.shape[1]
    assert r > 0
    with pytest.raises(NotSPD, match="^test-space Gram: gram matrix is not positive definite"):
        inf_sup_estimate(-G_test, update)
    spoiled = replace(update, Q=update.Q - 1e3 * abs(G_test).max() * np.eye(r))
    with pytest.raises(NotSPD, match="^trial-space Gram: gram matrix is not positive definite"):
        inf_sup_estimate(G_test, spoiled)



def test_inf_sup_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        inf_sup_estimate(np.eye(4), _no_shift(3))
    with pytest.raises(DimensionMismatch):
        inf_sup_estimate(np.eye(3), replace(_no_shift(3), Q=np.eye(1)))


def test_inf_sup_rejects_zero_unknowns():
    empty = sp.csr_matrix((0, 0))
    with pytest.raises(DimensionMismatch, match="at least one unknown"):
        inf_sup_estimate(empty, _no_shift(0))

