"""Error norms, convergence orders, interpolation, and stability estimates."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from shiftfem.analysis import (CSV_HEADER, ConvergenceTable, ErrorReport,
                               chord_node_gap, convergence_orders, error_norms,
                               inf_sup_estimate, interpolate_Ih,
                               kt_perturbation_report, table_to_csv)
from shiftfem.assembly import assemble, assemble_gram, check_spd
from shiftfem.errors import (DimensionMismatch, MissingExact,
                             NonDyadicSequence, NotSPD)
from shiftfem.linsolve import solve
from shiftfem.mesh import (classify_elements, gen_quarter_annulus_mesh,
                           gen_quarter_ellipse_mesh, gen_unit_square_mesh)
from shiftfem.problems import annulus_test2, ellipse_test1, polygon_patch
from shiftfem.spaces import (build_dof_map, build_local_bases,
                             element_node_layouts, eval_uh)

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


def _solve_problem(prob, mesh, k=2):
    mesh = classify_elements(mesh, prob.geom)
    lay = element_node_layouts(mesh, prob.geom, k)
    bases = build_local_bases(mesh, k, lay)
    dm = build_dof_map(mesh, prob.geom, k, dirichlet_data=prob.d, layouts=lay)
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
    r = error_norms(mesh, dm, bases, x, prob.exact, param=4)
    assert r.grad_err <= 1e-10
    assert r.l2_err <= 1e-10
    assert r.max_nodal_err <= 1e-10


def test_interpolant_of_space_polynomial_exact():
    prob = polygon_patch(3)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(3), k=3)
    coeffs = interpolate_Ih(prob.exact.value, dm)
    r = error_norms(mesh, dm, bases, coeffs, prob.exact, param=3)
    assert max(r.grad_err, r.l2_err, r.max_nodal_err) <= 1e-10


def test_error_norms_requires_exact():
    prob = polygon_patch(2)
    mesh, dm, bases, _, x = _solve_problem(prob, gen_unit_square_mesh(2))
    with pytest.raises(MissingExact):
        error_norms(mesh, dm, bases, x, None)


def test_full_and_reduced_vectors_agree():
    prob, mesh, dm, bases, _, x = _ellipse_case(4)
    r1 = error_norms(mesh, dm, bases, x, prob.exact, param=4)
    r2 = error_norms(mesh, dm, bases, dm.full_vector(x), prob.exact, param=4)
    assert r1 == r2
    with pytest.raises(DimensionMismatch):
        error_norms(mesh, dm, bases, x[:-1], prob.exact)


@pytest.mark.parametrize("J", [4, 8, 16])
def test_ellipse_errors_frozen(J):
    prob, mesh, dm, bases, _, x = _ellipse_case(J)
    r = error_norms(mesh, dm, bases, x, prob.exact, param=J)
    grad, l2, mx = ELLIPSE_K2[J]
    assert r.grad_err == pytest.approx(grad, rel=1e-6)
    assert r.l2_err == pytest.approx(l2, rel=1e-6)
    assert r.max_nodal_err == pytest.approx(mx, rel=1e-6)
    assert r.param == J


@pytest.mark.parametrize("I", [4, 8])
def test_annulus_errors_frozen(I):
    prob, mesh, dm, bases, _, x = _annulus_case(I)
    r = error_norms(mesh, dm, bases, x, prob.exact, param=I)
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


def test_non_dyadic_sequence_rejected():
    r4 = ErrorReport(1e-3, 1e-4, 1e-5, 0.4, 4)
    r6 = ErrorReport(5e-4, 5e-5, 5e-6, 0.3, 6)
    with pytest.raises(NonDyadicSequence):
        convergence_orders([r4, r6])
    with pytest.raises(NonDyadicSequence):
        convergence_orders([r4])


def test_error_report_rejects_bad_values():
    with pytest.raises(ValueError):
        ErrorReport(-1.0, 0.0, 0.0, 0.1, 4)
    with pytest.raises(ValueError):
        ErrorReport(1.0, math.nan, 0.0, 0.1, 4)


def test_interpolant_nodal_duality():
    prob, mesh, dm, bases, _, _ = _ellipse_case(8)
    coeffs = interpolate_Ih(prob.exact.value, dm)
    rng = np.random.default_rng(7)
    worst = 0.0
    for t in rng.choice(mesh.num_triangles, size=12, replace=False):
        for g in dm.element_to_global[t]:
            p = dm.node_coords[g]
            res = eval_uh(dm, bases, coeffs, int(t), p)
            worst = max(worst, abs(res.value - float(prob.exact.value(p[0], p[1]))))
    assert worst <= 1e-10


def test_interpolant_gradient_converges_at_order_two():
    prob = ellipse_test1()
    errs = []
    for J in (8, 16, 32):
        mesh, dm, bases, _, _ = _solve_problem(prob, gen_quarter_ellipse_mesh(J, 0.5))
        coeffs = interpolate_Ih(prob.exact.value, dm)
        errs.append(error_norms(mesh, dm, bases, coeffs, prob.exact, param=J))
    assert errs[0].grad_err == pytest.approx(3.192000e-03, rel=1e-6)
    tab = convergence_orders(errs)
    for p in tab.grad_orders:
        assert 1.85 <= p <= 2.05


@pytest.mark.parametrize("J", [4, 8])
def test_chord_gap_frozen_ellipse(J):
    prob, mesh, dm, bases, _, _ = _ellipse_case(J)
    gap = chord_node_gap(mesh, dm, prob.exact.value, 2)
    assert gap == pytest.approx(ELLIPSE_CHORD_GAP[J], rel=1e-6)


@pytest.mark.parametrize("I", [4, 8])
def test_chord_gap_frozen_annulus(I):
    prob, mesh, dm, bases, _, _ = _annulus_case(I)
    gap = chord_node_gap(mesh, dm, prob.exact.value, 2)
    assert gap == pytest.approx(ANNULUS_CHORD_GAP[I], rel=1e-6)


def test_chord_gap_zero_on_polygon():
    prob = polygon_patch(2)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(3))
    assert chord_node_gap(mesh, dm, prob.exact.value, 2) == 0.0


def test_chord_gap_second_order():
    # The relocated-node gap decays at O(h^2), slower than the
    # superconverging unknown-node maximum.
    for gaps in (ELLIPSE_CHORD_GAP, ANNULUS_CHORD_GAP):
        p = math.log2(gaps[4] / gaps[8])
        assert 1.7 <= p <= 2.1


def test_kt_report_polygon_zero():
    prob = polygon_patch(2)
    mesh, dm, bases, _, _ = _solve_problem(prob, gen_unit_square_mesh(3))
    rep = kt_perturbation_report(bases)
    assert rep.max_dev == 0.0
    assert rep.dev_vs_h == ()


def test_kt_report_scales_with_h():
    devs = {}
    for J in (8, 16):
        _, mesh, dm, bases, _, _ = _ellipse_case(J)
        rep = kt_perturbation_report(bases)
        devs[J] = rep.max_dev
        assert rep.dev_vs_h
        assert all(d > 0.0 and d <= h for h, d in rep.dev_vs_h)
    assert 1.5 <= devs[8] / devs[16] <= 3.0


def test_inf_sup_polygon_is_one():
    prob = polygon_patch(2)
    mesh, dm, bases, sysm, _ = _solve_problem(prob, gen_unit_square_mesh(4))
    G = assemble_gram(sysm, bases, "test_space")
    assert abs(inf_sup_estimate(sysm.A, G, G) - 1.0) <= 1e-10


def test_inf_sup_frozen_on_curved_domains():
    for J, expected in ELLIPSE_ALPHA.items():
        _, mesh, dm, bases, sysm, _ = _ellipse_case(J)
        a = inf_sup_estimate(sysm.A,
                             assemble_gram(sysm, bases, "test_space"),
                             assemble_gram(sysm, bases, "trial_space"))
        assert a == pytest.approx(expected, abs=1e-5)
        assert 0.1 <= a <= 1.0
    _, mesh, dm, bases, sysm, _ = _annulus_case(4)
    a = inf_sup_estimate(sysm.A,
                         assemble_gram(sysm, bases, "test_space"),
                         assemble_gram(sysm, bases, "trial_space"))
    assert a == pytest.approx(ANNULUS_ALPHA[4], abs=1e-5)


def _dense_inf_sup(A, G_test, G_trial):
    """Reference: smallest singular value of L_test^-1 A L_trial^-T (Cholesky)."""
    Lt = np.linalg.cholesky(G_test.toarray())
    Lw = np.linalg.cholesky(G_trial.toarray())
    M = solve_triangular(Lt, A.toarray(), lower=True)
    return float(np.linalg.svd(solve_triangular(Lw, M.T, lower=True).T,
                               compute_uv=False).min())


def _curved_system(case):
    domain, param, k = case
    if domain == "ellipse":
        _, mesh, dm, bases, sysm, _ = _ellipse_case(param, k)
    else:
        _, mesh, dm, bases, sysm, _ = _annulus_case(param, k)
    return (sysm.A, assemble_gram(sysm, bases, "test_space"),
            assemble_gram(sysm, bases, "trial_space"))


@pytest.mark.parametrize("case", [("ellipse", 8, 2), ("ellipse", 16, 2),
                                  ("annulus", 8, 3)])
def test_inf_sup_matches_dense_svd(case):
    A, G_test, G_trial = _curved_system(case)
    a = inf_sup_estimate(A, G_test, G_trial)
    assert a == pytest.approx(_dense_inf_sup(A, G_test, G_trial), rel=1e-12)
    assert inf_sup_estimate(A, G_test, G_trial) == a


def test_inf_sup_small_systems():
    assert inf_sup_estimate(np.array([[-3.0]]), np.array([[4.0]]),
                            np.array([[9.0]])) == pytest.approx(0.5, rel=1e-15)
    A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
    G_test = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    G_trial = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert inf_sup_estimate(A, G_test, G_trial) == pytest.approx(
        _dense_inf_sup(A, G_test, G_trial), rel=1e-12)
    assert inf_sup_estimate(np.diag([1.0, 0.0]), np.eye(2), np.eye(2)) == 0.0


def test_inf_sup_runs_above_former_dense_limit():
    n = 6000
    d = np.linspace(0.5, 3.0, n)
    d[1234] = -0.25
    eye = sp.identity(n, format="csr")
    assert inf_sup_estimate(sp.diags(d, format="csr"), eye, eye) == pytest.approx(0.25, rel=1e-12)


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
}


@pytest.mark.parametrize("name", list(NOT_SPD))
def test_sparse_spd_proof_rejects_what_dense_cholesky_rejects(name):
    G = NOT_SPD[name]
    eye = np.eye(len(G))
    if name != "nonsymmetric":  # dense Cholesky reads one triangle only
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(G)
    with pytest.raises(NotSPD):
        check_spd(sp.csr_matrix(G))
    with pytest.raises(NotSPD):
        inf_sup_estimate(eye, G, eye)
    with pytest.raises(NotSPD):
        inf_sup_estimate(eye, eye, G)


def test_inf_sup_rejects_indefinite_gram():
    A = sp.identity(3, format="csr")
    G_bad = -np.eye(3)
    with pytest.raises(NotSPD):
        inf_sup_estimate(A, G_bad, np.eye(3))


def test_inf_sup_rejects_shape_mismatch():
    A = sp.identity(3, format="csr")
    with pytest.raises(DimensionMismatch):
        inf_sup_estimate(A, np.eye(4), np.eye(3))


def test_check_spd_accepts_an_empty_matrix():
    check_spd(sp.csr_matrix((0, 0)))


def test_inf_sup_rejects_zero_unknowns():
    empty = sp.csr_matrix((0, 0))
    with pytest.raises(DimensionMismatch, match="at least one unknown"):
        inf_sup_estimate(empty, empty, empty)


def test_csv_serialization_golden():
    reps = [ErrorReport(0.5, 0.25, 0.125, 0.5, 4),
            ErrorReport(0.125, 0.03125, 0.03125, 0.25, 8)]
    tab = convergence_orders(reps)
    out = table_to_csv(tab, alpha_h=[0.5, None], kt_dev=[0.25, 0.125])
    expected = (
        CSV_HEADER + "\n"
        "4,0.5,0.5,,0.25,,0.125,,0.5,0.25\n"
        "8,0.25,0.125,2.0,0.03125,3.0,0.03125,2.0,,0.125\n"
    )
    assert out == expected
    assert table_to_csv(tab, alpha_h=[0.5, None], kt_dev=[0.25, 0.125]) == out


def test_csv_defaults_and_validation():
    reps = [ErrorReport(1.0, 1.0, 1.0, 0.5, 4),
            ErrorReport(0.5, 0.5, 0.5, 0.25, 8)]
    tab = convergence_orders(reps)
    lines = table_to_csv(tab).strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",,")
    with pytest.raises(DimensionMismatch):
        table_to_csv(tab, alpha_h=[1.0])
