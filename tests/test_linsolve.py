"""Direct solver contract: accuracy gate, failure modes, determinism."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from shiftfem import linsolve
from shiftfem.assembly import assemble, assemble_gram, shift_update, trial_gram
from shiftfem.errors import DimensionMismatch, NotSPD, SingularMatrix
from shiftfem.linsolve import bordered_schur, fill_order, solve
from shiftfem.mesh import classify_elements, gen_quarter_annulus_mesh, gen_quarter_ellipse_mesh
from shiftfem.problems import annulus_test2, ellipse_test1
from shiftfem.spaces import build_dof_map, build_local_bases, element_node_layouts


def test_identity_system():
    b = np.array([3.0, -1.0, 0.5])
    rep = solve(sp.eye(3, format="csr"), b)
    assert np.array_equal(rep.x, b)
    assert rep.residual_norm == 0.0


def test_two_by_two_hand_elimination():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    rep = solve(A, np.array([3.0, 5.0]))
    assert np.max(np.abs(rep.x - [0.8, 1.4])) <= 1e-15
    assert rep.residual_norm <= 1e-15


def test_dense_input_accepted():
    rep = solve(np.array([[4.0]]), np.array([2.0]))
    assert rep.x == pytest.approx([0.5])


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrix):
        solve(A, np.array([1.0, 2.0]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(sp.csr_matrix(np.ones((2, 3))), np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        solve(sp.eye(3, format="csr"), np.array([1.0, 2.0]))


def test_deterministic_bitwise():
    rng = np.random.default_rng(2024)
    n = 120
    A = sp.random(n, n, density=0.05, random_state=rng.integers(2**31),
                  format="csr") + sp.eye(n) * 4.0
    b = rng.standard_normal(n)
    x1 = solve(A, b).x
    x2 = solve(A.copy(), b.copy()).x
    assert np.array_equal(x1, x2)


def test_nonsymmetric_system_solves():
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [0.5, 3.0, -1.0],
                                [0.0, 0.2, 1.5]]))
    b = np.array([1.0, 2.0, 3.0])
    rep = solve(A, b)
    assert rep.residual_norm <= 1e-12
    assert np.max(np.abs(A @ rep.x - b)) <= 1e-12


def test_zero_rhs_gives_zero_solution():
    rep = solve(sp.eye(3, format="csr") * 2.0, np.zeros(3))
    assert np.array_equal(rep.x, np.zeros(3))
    assert rep.residual_norm == 0.0 and rep.backward_error == 0.0


def test_fine_ellipse_solve_passes_the_gate():
    # ellipse k=2, e=0.6, J=128: n = 65,408. A fixed 1e-10 bound on the
    # relative residual rejected this solve, though it is backward stable.
    prob = ellipse_test1(e=0.6)
    mesh = classify_elements(gen_quarter_ellipse_mesh(128, 0.6), prob.geom)
    lay = element_node_layouts(mesh, prob.geom, 2)
    bases = build_local_bases(mesh, 2, lay)
    dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
    system = assemble(mesh, dm, bases, prob)
    del bases, lay
    rep = solve(system.A, system.rhs)
    assert dm.n_unknowns == 65408
    assert rep.residual_norm > 1e-10
    assert rep.backward_error <= 1e-14


@pytest.mark.parametrize("spoil, message", [(lambda x: x * (1.0 + 1e-6), "backward error"),
                                            (lambda x: x / 0.0, "non-finite")])
def test_inaccurate_solutions_are_rejected(monkeypatch, spoil, message):
    # a factor whose solve returns a spoiled x: the gate, not SuperLU, rejects it
    class Spoiled:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            return spoil(self.lu.solve(b))

    splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", lambda A: Spoiled(splu(A)))
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    with np.errstate(divide="ignore"), pytest.raises(SingularMatrix, match=message):
        solve(A, np.array([3.0, 5.0]))


def _shifted_neumann(d, n=2000):
    """1-D Neumann Laplacian plus d I: cond(A) ~ 4 / d, so near singular for small d."""
    main = np.r_[1.0, 2.0 * np.ones(n - 2), 1.0] + d
    return sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1], format="csc")


@pytest.mark.parametrize("d", [1e-15, 1e-13, 1e-10])
def test_near_singular_systems_are_rejected(d):
    # LU solves them backward stably (eta ~ 1e-16), so only the growth
    # |A| |x| / |b| (3e13, 3e11, 3e8 here) rejects them.
    A = _shifted_neumann(d)
    with pytest.raises(SingularMatrix, match="nearly singular"):
        solve(A, np.random.default_rng(0).standard_normal(A.shape[0]))


@pytest.mark.parametrize("d", [1e-8, 1e-6])
def test_ill_conditioned_but_accurate_solves_pass(d):
    # At d = 1e-8 the relative residual is 4.4e-10, yet one step of iterative
    # refinement moves x by 7.6e-10 of its size: the solution is accurate.
    A = _shifted_neumann(d)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    rep = solve(A, b)
    assert rep.backward_error <= 1e-15
    dx = solve(A, b - A @ rep.x).x
    assert np.abs(dx).max() <= 1e-8 * np.abs(rep.x).max()


def _permuted_copy_schur(G, X, C, order):
    """The bordered factor built as sp.bmat(...)[p][:, p]: two permuted copies."""
    n, r = X.shape
    p = np.r_[np.argsort(order), n + np.arange(r)]
    K = sp.bmat([[G, X], [X.T, C]], format="csc")[p][:, p]
    lu = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return lu.L[n:, n:].toarray() @ lu.U[n:, n:].toarray(), lu.U.diagonal()[n:]


def _curved_factors(mesh, prob, k):
    """The system, both Grams and the shift update of one curved mesh."""
    mesh = classify_elements(mesh, prob.geom)
    bases = build_local_bases(mesh, k, element_node_layouts(mesh, prob.geom, k))
    dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
    system = assemble(mesh, dm, bases, prob)
    G_test, update = assemble_gram(dm, system.blocks), shift_update(dm, system.blocks, bases)
    return system, G_test, trial_gram(G_test, update), update


@pytest.mark.parametrize("mesh, prob, k", [
    (gen_quarter_ellipse_mesh(8, 0.5), ellipse_test1(), 2),
    (gen_quarter_annulus_mesh(8, 4, 0.5), annulus_test2(), 3)])
def test_bordered_factor_in_factor_order_moves_no_bit(mesh, prob, k):
    _, G_test, G_trial, u = _curved_factors(mesh, prob, k)
    order = fill_order(G_test)
    for G, X, C in ((G_test, u.N, u.Q), (G_trial, u.L, None)):
        S, pivots = bordered_schur(G, X, C, order)
        S_want, pivots_want = _permuted_copy_schur(G, X, C, order)
        assert S.tobytes() == S_want.tobytes() and S.shape == S_want.shape
        assert pivots.tobytes() == pivots_want.tobytes() and len(pivots) == X.shape[1] > 0
    # the symmetry gate is relative to max|G|: an absolute floor would let
    # the same skew through once the Gram is scaled below 1
    for scale in (1.0, 1e-6):
        skew = sp.csr_matrix(([1e-9 * scale * np.abs(G_test.data).max()], ([0], [1])),
                             shape=G_test.shape)
        with pytest.raises(NotSPD, match="not symmetric"):
            bordered_schur(scale * G_test + skew, u.N, u.Q, order)


def _logged(calls, name, fn):
    def call(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return call


def test_every_superlu_call_starts_on_a_released_heap(monkeypatch):
    system, G_test, G_trial, u = _curved_factors(gen_quarter_ellipse_mesh(8, 0.5),
                                                 ellipse_test1(), 2)
    calls = []
    for name in ("release_heap", "splu", "spilu"):
        monkeypatch.setattr(linsolve, name, _logged(calls, name, getattr(linsolve, name)))
    solve(system.A, system.rhs)
    order = fill_order(G_test)
    bordered_schur(G_test, u.N, u.Q, order)
    bordered_schur(G_trial, u.L, None, order)
    assert calls == ["release_heap", "splu", "release_heap", "spilu",
                     "release_heap", "splu", "release_heap", "splu"]


def _factor_outcomes(system, G_test, G_trial, u):
    """The bytes of x, the Gram order and both S and pivots, and the type and
    message of each factorization failure: singular A, singular Gram, and a
    Gram that is not positive definite."""
    results = [solve(system.A, system.rhs).x, fill_order(G_test)]
    for G, X, C in ((G_test, u.N, u.Q), (G_trial, u.L, None)):
        results.extend(bordered_schur(G, X, C, results[1]))
    neumann = _shifted_neumann(0.0, 6)
    failures = [lambda: solve(sp.csc_matrix(np.ones((2, 2))), np.array([1.0, 2.0])),
                lambda: fill_order(neumann),
                lambda: bordered_schur(-G_test, u.N, u.Q, results[1])]
    errors = []
    for fail in failures:
        with pytest.raises((NotSPD, SingularMatrix)) as info:
            fail()
        errors.append((type(info.value), str(info.value)))
    return [a.tobytes() for a in results], errors


def test_released_heap_moves_no_bit(monkeypatch):
    # where the C library has no malloc_trim, release_heap does nothing
    factors = _curved_factors(gen_quarter_annulus_mesh(8, 4, 0.5), annulus_test2(), 3)
    released = _factor_outcomes(*factors)
    monkeypatch.setattr(linsolve, "release_heap", lambda: None)
    assert _factor_outcomes(*factors) == released
    assert [kind for kind, _ in released[1]] == [SingularMatrix, NotSPD, NotSPD]
