"""Error norms, convergence orders, and stability diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .assembly import ExactSolution, ShiftUpdate, element_geometry, trial_gram
from .errors import (DimensionMismatch, InconsistentDof, InvalidParam, MissingExact,
                     NonDyadicSequence, NotSPD)
from .linsolve import bordered_schur, fill_order
from .mesh import TriMesh
from .quadrature import rule_for_degree
from .spaces import (DofMap, LocalBases, check_compatible, eval_basis_bary,
                     eval_basis_bary_grad, full_vector, lagrange_layout)


@dataclass(frozen=True)
class ErrorReport:
    """Errors of one solve, each with its rounding floor: n_unknowns * eps
    times the same norm of the discrete solution. An error at or below its
    floor is rounding and carries no rate."""

    grad_err: float
    l2_err: float
    max_nodal_err: float
    h: float
    param: int
    grad_floor: float = 0.0
    l2_floor: float = 0.0
    max_nodal_floor: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "param" and not (math.isfinite(v) and v >= 0.0):
                raise InvalidParam(f"{f.name} must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class ConvergenceTable:
    """Orders of a sweep's errors: entry i is the log2 ratio of the errors of
    reports i and i+1, nan where either is at or below its floor."""

    grad_orders: tuple[float, ...]
    l2_orders: tuple[float, ...]
    max_orders: tuple[float, ...]


@dataclass(frozen=True)
class ErrorSetup:
    """What :func:`error_norms` reads of one mesh, its dof map and its local
    bases, none of which depends on the solution, so it can be taken before
    the solve.

    ``vertices``, ``dirichlet_values`` and ``dirichlet_mask``, ``shifted``
    and ``coeffs`` are the arrays of the mesh, the dof map and the bases,
    shared, not copied; ``triangles`` and ``element_to_global`` are int32
    copies, which index the same entries in half the memory.
    ``exact_at_unknowns`` holds the exact solution at the unknown nodes, in
    unknown order, and ``h`` the largest element diameter.
    """

    exact: ExactSolution
    k: int
    vertices: np.ndarray
    triangles: np.ndarray
    element_to_global: np.ndarray
    dirichlet_values: np.ndarray
    dirichlet_mask: np.ndarray
    shifted: np.ndarray
    coeffs: np.ndarray
    exact_at_unknowns: np.ndarray
    h: float


def error_setup(mesh: TriMesh, dofmap: DofMap, local_bases: LocalBases,
                exact: ExactSolution | None) -> ErrorSetup:
    """The :class:`ErrorSetup` of a mesh, its dof map and local bases, after
    the checks :func:`error_norms` needs: a manufactured solution
    (MissingExact) and bases that fit the mesh and the dof map
    (InconsistentDof)."""
    if exact is None:
        raise MissingExact("error norms require a manufactured solution")
    check_compatible(mesh, dofmap, local_bases)
    return ErrorSetup(
        exact=exact, k=local_bases.k, vertices=mesh.vertices,
        triangles=mesh.triangles.astype(np.int32),
        element_to_global=dofmap.element_to_global.astype(np.int32),
        dirichlet_values=dofmap.dirichlet_values, dirichlet_mask=dofmap.dirichlet_mask,
        shifted=local_bases.shifted, coeffs=local_bases.coeffs,
        exact_at_unknowns=exact.value(*dofmap.node_coords[~dofmap.dirichlet_mask].T),
        h=float(mesh.h_per_element.max()))


def error_norms(setup: ErrorSetup, x: np.ndarray, param: int = 0) -> ErrorReport:
    """Gradient and L2 error over the mesh polygon plus the unknown-node max.

    The integrals take a degree-(2k+4) rule, so the smooth exact solution
    is sampled well beyond the degree of the discrete one. ``x`` is the
    solve's reduced unknown vector. The nodal maximum uses the coefficients
    directly (they are nodal values), over unknown nodes only: constrained
    nodes sit on the true boundary where the imposed datum is exact.
    """
    full = full_vector(setup.dirichlet_values, setup.dirichlet_mask,
                       len(setup.exact_at_unknowns), x)
    k, exact = setup.k, setup.exact
    rule = rule_for_degree(2 * k + 4)
    tris, grads, area = element_geometry(setup)
    a = full[setup.element_to_global]
    s = setup.shifted
    a[s] = (setup.coeffs @ a[s][:, :, None])[..., 0]
    pts = rule.physical_points(tris)
    px, py = pts[..., 0], pts[..., 1]
    # einsum on contiguous tables: BLAS over an inner dimension of n_k is slower
    uh = np.einsum("tj,qj->tq", a, eval_basis_bary(k, rule.points))
    dref = np.moveaxis(eval_basis_bary_grad(k, rule.points), 1, 0).copy()
    gh = np.einsum("tj,jqm->tqm", a, dref) @ grads
    dg, dv = gh - exact.grad(px, py), uh - exact.value(px, py)

    def norm(v2):  # square root of the integral of v2 (T, Q) over the mesh
        return math.sqrt(area @ (v2 @ rule.weights))

    nodal = np.abs(x - setup.exact_at_unknowns)
    floor = len(x) * float(np.finfo(float).eps)
    return ErrorReport(grad_err=norm(np.vecdot(dg, dg)), l2_err=norm(dv * dv),
                       max_nodal_err=float(np.max(nodal, initial=0.0)),
                       h=setup.h, param=int(param),
                       grad_floor=floor * norm(np.vecdot(gh, gh)), l2_floor=floor * norm(uh * uh),
                       max_nodal_floor=floor * float(np.max(np.abs(x), initial=0.0)))


def _pair_orders(errs: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """log2 ratios of consecutive errors, given as (error, floor) pairs; nan
    where either error is at or below its rounding floor."""
    return tuple(math.log2(a / b) if a > fa and b > fb else math.nan
                 for (a, fa), (b, fb) in zip(errs, errs[1:]))


def convergence_orders(reports: Sequence[ErrorReport]) -> ConvergenceTable:
    """Pairwise log2 error ratios between consecutive dyadic refinements;
    one report has none."""
    if not reports:
        raise NonDyadicSequence("need at least one report")
    params = [r.param for r in reports]
    for a, b in zip(params, params[1:]):
        if b != 2 * a:
            raise NonDyadicSequence(f"parameters {params} are not consecutive doublings")
    return ConvergenceTable(
        grad_orders=_pair_orders([(r.grad_err, r.grad_floor) for r in reports]),
        l2_orders=_pair_orders([(r.l2_err, r.l2_floor) for r in reports]),
        max_orders=_pair_orders([(r.max_nodal_err, r.max_nodal_floor) for r in reports]))


def chord_node_gap(mesh: TriMesh, local_bases: LocalBases, u: Callable) -> float:
    """Max |u(M) - u(P)| over relocated nodes: M the straight-edge lattice
    position, P its boundary replacement carrying the imposed value.

    This is the nodal error attributed to the lattice position of a
    constrained dof; it decays as O(h^2) while unknown-node errors
    superconverge, so the two diagnostics are reported separately.
    """
    s, moved = local_bases.shifted, local_bases.moved
    plain = lagrange_layout(local_bases.k, mesh.vertices[mesh.triangles[s]])[moved]
    shifted = local_bases.nodes[s][moved]
    gap = np.abs(u(plain[:, 0], plain[:, 1]) - u(shifted[:, 0], shifted[:, 1]))
    return float(np.max(gap, initial=0.0))


def inf_sup_estimate(G_test, update: ShiftUpdate) -> float:
    """Discrete inf over trial w of sup over test v of a_h(w, v) / (|w|_1 |v|_1).

    Its square is the smallest eigenvalue s of A^T G_test^-1 A w = s G_trial w,
    the numerical inf-sup test of Chapelle and Bathe. The trial space differs
    from the test space only at the r moved boundary nodes, so with N, L and
    Q of ``update`` (see :class:`ShiftUpdate`), A = G_test + N L^T and

        A^T G_test^-1 A - G_trial = L R L^T,    R = N^T G_test^-1 N - Q.

    The plain stiffness over the unknowns and the moved nodes is
    K_N = [[G_test, N], [N^T, Q]], positive semidefinite like every stiffness,
    and -R is its Schur complement with respect to G_test, so R <= 0. Hence
    A^T G_test^-1 A <= G_trial: every s is at most 1, and alpha_h <= 1. The
    eigenvalues s - 1 of G_trial^-1 L R L^T other than 0 are those of
    Z^T R Z, where Z Z^T = W = L^T G_trial^-1 L, so

        alpha_h^2 = 1 + min(0, lambda_min(Z^T R Z)).

    Both r x r matrices are trailing Schur complements: block elimination of
    K_N leaves -R in the trailing block of its L U, and of
    K_L = [[G_trial, L], [L^T, 0]] leaves -W. :func:`bordered_schur` factors
    each once, in the ``MMD_AT_PLUS_A`` order of G_test (:func:`fill_order`;
    G_trial has no entry outside its pattern) with the border last.
    Eliminating the Gram first leaves its pivots untouched by the border, so
    the same factor proves each Gram symmetric positive definite; this is the
    one place the Grams are proved so, also when r = 0, where alpha_h is
    exactly 1. Then Z is the dense Cholesky factor of W and Z^T R Z one r x r
    symmetric eigenproblem: no factor of A, no solve and no iteration.
    G_trial (:func:`trial_gram`) is formed after K_N's factor and dropped
    before its own, so each factor has one Gram under it.

    L must have full column rank, as it does when every moved node is listed
    once (cond(W) <= 54 on the built-in meshes): then W is positive definite
    and K_L's trailing pivots are all negative, which is checked before Z is
    taken. Dependent columns of L raise InconsistentDof.
    """
    N, L, Q = update.N, update.L, update.Q
    n, r = N.shape
    if G_test.shape != (n, n) or L.shape != (n, r) or Q.shape != (r, r):
        raise DimensionMismatch("G_test must be n x n, N and L n x r, Q r x r")
    if n == 0:
        raise DimensionMismatch("the inf-sup estimate needs at least one unknown")
    tol = (n + r) * np.finfo(float).eps
    # before any factor: a singular K_L cannot tell G_trial (NotSPD) from L
    if r:
        g = np.linalg.eigvalsh((L.T @ L).toarray())
        if not g[0] > tol * g[-1]:
            raise InconsistentDof("the moved nodes' rows of the coefficient maps are "
                                  "linearly dependent; is a moved node listed twice?")
    gram = "test"
    try:  # a failure names the Gram it was found in
        order = fill_order(G_test)
        R = -bordered_schur(G_test, N, Q, order)[0]
        gram = "trial"
        S, pivots = bordered_schur(trial_gram(G_test, update), L, None, order)
    except (NotSPD, InconsistentDof) as exc:
        raise type(exc)(f"{gram}-space Gram: {exc}") from exc
    if not np.all(pivots < -tol * np.abs(S).max(initial=0.0)):
        raise InconsistentDof("L^T G_trial^-1 L is not positive definite "
                              f"(largest trailing pivot {pivots.max()})")
    if r == 0:
        return 1.0
    Z = np.linalg.cholesky(-S)
    lam = float(np.linalg.eigvalsh(Z.T @ R @ Z)[0])
    return math.sqrt(max(1.0 + min(lam, 0.0), 0.0))
