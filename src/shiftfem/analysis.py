"""Error norms, convergence orders, interpolation, and stability diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assembly import (ExactSolution, ShiftUpdate, bordered_schur, element_geometry,
                       fill_order)
from .errors import DimensionMismatch, InconsistentDof, MissingExact, NonDyadicSequence
from .mesh import TriMesh
from .quadrature import rule_for_degree
from .spaces import (DofMap, LocalBases, degree_of, eval_basis_bary,
                     eval_basis_bary_grad, lagrange_layout)

CSV_HEADER = "param,h,grad_err,grad_order,l2_err,l2_order,max_err,max_order,alpha_h,kt_dev"


@dataclass(frozen=True)
class ErrorReport:
    grad_err: float
    l2_err: float
    max_nodal_err: float
    h: float
    param: int

    def __post_init__(self):
        for name in ("grad_err", "l2_err", "max_nodal_err", "h"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class ConvergenceTable:
    reports: tuple[ErrorReport, ...]
    grad_orders: tuple[float, ...]
    l2_orders: tuple[float, ...]
    max_orders: tuple[float, ...]


def _full_coefficients(dofmap: DofMap, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape == (dofmap.n_nodes,):
        return x
    if x.shape == (dofmap.n_unknowns,):
        return dofmap.full_vector(x)
    raise DimensionMismatch(
        f"solution has shape {x.shape}; expected ({dofmap.n_unknowns},) or ({dofmap.n_nodes},)")


def error_norms(mesh: TriMesh, dofmap: DofMap, local_bases: LocalBases,
                x: np.ndarray, exact: ExactSolution | None,
                param: int = 0) -> ErrorReport:
    """Gradient and L2 error over the mesh polygon plus the unknown-node max.

    The integrals take a degree-(2k+4) rule, so the smooth exact solution
    is sampled well beyond the degree of the discrete one. ``x`` may be the
    reduced unknown vector or the full nodal vector. The nodal maximum uses
    the coefficients directly (they are nodal values), over unknown nodes
    only: constrained nodes sit on the true boundary where the imposed
    datum is exact.
    """
    if exact is None:
        raise MissingExact("error norms require a manufactured solution")
    full = _full_coefficients(dofmap, x)
    k = degree_of(dofmap.element_to_global.shape[1])
    rule = rule_for_degree(2 * k + 4)
    tris, grads, area = element_geometry(mesh)
    a = full[dofmap.element_to_global]
    s = local_bases.shifted
    a[s] = (local_bases.coeffs @ a[s][:, :, None])[..., 0]
    pts = rule.physical_points(tris)
    px, py = pts[..., 0], pts[..., 1]
    dphi = eval_basis_bary_grad(k, rule.points)[None] @ grads[:, None]
    dg = np.einsum("tqjd,tj->tqd", dphi, a) - exact.grad(px, py)
    del dphi
    dv = (eval_basis_bary(k, rule.points)[None] @ a[:, :, None])[..., 0] - exact.value(px, py)
    # cumsum adds in element order, as a loop would; np.sum would not
    g2 = np.cumsum(area * np.vecdot(rule.weights, np.einsum("tqd,tqd->tq", dg, dg)))[-1]
    l2 = np.cumsum(area * np.vecdot(rule.weights, dv * dv))[-1]
    nodal = np.abs(full - exact.value(dofmap.node_coords[:, 0], dofmap.node_coords[:, 1]))
    max_err = float(nodal[~dofmap.dirichlet_mask].max()) if dofmap.n_unknowns else 0.0
    return ErrorReport(grad_err=math.sqrt(g2), l2_err=math.sqrt(l2),
                       max_nodal_err=max_err,
                       h=float(mesh.h_per_element.max()), param=int(param))


# Errors at the double-precision floor carry no rate information.
ORDER_FLOOR = 1e-13


def _pair_order(coarse: float, fine: float) -> float:
    if coarse <= ORDER_FLOOR or fine <= ORDER_FLOOR:
        return math.nan
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return math.nan
    return math.log2(coarse / fine)


def convergence_orders(reports: Sequence[ErrorReport]) -> ConvergenceTable:
    """Pairwise log2 error ratios between consecutive dyadic refinements."""
    if len(reports) < 2:
        raise NonDyadicSequence("need at least two reports to compute orders")
    params = [r.param for r in reports]
    for a, b in zip(params, params[1:]):
        if b != 2 * a:
            raise NonDyadicSequence(f"parameters {params} are not consecutive doublings")
    return ConvergenceTable(
        reports=tuple(reports),
        grad_orders=tuple(_pair_order(a.grad_err, b.grad_err)
                          for a, b in zip(reports, reports[1:])),
        l2_orders=tuple(_pair_order(a.l2_err, b.l2_err)
                        for a, b in zip(reports, reports[1:])),
        max_orders=tuple(_pair_order(a.max_nodal_err, b.max_nodal_err)
                         for a, b in zip(reports, reports[1:])),
    )


def interpolate_Ih(u: Callable, dofmap: DofMap) -> np.ndarray:
    """Trial-space interpolant: coefficient = u at every global node.

    Nodes of curved-edge elements live on the true boundary, so the
    interpolant matches u there exactly.
    """
    return np.asarray(u(dofmap.node_coords[:, 0], dofmap.node_coords[:, 1]),
                      dtype=float)


def chord_node_gap(mesh: TriMesh, local_bases: LocalBases, u: Callable) -> float:
    """Max |u(M) - u(P)| over relocated nodes: M the straight-edge lattice
    position, P its boundary replacement carrying the imposed value.

    This is the nodal error attributed to the lattice position of a
    constrained dof; it decays as O(h^2) while unknown-node errors
    superconverge, so the two diagnostics are reported separately.
    """
    s, moved = local_bases.shifted, local_bases.moved
    k = degree_of(local_bases.nodes.shape[1])
    plain = lagrange_layout(k, mesh.vertices[mesh.triangles[s]])[moved]
    shifted = local_bases.nodes[s][moved]
    gap = np.abs(u(plain[:, 0], plain[:, 1]) - u(shifted[:, 0], shifted[:, 1]))
    return float(np.max(gap, initial=0.0))


@dataclass(frozen=True)
class KtReport:
    max_dev: float
    dev_vs_h: tuple[tuple[float, float], ...]


def kt_perturbation_report(local_bases: LocalBases) -> KtReport:
    """Max node-shift system deviation and (h_T, deviation) pairs for regression."""
    dev = local_bases.kt_deviation
    moved = np.flatnonzero(dev > 0.0)
    tri = local_bases.nodes[moved, :3]
    d = tri - np.roll(tri, -1, axis=1)
    h = np.sqrt(np.vecdot(d, d)).max(axis=1, initial=0.0)
    return KtReport(max_dev=float(dev.max(initial=0.0)),
                    dev_vs_h=tuple(zip(h.tolist(), dev[moved].tolist())))


def inf_sup_estimate(G_test, G_trial, update: ShiftUpdate) -> float:
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
    G_trial has the same pattern) with the border last. Eliminating the Gram
    first leaves its pivots untouched by the border, so the same factor
    proves each Gram symmetric positive definite; this is the one place the
    Grams are proved so, also when r = 0, where alpha_h is exactly 1. Then
    come two r x r symmetric eigenproblems: no factor of A, no solve and no
    iteration.

    L must have full column rank, as it does when every moved node is listed
    once (cond(W) <= 54 on the built-in meshes): then W is positive definite
    and K_L's trailing pivots are all negative. Dependent columns of L raise
    InconsistentDof.
    """
    N, L, Q = update.N, update.L, update.Q
    n, r = N.shape
    if G_test.shape != (n, n) or G_trial.shape != (n, n) or L.shape != (n, r) \
            or Q.shape != (r, r):
        raise DimensionMismatch("both Gram matrices must be n x n, N and L n x r, Q r x r")
    if n == 0:
        raise DimensionMismatch("the inf-sup estimate needs at least one unknown")
    tol = (n + r) * np.finfo(float).eps
    # before any factor: a singular K_L cannot tell G_trial (NotSPD) from L
    if r:
        g = np.linalg.eigvalsh((L.T @ L).toarray())
        if not g[0] > tol * g[-1]:
            raise InconsistentDof("the moved nodes' rows of the coefficient maps are "
                                  "linearly dependent; is a moved node listed twice?")
    order = fill_order(G_test)
    R = -bordered_schur(G_test, N, Q, order)[0]
    S, pivots = bordered_schur(G_trial, L, None, order)
    if not np.all(pivots < -tol * np.abs(S).max(initial=0.0)):
        raise InconsistentDof("L^T G_trial^-1 L is not positive definite "
                              f"(largest trailing pivot {pivots.max()})")
    if r == 0:
        return 1.0
    w, V = np.linalg.eigh(-S)
    Z = V * np.sqrt(np.maximum(w, 0.0))
    lam = float(np.linalg.eigvalsh(Z.T @ R @ Z)[0])
    return math.sqrt(max(1.0 + min(lam, 0.0), 0.0))


def _csv_num(v) -> str:
    if v is None:
        return ""
    v = float(v)
    if math.isnan(v):
        return "nan"
    return repr(v)


def table_to_csv(table: ConvergenceTable,
                 alpha_h: Sequence[float | None] | None = None,
                 kt_dev: Sequence[float | None] | None = None) -> str:
    """Serialize with one row per mesh; first-row orders are empty fields."""
    n = len(table.reports)
    alpha_h = list(alpha_h) if alpha_h is not None else [None] * n
    kt_dev = list(kt_dev) if kt_dev is not None else [None] * n
    if len(alpha_h) != n or len(kt_dev) != n:
        raise DimensionMismatch("alpha_h/kt_dev must have one entry per report")
    lines = [CSV_HEADER]
    for i, r in enumerate(table.reports):
        orders = ["", "", ""] if i == 0 else [
            _csv_num(table.grad_orders[i - 1]),
            _csv_num(table.l2_orders[i - 1]),
            _csv_num(table.max_orders[i - 1]),
        ]
        lines.append(",".join([
            str(r.param), _csv_num(r.h),
            _csv_num(r.grad_err), orders[0],
            _csv_num(r.l2_err), orders[1],
            _csv_num(r.max_nodal_err), orders[2],
            _csv_num(alpha_h[i]), _csv_num(kt_dev[i]),
        ]))
    return "\n".join(lines) + "\n"
