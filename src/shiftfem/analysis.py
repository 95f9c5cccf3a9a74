"""Error norms, convergence orders, interpolation, and stability diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .assembly import ExactSolution, check_spd, element_geometry
from .errors import (DimensionMismatch, MissingExact, NoConvergence,
                     NonDyadicSequence)
from .mesh import INTERIOR, TriMesh
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
                rule=None, param: int = 0) -> ErrorReport:
    """Gradient and L2 error over the mesh polygon plus the unknown-node max.

    ``x`` may be the reduced unknown vector or the full nodal vector. The
    nodal maximum uses the coefficients directly (they are nodal values),
    over unknown nodes only: constrained nodes sit on the true boundary
    where the imposed datum is exact.
    """
    if exact is None:
        raise MissingExact("error norms require a manufactured solution")
    full = _full_coefficients(dofmap, x)
    k = degree_of(dofmap.element_to_global.shape[1])
    if rule is None:
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


def chord_node_gap(mesh: TriMesh, dofmap: DofMap, u: Callable, k: int) -> float:
    """Max |u(M) - u(P)| over relocated nodes: M the straight-edge lattice
    position, P its boundary replacement carrying the imposed value.

    This is the nodal error attributed to the lattice position of a
    constrained dof; it decays as O(h^2) while unknown-node errors
    superconverge, so the two diagnostics are reported separately.
    """
    elems = (np.arange(mesh.num_triangles) if mesh.element_class is None
             else np.flatnonzero(mesh.element_class != INTERIOR))
    plain = lagrange_layout(k, mesh.vertices[mesh.triangles[elems]])
    shifted = dofmap.node_coords[dofmap.element_to_global[elems]]
    moved = np.linalg.norm(shifted - plain, axis=-1) > 0.0
    plain, shifted = plain[moved], shifted[moved]
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


def inf_sup_estimate(A, G_test, G_trial) -> float:
    """Discrete inf over trial w of sup over test v of a_h(w, v) / (|w|_1 |v|_1).

    Its square is the smallest eigenvalue of A^T G_test^-1 A w = s G_trial w
    (the numerical inf-sup test of Chapelle and Bathe), found by shift-invert
    Lanczos with one sparse LU of A. This is the one place the Grams are
    proved symmetric positive definite: :func:`check_spd` must pass both
    before A is factored. The Grams stay CSR, which is faster for the
    Lanczos matvecs than CSC and gives bitwise the same products.
    """
    A = sp.csc_matrix(A)
    G_test, G_trial = sp.csr_matrix(G_test), sp.csr_matrix(G_trial)
    n = A.shape[0]
    if A.shape != (n, n) or G_test.shape != (n, n) or G_trial.shape != (n, n):
        raise DimensionMismatch("A and both Gram matrices must be square and same size")
    if n == 0:
        raise DimensionMismatch("the inf-sup estimate needs at least one unknown")
    check_spd(G_test)
    check_spd(G_trial)
    if n == 1:  # ARPACK needs k < n
        return abs(float(A[0, 0])) / math.sqrt(float(G_test[0, 0]) * float(G_trial[0, 0]))
    try:
        lu = splu(A)
    except RuntimeError:  # exactly singular A: no inf-sup stability at all
        return 0.0
    # OPinv = (A^T G_test^-1 A)^-1 = A^-1 G_test A^-T. Shift-invert mode applies
    # only OPinv and M; a fixed start vector keeps repeated runs bit-identical.
    op_inv = LinearOperator((n, n), dtype=float,
                            matvec=lambda x: lu.solve(G_test @ lu.solve(x, trans="T")))
    try:
        sigma2 = eigsh(op_inv, k=1, M=G_trial, sigma=0.0, OPinv=op_inv,
                       v0=np.ones(n), return_eigenvectors=False)
    except ArpackError as exc:  # includes ArpackNoConvergence
        raise NoConvergence(f"inf-sup eigenvalue iteration failed: {exc}") from exc
    return math.sqrt(max(float(sigma2[0]), 0.0))


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
