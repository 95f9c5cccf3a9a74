"""Stiffness and load assembly: standard test space against shifted trial space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InconsistentDof, InvalidParam, NotSPD
from .geometry import DEFAULT_TOL, BoundaryGeometry
from .mesh import TriMesh
from .quadrature import TriangleRule, rule_for_degree, triangle_area
from .spaces import (DofMap, LocalBasis, barycentric_gradients, degree_of,
                     eval_basis_bary, eval_basis_bary_grad)

EXTENSION_MODES = ("analytic", "zero_outside")
BASIS_CHOICES = ("test_space", "trial_space")


def _zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExactSolution:
    """Manufactured solution: ``value(x, y)`` and ``grad(x, y) -> (..., 2)``."""

    value: Callable
    grad: Callable


@dataclass(frozen=True)
class ProblemSpec:
    """Poisson problem -lap u = f with Dirichlet data d on the curved boundary.

    ``extension_mode`` controls how f is evaluated at quadrature points that
    fall outside the true domain (possible when the mesh overshoots a concave
    boundary): ``analytic`` uses the formula as given, ``zero_outside``
    replaces the value by 0 there.
    """

    geom: BoundaryGeometry
    f: Callable
    d: Callable = _zero
    exact: ExactSolution | None = None
    extension_mode: str = "analytic"

    def __post_init__(self):
        if self.extension_mode not in EXTENSION_MODES:
            raise InvalidParam(f"unknown extension_mode {self.extension_mode!r}")


@dataclass(frozen=True)
class QuadratureRules:
    stiffness: TriangleRule
    load: TriangleRule


def default_rules(k: int) -> QuadratureRules:
    """Exact-degree stiffness rule and a degree-(2k+2) load rule."""
    return QuadratureRules(stiffness=rule_for_degree(2 * (k - 1)),
                           load=rule_for_degree(2 * k + 2))


@dataclass(frozen=True)
class AssembledSystem:
    A: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap


def source_values(problem: ProblemSpec, pts: np.ndarray) -> np.ndarray:
    """f at physical points, honoring the extension mode."""
    vals = np.broadcast_to(
        np.asarray(problem.f(pts[:, 0], pts[:, 1]), dtype=float), (len(pts),)
    )
    if problem.extension_mode == "zero_outside":
        g = problem.geom.value_many(pts)
        vals = np.where(g > DEFAULT_TOL, 0.0, vals)
    return vals


def _element_blocks(mesh: TriMesh, k: int, rules: QuadratureRules):
    """Yield per-element (area, B_std, load_points) with reference data hoisted."""
    dphi_bary = eval_basis_bary_grad(k, rules.stiffness.points)
    w_s = rules.stiffness.weights
    for t in range(mesh.num_triangles):
        tri = mesh.triangle_coords(t)
        area = abs(triangle_area(tri))
        dphi = dphi_bary @ barycentric_gradients(tri)
        B = area * np.einsum("qid,qjd,q->ij", dphi, dphi, w_s)
        yield t, tri, area, B


def _scatter(blocks: list[tuple[np.ndarray, np.ndarray]], n: int) -> sp.csr_matrix:
    """Sum element blocks ``(global indices r, len(r) x len(r) block)`` into n x n CSR."""
    rows = np.concatenate([np.repeat(r, len(r)) for r, _ in blocks])
    cols = np.concatenate([np.tile(r, len(r)) for r, _ in blocks])
    vals = np.concatenate([b.ravel() for _, b in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble(mesh: TriMesh, dofmap: DofMap, local_bases: list[LocalBasis],
             problem: ProblemSpec, rules: QuadratureRules | None = None) -> AssembledSystem:
    """Assemble A_ij = a_h(w_j, v_i) and the load with Dirichlet lift.

    Rows are standard Lagrange test functions, columns are modified trial
    functions; Dirichlet columns are eliminated into the right-hand side.
    """
    n_local = dofmap.element_to_global.shape[1]
    k = degree_of(n_local)
    if len(local_bases) != mesh.num_triangles:
        raise InconsistentDof("one local basis per element required")
    if any(len(lb.nodes) != n_local for lb in local_bases):
        raise InconsistentDof("local basis size disagrees with dof map")
    if rules is None:
        rules = default_rules(k)

    phi_load = eval_basis_bary(k, rules.load.points)
    w_l = rules.load.weights
    n = dofmap.n_unknowns
    blocks = []
    rhs = np.zeros(n)
    for t, tri, area, B in _element_blocks(mesh, k, rules):
        lb = local_bases[t]
        if lb.kt_deviation != 0.0:
            B = B @ lb.coeffs
        pts = rules.load.physical_points(tri)
        F = area * (phi_load.T @ (w_l * source_values(problem, pts)))
        g = dofmap.element_to_global[t]
        ui = dofmap.unknown_index[g]
        free = np.nonzero(ui >= 0)[0]
        fixed = np.nonzero(ui < 0)[0]
        r = ui[free]
        rhs[r] += F[free]
        if len(fixed):
            rhs[r] -= B[np.ix_(free, fixed)] @ dofmap.dirichlet_values[g[fixed]]
        blocks.append((r, B[np.ix_(free, free)]))
    return AssembledSystem(A=_scatter(blocks, n), rhs=rhs, dofmap=dofmap)


def assemble_gram(mesh: TriMesh, dofmap: DofMap, local_bases: list[LocalBasis],
                  basis_choice: str = "test_space",
                  rules: QuadratureRules | None = None) -> sp.csr_matrix:
    """Gradient Gram matrix of the chosen space's basis over the unknowns.

    Verified symmetric positive definite by :func:`check_spd` at every size;
    failure signals a broken dof map.
    """
    if basis_choice not in BASIS_CHOICES:
        raise InvalidParam(f"unknown basis_choice {basis_choice!r}")
    k = degree_of(dofmap.element_to_global.shape[1])
    if rules is None:
        rules = default_rules(k)
    n = dofmap.n_unknowns
    blocks = []
    for t, _tri, _area, B in _element_blocks(mesh, k, rules):
        lb = local_bases[t]
        if basis_choice == "trial_space" and lb.kt_deviation != 0.0:
            B = lb.coeffs.T @ B @ lb.coeffs
        ui = dofmap.unknown_index[dofmap.element_to_global[t]]
        free = np.nonzero(ui >= 0)[0]
        r = ui[free]
        blocks.append((r, B[np.ix_(free, free)]))
    G = _scatter(blocks, n)
    check_spd(G)
    return G


def check_spd(G) -> None:
    """Raise NotSPD unless the sparse matrix G is symmetric positive definite.

    A sparse LU that took only diagonal pivots (perm_r == perm_c) is
    P G P^T = L D L^T with D = diag(U), so G is SPD iff every pivot is
    positive. Pivots must clear n * eps * max|G|, as rounding can leave a
    singular G's last pivot just above zero; an SPD G's pivots are >= lambda_min.
    """
    G = sp.csc_matrix(G)
    g_max = float(abs(G).max())
    if float(abs(G - G.T).max()) > 1e-12 * max(1.0, g_max):
        raise NotSPD("gram matrix is not symmetric")
    try:
        lu = splu(G, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NotSPD(f"gram matrix is singular: {exc}") from exc
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(pivots > G.shape[0] * np.finfo(float).eps * g_max)):
        raise NotSPD(f"gram matrix is not positive definite (smallest pivot {pivots.min()})")
