"""Stiffness and load assembly: standard test space against shifted trial space.

Kernels work on whole-mesh (T, ...) stacks. Each contraction is a stacked
``np.matmul`` over the operands a per-element ``@`` would take, so every
block comes out of the same BLAS call and results stay bit-identical to the
frozen reference tables, which an ``einsum`` regrouping would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import InconsistentDof, InvalidParam
from .geometry import BoundaryGeometry
from .mesh import TriMesh
from .quadrature import rule_for_degree, triangle_area
from .spaces import (DofMap, LocalBases, barycentric_gradients, check_compatible,
                     eval_basis_bary, eval_basis_bary_grad)

EXTENSION_MODES = ("analytic", "zero_outside")
BASIS_CHOICES = ("test_space", "trial_space")
# A point with a larger boundary field g is outside the domain.
OUTSIDE_TOL = 1e-12


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
    replaces the value by 0 there. A geometry with no curved pieces leaves
    no skin beyond the mesh, so ``zero_outside`` is rejected for it.
    """

    geom: BoundaryGeometry
    f: Callable
    d: Callable = _zero
    exact: ExactSolution | None = None
    extension_mode: str = "analytic"

    def __post_init__(self):
        if self.extension_mode not in EXTENSION_MODES:
            raise InvalidParam(f"unknown extension_mode {self.extension_mode!r}; "
                               f"choose from {EXTENSION_MODES}")
        if self.extension_mode == "zero_outside" and self.geom.fields is None:
            raise InvalidParam(f"extension_mode 'zero_outside' needs a curved boundary; "
                               f"{self.geom.kind} geometry has none")


@dataclass(frozen=True)
class AssembledSystem:
    """A, the load and the dof map of one mesh, plus the element stiffness
    blocks :func:`assemble_gram` builds both Gram matrices from.

    ``blocks`` (T, n_k, n_k) are the standard-basis stiffness blocks B; A's
    block of a shifted element is ``B @ C`` for its coefficient map C. Drop
    the system once A, the load, the Grams and the :func:`shift_update` are
    taken from it: the blocks are about as large as A.
    """

    A: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    blocks: np.ndarray


def source_values(problem: ProblemSpec, pts: np.ndarray) -> np.ndarray:
    """f at physical points, honoring the extension mode."""
    vals = np.broadcast_to(
        np.asarray(problem.f(pts[:, 0], pts[:, 1]), dtype=float), (len(pts),)
    )
    if problem.extension_mode == "zero_outside":
        g = problem.geom.value_many(pts)
        vals = np.where(g > OUTSIDE_TOL, 0.0, vals)
    return vals


def element_geometry(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked vertices (T, 3, 2), barycentric gradients (T, 3, 2) and areas (T,)."""
    tris = mesh.vertices[mesh.triangles]
    return tris, barycentric_gradients(tris), np.abs(triangle_area(tris))


def _stiffness_blocks(mesh: TriMesh, k: int):
    """Vertices, areas and standard-basis stiffness blocks B (T, n_k, n_k).

    The gradients are of degree k-1 on a straight triangle, so a rule exact
    for degree 2(k-1) integrates every block exactly.
    """
    tris, grads, area = element_geometry(mesh)
    rule = rule_for_degree(2 * (k - 1))
    dphi = eval_basis_bary_grad(k, rule.points)[None] @ grads[:, None]
    B = area[:, None, None] * np.einsum("tqid,tqjd,q->tij", dphi, dphi, rule.weights)
    return tris, area, B


def _scatter(ui: np.ndarray, blocks: np.ndarray, n: int,
             shifted: np.ndarray | None = None,
             shifted_blocks: np.ndarray | None = None) -> sp.csr_matrix:
    """Sum element blocks (T, n_k, n_k) into n x n CSR, dropping the rows and
    columns of locals whose unknown index ``ui`` (T, n_k) is -1. COO entries
    run element by element, row-major over the free locals. If given,
    ``shifted_blocks`` (S, n_k, n_k) stand in for the blocks of the sorted
    elements ``shifted`` (S,), without a copy of ``blocks``."""
    free = (ui[:, :, None] >= 0) & (ui[:, None, :] >= 0)
    rows = np.broadcast_to(ui[:, :, None], blocks.shape)[free]
    cols = np.broadcast_to(ui[:, None, :], blocks.shape)[free]
    data = blocks[free]
    if shifted is not None:
        sub = np.zeros_like(free)
        sub[shifted] = free[shifted]
        data[sub[free]] = shifted_blocks[free[shifted]]
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def assemble(mesh: TriMesh, dofmap: DofMap, local_bases: LocalBases,
             problem: ProblemSpec) -> AssembledSystem:
    """Assemble A_ij = a_h(w_j, v_i) and the load with Dirichlet lift.

    Rows are standard Lagrange test functions, columns are modified trial
    functions; Dirichlet columns are eliminated into the right-hand side.
    The load takes a degree-(2k+2) rule, exact for a source of degree k+2.
    """
    check_compatible(mesh, dofmap, local_bases)
    k = local_bases.k
    tris, area, B = _stiffness_blocks(mesh, k)
    s = local_bases.shifted
    BC = B[s] @ local_bases.coeffs
    load = rule_for_degree(2 * k + 2)
    pts = load.physical_points(tris)
    f = source_values(problem, pts.reshape(-1, 2)).reshape(pts.shape[:2])
    phi_load = eval_basis_bary(k, load.points)
    F = area[:, None] * (phi_load.T[None] @ (load.weights * f)[:, :, None])[..., 0]
    d = dofmap.dirichlet_values[dofmap.element_to_global][:, :, None]
    lift = (B @ d)[..., 0]
    lift[s] = (BC @ d[s])[..., 0]
    # Element by element, rhs[free] += F and then rhs[free] -= lift; bincount
    # adds its weights in order, so interleaving the two keeps that order.
    weights = np.stack((F, -lift), axis=1)
    ui = dofmap.unknown_index[dofmap.element_to_global]
    idx = np.broadcast_to(ui[:, None, :], weights.shape)
    free = idx >= 0
    rhs = np.bincount(idx[free], weights[free], minlength=dofmap.n_unknowns)
    return AssembledSystem(A=_scatter(ui, B, dofmap.n_unknowns, s, BC), rhs=rhs,
                           dofmap=dofmap, blocks=B)


def assemble_gram(system: AssembledSystem, local_bases: LocalBases,
                  basis_choice: str = "test_space") -> sp.csr_matrix:
    """Gradient Gram matrix of the chosen space's basis over the unknowns.

    Built from the element blocks :func:`assemble` made for ``system``, so
    it uses the same stiffness rule and costs no second block kernel: the
    test Gram sums the blocks B, the trial Gram takes ``C^T B C`` on the
    shifted elements. The result is not checked here;
    :func:`shiftfem.analysis.inf_sup_estimate` proves both Grams symmetric
    positive definite with the bordered factors of :mod:`shiftfem.linsolve`
    (failure signals a broken dof map).
    """
    if basis_choice not in BASIS_CHOICES:
        raise InvalidParam(f"unknown basis_choice {basis_choice!r}")
    dofmap, B = system.dofmap, system.blocks
    ui = dofmap.unknown_index[dofmap.element_to_global]
    if basis_choice == "test_space":
        return _scatter(ui, B, dofmap.n_unknowns)
    s, C = local_bases.shifted, local_bases.coeffs
    return _scatter(ui, B, dofmap.n_unknowns, s, C.transpose(0, 2, 1) @ B[s] @ C)


@dataclass(frozen=True)
class ShiftUpdate:
    """The trial space's departure from the test space, in low-rank form.

    Column j of ``N`` and ``L`` (n, r) belongs to moved node j, a local of a
    shifted element whose node left its lattice position (``LocalBases.moved``,
    element-major). ``N[:, j]`` is the node's plain stiffness column over the
    unknowns and ``L[:, j]`` its row of the element's coefficient map over
    the unknowns. ``Q`` (r, r) is the plain stiffness among the moved nodes:
    block diagonal, one block per element, since each moved node lies on a
    boundary edge and so in one element. Moved nodes are Dirichlet nodes, so
    their own columns are not unknowns, and up to rounding

        A = G_test + N L^T,    G_trial = G_test + N L^T + L N^T + L Q L^T.
    """

    N: sp.csc_matrix
    L: sp.csc_matrix
    Q: np.ndarray


def shift_update(system: AssembledSystem, local_bases: LocalBases) -> ShiftUpdate:
    """N, L and Q of :class:`ShiftUpdate` from the blocks :func:`assemble`
    kept in ``system``; take it before the system is dropped."""
    dofmap = system.dofmap
    el, loc = np.nonzero(local_bases.moved)
    rows = dofmap.unknown_index[dofmap.element_to_global[local_bases.shifted[el]]]
    if np.any(rows[np.arange(len(el)), loc] >= 0):
        raise InconsistentDof("a moved node is an unknown; only Dirichlet nodes may move")
    free = rows >= 0
    cols = np.broadcast_to(np.arange(len(el))[:, None], rows.shape)[free]
    shape = (dofmap.n_unknowns, len(el))
    B = system.blocks[local_bases.shifted]
    N = sp.csc_matrix((B[el, :, loc][free], (rows[free], cols)), shape=shape)
    L = sp.csc_matrix((local_bases.coeffs[el, loc, :][free], (rows[free], cols)), shape=shape)
    Q = np.where(el[:, None] == el, B[el[:, None], loc[:, None], loc], 0.0)
    return ShiftUpdate(N=N, L=L, Q=Q)

