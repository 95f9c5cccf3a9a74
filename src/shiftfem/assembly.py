"""Stiffness and load assembly: standard test space against shifted trial space.

Kernels work on (T, ...) stacks of elements, the whole mesh at once. Each
element's entries are computed alone. The element loops the kernels replaced
are test oracles now, bounding each entry to a few eps of the largest one.
Bits are pinned by ``tests/golden/`` and by the benchmark's reference tables
(1e-9 relative), which a regrouped stiffness contraction would move.
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
            raise InvalidParam("extension_mode 'zero_outside' needs a curved boundary; "
                               "the geometry has none")


@dataclass(frozen=True)
class AssembledSystem:
    """A and the load of one mesh, plus the standard-basis element stiffness
    blocks B (T, n_k, n_k) of the test Gram and the shift update. A's block
    of a shifted element is ``B @ C`` for its coefficient map C, swapped into
    B in place while A and the lift are formed, then swapped back: no copy of B.

    A is CSC, the format SuperLU factors, with exactly ``A.nnz`` slots: its summed
    CSR is converted before it is returned, so that CSR and its COO-sized buffers
    are gone before the LU, and the LU copies nothing. The blocks are about as
    large as A, and each piece can outlive the others.
    """

    A: sp.csc_matrix
    rhs: np.ndarray
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
    """Stacked vertices (T, 3, 2), barycentric gradients (T, 3, 2) and areas (T,).

    Only ``mesh.vertices`` and ``mesh.triangles`` are read, so the
    :class:`shiftfem.analysis.ErrorSetup` that keeps them serves as well."""
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


def _scatter(ui: np.ndarray, blocks: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum element blocks (T, n_k, n_k) into n x n CSR, dropping the rows and
    columns of locals whose unknown index ``ui`` (T, n_k) is -1. COO entries
    run element by element, row-major over the free locals. For A, ``blocks``
    is B with A's blocks swapped in (:class:`AssembledSystem`)."""
    free = (ui[:, :, None] >= 0) & (ui[:, None, :] >= 0)
    ui = ui.astype(np.int32)  # SciPy's index type for n < 2**31 either way
    rows = np.broadcast_to(ui[:, :, None], blocks.shape)[free]
    cols = np.broadcast_to(ui[:, None, :], blocks.shape)[free]
    return sp.coo_matrix((blocks[free], (rows, cols)), shape=(n, n)).tocsr()


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
    plain = B[s]
    B[s] = plain @ local_bases.coeffs  # A's blocks, until restored below
    load = rule_for_degree(2 * k + 2)
    phi_load = eval_basis_bary(k, load.points).T[None]
    pts = load.physical_points(tris)
    f = source_values(problem, pts.reshape(-1, 2)).reshape(pts.shape[:2])
    F = area[:, None] * (phi_load @ (load.weights * f)[:, :, None])[..., 0]
    lift = (B @ dofmap.dirichlet_values[dofmap.element_to_global][:, :, None])[..., 0]
    ui = dofmap.unknown_index[dofmap.element_to_global]
    free = ui >= 0
    rhs = np.bincount(ui[free], (F - lift)[free], minlength=dofmap.n_unknowns)
    A = _scatter(ui, B, dofmap.n_unknowns).tocsc()
    B[s] = plain
    return AssembledSystem(A=A, rhs=rhs, blocks=B)


def assemble_gram(dofmap: DofMap, blocks: np.ndarray) -> sp.csr_matrix:
    """Gradient Gram matrix of the test space's basis over the unknowns.

    Sums the element blocks B :func:`assemble` made with ``dofmap``, so it
    uses the same stiffness rule and costs no second block kernel. The trial
    space's Gram is this one plus the low-rank :class:`ShiftUpdate`
    (:func:`trial_gram`). The result is not checked here;
    :func:`shiftfem.analysis.inf_sup_estimate` proves both Grams symmetric
    positive definite with the bordered factors of :mod:`shiftfem.linsolve`
    (failure signals a broken dof map).
    """
    G = _scatter(dofmap.unknown_index[dofmap.element_to_global], blocks, dofmap.n_unknowns)
    # the summed CSR views COO-sized buffers (SciPy prunes only past 50 % slack),
    # and the Gram stays under both bordered factors: keep exactly nnz slots
    return G.copy()


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
    their own columns are not unknowns, and up to rounding (the trial Gram is
    only ever formed this way, by :func:`trial_gram`)

        A = G_test + N L^T,    G_trial = G_test + N L^T + L N^T + L Q L^T.
    """

    N: sp.csc_matrix
    L: sp.csc_matrix
    Q: np.ndarray


def shift_update(dofmap: DofMap, blocks: np.ndarray, local_bases: LocalBases) -> ShiftUpdate:
    """N, L and Q of :class:`ShiftUpdate` from the element blocks
    :func:`assemble` made with ``dofmap``."""
    el, loc = np.nonzero(local_bases.moved)
    rows = dofmap.unknown_index[dofmap.element_to_global[local_bases.shifted[el]]]
    if np.any(rows[np.arange(len(el)), loc] >= 0):
        raise InconsistentDof("a moved node is an unknown; only Dirichlet nodes may move")
    free = rows >= 0
    cols = np.broadcast_to(np.arange(len(el))[:, None], rows.shape)[free]
    shape = (dofmap.n_unknowns, len(el))
    B = blocks[local_bases.shifted]
    N = sp.csc_matrix((B[el, :, loc][free], (rows[free], cols)), shape=shape)
    L = sp.csc_matrix((local_bases.coeffs[el, loc, :][free], (rows[free], cols)), shape=shape)
    Q = np.where(el[:, None] == el, B[el[:, None], loc[:, None], loc], 0.0)
    return ShiftUpdate(N=N, L=L, Q=Q)


def trial_gram(G_test, update: ShiftUpdate) -> sp.csr_matrix:
    """G_trial = G_test + N L^T + L (N + L Q)^T of :class:`ShiftUpdate`, unchecked
    like :func:`assemble_gram`. Q is made sparse, or the sum would be dense n x n."""
    N, L = update.N, update.L
    return G_test + N @ L.T + L @ (N + L @ sp.csc_matrix(update.Q)).T
