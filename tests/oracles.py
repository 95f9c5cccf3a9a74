"""Independent oracles the tests check the pipeline against, and the one
rounding budget every float comparison with them is held to.

``assert_within_rounding`` bounds the difference by a margin times eps times
a scale the caller names: the largest entry for kernels and sparse data, the
coordinate size for node layouts, the same norm of the discrete solution for
error norms. Sparsity patterns, numbering and counts stay exact.

``eval_uh`` evaluates a trial-space function at one point of one element,
from the standard basis and that element's coefficient map, where the
pipeline works on whole-mesh stacks at quadrature points. ``load_mesh``
reads back the text format of ``shiftfem.mesh.mesh_text``, and ``inradius``
measures each triangle's shape.
``element_trial_gram`` sums the trial space's Gram element by element, where
the pipeline adds the low-rank shift update to the test Gram.
``scalar_pieces`` and ``scalar_ray_intersection`` cast one ray at a time
through scalar closures, where the pipeline solves every ray of a mesh in
one array iteration.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from shiftfem.assembly import assemble_gram
from shiftfem.errors import MeshAssumptionViolated, NoConvergence
from shiftfem.geometry import DEFAULT_BRACKET, DEFAULT_TOL
from shiftfem.mesh import TriMesh, make_mesh
from shiftfem.spaces import (DofMap, LocalBases, barycentric_coords,
                             barycentric_gradients, eval_basis_bary,
                             eval_basis_bary_grad)


EPS = np.finfo(float).eps


def assert_within_rounding(got, want, scale: float, margin: float) -> None:
    """Assert |got - want| <= margin * eps * scale entry by entry.

    Arrays must have the same shape. Sparse matrices must have the same
    sparsity pattern exactly (the same CSR indptr and indices); their data
    are then held to the bound.
    """
    if sp.issparse(got) or sp.issparse(want):
        got, want = got.tocsr(), want.tocsr()
        assert np.array_equal(got.indptr, want.indptr), "sparsity patterns differ"
        assert np.array_equal(got.indices, want.indices), "sparsity patterns differ"
        got, want = got.data, want.data
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, f"shapes differ: {got.shape} != {want.shape}"
    off = float(np.max(np.abs(got - want), initial=0.0))
    bound = margin * EPS * scale
    assert off <= bound, f"off by {off:.3e} > {margin:g} eps x {scale:.3e} = {bound:.3e}"


def eval_basis_physical(k: int, tri: np.ndarray, pts: np.ndarray):
    """Standard basis values (n, n_k) and physical gradients (n, n_k, 2)."""
    lam = barycentric_coords(tri, pts)
    vals = eval_basis_bary(k, lam)
    dlam = eval_basis_bary_grad(k, lam)
    grads = np.einsum("njm,md->njd", dlam, barycentric_gradients(tri))
    return vals, grads


def element_coeffs(local_bases: LocalBases, t: int) -> np.ndarray:
    """Coefficient map of element t (the identity unless t is shifted)."""
    i = int(np.searchsorted(local_bases.shifted, t))
    if i < len(local_bases.shifted) and local_bases.shifted[i] == t:
        return local_bases.coeffs[i]
    return np.eye(local_bases.nodes.shape[1])


@dataclass(frozen=True)
class EvalResult:
    value: float
    gradient: np.ndarray


def eval_uh(dofmap: DofMap, local_bases: LocalBases,
            coefficients: np.ndarray, element_id: int, p) -> EvalResult:
    """Evaluate the trial-space function given by full nodal coefficients.

    Valid anywhere the element's polynomial extension is wanted, including
    the skin beyond a curved edge.
    """
    nodes = local_bases.nodes[element_id]
    c_local = coefficients[dofmap.element_to_global[element_id]]
    a = element_coeffs(local_bases, element_id) @ c_local
    vals, grads = eval_basis_physical(local_bases.k, nodes[:3], np.asarray(p, dtype=float))
    return EvalResult(value=float(vals[0] @ a), gradient=grads[0].T @ a)


def element_trial_gram(dofmap: DofMap, local_bases: LocalBases, blocks: np.ndarray):
    """The trial space's Gram from the element blocks B ``assemble`` made
    with ``dofmap``: C^T B C on each shifted element, B elsewhere."""
    shifted, C = local_bases.shifted, local_bases.coeffs
    trial = blocks.copy()
    trial[shifted] = C.transpose(0, 2, 1) @ blocks[shifted] @ C
    return assemble_gram(dofmap, trial)


def inradius(mesh: TriMesh) -> np.ndarray:
    """(T,) inradius of every triangle: twice its area over its perimeter."""
    (x0, y0), (x1, y1), (x2, y2) = np.moveaxis(mesh.vertices[mesh.triangles], (1, 2), (0, 1))
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    return 2.0 * area / (np.hypot(x1 - x0, y1 - y0) + np.hypot(x2 - x1, y2 - y1)
                         + np.hypot(x0 - x2, y0 - y2))


def load_mesh(path) -> TriMesh:
    """Read the text format of mesh_text and validate the mesh."""
    rows = [line.split() for line in Path(path).read_text().splitlines() if line.strip()]
    nv, nt, nb = (int(w) for w in rows[0])
    assert len(rows) == 1 + nv + nt + nb, f"{path}: line count disagrees with its header"
    verts = [[float(w) for w in row] for row in rows[1:1 + nv]]
    tris = [[int(w) for w in row] for row in rows[1 + nv:1 + nv + nt]]
    bedges = [(int(i1), int(i2), tag) for i1, i2, tag in rows[1 + nv + nt:]]
    return make_mesh(verts, tris, bedges)


@dataclass(frozen=True)
class ScalarPiece:
    """One smooth branch g of a curved boundary, at one point at a time."""

    value: Callable[[float, float], float]
    grad: Callable[[float, float], tuple[float, float]]


def scalar_pieces(kind: str, e: float) -> tuple[ScalarPiece, ...]:
    """The pieces of ``shiftfem.geometry.ellipse(e)`` or ``annulus(e)``,
    in the same order."""
    if kind == "ellipse":
        return (ScalarPiece(lambda x, y: (x / e) ** 2 + y ** 2 - 1.0,
                            lambda x, y: (2.0 * x / (e * e), 2.0 * y)),)
    assert kind == "annulus", kind

    def dg_inner(x, y):
        r = math.hypot(x, y)
        return (-x / r, -y / r)

    def dg_outer(x, y):
        r = math.hypot(x, y)
        return (x / r, y / r)

    return (ScalarPiece(lambda x, y: e - math.hypot(x, y), dg_inner),
            ScalarPiece(lambda x, y: math.hypot(x, y) - 1.0, dg_outer))


def scalar_ray_intersection(piece: ScalarPiece, origin, through,
                            max_iter: int = 100) -> np.ndarray:
    """Intersection of one ray with one piece, nearest t = 1: safeguarded
    Newton with bisection fallback inside the sign-change subinterval of a
    33-point scan of the bracket nearest t = 1."""
    ox, oy = float(origin[0]), float(origin[1])
    dx, dy = float(through[0]) - ox, float(through[1]) - oy

    def gval(t):
        return piece.value(ox + t * dx, oy + t * dy)

    def gslope(t):
        gx, gy = piece.grad(ox + t * dx, oy + t * dy)
        return gx * dx + gy * dy

    t_lo, t_hi = DEFAULT_BRACKET
    samples = np.linspace(t_lo, t_hi, 33)
    values = [gval(t) for t in samples]
    best = None
    for k in range(len(samples) - 1):
        if values[k] == 0.0 or values[k] * values[k + 1] < 0.0:
            mid = 0.5 * (samples[k] + samples[k + 1])
            if best is None or abs(mid - 1.0) < abs(best[2] - 1.0):
                best = (samples[k], samples[k + 1], mid)
    if abs(values[-1]) <= DEFAULT_TOL and best is None:
        best = (samples[-2], samples[-1], samples[-1])
    if best is None:
        raise MeshAssumptionViolated(f"no sign change along ray {(ox, oy)}")

    lo, hi, _ = best
    glo = gval(lo)
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = gval(t)
        if abs(g) <= DEFAULT_TOL:
            return np.array([ox + t * dx, oy + t * dy])
        if glo * g < 0.0:
            hi = t
        else:
            lo, glo = t, g
        dgdt = gslope(t)
        if dgdt != 0.0:
            t_new = t - g / dgdt
            if lo < t_new < hi:
                t = t_new
                continue
        t = 0.5 * (lo + hi)
    raise NoConvergence(f"no root in {max_iter} iterations")
