"""Independent oracles the tests check the pipeline against.

``eval_uh`` evaluates a trial-space function at one point of one element,
from the standard basis and that element's coefficient map, where the
pipeline works on whole-mesh stacks at quadrature points. ``load_mesh``
reads back the text format of ``shiftfem.mesh.mesh_text``.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shiftfem.mesh import TriMesh, make_mesh
from shiftfem.spaces import (DofMap, LocalBases, barycentric_coords,
                             barycentric_gradients, eval_basis_bary,
                             eval_basis_bary_grad)


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


def load_mesh(path) -> TriMesh:
    """Read the text format of mesh_text and validate the mesh."""
    rows = [line.split() for line in Path(path).read_text().splitlines() if line.strip()]
    nv, nt, nb = (int(w) for w in rows[0])
    assert len(rows) == 1 + nv + nt + nb, f"{path}: line count disagrees with its header"
    verts = [[float(w) for w in row] for row in rows[1:1 + nv]]
    tris = [[int(w) for w in row] for row in rows[1 + nv:1 + nv + nt]]
    bedges = [(int(i1), int(i2), tag) for i1, i2, tag in rows[1 + nv + nt:]]
    return make_mesh(verts, tris, bedges)
