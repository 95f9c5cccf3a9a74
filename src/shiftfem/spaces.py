"""Trial and test spaces: Lagrange layouts, shifted nodes, local bases, dofs.

The test space is the standard continuous degree-k Lagrange space on the
straight mesh. The trial space relocates the interior Lagrange nodes of each
curved Dirichlet edge onto the true boundary along rays from the opposite
vertex; its local basis is dual to the relocated node set and is obtained by
inverting the small evaluation matrix of the reference basis at those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InconsistentDof, MeshAssumptionViolated,
                     NoConvergence, SingularLocalSystem, UnsupportedDegree)
from .geometry import BoundaryGeometry, ray_boundary_intersection
from .mesh import INTERIOR, TriMesh, dirichlet_edges
from .quadrature import triangle_area

SUPPORTED_DEGREES = (2, 3)
COND_LIMIT = 1e12


def _multi_indices(k: int) -> np.ndarray:
    """Principal-lattice multi-indices, ordered vertices, edges, interior.

    Edge m runs from local vertex m to vertex (m+1) % 3 and carries k-1
    interior nodes ordered along that direction.
    """
    if k not in SUPPORTED_DEGREES:
        raise UnsupportedDegree(f"degree {k} not supported; choose from {SUPPORTED_DEGREES}")
    idx = [(k, 0, 0), (0, k, 0), (0, 0, k)]
    for t in range(1, k):
        idx.append((k - t, t, 0))
    for t in range(1, k):
        idx.append((0, k - t, t))
    for t in range(1, k):
        idx.append((t, 0, k - t))
    for a in range(1, k):
        for b in range(1, k - a):
            idx.append((a, b, k - a - b))
    return np.array(idx, dtype=int)


def edge_interior_locals(k: int, m) -> np.ndarray:
    """Local indices (..., k-1) of the interior nodes of edges m, in edge order."""
    return 3 + np.asarray(m)[..., None] * (k - 1) + np.arange(k - 1)


def lagrange_layout(k: int, tri: np.ndarray) -> np.ndarray:
    """Physical positions (..., n_k, 2) of the principal-lattice nodes of
    a (..., 3, 2) stack of triangles."""
    tri = np.asarray(tri, dtype=float)
    return _multi_indices(k) @ tri / k


def barycentric_coords(tri: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (..., n, 3) of pts (..., n, 2) w.r.t.
    (..., 3, 2) triangles.

    Points outside the triangle yield coordinates outside [0, 1]; the affine
    map is total, supporting polynomial extension beyond the element.
    """
    tri = np.asarray(tri, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    mat = np.stack((tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :]), axis=-1)
    lam12 = np.linalg.solve(mat, np.swapaxes(pts - tri[..., :1, :], -1, -2))
    lam12 = np.swapaxes(lam12, -1, -2)
    return np.concatenate((1.0 - lam12.sum(axis=-1, keepdims=True), lam12), axis=-1)


def barycentric_gradients(tri: np.ndarray) -> np.ndarray:
    """(..., 3, 2) constant physical gradients of the barycentrics of
    a (..., 3, 2) stack of triangles."""
    tri = np.asarray(tri, dtype=float)
    # grad lambda_i is the opposite edge p_{i+2} - p_{i+1} turned a quarter
    # turn counterclockwise, over twice the signed area
    e = np.roll(tri, -2, axis=-2) - np.roll(tri, -1, axis=-2)
    return np.stack((-e[..., 1], e[..., 0]), axis=-1) / (2.0 * triangle_area(tri))[..., None, None]


def eval_basis_bary(k: int, lam: np.ndarray) -> np.ndarray:
    """Reference Lagrange basis values at barycentric points (..., n, 3): (..., n, n_k)."""
    lam = np.atleast_2d(lam)
    out = np.empty(lam.shape[:-1] + (len(_multi_indices(k)),))
    for j, abc in enumerate(_multi_indices(k)):
        val = np.ones(lam.shape[:-1])
        for m in range(3):
            for i in range(abc[m]):
                val = val * (k * lam[..., m] - i) / (abc[m] - i)
        out[..., j] = val
    return out


def eval_basis_bary_grad(k: int, lam: np.ndarray) -> np.ndarray:
    """Derivatives of the reference basis w.r.t. barycentrics: (n, n_k, 3)."""
    lam = np.atleast_2d(lam)
    n = len(lam)
    indices = _multi_indices(k)
    out = np.empty((n, len(indices), 3))
    for j, abc in enumerate(indices):
        factors = []
        dfactors = []
        for m in range(3):
            f = np.ones(n)
            df = np.zeros(n)
            for i in range(abc[m]):
                scale = k * lam[:, m] - i
                df = df * scale / (abc[m] - i) + f * k / (abc[m] - i)
                f = f * scale / (abc[m] - i)
            factors.append(f)
            dfactors.append(df)
        out[:, j, 0] = dfactors[0] * factors[1] * factors[2]
        out[:, j, 1] = factors[0] * dfactors[1] * factors[2]
        out[:, j, 2] = factors[0] * factors[1] * dfactors[2]
    return out


@dataclass(frozen=True)
class LocalBases:
    """Stacked basis data of the degree-``k`` trial space on T elements.

    ``nodes`` (T, n_k, 2) are the node layouts. ``shifted`` lists, sorted,
    the elements owning a Dirichlet edge; ``coeffs[i]`` maps nodal values at
    ``nodes[shifted[i]]`` to reference-basis coefficients, and every other
    element's map is the identity. ``moved`` (S, n_k) marks the locals of
    ``shifted[i]`` whose node left its lattice position; ``coeffs[i]`` equals
    the identity up to rounding outside those rows. ``kt_deviation`` (S,) is
    the max departure of the node-evaluation matrix of ``shifted[i]`` from the
    identity.
    """

    k: int
    nodes: np.ndarray
    shifted: np.ndarray
    coeffs: np.ndarray
    moved: np.ndarray
    kt_deviation: np.ndarray


def _shifted_elements(mesh: TriMesh) -> np.ndarray:
    if mesh.element_class is None:
        raise MeshAssumptionViolated("mesh has not been classified")
    return np.flatnonzero(mesh.element_class != INTERIOR)


def element_node_layouts(mesh: TriMesh, geom: BoundaryGeometry, k: int) -> np.ndarray:
    """(n_elements, n_k, 2) node positions, shifted on boundary elements.

    Every element gets the plain lattice layout. On an element owning a
    Dirichlet edge m, each of the edge's k-1 interior nodes then moves onto
    the curved piece through the edge's ends (the piece with the smallest
    max |g| over them), along the ray from the opposite vertex; one solve
    casts every ray. A geometry with no curved pieces moves nothing. A ray
    failure (a miss means the element is too coarse for the curve) is
    re-raised naming the element and its local edge.
    """
    shifted = _shifted_elements(mesh)
    tris = mesh.vertices[mesh.triangles]
    layouts = lagrange_layout(k, tris)
    if geom.fields is None:
        return layouts
    # the local edge whose number is that of the element's Dirichlet edge
    dirichlet = mesh.boundary_edge_ids[mesh.element_class[shifted]]
    edges = np.argmax(mesh.edge_of[shifted] == dirichlet[:, None], axis=1)
    ends = tris[shifted[:, None], (edges[:, None] + [0, 1]) % 3]
    # each edge's piece: the one with the smallest max |g| over the edge's ends
    pieces = np.argmin(np.abs(geom.fields(ends[..., 0], ends[..., 1])).max(axis=-1), axis=0)
    locs = edge_interior_locals(k, edges)
    opposite = np.repeat(tris[shifted, (edges + 2) % 3], k - 1, axis=0)
    try:
        moved = ray_boundary_intersection(geom, np.repeat(pieces, k - 1), opposite,
                                          layouts[shifted[:, None], locs])
    except (MeshAssumptionViolated, NoConvergence) as exc:
        i = exc.ray // (k - 1)
        raise type(exc)(f"node layouts: element {shifted[i]}, edge {edges[i]}: {exc}") from exc
    layouts[shifted[:, None], locs] = moved.reshape(-1, k - 1, 2)
    return layouts


def build_local_bases(mesh: TriMesh, k: int, layouts: np.ndarray) -> LocalBases:
    """Invert the node-evaluation matrices of the elements owning a Dirichlet edge.

    Interior elements keep the unshifted layout and the identity map. On a
    shifted element the matrix is a small perturbation of the identity; a
    condition estimate beyond 1e12 signals the perturbation is too large
    (mesh too coarse) and names the first such element.
    """
    n_k = len(_multi_indices(k))
    layouts = np.asarray(layouts, dtype=float)
    if layouts.shape != (mesh.num_triangles, n_k, 2):
        raise InconsistentDof(f"expected layouts of shape "
                              f"{(mesh.num_triangles, n_k, 2)}, got {layouts.shape}")
    shifted = _shifted_elements(mesh)
    tris = mesh.vertices[mesh.triangles[shifted]]
    kt = eval_basis_bary(k, barycentric_coords(tris, layouts[shifted]))
    cond = np.linalg.cond(kt)
    bad = np.flatnonzero(~(np.isfinite(cond) & (cond <= COND_LIMIT)))
    if len(bad):
        raise SingularLocalSystem(
            f"node-evaluation matrix of element {int(shifted[bad[0]])} has condition "
            f"estimate {cond[bad[0]]:.3e} > {COND_LIMIT:.0e}")
    return LocalBases(k=k, nodes=layouts, shifted=shifted, coeffs=np.linalg.inv(kt),
                      moved=np.any(layouts[shifted] != lagrange_layout(k, tris), axis=-1),
                      kt_deviation=np.abs(kt - np.eye(n_k)).max(axis=(1, 2), initial=0.0))


@dataclass(frozen=True)
class DofMap:
    """Global node numbering with Dirichlet status.

    Coefficient vectors are full length (one entry per global node);
    ``unknown_index`` maps a global node to its row/column in the reduced
    linear system, -1 for Dirichlet nodes.
    """

    node_coords: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray
    element_to_global: np.ndarray
    unknown_index: np.ndarray
    n_unknowns: int


def full_vector(dirichlet_values: np.ndarray, dirichlet_mask: np.ndarray, n_unknowns: int,
                reduced: np.ndarray) -> np.ndarray:
    """A copy of ``dirichlet_values`` with the reduced unknown vector
    scattered into the nodes outside ``dirichlet_mask``."""
    if np.shape(reduced) != (n_unknowns,):
        raise DimensionMismatch(f"solution has shape {np.shape(reduced)}; "
                                f"expected ({n_unknowns},)")
    full = dirichlet_values.copy()
    full[~dirichlet_mask] = reduced
    return full


def build_dof_map(mesh: TriMesh, local_bases: LocalBases, dirichlet_data=None) -> DofMap:
    """Number the nodes of ``local_bases`` globally from the mesh topology;
    mark Dirichlet.

    Each node is owned by a mesh entity: a vertex (its id), an edge (its
    number ``mesh.edge_of`` and the node's position counted from the edge's
    lower vertex id), or a cell (its id and the interior index). Global numbers
    follow first appearance in element-major order, and ``node_coords`` are
    the ``local_bases.nodes`` at those first appearances, so the numbering
    needs no coordinate matching and no tolerance. A node is Dirichlet iff it
    lies on an edge tagged "D": the edge's two vertices and its k-1 edge nodes
    (curved-edge nodes are the relocated ones). Nodes of "S" edges stay
    unknowns. ``dirichlet_data``, if given, is called once with the x and y
    arrays of the Dirichlet nodes.
    """
    T, nv, per_edge = mesh.num_triangles, mesh.num_vertices, local_bases.k - 1
    per_cell = local_bases.nodes.shape[1] - 3 - 3 * per_edge

    # Edge m runs from local vertex m to m+1, so its t-th node (from 0) is at
    # position t from the lower vertex id if that is vertex m, else k-2-t.
    forward = mesh.triangles < np.roll(mesh.triangles, -1, axis=1)
    step = np.arange(per_edge)
    pos = np.where(forward[..., None], step, per_edge - 1 - step)
    keys = np.concatenate((
        mesh.triangles,
        (nv + mesh.edge_of[..., None] * per_edge + pos).reshape(T, -1),
        # 3T edge slots leave room for every edge number
        nv + 3 * T * per_edge + np.arange(T * per_cell).reshape(T, per_cell)), axis=1)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    elem_to_global = rank[inverse].reshape(T, -1)
    node_coords = local_bases.nodes.reshape(-1, 2)[first[order]]

    owner, ends = dirichlet_edges(mesh)
    edge = nv + mesh.boundary_edge_ids[owner][:, None] * per_edge + step
    dkeys = np.concatenate((ends.ravel(), edge.ravel()))
    mask = np.zeros(len(uniq), dtype=bool)
    mask[rank[np.searchsorted(uniq, dkeys)]] = True
    values = np.zeros(len(uniq))
    if dirichlet_data is not None:
        values[mask] = dirichlet_data(node_coords[mask, 0], node_coords[mask, 1])

    unknown_index = np.full(len(uniq), -1, dtype=int)
    unknown_index[~mask] = np.arange(int(np.sum(~mask)))
    return DofMap(node_coords=node_coords, dirichlet_mask=mask,
                  dirichlet_values=values, element_to_global=elem_to_global,
                  unknown_index=unknown_index, n_unknowns=int(np.sum(~mask)))


def check_compatible(mesh: TriMesh, dofmap: DofMap, local_bases: LocalBases) -> None:
    """Raise InconsistentDof unless the local bases cover every element of
    ``mesh`` with the dof map's local node count."""
    if len(local_bases.nodes) != mesh.num_triangles:
        raise InconsistentDof("one local basis per element required")
    if local_bases.nodes.shape[1] != dofmap.element_to_global.shape[1]:
        raise InconsistentDof("local basis size disagrees with dof map")
