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

from .errors import (DuplicateNodeCollision, InconsistentDof,
                     MeshAssumptionViolated, SingularLocalSystem,
                     UnsupportedDegree)
from .geometry import BoundaryGeometry, RayIntersectionQuery, ray_boundary_intersection
from .mesh import INTERIOR, TriMesh, _edge_key

SUPPORTED_DEGREES = (2, 3)
COND_LIMIT = 1e12
DEDUP_TOL = 1e-10
ON_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SpaceSpec:
    """Degree and local dimensions of the polynomial spaces."""

    k: int
    n_k: int
    m_k: int

    @classmethod
    def for_degree(cls, k: int) -> "SpaceSpec":
        if k not in SUPPORTED_DEGREES:
            raise UnsupportedDegree(f"degree {k} not supported; choose from {SUPPORTED_DEGREES}")
        n_k = (k + 2) * (k + 1) // 2
        m_k = (k + 1) * k // 2
        return cls(k=k, n_k=n_k, m_k=m_k)


def degree_of(n_local: int) -> int:
    """Degree of the Lagrange element with ``n_local`` nodes."""
    try:
        return {6: 2, 10: 3}[n_local]
    except KeyError:
        raise InconsistentDof(f"local node count {n_local} matches no degree") from None


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


def edge_interior_locals(k: int, m: int) -> list[int]:
    """Local indices of the k-1 interior nodes of edge m."""
    return [3 + m * (k - 1) + t for t in range(k - 1)]


def lagrange_layout(k: int, tri: np.ndarray) -> np.ndarray:
    """Physical positions of the n_k principal-lattice nodes of a triangle."""
    tri = np.asarray(tri, dtype=float)
    return _multi_indices(k) @ tri / k


def barycentric_coords(tri: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of pts (n, 2) w.r.t. a 3x2 triangle.

    Points outside the triangle yield coordinates outside [0, 1]; the affine
    map is total, supporting polynomial extension beyond the element.
    """
    tri = np.asarray(tri, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    mat = np.column_stack((tri[1] - tri[0], tri[2] - tri[0]))
    lam12 = np.linalg.solve(mat, (pts - tri[0]).T).T
    return np.column_stack((1.0 - lam12.sum(axis=1), lam12))


def barycentric_gradients(tri: np.ndarray) -> np.ndarray:
    """(3, 2) array of the constant physical gradients of the barycentrics."""
    (x0, y0), (x1, y1), (x2, y2) = np.asarray(tri, dtype=float)
    twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return np.array([[y1 - y2, x2 - x1],
                     [y2 - y0, x0 - x2],
                     [y0 - y1, x1 - x0]]) / twice_area


def eval_basis_bary(k: int, lam: np.ndarray) -> np.ndarray:
    """Reference Lagrange basis values at barycentric points: (n, n_k)."""
    lam = np.atleast_2d(lam)
    out = np.empty((len(lam), len(_multi_indices(k))))
    for j, abc in enumerate(_multi_indices(k)):
        val = np.ones(len(lam))
        for m in range(3):
            for i in range(abc[m]):
                val = val * (k * lam[:, m] - i) / (abc[m] - i)
        out[:, j] = val
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


def eval_basis_physical(k: int, tri: np.ndarray, pts: np.ndarray):
    """Standard basis values (n, n_k) and physical gradients (n, n_k, 2)."""
    lam = barycentric_coords(tri, pts)
    vals = eval_basis_bary(k, lam)
    dlam = eval_basis_bary_grad(k, lam)
    grads = np.einsum("njm,md->njd", dlam, barycentric_gradients(tri))
    return vals, grads


def shift_boundary_nodes(tri: np.ndarray, local_edge: int,
                         geom: BoundaryGeometry, k: int) -> np.ndarray:
    """Node layout with the curved edge's interior nodes moved onto the boundary.

    ``local_edge`` is the local index of the Dirichlet edge; the ray origin
    is the opposite vertex. Polygon geometry returns the plain layout.
    """
    tri = np.asarray(tri, dtype=float)
    nodes = lagrange_layout(k, tri)
    if geom.kind == "polygon":
        return nodes
    a, b = tri[local_edge], tri[(local_edge + 1) % 3]
    origin = tri[(local_edge + 2) % 3]
    piece = geom.piece_for_edge(a, b)
    for loc in edge_interior_locals(k, local_edge):
        q = RayIntersectionQuery(origin=tuple(origin), through=tuple(nodes[loc]))
        nodes[loc] = ray_boundary_intersection(geom, q, piece=piece)
    return nodes


@dataclass(frozen=True)
class LocalBasis:
    """Per-element basis data.

    ``coeffs`` maps nodal values at ``nodes`` to coefficients in the
    reference Lagrange basis (the identity for interior elements);
    ``kt_deviation`` is the max departure of the node-evaluation matrix
    from the identity.
    """

    element_id: int
    nodes: np.ndarray
    coeffs: np.ndarray
    kt_deviation: float

    @property
    def tri(self) -> np.ndarray:
        return self.nodes[:3]


def build_local_basis(tri: np.ndarray, k: int, nodes: np.ndarray | None = None,
                      element_id: int = -1) -> LocalBasis:
    """Invert the node-evaluation matrix to get the modified nodal basis.

    With unshifted nodes the matrix is the identity and is returned exactly;
    shifted nodes give a small perturbation of it. A condition estimate
    beyond 1e12 signals the perturbation is too large (mesh too coarse).
    """
    spec = SpaceSpec.for_degree(k)
    tri = np.asarray(tri, dtype=float)
    if nodes is None:
        return LocalBasis(element_id=element_id, nodes=lagrange_layout(k, tri),
                          coeffs=np.eye(spec.n_k), kt_deviation=0.0)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.shape != (spec.n_k, 2):
        raise InconsistentDof(f"expected {spec.n_k} nodes, got {nodes.shape}")
    kt = eval_basis_bary(k, barycentric_coords(tri, nodes))
    cond = np.linalg.cond(kt)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularLocalSystem(
            f"node-evaluation matrix of element {element_id} has condition "
            f"estimate {cond:.3e} > {COND_LIMIT:.0e}")
    coeffs = np.linalg.inv(kt)
    kt_deviation = float(np.max(np.abs(kt - np.eye(spec.n_k))))
    return LocalBasis(element_id=element_id, nodes=nodes, coeffs=coeffs,
                      kt_deviation=kt_deviation)


def _local_dirichlet_edge(mesh: TriMesh, t: int) -> int | None:
    """Local edge index (0..2) of triangle t's Dirichlet edge, if any."""
    edge = mesh.dirichlet_edge_of(t)
    if edge is None:
        return None
    want = _edge_key(edge[0], edge[1])
    tri = mesh.triangles[t]
    for m in range(3):
        if _edge_key(tri[m], tri[(m + 1) % 3]) == want:
            return m
    raise InconsistentDof(
        f"Dirichlet edge {edge[:2]} is not an edge of triangle {t}")


def element_node_layouts(mesh: TriMesh, geom: BoundaryGeometry, k: int) -> np.ndarray:
    """(n_elements, n_k, 2) node positions, shifted on boundary elements."""
    spec = SpaceSpec.for_degree(k)
    if mesh.element_class is None:
        raise MeshAssumptionViolated("mesh has not been classified")
    layouts = np.empty((mesh.num_triangles, spec.n_k, 2))
    for t in range(mesh.num_triangles):
        m = _local_dirichlet_edge(mesh, t)
        if m is None:
            layouts[t] = lagrange_layout(k, mesh.triangle_coords(t))
        else:
            layouts[t] = shift_boundary_nodes(mesh.triangle_coords(t), m, geom, k)
    return layouts


def build_local_bases(mesh: TriMesh, k: int,
                      layouts: np.ndarray | None = None,
                      geom: BoundaryGeometry | None = None) -> list[LocalBasis]:
    """LocalBasis per element; identity for interior, inverted system else."""
    if layouts is None:
        if geom is None:
            raise InconsistentDof("need either precomputed layouts or geometry")
        layouts = element_node_layouts(mesh, geom, k)
    bases = []
    for t in range(mesh.num_triangles):
        tri = mesh.triangle_coords(t)
        if mesh.element_class[t] == INTERIOR:
            bases.append(build_local_basis(tri, k, element_id=t))
        else:
            bases.append(build_local_basis(tri, k, nodes=layouts[t], element_id=t))
    return bases


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

    @property
    def n_nodes(self) -> int:
        return len(self.node_coords)

    def full_vector(self, reduced: np.ndarray) -> np.ndarray:
        """Scatter a reduced unknown vector into a full nodal vector with
        Dirichlet values filled in."""
        full = self.dirichlet_values.copy()
        full[~self.dirichlet_mask] = reduced
        return full


def _expected_node_count(mesh: TriMesh, k: int) -> int:
    edges = set()
    for i, j, l in mesh.triangles:
        edges.update((_edge_key(i, j), _edge_key(j, l), _edge_key(l, i)))
    per_interior = {2: 0, 3: 1}[k]
    return (mesh.num_vertices + len(edges) * (k - 1)
            + mesh.num_triangles * per_interior)


def build_dof_map(mesh: TriMesh, geom: BoundaryGeometry, k: int,
                  dirichlet_data=None,
                  layouts: np.ndarray | None = None) -> DofMap:
    """Deduplicate element nodes into a global numbering and mark Dirichlet.

    A node is Dirichlet iff it lies on the true boundary (within 1e-9);
    that covers curved-edge endpoints, relocated edge nodes, and polygon
    boundary-edge nodes, and leaves symmetry-edge nodes unknown. Nodes
    closer than 1e-10 are merged; a merge count differing from the
    combinatorial expectation raises DuplicateNodeCollision.
    """
    spec = SpaceSpec.for_degree(k)
    if layouts is None:
        layouts = element_node_layouts(mesh, geom, k)

    cell = 1e-6
    buckets: dict[tuple[int, int], list[int]] = {}
    coords: list[np.ndarray] = []
    elem_to_global = np.empty((mesh.num_triangles, spec.n_k), dtype=int)
    for t in range(mesh.num_triangles):
        for loc in range(spec.n_k):
            p = layouts[t, loc]
            cx, cy = int(np.floor(p[0] / cell)), int(np.floor(p[1] / cell))
            found = -1
            for nx in (cx - 1, cx, cx + 1):
                for ny in (cy - 1, cy, cy + 1):
                    for idx in buckets.get((nx, ny), ()):
                        d = coords[idx] - p
                        if d[0] * d[0] + d[1] * d[1] <= DEDUP_TOL * DEDUP_TOL:
                            found = idx
                            break
                    if found >= 0:
                        break
                if found >= 0:
                    break
            if found < 0:
                found = len(coords)
                coords.append(p.copy())
                buckets.setdefault((cx, cy), []).append(found)
            elem_to_global[t, loc] = found

    expected = _expected_node_count(mesh, k)
    if len(coords) < expected:
        raise DuplicateNodeCollision(
            f"{expected - len(coords)} logically distinct nodes merged within "
            f"{DEDUP_TOL}; the mesh is too distorted for this degree")
    if len(coords) > expected:
        raise InconsistentDof(
            f"node dedup produced {len(coords)} nodes, expected {expected}; "
            f"shared-edge nodes did not match across elements")

    node_coords = np.array(coords)
    gvals = geom.value_many(node_coords)
    mask = np.abs(gvals) <= ON_BOUNDARY_TOL
    values = np.zeros(len(node_coords))
    if dirichlet_data is not None:
        for i in np.nonzero(mask)[0]:
            values[i] = dirichlet_data(node_coords[i, 0], node_coords[i, 1])

    unknown_index = np.full(len(node_coords), -1, dtype=int)
    unknown_index[~mask] = np.arange(int(np.sum(~mask)))
    return DofMap(node_coords=node_coords, dirichlet_mask=mask,
                  dirichlet_values=values, element_to_global=elem_to_global,
                  unknown_index=unknown_index, n_unknowns=int(np.sum(~mask)))


@dataclass(frozen=True)
class EvalResult:
    value: float
    gradient: np.ndarray


def eval_uh(dofmap: DofMap, local_bases: list[LocalBasis],
            coefficients: np.ndarray, element_id: int, p) -> EvalResult:
    """Evaluate the trial-space function given by full nodal coefficients.

    Valid anywhere the element's polynomial extension is wanted, including
    the skin beyond a curved edge.
    """
    lb = local_bases[element_id]
    c_local = coefficients[dofmap.element_to_global[element_id]]
    a = lb.coeffs @ c_local
    k = degree_of(len(lb.nodes))
    vals, grads = eval_basis_physical(k, lb.tri, np.asarray(p, dtype=float))
    return EvalResult(value=float(vals[0] @ a), gradient=grads[0].T @ a)
