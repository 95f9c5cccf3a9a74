"""Triangle meshes: structured generators, classification, and a text dump.

Generators produce the structured polar meshes for the quarter-ellipse and
quarter-annulus domains and a diagonal-split unit-square mesh for polygon
runs. Boundary edges carry a tag: "D" for Dirichlet edges whose endpoints
lie on the true curved boundary, "S" for straight symmetry edges with a
natural boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParam, MeshAssumptionViolated
from .geometry import BoundaryGeometry
from .quadrature import triangle_area

TAG_DIRICHLET = "D"
TAG_SYMMETRY = "S"
INTERIOR = -1
# Vertices closer than this fraction of the bounding-box diameter coincide,
# and triangles with a smaller inradius are slivers.
MESH_REL_TOL = 1e-10
# A Dirichlet edge endpoint with a larger |g| is off the curved boundary.
BOUNDARY_TOL = 1e-10

BoundaryEdge = tuple[int, int, str]


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    Edges are numbered once, by :func:`make_mesh`: ``edge_of`` (T, 3) holds
    the numbers of edges (i, j), (j, k), (k, i) of every triangle (i, j, k),
    and ``boundary_edge_ids`` (B,) the number of each of ``boundary_edges``.
    ``element_class`` is filled by :func:`classify_elements`: entry t is
    ``INTERIOR`` or the index into ``boundary_edges`` of the single
    Dirichlet edge of triangle t.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: tuple[BoundaryEdge, ...]
    h_per_element: np.ndarray
    rho_per_element: np.ndarray
    edge_of: np.ndarray
    boundary_edge_ids: np.ndarray
    element_class: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


def _edge_codes(triangles: np.ndarray, nv: int) -> np.ndarray:
    """(T, 3) codes lo * nv + hi of the sorted vertex pairs of edges
    (i, j), (j, k), (k, i) of every triangle; equal codes, same edge."""
    ends = np.sort(np.stack((triangles, np.roll(triangles, -1, axis=1)), axis=-1), axis=-1)
    return ends[..., 0] * max(nv, 1) + ends[..., 1]


def _coincident_vertices(verts: np.ndarray, tol: float) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of vertices sharing a cell of side 2 tol
    in one of four grids offset by half a cell in x, y or both, or None.

    Every pair at most tol apart shares a cell; none more than 3 tol apart can.
    """
    pairs = []
    for shift in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        cell = np.floor((verts - verts.min(axis=0)) / (2.0 * tol or 1.0) + shift).astype(np.int64)
        order = np.lexsort((cell[:, 1], cell[:, 0]))
        same = np.flatnonzero(np.all(cell[order[1:]] == cell[order[:-1]], axis=1))
        pairs.append(np.sort(np.stack((order[same], order[same + 1]), axis=1), axis=1))
    pairs = np.concatenate(pairs)
    return tuple(pairs[np.lexsort(pairs.T[::-1])[0]].tolist()) if len(pairs) else None


def make_mesh(vertices, triangles, boundary_edges) -> TriMesh:
    """Validate raw arrays and build a TriMesh with per-element h and rho.

    Raises InvalidParam on non-finite coordinates, inverted/degenerate
    triangles, out-of-range indices, nonconforming edges (shared by more
    than two triangles), sliver triangles, coincident vertices, boundary
    listings that are not (i, j, tag) triples, bad tags, boundary edges
    that are not edges of exactly one triangle, or a boundary
    edge listed twice (in either orientation, with any tags). Slivers
    (inradius) and coincident vertices (distance) are measured against
    MESH_REL_TOL times the bounding-box diameter, so the check does not
    depend on the domain scale; it keeps a duplicated vertex from cracking
    the mesh, since dofs are numbered from vertex ids. Each error names the
    first offender in element (or vertex, or boundary-edge) order.
    """
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=int)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise InvalidParam("vertices must be an (n, 2) array")
    if not np.all(np.isfinite(verts)):
        raise InvalidParam("vertex coordinates must be finite")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise InvalidParam("triangles must be an (n, 3) array")
    if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
        raise InvalidParam("triangle vertex index out of range")

    area = triangle_area(verts[tris])
    p0, p1, p2 = (verts[tris[:, m]] for m in range(3))
    nv = max(len(verts), 1)
    codes = _edge_codes(tris, nv).ravel()
    by_code = np.argsort(codes, kind="stable")
    third = np.sort(by_code[2:][codes[by_code[2:]] == codes[by_code[:-2]]])
    bad_area = np.flatnonzero(area <= 0.0)
    if len(bad_area) and not (len(third) and third[0] // 3 < bad_area[0]):
        t = bad_area[0]
        raise InvalidParam(f"triangle {t} is degenerate or clockwise (signed area {area[t]})")
    if len(third):
        lo, hi = divmod(int(codes[third[0]]), nv)
        raise InvalidParam(f"edge {(lo, hi)} shared by more than two triangles")

    d = np.stack((p1 - p2, p2 - p0, p0 - p1))
    a, b, c = np.sqrt(np.vecdot(d, d))
    h = np.maximum(np.maximum(a, b), c)
    rho = area / (0.5 * (a + b + c))

    tol = MESH_REL_TOL * float(np.hypot(*np.ptp(verts, axis=0))) if len(verts) else 0.0
    sliver = np.flatnonzero(rho <= tol)
    if len(sliver):
        t = sliver[0]
        raise InvalidParam(f"triangle {t} is a sliver: inradius {rho[t]:.3e} <= {tol:.3e} "
                           f"({MESH_REL_TOL:.0e} of the mesh diameter)")
    pair = _coincident_vertices(verts, tol) if len(verts) else None
    if pair is not None:
        raise InvalidParam(f"vertices {pair[0]} and {pair[1]} coincide within {tol:.3e} "
                           f"({MESH_REL_TOL:.0e} of the mesh diameter)")

    bedges = tuple(_edge_triple(n, edge) for n, edge in enumerate(boundary_edges))
    lo, hi = np.sort(np.array([e[:2] for e in bedges], dtype=int).reshape(-1, 2), axis=1).T
    # edge numbers: the ranks of the distinct codes
    uniq, edge_of, counts = np.unique(codes, return_inverse=True, return_counts=True)
    bcodes = lo * nv + hi
    bids = np.searchsorted(uniq, bcodes)
    # the codes of edges of exactly one triangle, -1 for the rest and past the end
    once = np.append(np.where(counts == 1, uniq, -1), -1)
    single = (lo >= 0) & (hi < len(verts)) & (once[bids] == bcodes)
    bad_tag = np.array([e[2] not in (TAG_DIRICHLET, TAG_SYMMETRY) for e in bedges], dtype=bool)
    bad = np.flatnonzero(bad_tag | ~single)
    if len(bad):
        i1, i2, tag = bedges[bad[0]]
        if bad_tag[bad[0]]:
            raise InvalidParam(f"unknown boundary tag {tag!r}")
        raise InvalidParam(f"boundary edge ({i1}, {i2}) is not an edge of exactly one triangle")
    order = np.argsort(bids, kind="stable")
    again = np.flatnonzero(bids[order[1:]] == bids[order[:-1]])
    if len(again):
        n = again[np.argmin(order[again + 1])]
        first, second = order[n], order[n + 1]
        raise InvalidParam(f"boundary edge {bedges[second]} (listing {second}) repeats "
                           f"{bedges[first]} (listing {first})")
    return TriMesh(verts, tris, bedges, h, rho, edge_of.reshape(-1, 3), bids)


def _edge_triple(n: int, edge) -> BoundaryEdge:
    try:
        i1, i2, tag = edge
        return int(i1), int(i2), tag
    except (TypeError, ValueError):
        raise InvalidParam(f"boundary edge {edge!r} (listing {n}) is not "
                           "an (i, j, tag) triple") from None


def _split_cells(ids: np.ndarray) -> np.ndarray:
    """Triangles (a, b, c) and (a, c, d) of every cell of the vertex-id grid
    ``ids[j, i]``, with a = (i, j), b = (i+1, j), c = (i+1, j+1) and
    d = (i, j+1); cells run row by row, i fastest."""
    a, b, c, d = ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]
    return np.stack((np.stack((a, b, c), axis=-1), np.stack((a, c, d), axis=-1)),
                    axis=2).reshape(-1, 3)


def _chain_edges(tag: str, *chains: np.ndarray) -> list[BoundaryEdge]:
    """Edges (p[n], p[n+1], tag) along vertex-id chains of equal length,
    taking the n-th edge of every chain in turn."""
    pairs = np.stack([np.stack((p[:-1], p[1:]), axis=-1) for p in chains], axis=1)
    return [(a, b, tag) for a, b in pairs.reshape(-1, 2).tolist()]


def _polar_grid_mesh(I: int, r: np.ndarray, scale: float) -> TriMesh:
    """Mesh of the quarter region r[0] <= r <= r[-1], 0 <= theta <= pi/2,
    mapped through (scale r cos(theta), r sin(theta)).

    Vertex (i, j) sits at theta_i = (pi/2) i/I on ring r[j], numbered ring by
    ring, i fastest. Each parameter cell is split by the diagonal from
    (i, j) to (i+1, j+1); the map turns the grid over, so in
    :func:`_split_cells`' names the counterclockwise triangles are (a, c, b)
    and (a, d, c). If r[0] = 0 the ring collapses to the origin, vertex 0,
    and its cells to a fan of single triangles (d, c, a). The rings other
    than the origin are tagged "D", the straight sides "S".
    """
    J = len(r) - 1
    cos_t = np.cos(0.5 * math.pi * np.arange(I + 1) / I)
    sin_t = np.sin(0.5 * math.pi * np.arange(I + 1) / I)
    cos_t[0], sin_t[0] = 1.0, 0.0
    cos_t[I], sin_t[I] = 0.0, 1.0

    verts = np.stack((((scale * r)[:, None] * cos_t).ravel(),
                      (r[:, None] * sin_t).ravel()), axis=-1)
    ids = np.arange((J + 1) * (I + 1)).reshape(J + 1, I + 1)
    if r[0] == 0.0:
        # keep the last copy of the origin, which becomes vertex 0
        verts, ids = verts[I:], np.maximum(ids - I, 0)
        fan = np.stack((ids[1, :-1], ids[1, 1:], ids[0, :-1]), axis=-1)
        tris = np.concatenate((fan, _split_cells(ids[1:])[:, [0, 2, 1]]))
        rings = ids[[J]]
    else:
        tris = _split_cells(ids)[:, [0, 2, 1]]
        rings = ids[[0, J]]
    bedges = (_chain_edges(TAG_DIRICHLET, *rings)
              + _chain_edges(TAG_SYMMETRY, ids[:, 0], ids[:, I]))
    return make_mesh(verts, tris, bedges)


def gen_quarter_ellipse_mesh(J: int, e: float) -> TriMesh:
    """Structured mesh of the quarter ellipse (x/e)^2 + y^2 <= 1, x, y >= 0.

    The polar grid r_j = j/J, theta_i = (pi/2) i/J through
    (e r cos(theta), r sin(theta)), its ring j=0 collapsed to the origin.
    The arc r=1 is tagged "D", the two straight sides "S".
    """
    if J < 1:
        raise InvalidParam(f"J must be >= 1, got {J}")
    if not 0.0 < e < math.inf:
        raise InvalidParam(f"semi-axis e must be positive and finite, got {e}")
    return _polar_grid_mesh(J, np.arange(J + 1) / J, e)


def gen_quarter_annulus_mesh(I: int, J: int, e: float) -> TriMesh:
    """Structured mesh of the quarter annulus e <= r <= 1, 0 <= theta <= pi/2.

    The polar grid of I angular by J radial cells, r_j = e + (1-e) j/J.
    Both circular rings are tagged "D", the straight sides "S".
    """
    if I < 1 or J < 1:
        raise InvalidParam(f"I, J must be >= 1, got I={I}, J={J}")
    if not 0.0 < e < 1.0:
        raise InvalidParam(f"inner radius e must lie in (0, 1), got {e}")
    return _polar_grid_mesh(I, e + ((1.0 - e) * np.arange(J + 1)) / J, 1.0)


def gen_unit_square_mesh(J: int) -> TriMesh:
    """Uniform J x J diagonal-split mesh of the unit square, all edges "D"."""
    if J < 1:
        raise InvalidParam(f"J must be >= 1, got {J}")

    ids = np.arange((J + 1) ** 2).reshape(J + 1, J + 1)
    grid = np.arange(J + 1) / J
    verts = np.stack((np.tile(grid, J + 1), np.repeat(grid, J + 1)), axis=-1)
    bedges = _chain_edges(TAG_DIRICHLET, ids[0], ids[J], ids[:, 0], ids[:, J])
    return make_mesh(verts, _split_cells(ids), bedges)


def dirichlet_edges(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Indices into ``boundary_edges`` of the "D" edges, and their (n, 2) ends."""
    idx = [n for n, e in enumerate(mesh.boundary_edges) if e[2] == TAG_DIRICHLET]
    ends = [mesh.boundary_edges[n][:2] for n in idx]
    return np.array(idx, dtype=int), np.array(ends, dtype=int).reshape(-1, 2)


def classify_elements(mesh: TriMesh, geom: BoundaryGeometry) -> TriMesh:
    """Fill element_class: each triangle is interior or owns one "D" edge.

    A geometry with no curved pieces leaves every element interior (the mesh
    boundary is the true boundary, nothing is shifted). Otherwise every "D"
    edge endpoint must lie on the boundary within BOUNDARY_TOL, both ends of
    a "D" edge on the same piece, and no triangle may own more than one "D"
    edge; violations raise MeshAssumptionViolated, naming the first
    offending endpoint or edge in boundary-edge order, else the first
    offending triangle. One array pass: the "D" edges reach their triangles
    through the mesh's edge numbers.
    """
    classes = np.full(mesh.num_triangles, INTERIOR, dtype=int)
    if geom.fields is None:
        return replace(mesh, element_class=classes)

    owner, ends = dirichlet_edges(mesh)
    pts = mesh.vertices[ends.ravel()]
    fields = np.asarray(geom.fields(pts[:, 0], pts[:, 1]))
    g = np.abs(fields.max(axis=0))
    off = np.flatnonzero(g > BOUNDARY_TOL)
    if len(off):
        (i1, i2), v = ends[off[0] // 2], ends.flat[off[0]]
        raise MeshAssumptionViolated(
            f"Dirichlet edge ({i1}, {i2}) endpoint {v} is off the "
            f"boundary: |g| = {g[off[0]]:.3e} > {BOUNDARY_TOL}")
    on_piece = (np.abs(fields) <= BOUNDARY_TOL).reshape(len(fields), -1, 2).all(axis=2)
    split = np.flatnonzero(~on_piece.any(axis=0))
    if len(split):
        i1, i2 = ends[split[0]]
        raise MeshAssumptionViolated(f"Dirichlet edge ({i1}, {i2}) joins two boundary pieces")
    if not len(owner):
        return replace(mesh, element_class=classes)

    by_edge = np.full(mesh.edge_of.max() + 1, INTERIOR)
    by_edge[mesh.boundary_edge_ids[owner]] = owner
    hit = by_edge[mesh.edge_of]
    count = (hit != INTERIOR).sum(axis=1)
    multi = np.flatnonzero(count > 1)
    if len(multi):
        t = multi[0]
        raise MeshAssumptionViolated(
            f"triangle {t} has {count[t]} Dirichlet edges; at most one is allowed")
    return replace(mesh, element_class=hit.max(axis=1, initial=INTERIOR))


def mesh_text(mesh: TriMesh) -> str:
    """The text format: `nv nt nb`, coordinates, triangles, tagged edges.

    Coordinates use shortest round-trip decimal formatting, so parsing them
    as floats reproduces them bit-exactly.
    """
    lines = [f"{mesh.num_vertices} {mesh.num_triangles} {len(mesh.boundary_edges)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for i1, i2, tag in mesh.boundary_edges:
        lines.append(f"{i1} {i2} {tag}")
    return "\n".join(lines) + "\n"

