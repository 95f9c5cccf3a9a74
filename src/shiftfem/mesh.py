"""Triangle meshes: structured generators, classification, stats, file IO.

Generators produce the structured polar meshes for the quarter-ellipse and
quarter-annulus domains and a diagonal-split unit-square mesh for polygon
runs. Boundary edges carry a tag: "D" for Dirichlet edges whose endpoints
lie on the true curved boundary, "S" for straight symmetry edges with a
natural boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidParam, MeshAssumptionViolated
from .geometry import BoundaryGeometry

TAG_DIRICHLET = "D"
TAG_SYMMETRY = "S"
INTERIOR = -1

BoundaryEdge = tuple[int, int, str]


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    ``element_class`` is filled by :func:`classify_elements`: entry t is
    ``INTERIOR`` or the index into ``boundary_edges`` of the single
    Dirichlet edge of triangle t.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: tuple[BoundaryEdge, ...]
    h_per_element: np.ndarray
    rho_per_element: np.ndarray
    element_class: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def triangle_coords(self, t: int) -> np.ndarray:
        """3x2 vertex coordinate array of triangle t."""
        return self.vertices[self.triangles[t]]

    def dirichlet_edge_of(self, t: int) -> BoundaryEdge | None:
        """The Dirichlet edge of triangle t, or None for interior elements."""
        if self.element_class is None:
            raise MeshAssumptionViolated("mesh has not been classified")
        idx = int(self.element_class[t])
        return None if idx == INTERIOR else self.boundary_edges[idx]


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _signed_area(p0, p1, p2):
    return 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1])
                  - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def make_mesh(vertices, triangles, boundary_edges) -> TriMesh:
    """Validate raw arrays and build a TriMesh with per-element h and rho.

    Raises InvalidParam on inverted/degenerate triangles, out-of-range
    indices, nonconforming edges (shared by more than two triangles), bad
    tags, or boundary edges that are not edges of exactly one triangle. Each
    error names the first offender in element (or boundary-edge) order.
    """
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=int)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise InvalidParam("vertices must be an (n, 2) array")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise InvalidParam("triangles must be an (n, 3) array")
    if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
        raise InvalidParam("triangle vertex index out of range")

    p0, p1, p2 = (verts[tris[:, m]] for m in range(3))
    area = _signed_area(p0.T, p1.T, p2.T)
    # Edges (i, j), (j, k), (k, i) of every triangle in element order, as
    # sorted vertex pairs encoded lo * nv + hi.
    nv = max(len(verts), 1)
    ends = np.sort(np.stack((tris, np.roll(tris, -1, axis=1)), axis=-1), axis=-1).reshape(-1, 2)
    codes = ends[:, 0] * nv + ends[:, 1]
    by_code = np.argsort(codes, kind="stable")
    third = np.sort(by_code[2:][codes[by_code[2:]] == codes[by_code[:-2]]])
    bad_area = np.flatnonzero(area <= 0.0)
    if len(bad_area) and not (len(third) and third[0] // 3 < bad_area[0]):
        t = bad_area[0]
        raise InvalidParam(f"triangle {t} is degenerate or clockwise (signed area {area[t]})")
    if len(third):
        raise InvalidParam(f"edge {tuple(ends[third[0]].tolist())} shared by more than two triangles")

    d = np.stack((p1 - p2, p2 - p0, p0 - p1))
    a, b, c = np.sqrt(np.vecdot(d, d))
    h = np.maximum(np.maximum(a, b), c)
    rho = area / (0.5 * (a + b + c))

    bedges = tuple((int(i1), int(i2), tag) for i1, i2, tag in boundary_edges)
    lo, hi = np.sort(np.array([e[:2] for e in bedges], dtype=int).reshape(-1, 2), axis=1).T
    uniq, counts = np.unique(codes, return_counts=True)
    single = (lo >= 0) & (hi < len(verts)) & np.isin(lo * nv + hi, uniq[counts == 1])
    bad_tag = np.array([e[2] not in (TAG_DIRICHLET, TAG_SYMMETRY) for e in bedges], dtype=bool)
    bad = np.flatnonzero(bad_tag | ~single)
    if len(bad):
        i1, i2, tag = bedges[bad[0]]
        if bad_tag[bad[0]]:
            raise InvalidParam(f"unknown boundary tag {tag!r}")
        raise InvalidParam(f"boundary edge ({i1}, {i2}) is not an edge of exactly one triangle")
    return TriMesh(verts, tris, bedges, h, rho)


def _orient_ccw(verts: np.ndarray, tris: list[list[int]]) -> np.ndarray:
    """Triangles as an (n, 3) array, clockwise ones with vertices 1 and 2 swapped."""
    tris = np.array(tris, dtype=int).reshape(-1, 3)
    cw = _signed_area(*(verts[tris[:, m]].T for m in range(3))) < 0.0
    tris[cw, 1:] = tris[cw, :0:-1]
    return tris


def gen_quarter_ellipse_mesh(J: int, e: float) -> TriMesh:
    """Structured mesh of the quarter ellipse (x/e)^2 + y^2 <= 1, x, y >= 0.

    Parameter grid r_j = j/J, theta_i = (pi/2) i/J mapped through
    (e r cos(theta), r sin(theta)); the ring j=0 collapses to the origin, so
    the innermost cells become a fan of single triangles. Quads are split by
    the diagonal from (i, j) to (i+1, j+1) in parameter space. The arc r=1
    is tagged "D", the two straight sides "S".
    """
    if J < 1:
        raise InvalidParam(f"J must be >= 1, got {J}")
    if e <= 0:
        raise InvalidParam(f"semi-axis e must be positive, got {e}")

    cos_t = np.cos(0.5 * math.pi * np.arange(J + 1) / J)
    sin_t = np.sin(0.5 * math.pi * np.arange(J + 1) / J)
    cos_t[0], sin_t[0] = 1.0, 0.0
    cos_t[J], sin_t[J] = 0.0, 1.0

    def vid(i: int, j: int) -> int:
        return 0 if j == 0 else 1 + (j - 1) * (J + 1) + i

    verts = np.empty((J * (J + 1) + 1, 2))
    verts[0] = (0.0, 0.0)
    for j in range(1, J + 1):
        r = j / J
        for i in range(J + 1):
            verts[vid(i, j)] = (e * r * cos_t[i], r * sin_t[i])

    tris: list[list[int]] = []
    for i in range(J):
        tris.append([vid(i, 1), vid(i + 1, 1), 0])
    for j in range(1, J):
        for i in range(J):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    tris = _orient_ccw(verts, tris)

    bedges: list[BoundaryEdge] = []
    for i in range(J):
        bedges.append((vid(i, J), vid(i + 1, J), TAG_DIRICHLET))
    for j in range(J):
        bedges.append((vid(0, j), vid(0, j + 1), TAG_SYMMETRY))
        bedges.append((vid(J, j), vid(J, j + 1), TAG_SYMMETRY))
    return make_mesh(verts, tris, bedges)


def gen_quarter_annulus_mesh(I: int, J: int, e: float,
                             theta_max: float = 0.5 * math.pi) -> TriMesh:
    """Structured mesh of the annulus sector e <= r <= 1, 0 <= theta <= theta_max.

    I angular by J radial parameter cells, diagonal from (i, j) to
    (i+1, j+1). Both circular rings are tagged "D", the straight sides "S".
    """
    if I < 1 or J < 1:
        raise InvalidParam(f"I, J must be >= 1, got I={I}, J={J}")
    if not 0.0 < e < 1.0:
        raise InvalidParam(f"inner radius e must lie in (0, 1), got {e}")
    if theta_max <= 0:
        raise InvalidParam(f"theta_max must be positive, got {theta_max}")

    cos_t = np.cos(theta_max * np.arange(I + 1) / I)
    sin_t = np.sin(theta_max * np.arange(I + 1) / I)
    cos_t[0], sin_t[0] = 1.0, 0.0
    if theta_max == 0.5 * math.pi:
        cos_t[I], sin_t[I] = 0.0, 1.0

    def vid(i: int, j: int) -> int:
        return j * (I + 1) + i

    verts = np.empty(((I + 1) * (J + 1), 2))
    for j in range(J + 1):
        r = e + (1.0 - e) * j / J
        for i in range(I + 1):
            verts[vid(i, j)] = (r * cos_t[i], r * sin_t[i])

    tris: list[list[int]] = []
    for j in range(J):
        for i in range(I):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    tris = _orient_ccw(verts, tris)

    bedges: list[BoundaryEdge] = []
    for i in range(I):
        bedges.append((vid(i, 0), vid(i + 1, 0), TAG_DIRICHLET))
        bedges.append((vid(i, J), vid(i + 1, J), TAG_DIRICHLET))
    for j in range(J):
        bedges.append((vid(0, j), vid(0, j + 1), TAG_SYMMETRY))
        bedges.append((vid(I, j), vid(I, j + 1), TAG_SYMMETRY))
    return make_mesh(verts, tris, bedges)


def gen_unit_square_mesh(J: int) -> TriMesh:
    """Uniform J x J diagonal-split mesh of the unit square, all edges "D"."""
    if J < 1:
        raise InvalidParam(f"J must be >= 1, got {J}")

    def vid(i: int, j: int) -> int:
        return j * (J + 1) + i

    grid = np.arange(J + 1) / J
    verts = np.array([(x, y) for y in grid for x in grid])
    tris: list[list[int]] = []
    for j in range(J):
        for i in range(J):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])

    bedges: list[BoundaryEdge] = []
    for i in range(J):
        bedges.append((vid(i, 0), vid(i + 1, 0), TAG_DIRICHLET))
        bedges.append((vid(i, J), vid(i + 1, J), TAG_DIRICHLET))
        bedges.append((vid(0, i), vid(0, i + 1), TAG_DIRICHLET))
        bedges.append((vid(J, i), vid(J, i + 1), TAG_DIRICHLET))
    return make_mesh(verts, tris, bedges)


def classify_elements(mesh: TriMesh, geom: BoundaryGeometry,
                      tol: float = 1e-10) -> TriMesh:
    """Fill element_class: each triangle is interior or owns one "D" edge.

    For polygon geometry every element is interior (the mesh boundary is the
    true boundary, no node relocation happens). For curved geometry every
    "D" edge endpoint must lie on the boundary within tol and no triangle
    may own more than one "D" edge; violations raise MeshAssumptionViolated.
    """
    classes = np.full(mesh.num_triangles, INTERIOR, dtype=int)
    if geom.kind == "polygon":
        return replace(mesh, element_class=classes)

    edge_to_index: dict[tuple[int, int], int] = {}
    for idx, (i1, i2, tag) in enumerate(mesh.boundary_edges):
        if tag != TAG_DIRICHLET:
            continue
        for v in (i1, i2):
            g = geom.value(mesh.vertices[v][0], mesh.vertices[v][1])
            if abs(g) > tol:
                raise MeshAssumptionViolated(
                    f"Dirichlet edge ({i1}, {i2}) endpoint {v} is off the "
                    f"boundary: |g| = {abs(g):.3e} > {tol}")
        edge_to_index[_edge_key(i1, i2)] = idx

    for t, (i, j, k) in enumerate(mesh.triangles):
        hits = [edge_to_index[key]
                for key in (_edge_key(i, j), _edge_key(j, k), _edge_key(k, i))
                if key in edge_to_index]
        if len(hits) > 1:
            raise MeshAssumptionViolated(
                f"triangle {t} has {len(hits)} Dirichlet edges; at most one is allowed")
        if hits:
            classes[t] = hits[0]
    return replace(mesh, element_class=classes)


@dataclass(frozen=True)
class MeshStats:
    h: float
    gamma: float
    n_elements: int
    n_vertices: int


def mesh_stats(mesh: TriMesh) -> MeshStats:
    """Mesh size h = max element diameter; gamma = max diameter/inradius."""
    if mesh.num_triangles == 0:
        raise InvalidParam("empty mesh")
    return MeshStats(h=float(np.max(mesh.h_per_element)),
                     gamma=float(np.max(mesh.h_per_element / mesh.rho_per_element)),
                     n_elements=mesh.num_triangles,
                     n_vertices=mesh.num_vertices)


def save_mesh(mesh: TriMesh, path) -> None:
    """Write the text format: `nv nt nb`, coordinates, triangles, tagged edges.

    Coordinates use shortest round-trip decimal formatting, so a write/read
    cycle reproduces them bit-exactly.
    """
    lines = [f"{mesh.num_vertices} {mesh.num_triangles} {len(mesh.boundary_edges)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for i1, i2, tag in mesh.boundary_edges:
        lines.append(f"{i1} {i2} {tag}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path) -> TriMesh:
    """Read the text format written by save_mesh and validate the mesh."""
    tokens = Path(path).read_text().split("\n")
    rows = [line.split() for line in tokens if line.strip()]
    try:
        nv, nt, nb = (int(w) for w in rows[0])
        if len(rows) != 1 + nv + nt + nb:
            raise InvalidParam(
                f"expected {1 + nv + nt + nb} lines for nv={nv} nt={nt} nb={nb}, "
                f"got {len(rows)}")
        verts = np.array([[float(w) for w in rows[1 + n]] for n in range(nv)])
        tris = [[int(w) for w in rows[1 + nv + n]] for n in range(nt)]
        bedges = []
        for n in range(nb):
            i1, i2, tag = rows[1 + nv + nt + n]
            bedges.append((int(i1), int(i2), tag))
    except InvalidParam:
        raise
    except (ValueError, IndexError) as exc:
        raise InvalidParam(f"malformed mesh file {path}: {exc}") from exc
    return make_mesh(verts, tris, bedges)
