"""Implicit curved-boundary geometry.

The boundary is described by a signed scalar field g with g < 0 strictly
inside the domain, g = 0 on the boundary and g > 0 outside. Non-smooth
composites (the annulus) carry a list of smooth pieces so that root finding
always runs on a single smooth circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergence, NoRootInBracket

DEFAULT_BRACKET = (0.5, 2.0)
DEFAULT_TOL = 1e-12
MAX_NEWTON_ITER = 100


@dataclass(frozen=True)
class SmoothPiece:
    """One smooth branch of the implicit boundary description."""

    name: str
    value: Callable[[float, float], float]
    grad: Callable[[float, float], tuple[float, float]]


@dataclass(frozen=True)
class BoundaryGeometry:
    """Implicit domain description with sign convention g<0 inside.

    ``pieces`` lists the smooth branches used for ray intersection; for the
    single-curve kinds it has one entry. ``value``/``grad`` evaluate the
    composite field.
    """

    kind: str
    params: tuple
    value: Callable[[float, float], float]
    grad: Callable[[float, float], tuple[float, float]]
    pieces: tuple[SmoothPiece, ...] = field(default=())

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized composite g over an (n, 2) array of points."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "ellipse":
            e = self.params[0]
            return (pts[:, 0] / e) ** 2 + pts[:, 1] ** 2 - 1.0
        if self.kind == "annulus":
            e = self.params[0]
            r = np.hypot(pts[:, 0], pts[:, 1])
            return np.maximum(e - r, r - 1.0)
        return np.array([self.value(x, y) for x, y in pts])

    def piece_for_edge(self, a, b) -> SmoothPiece:
        """Smooth piece on which both edge endpoints (nearly) lie."""
        ax, ay = a
        bx, by = b
        return min(self.pieces,
                   key=lambda p: max(abs(p.value(ax, ay)), abs(p.value(bx, by))))


def ellipse(e: float) -> BoundaryGeometry:
    """Domain bounded by the curve (x/e)^2 + y^2 = 1."""
    if e <= 0:
        raise ValueError(f"ellipse semi-axis must be positive, got {e}")

    def g(x, y):
        return (x / e) ** 2 + y ** 2 - 1.0

    def dg(x, y):
        return (2.0 * x / (e * e), 2.0 * y)

    piece = SmoothPiece("ellipse", g, dg)
    return BoundaryGeometry("ellipse", (e,), g, dg, (piece,))


def annulus(e: float) -> BoundaryGeometry:
    """Domain between the circles r = e and r = 1, for 0 < e < 1.

    The composite field is max(e - r, r - 1); ray intersection uses the
    inner or outer circle piece separately to stay on a smooth branch.
    """
    if not 0.0 < e < 1.0:
        raise ValueError(f"annulus inner radius must lie in (0, 1), got {e}")

    def g(x, y):
        r = math.hypot(x, y)
        return max(e - r, r - 1.0)

    def dg(x, y):
        r = math.hypot(x, y)
        if r == 0.0:
            return (0.0, 0.0)
        s = -1.0 if e - r >= r - 1.0 else 1.0
        return (s * x / r, s * y / r)

    def g_inner(x, y):
        return e - math.hypot(x, y)

    def dg_inner(x, y):
        r = math.hypot(x, y)
        return (-x / r, -y / r)

    def g_outer(x, y):
        return math.hypot(x, y) - 1.0

    def dg_outer(x, y):
        r = math.hypot(x, y)
        return (x / r, y / r)

    pieces = (SmoothPiece("inner", g_inner, dg_inner),
              SmoothPiece("outer", g_outer, dg_outer))
    return BoundaryGeometry("annulus", (e,), g, dg, pieces)


def polygon(vertices: Sequence[Sequence[float]]) -> BoundaryGeometry:
    """Polygonal domain (degenerate case: the mesh boundary is the boundary).

    g is the signed distance to the polygon boundary, negative inside.
    Vertices must be listed counterclockwise.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise ValueError("polygon needs at least 3 two-dimensional vertices")

    def _nearest_edge(x, y):
        best_d2, best_n = math.inf, (0.0, 0.0)
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            ex, ey = bx - ax, by - ay
            L2 = ex * ex + ey * ey
            t = 0.0 if L2 == 0.0 else max(0.0, min(1.0, ((x - ax) * ex + (y - ay) * ey) / L2))
            px, py = ax + t * ex, ay + t * ey
            d2 = (x - px) ** 2 + (y - py) ** 2
            if d2 < best_d2:
                # outward normal of a CCW edge
                L = math.sqrt(L2)
                best_d2, best_n = d2, (ey / L, -ex / L)
        return math.sqrt(best_d2), best_n

    def _inside(x, y):
        # crossing-number parity
        inside = False
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            if (ay > y) != (by > y):
                xc = ax + (y - ay) * (bx - ax) / (by - ay)
                if x < xc:
                    inside = not inside
        return inside

    def g(x, y):
        d, _ = _nearest_edge(x, y)
        return -d if _inside(x, y) else d

    def dg(x, y):
        _, nrm = _nearest_edge(x, y)
        return nrm

    piece = SmoothPiece("polygon", g, dg)
    return BoundaryGeometry("polygon", (tuple(map(tuple, verts)),), g, dg, (piece,))


def unit_square() -> BoundaryGeometry:
    return polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@dataclass(frozen=True)
class RayIntersectionQuery:
    """Ray from an interior vertex through an edge subdivision point.

    The ray parameter t is 0 at ``origin`` and 1 at ``through``; the bracket
    must contain a sign change of g.
    """

    origin: tuple[float, float]
    through: tuple[float, float]
    bracket: tuple[float, float] = DEFAULT_BRACKET


def ray_boundary_intersection(geom: BoundaryGeometry,
                              q: RayIntersectionQuery,
                              tol: float = DEFAULT_TOL,
                              piece: SmoothPiece | None = None,
                              max_iter: int = MAX_NEWTON_ITER) -> np.ndarray:
    """Intersection of the ray with the boundary, nearest to t = 1.

    Safeguarded Newton on t -> g(origin + t*(through-origin)) with bisection
    fallback; converged when |g| <= tol.

    Raises
    ------
    NoRootInBracket
        If g has no sign change inside the bracket.
    NoConvergence
        If the iteration cap is hit before |g| <= tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if piece is None:
        piece = min(geom.pieces,
                    key=lambda p: abs(p.value(q.through[0], q.through[1])))
    ox, oy = float(q.origin[0]), float(q.origin[1])
    dx, dy = float(q.through[0]) - ox, float(q.through[1]) - oy

    def gval(t):
        return piece.value(ox + t * dx, oy + t * dy)

    def gslope(t):
        gx, gy = piece.grad(ox + t * dx, oy + t * dy)
        return gx * dx + gy * dy

    # locate the sign-change subinterval nearest t = 1
    t_lo, t_hi = q.bracket
    samples = np.linspace(t_lo, t_hi, 33)
    values = [gval(t) for t in samples]
    best = None
    for k in range(len(samples) - 1):
        if values[k] == 0.0 or values[k] * values[k + 1] < 0.0:
            mid = 0.5 * (samples[k] + samples[k + 1])
            if best is None or abs(mid - 1.0) < abs(best[2] - 1.0):
                best = (samples[k], samples[k + 1], mid)
    if abs(values[-1]) <= tol and best is None:
        best = (samples[-2], samples[-1], samples[-1])
    if best is None:
        raise NoRootInBracket(
            f"no sign change of g in bracket {tuple(map(float, q.bracket))} along ray "
            f"{tuple(map(float, q.origin))} -> {tuple(map(float, q.through))}")

    lo, hi, _ = best
    glo = gval(lo)
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = gval(t)
        if abs(g) <= tol:
            return np.array([ox + t * dx, oy + t * dy])
        # shrink the safeguard bracket
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
    raise NoConvergence(
        f"ray-boundary Newton did not reach |g| <= {tol} in {max_iter} iterations")
