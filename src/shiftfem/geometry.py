"""Curved-boundary geometry: the smooth pieces the shifted nodes move onto.

Each curved piece is a signed scalar field g with g < 0 inside the domain,
g = 0 on the curve and g > 0 outside. The annulus has two pieces (the inner
and the outer circle), so root finding always runs on a single smooth
curve. A polygon has no pieces: its mesh boundary is the true boundary, and
no node moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParam, NoConvergence, NoRootInBracket

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
    """Domain description: ``pieces`` lists the curved boundary branches
    (none for a polygon)."""

    kind: str
    params: tuple
    pieces: tuple[SmoothPiece, ...] = ()

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        """Composite g, the max over the pieces, at an (n, 2) array of points."""
        pts = np.asarray(pts, dtype=float)
        e = self.params[0]
        if self.kind == "ellipse":
            return (pts[:, 0] / e) ** 2 + pts[:, 1] ** 2 - 1.0
        if self.kind == "annulus":
            r = np.hypot(pts[:, 0], pts[:, 1])
            return np.maximum(e - r, r - 1.0)
        raise InvalidParam(f"{self.kind} geometry has no curved boundary field")

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

    return BoundaryGeometry("ellipse", (e,), (SmoothPiece("ellipse", g, dg),))


def annulus(e: float) -> BoundaryGeometry:
    """Domain between the circles r = e and r = 1, for 0 < e < 1."""
    if not 0.0 < e < 1.0:
        raise ValueError(f"annulus inner radius must lie in (0, 1), got {e}")

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
    return BoundaryGeometry("annulus", (e,), pieces)


def polygon(vertices: Sequence[Sequence[float]]) -> BoundaryGeometry:
    """Polygonal domain, listed counterclockwise: no curved pieces."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise ValueError("polygon needs at least 3 two-dimensional vertices")
    return BoundaryGeometry("polygon", (tuple(map(tuple, verts)),))


def unit_square() -> BoundaryGeometry:
    return polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def ray_boundary_intersection(piece: SmoothPiece, origin, through) -> np.ndarray:
    """Intersection of the ray with the piece's curve, nearest to t = 1.

    The ray parameter t is 0 at ``origin`` and 1 at ``through``; the root is
    sought in ``DEFAULT_BRACKET`` by safeguarded Newton on
    t -> g(origin + t*(through-origin)) with bisection fallback, converged
    when |g| <= ``DEFAULT_TOL``.

    Raises
    ------
    NoRootInBracket
        If g has no sign change inside the bracket.
    NoConvergence
        If ``MAX_NEWTON_ITER`` iterations end before |g| <= ``DEFAULT_TOL``.
    """
    ox, oy = float(origin[0]), float(origin[1])
    dx, dy = float(through[0]) - ox, float(through[1]) - oy

    def gval(t):
        return piece.value(ox + t * dx, oy + t * dy)

    def gslope(t):
        gx, gy = piece.grad(ox + t * dx, oy + t * dy)
        return gx * dx + gy * dy

    # locate the sign-change subinterval nearest t = 1
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
        raise NoRootInBracket(
            f"no sign change of g in bracket {DEFAULT_BRACKET} along ray "
            f"{(ox, oy)} -> {(float(through[0]), float(through[1]))}")

    lo, hi, _ = best
    glo = gval(lo)
    t = 0.5 * (lo + hi)
    for _ in range(MAX_NEWTON_ITER):
        g = gval(t)
        if abs(g) <= DEFAULT_TOL:
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
        f"ray-boundary Newton did not reach |g| <= {DEFAULT_TOL} in {MAX_NEWTON_ITER} iterations")
