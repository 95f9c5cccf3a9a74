"""Curved-boundary geometry: the smooth pieces the shifted nodes move onto.

Each curved piece is a signed scalar field g with g < 0 inside the domain,
g = 0 on the curve and g > 0 outside. The annulus has two pieces (the inner
and the outer circle), so root finding always runs on a single smooth
curve. A geometry gives all its pieces at once on arrays of points:
``fields`` their values and ``grads`` their gradients, one row per piece. A
polygon has neither: its mesh boundary is the true boundary, and no node
moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParam, MeshAssumptionViolated, NoConvergence

DEFAULT_BRACKET = (0.5, 2.0)
DEFAULT_TOL = 1e-12
MAX_NEWTON_ITER = 100


@dataclass(frozen=True)
class BoundaryGeometry:
    """Domain description: ``fields(x, y)`` gives the values of the curved
    boundary pieces at arrays of points, one row per piece, and
    ``grads(x, y)`` their gradients, one (d/dx, d/dy) row per piece. Both are
    None for a polygon."""

    kind: str
    fields: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    grads: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        """Composite g, the max over the pieces, at an (n, 2) array of points."""
        if self.fields is None:
            raise InvalidParam(f"{self.kind} geometry has no curved boundary field")
        pts = np.asarray(pts, dtype=float)
        return np.max(self.fields(pts[:, 0], pts[:, 1]), axis=0)


def ellipse(e: float) -> BoundaryGeometry:
    """Domain bounded by the curve (x/e)^2 + y^2 = 1."""
    if not 0.0 < e < math.inf:
        raise InvalidParam(f"ellipse semi-axis must be positive and finite, got {e}")

    def fields(x, y):
        # float_power is the C library's pow per element, as a float's x ** 2 is;
        # an array's x ** 2 is x * x, which rounds otherwise and moves some nodes
        return (np.float_power(x / e, 2) + np.float_power(y, 2) - 1.0,)

    def grads(x, y):
        return ((2.0 * x / (e * e), 2.0 * y),)

    return BoundaryGeometry("ellipse", fields, grads)


def _radius(x, y) -> np.ndarray:
    # math.hypot rounds correctly (CPython uses Borges' algorithm); np.hypot,
    # the C library's, misses the last bit on some inputs, which moves shifted
    # nodes. fromiter holds one Python float at a time, .tolist() all of them.
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.fromiter(map(math.hypot, x.flat, y.flat), float, x.size).reshape(x.shape)


def annulus(e: float) -> BoundaryGeometry:
    """Domain between the circles r = e (piece 0) and r = 1 (piece 1), for 0 < e < 1."""
    if not 0.0 < e < 1.0:
        raise InvalidParam(f"annulus inner radius must lie in (0, 1), got {e}")

    def fields(x, y):
        r = _radius(x, y)
        return e - r, r - 1.0

    def grads(x, y):
        r = _radius(x, y)
        return (-x / r, -y / r), (x / r, y / r)

    return BoundaryGeometry("annulus", fields, grads)


def unit_square() -> BoundaryGeometry:
    """The unit square: a polygon, with no curved pieces."""
    return BoundaryGeometry("polygon")


def ray_boundary_intersection(geom: BoundaryGeometry, piece, origin, through) -> np.ndarray:
    """Intersections (R, 2) of R rays with their curved pieces, each nearest t = 1.

    Ray i has t = 0 at ``origin[i]`` and t = 1 at ``through[i]`` and meets
    piece ``piece[i]`` of ``geom``. Its root is sought in ``DEFAULT_BRACKET``
    by safeguarded Newton on t -> g(origin + t*(through-origin)) with
    bisection fallback, converged when |g| <= ``DEFAULT_TOL``. The rays
    iterate together, each with the arithmetic it would do alone, and each
    stops once converged.

    Raises
    ------
    MeshAssumptionViolated
        If g has no sign change inside the bracket along a ray: the ray's
        element is too coarse for the curve.
    NoConvergence
        If ``MAX_NEWTON_ITER`` iterations end before |g| <= ``DEFAULT_TOL``.
    Either one's ``ray`` is the index of the first ray that failed.
    """
    piece = np.asarray(piece, dtype=int)
    origin = np.asarray(origin, dtype=float).reshape(-1, 2)
    through = np.asarray(through, dtype=float).reshape(-1, 2)
    (ox, oy), (dx, dy) = origin.T, (through - origin).T

    def field(x, y, p):
        return np.asarray(geom.fields(x, y))[p, np.arange(len(p))]

    # each ray's sign-change subinterval nearest t = 1, the first on ties
    samples = np.linspace(*DEFAULT_BRACKET, 33)
    values = field((ox[:, None] + samples * dx[:, None]).ravel(),
                   (oy[:, None] + samples * dy[:, None]).ravel(),
                   np.repeat(piece, len(samples))).reshape(len(piece), len(samples))
    change = (values[:, :-1] == 0.0) | (values[:, :-1] * values[:, 1:] < 0.0)
    mids = 0.5 * (samples[:-1] + samples[1:])
    best = np.argmin(np.where(change, np.abs(mids - 1.0), np.inf), axis=1)
    # with no sign change, a root within tolerance at the bracket's end counts
    end_root = ~change.any(axis=1) & (np.abs(values[:, -1]) <= DEFAULT_TOL)
    best[end_root] = len(samples) - 2
    missed = np.flatnonzero(~change.any(axis=1) & ~end_root)
    if len(missed):
        exc = MeshAssumptionViolated(
            f"no sign change of g in bracket {DEFAULT_BRACKET} along ray "
            f"{tuple(origin[missed[0]].tolist())} -> {tuple(through[missed[0]].tolist())}; "
            "the mesh is too coarse for the curved boundary, refine it")
        exc.ray = int(missed[0])
        raise exc

    nodes, active = np.empty((len(piece), 2)), np.arange(len(piece))
    lo, hi, glo = samples[best], samples[best + 1], values[active, best]
    t = 0.5 * (lo + hi)
    for _ in range(MAX_NEWTON_ITER):
        x, y = ox[active] + t * dx[active], oy[active] + t * dy[active]
        g = field(x, y, piece[active])
        done = np.abs(g) <= DEFAULT_TOL
        nodes[active[done]] = np.column_stack((x[done], y[done]))
        active, t, lo, hi, glo, g, x, y = (a[~done] for a in (active, t, lo, hi, glo, g, x, y))
        if not len(active):
            return nodes
        # shrink the safeguard brackets; a Newton step must land inside
        shrink = glo * g < 0.0
        lo, hi, glo = np.where(shrink, lo, t), np.where(shrink, t, hi), np.where(shrink, glo, g)
        gx, gy = np.asarray(geom.grads(x, y))[piece[active], :, np.arange(len(active))].T
        dgdt = gx * dx[active] + gy * dy[active]
        with np.errstate(divide="ignore", over="ignore"):
            t_new = t - g / dgdt
        t = np.where((dgdt != 0.0) & (lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi))
    exc = NoConvergence(f"ray-boundary Newton did not reach |g| <= {DEFAULT_TOL} "
                        f"in {MAX_NEWTON_ITER} iterations")
    exc.ray = int(active[0])
    raise exc
