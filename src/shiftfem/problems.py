"""Built-in manufactured problems for the convergence experiments."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial import polynomial as P

from .assembly import ExactSolution, ProblemSpec
from .errors import InvalidParam
from .geometry import annulus, ellipse, unit_square

PROBLEM_NAMES = ("ellipse_test1", "annulus_test2", "polygon_patch")


def ellipse_test1(e: float = 0.5, extension_mode: str = "analytic") -> ProblemSpec:
    """Quarter ellipse (x/e)^2 + y^2 = 1: u = (e^2-e^2x^2-y^2)(e^2-x^2-e^2y^2).

    u vanishes on the elliptical arc and is symmetric across both axes, so
    homogeneous Dirichlet data on the arc and natural conditions on the axes
    hold exactly.
    """
    e2 = e * e

    def u(x, y):
        return (e2 - e2 * x * x - y * y) * (e2 - x * x - e2 * y * y)

    def grad_u(x, y):
        a = e2 - e2 * x * x - y * y
        b = e2 - x * x - e2 * y * y
        return np.stack([-2.0 * x * (e2 * b + a), -2.0 * y * (b + e2 * a)], axis=-1)

    def f(x, y):
        a = e2 - e2 * x * x - y * y
        b = e2 - x * x - e2 * y * y
        return 2.0 * (1.0 + e2) * (a + b) - 8.0 * e2 * (x * x + y * y)

    return ProblemSpec(geom=ellipse(e), f=f,
                       exact=ExactSolution(value=u, grad=grad_u),
                       extension_mode=extension_mode)


def annulus_test2(e: float = 0.5, extension_mode: str = "analytic") -> ProblemSpec:
    """Quarter annulus e < r < 1: radial u = (r-e)(1-r), f = 4 - (1+e)/r."""

    def u(x, y):
        r = np.hypot(x, y)
        return (r - e) * (1.0 - r)

    def grad_u(x, y):
        r = np.hypot(x, y)
        s = ((1.0 + e) - 2.0 * r) / r
        return np.stack([s * x, s * y], axis=-1)

    def f(x, y):
        r = np.hypot(x, y)
        return 4.0 - (1.0 + e) / r

    return ProblemSpec(geom=annulus(e), f=f,
                       exact=ExactSolution(value=u, grad=grad_u),
                       extension_mode=extension_mode)


def polygon_patch(k: int = 2) -> ProblemSpec:
    """Unit square with u the degree-k Taylor polynomial of exp(x - y).

    u = sum over a + b <= k of x^a (-y)^b / (a! b!) has every monomial of
    degree <= k and is nonzero on each edge, so the discrete solution must
    reproduce it to rounding and the Dirichlet data (u itself) exercises
    the lift. grad u and f = -lap u are taken from the same coefficients.
    """
    n = np.arange(k + 1)
    w = 1.0 / np.cumprod(np.maximum(n, 1))
    c = np.where(np.add.outer(n, n) <= k, np.outer(w, w * (-1.0) ** n), 0.0)
    cx, cy = P.polyder(c, axis=0), P.polyder(c, axis=1)
    cxx, cyy = P.polyder(c, 2, axis=0), P.polyder(c, 2, axis=1)

    def u(x, y):
        return P.polyval2d(x, y, c)

    def grad_u(x, y):
        return np.stack([P.polyval2d(x, y, cx), P.polyval2d(x, y, cy)], axis=-1)

    def f(x, y):
        return -P.polyval2d(x, y, cxx) - P.polyval2d(x, y, cyy)

    return ProblemSpec(geom=unit_square(), f=f,
                       exact=ExactSolution(value=u, grad=grad_u), d=u)


def by_name(name: str, *, e: float = 0.5, k: int = 2,
            extension_mode: str = "analytic") -> ProblemSpec:
    if name == "ellipse_test1":
        return ellipse_test1(e, extension_mode)
    if name == "annulus_test2":
        return annulus_test2(e, extension_mode)
    if name == "polygon_patch":
        return replace(polygon_patch(k), extension_mode=extension_mode)
    raise InvalidParam(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
