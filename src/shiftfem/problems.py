"""Built-in manufactured problems for the convergence experiments."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

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
    """Unit square with a degree-k polynomial solution and matching data.

    The boundary is exactly representable, so the discrete solution must
    reproduce u to rounding; the Dirichlet data is u itself (nonzero),
    exercising the lift.
    """
    if k == 2:

        def u(x, y):
            return x * x + 2.0 * y * y - 3.0 * x * y + x - y + 0.5

        def grad_u(x, y):
            return np.stack([2.0 * x - 3.0 * y + 1.0,
                             4.0 * y - 3.0 * x - 1.0], axis=-1)

        def f(x, y):
            return np.broadcast_to(-6.0, np.shape(x)) if np.ndim(x) else -6.0

    elif k == 3:

        def u(x, y):
            return x ** 3 - 2.0 * y ** 3 + 3.0 * x * x * y + x * y + 2.0 * y - 1.0

        def grad_u(x, y):
            return np.stack([3.0 * x * x + 6.0 * x * y + y,
                             -6.0 * y * y + 3.0 * x * x + x + 2.0], axis=-1)

        def f(x, y):
            return 6.0 * y - 6.0 * x

    else:
        raise InvalidParam(f"no built-in patch polynomial for degree {k}")
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
