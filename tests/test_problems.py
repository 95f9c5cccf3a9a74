"""Manufactured solutions: source terms and gradients cross-checked by finite differences."""

import math

import numpy as np
import pytest

from shiftfem.assembly import ProblemSpec
from shiftfem.errors import InvalidParam
from shiftfem.problems import (annulus_test2, by_name, ellipse_test1,
                               polygon_patch)

from oracles import assert_within_rounding

FD_H = 1e-4


def _interior_points(name, rng, n=10):
    if name == "ellipse_test1":
        pts = []
        while len(pts) < n:
            x, y = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)
            if (x / 0.5) ** 2 + y ** 2 < 0.9:
                pts.append((x, y))
        return pts
    if name == "annulus_test2":
        r = rng.uniform(0.55, 0.95, size=n)
        th = rng.uniform(0.05, math.pi / 2 - 0.05, size=n)
        return list(zip(r * np.cos(th), r * np.sin(th)))
    return list(zip(rng.uniform(0.05, 0.95, size=n), rng.uniform(0.05, 0.95, size=n)))


PATCH_DEGREES = (2, 3, 4, 5)
# the plain name is by_name's default degree, 2
PROBLEMS = {"ellipse_test1": ellipse_test1(), "annulus_test2": annulus_test2(),
            **{f"polygon_patch{k if k > 2 else ''}": polygon_patch(k) for k in PATCH_DEGREES}}


@pytest.mark.parametrize("name", PROBLEMS)
def test_source_matches_fd_laplacian(name):
    prob = PROBLEMS[name]
    u = prob.exact.value
    rng = np.random.default_rng(42)
    for x, y in _interior_points(name, rng):
        lap = (u(x + FD_H, y) + u(x - FD_H, y) + u(x, y + FD_H) + u(x, y - FD_H)
               - 4.0 * u(x, y)) / FD_H ** 2
        assert float(prob.f(x, y)) == pytest.approx(-lap, abs=1e-6)


@pytest.mark.parametrize("name", PROBLEMS)
def test_gradient_matches_fd(name):
    prob = PROBLEMS[name]
    u = prob.exact.value
    rng = np.random.default_rng(43)
    for x, y in _interior_points(name, rng):
        gx = (u(x + FD_H, y) - u(x - FD_H, y)) / (2.0 * FD_H)
        gy = (u(x, y + FD_H) - u(x, y - FD_H)) / (2.0 * FD_H)
        got = prob.exact.grad(x, y)
        assert float(got[0]) == pytest.approx(gx, abs=1e-6)
        assert float(got[1]) == pytest.approx(gy, abs=1e-6)


@pytest.mark.parametrize("k", PATCH_DEGREES)
def test_patch_data_is_nonzero_on_every_edge(k):
    # the Dirichlet lift is exercised on all four edges of the square
    d = polygon_patch(k).d
    s = np.linspace(0.0, 1.0, 11)
    zero, one = np.zeros_like(s), np.ones_like(s)
    for x, y in ((s, zero), (s, one), (zero, s), (one, s)):
        assert np.max(np.abs(d(x, y))) > 0.1


def test_solutions_vanish_on_curved_boundary():
    p1 = ellipse_test1()
    for th in np.linspace(0.0, math.pi / 2, 9):
        assert abs(p1.exact.value(0.5 * math.cos(th), math.sin(th))) <= 1e-14
    p2 = annulus_test2()
    for th in np.linspace(0.0, math.pi / 2, 9):
        for r in (0.5, 1.0):
            assert abs(p2.exact.value(r * math.cos(th), r * math.sin(th))) <= 1e-14


def test_dirichlet_data_defaults():
    assert ellipse_test1().d(0.3, 0.4) == 0.0
    assert annulus_test2().d(0.3, 0.4) == 0.0
    prob = polygon_patch(2)
    assert prob.d(0.25, 0.0) == pytest.approx(prob.exact.value(0.25, 0.0))


def test_vectorized_evaluation():
    prob = ellipse_test1()
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([0.5, 0.4, 0.3])
    f = prob.f(x, y)
    assert f.shape == (3,)
    assert prob.exact.grad(x, y).shape == (3, 2)
    want = [prob.f(a, b) for a, b in zip(x, y)]
    assert_within_rounding(f, want, np.abs(want).max(), 4)


def test_by_name_dispatch_and_validation():
    # the inner circle of the annulus is r = e
    assert by_name("annulus_test2", e=0.4).geom.value_many([(0.4, 0.0)])[0] == 0.0
    square = by_name("polygon_patch", k=3).geom
    assert square.fields is None and square.grads is None
    with pytest.raises(InvalidParam):
        by_name("nope")
    with pytest.raises(InvalidParam):
        ProblemSpec(geom=ellipse_test1().geom, f=lambda x, y: 0.0,
                    extension_mode="extrapolate")


def test_zero_extension_needs_a_curved_boundary():
    square = polygon_patch(2).geom
    with pytest.raises(InvalidParam, match="'zero_outside' needs a curved boundary"):
        ProblemSpec(geom=square, f=lambda x, y: 0.0, extension_mode="zero_outside")
    ProblemSpec(geom=square, f=lambda x, y: 0.0)


@pytest.mark.parametrize("name", ["ellipse_test1", "annulus_test2", "polygon_patch"])
def test_by_name_passes_the_extension_mode_to_every_problem(name):
    assert by_name(name).extension_mode == "analytic"
    with pytest.raises(InvalidParam, match="unknown extension_mode 'extrapolate'"):
        by_name(name, extension_mode="extrapolate")
    if name == "polygon_patch":
        with pytest.raises(InvalidParam, match="'zero_outside' needs a curved boundary"):
            by_name(name, extension_mode="zero_outside")
    else:
        assert by_name(name, extension_mode="zero_outside").extension_mode == "zero_outside"
