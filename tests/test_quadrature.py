"""Triangle quadrature: exactness, invariants, rule selection."""

import math

import numpy as np
import pytest

from shiftfem.errors import UnsupportedDegree
from shiftfem.quadrature import MAX_DEGREE, rule_for_degree, triangle_area

EMBEDDED_DEGREES = [2, 4, 6, 8, 10]
# every degree a caller may request; each gets the next table up
REQUESTED_DEGREES = list(range(MAX_DEGREE + 1))
REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# 16-point Legendre on [0, 1]: exact for 1D polynomials up to degree 31
_XI, _WI = np.polynomial.legendre.leggauss(16)
_T1D = 0.5 * (_XI + 1.0)
_W1D = 0.5 * _WI


def _monomial_integral(a: int, b: int, tri: np.ndarray, d: int) -> float:
    """x^a y^b integrated over tri with the degree-d rule."""
    rule = rule_for_degree(d)
    x, y = rule.physical_points(tri).T
    return abs(triangle_area(tri)) * rule.weights @ (x ** a * y ** b)


def _green_monomial(a: int, b: int, tri: np.ndarray) -> float:
    """Independent oracle: reduce the area integral of x^a y^b to edge
    integrals via the divergence theorem with F = (x^(a+1) y^b / (a+1), 0)."""
    total = 0.0
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        x = p[0] + _T1D * (q[0] - p[0])
        y = p[1] + _T1D * (q[1] - p[1])
        total += np.sum(_W1D * x ** (a + 1) * y ** b / (a + 1) * (q[1] - p[1]))
    return float(total)


@pytest.mark.parametrize("d", REQUESTED_DEGREES)
def test_monomials_match_factorial_formula_on_reference_triangle(d):
    for a in range(d + 1):
        for b in range(d + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            approx = _monomial_integral(a, b, REF_TRI, d)
            rel = abs(approx - exact) / exact
            assert rel <= 1e-14, f"x^{a} y^{b} with degree-{d} rule: rel err {rel:.3e}"


@pytest.mark.parametrize("d", REQUESTED_DEGREES)
def test_monomials_exact_on_random_triangles(d):
    rng = np.random.default_rng(314159 + d)
    for _ in range(20):
        while True:
            tri = rng.random((3, 2))
            if abs(triangle_area(tri)) > 0.05:
                break
        if triangle_area(tri) < 0:
            tri = tri[::-1]
        for a in range(d + 1):
            for b in range(d + 1 - a):
                exact = _green_monomial(a, b, tri)
                approx = _monomial_integral(a, b, tri, d)
                rel = abs(approx - exact) / abs(exact)
                assert rel <= 1e-13, \
                    f"x^{a} y^{b} degree-{d} rule on {tri.tolist()}: rel err {rel:.3e}"


@pytest.mark.parametrize("d", EMBEDDED_DEGREES)
def test_weights_sum_to_one(d):
    rule = rule_for_degree(d)
    assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-14


@pytest.mark.parametrize("d", EMBEDDED_DEGREES)
def test_points_strictly_interior(d):
    rule = rule_for_degree(d)
    assert rule.points.shape == (len(rule.weights), 3)
    assert np.all(rule.points > 0.0)
    assert np.all(rule.points < 1.0)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_point_counts():
    expected = {2: 3, 4: 6, 6: 12, 8: 16, 10: 25}
    for d, n in expected.items():
        assert len(rule_for_degree(d).weights) == n


def test_requests_between_tables_round_up():
    # a request gets the points and weights of the smallest table at or above it
    for d, table in ((0, 2), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (MAX_DEGREE, 10)):
        got, want = rule_for_degree(d), rule_for_degree(table)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.weights, want.weights)


def test_unsupported_degree_raises():
    with pytest.raises(UnsupportedDegree):
        rule_for_degree(11)
    with pytest.raises(UnsupportedDegree):
        rule_for_degree(-1)


def test_physical_points_centroid():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    rule = rule_for_degree(2)
    pts = rule.physical_points(tri)
    assert np.allclose(pts, [[0.5, 0.5], [2.0, 0.5], [0.5, 2.0]])
    assert np.allclose(rule.weights @ pts, [1.0, 1.0])


def test_integrate_ignores_orientation():
    tri_ccw = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    tri_cw = tri_ccw[::-1]
    assert triangle_area(tri_ccw) == pytest.approx(2.0)
    assert triangle_area(tri_cw) == pytest.approx(-2.0)
    assert _monomial_integral(0, 0, tri_cw, 2) == pytest.approx(2.0)
