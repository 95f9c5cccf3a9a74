"""Curved-boundary geometry: field values and ray intersection."""

import math

import numpy as np
import pytest

from shiftfem import geometry
from shiftfem.errors import InvalidParam, MeshAssumptionViolated, NoConvergence
from shiftfem.geometry import annulus, ellipse, ray_boundary_intersection, unit_square
from shiftfem.mesh import gen_quarter_ellipse_mesh

from oracles import assert_within_rounding, scalar_pieces


def _g(geom, piece, p):
    """g of piece ``piece`` at the point p."""
    return geom.fields(p[0], p[1])[piece]


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParam):
        ellipse(-1.0)
    for flag in (True, np.True_):  # used to be accepted as e = 1
        with pytest.raises(InvalidParam):
            ellipse(flag)
    with pytest.raises(InvalidParam):
        annulus(0.0)
    with pytest.raises(InvalidParam):
        annulus(1.2)


@pytest.mark.parametrize("e", [math.nan, math.inf])
def test_non_finite_semi_axis_rejected(e):
    # NaN passes a bare e <= 0 check, and inf reaches the mesh arithmetic
    with pytest.raises(InvalidParam):
        ellipse(e)
    with pytest.raises(InvalidParam, match="semi-axis"):
        gen_quarter_ellipse_mesh(4, e)


def test_polygon_has_no_curved_pieces():
    geom = unit_square()
    assert geom.fields is None and geom.grads is None
    with pytest.raises(InvalidParam, match="no curved boundary"):
        geom.value_many([(0.5, 0.5)])


def test_ray_from_center_hits_ellipse():
    # g(t) = (0.3 t / 0.5)^2 + (0.4 t)^2 - 1 = 0.52 t^2 - 1, root t = 1/sqrt(0.52)
    geom = ellipse(0.5)
    p, = ray_boundary_intersection(geom, [0], [(0.0, 0.0)], [(0.3, 0.4)])
    t = 1.0 / math.sqrt(0.52)
    assert np.allclose(p, [0.3 * t, 0.4 * t], atol=1e-12)
    assert abs(_g(geom, 0, p)) <= 1e-12


def test_offset_ray_hits_unit_circle_at_parameter_one():
    # (0.6 + 0.2 t)^2 + (0.6 t)^2 = 1 has roots t = 1 and t = -1.6
    p, = ray_boundary_intersection(annulus(0.5), [1], [(0.6, 0.0)], [(0.8, 0.6)])
    assert np.allclose(p, [0.8, 0.6], atol=1e-12)


def test_nearest_root_to_unit_parameter_wins():
    # ray (1 - 0.9 t, 0.05) crosses the inner circle r = 0.5 at
    # t = (1 -+ sqrt(0.2475)) / 0.9, both inside the bracket
    p, = ray_boundary_intersection(annulus(0.5), [0], [(1.0, 0.05)], [(0.1, 0.05)])
    assert np.allclose(p, [math.sqrt(0.2475), 0.05], atol=1e-12)


def test_one_call_mixes_both_annulus_pieces():
    # the two rays above in one call, each onto its own circle, land where
    # they land alone
    geom = annulus(0.5)
    origin, through = [(0.6, 0.0), (1.0, 0.05)], [(0.8, 0.6), (0.1, 0.05)]
    both = ray_boundary_intersection(geom, [1, 0], origin, through)
    assert np.allclose(both, [[0.8, 0.6], [math.sqrt(0.2475), 0.05]], atol=1e-12)
    for i, piece in enumerate((1, 0)):
        alone = ray_boundary_intersection(geom, [piece], origin[i:i + 1], through[i:i + 1])
        assert np.array_equal(both[i:i + 1], alone)


def test_random_rays_land_on_boundary_and_stay_collinear():
    rng = np.random.default_rng(98765)
    # (geometry, piece, curve radius, x scale of the curve, radius of the ray origins)
    cases = [(ellipse(0.5), 0, 1.0, 0.5, 0.1), (annulus(0.5), 1, 1.0, 1.0, 0.75),
             (annulus(0.5), 0, 0.5, 1.0, 0.75)]
    for geom, piece, radius, x_scale, start in cases:
        theta = rng.uniform(0.05, math.pi / 2 - 0.05, 20)
        wobble = rng.uniform(0.97, 1.03, 20)
        near = np.column_stack((wobble * x_scale * radius * np.cos(theta),
                                wobble * radius * np.sin(theta)))
        origin = start * np.column_stack((np.cos(theta), np.sin(theta)))
        hits = ray_boundary_intersection(geom, np.full(20, piece), origin, near)
        for p, o, n in zip(hits, origin, near):
            assert abs(_g(geom, piece, p)) <= 1e-12
            d = np.subtract(n, o)
            r = np.subtract(p, o)
            cross = abs(d[0] * r[1] - d[1] * r[0])
            assert cross <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(r)


def test_no_root_in_bracket_raises():
    # the second ray misses; the error names it and gives its index
    with pytest.raises(MeshAssumptionViolated, match="too coarse for the curved boundary, "
                                                     "refine it") as info:
        ray_boundary_intersection(ellipse(0.5), np.array([0, 0]),
                                  np.array([[0.0, 0.0], [0.0, 0.0]]),
                                  np.array([[0.3, 0.4], [0.05, 0.05]]))
    assert "np.float64" not in str(info.value)
    assert "(0.5, 2.0)" in str(info.value)
    assert "(0.0, 0.0) -> (0.05, 0.05)" in str(info.value)
    assert info.value.ray == 1


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_NEWTON_ITER", 1)
    with pytest.raises(NoConvergence, match="in 1 iterations"):
        ray_boundary_intersection(ellipse(0.5), [0], [(0.0, 0.0)], [(0.3, 0.4)])


def test_value_many_is_max_over_pieces():
    rng = np.random.default_rng(4242)
    pts = rng.uniform(-1.2, 1.2, size=(50, 2))
    for curve, geom in (("ellipse", ellipse(0.5)), ("annulus", annulus(0.5))):
        pieces = scalar_pieces(curve, 0.5)
        want = [max(p.value(x, y) for p in pieces) for x, y in pts]
        assert_within_rounding(geom.value_many(pts), want, np.abs(want).max(), 4)


def test_annulus_fields_use_the_correctly_rounded_radius():
    # np.hypot, the C library's, differs from math.hypot in the last bit at
    # some of these points; the annulus fields follow math.hypot there
    rng = np.random.default_rng(20240)
    x, y = rng.uniform(-1.0, 1.0, size=(2, 20000))
    r = np.array([math.hypot(a, b) for a, b in zip(x, y)])
    apart = np.flatnonzero(np.hypot(x, y) != r)
    if not len(apart):
        pytest.skip("np.hypot agrees with math.hypot on every sampled point")
    inner, outer = annulus(0.5).fields(x[apart], y[apart])
    assert np.array_equal(inner, 0.5 - r[apart])
    assert np.array_equal(outer, r[apart] - 1.0)
