"""Curved-boundary geometry: field values and ray intersection."""

import math

import numpy as np
import pytest

from shiftfem import geometry
from shiftfem.errors import InvalidParam, MeshAssumptionViolated, NoConvergence
from shiftfem.geometry import annulus, ellipse, ray_boundary_intersection, unit_square


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParam):
        ellipse(-1.0)
    with pytest.raises(InvalidParam):
        annulus(0.0)
    with pytest.raises(InvalidParam):
        annulus(1.2)


def test_polygon_has_no_curved_pieces():
    geom = unit_square()
    assert geom.kind == "polygon" and geom.pieces == ()
    with pytest.raises(InvalidParam, match="no curved boundary"):
        geom.value_many([(0.5, 0.5)])


def test_ray_from_center_hits_ellipse():
    # g(t) = (0.3 t / 0.5)^2 + (0.4 t)^2 - 1 = 0.52 t^2 - 1, root t = 1/sqrt(0.52)
    piece, = ellipse(0.5).pieces
    p = ray_boundary_intersection(piece, (0.0, 0.0), (0.3, 0.4))
    t = 1.0 / math.sqrt(0.52)
    assert np.allclose(p, [0.3 * t, 0.4 * t], atol=1e-12)
    assert abs(piece.value(p[0], p[1])) <= 1e-12


def test_offset_ray_hits_unit_circle_at_parameter_one():
    # (0.6 + 0.2 t)^2 + (0.6 t)^2 = 1 has roots t = 1 and t = -1.6
    p = ray_boundary_intersection(annulus(0.5).pieces[1], (0.6, 0.0), (0.8, 0.6))
    assert np.allclose(p, [0.8, 0.6], atol=1e-12)


def test_nearest_root_to_unit_parameter_wins():
    # ray (1 - 0.9 t, 0.05) crosses the inner circle r = 0.5 at
    # t = (1 -+ sqrt(0.2475)) / 0.9, both inside the bracket
    p = ray_boundary_intersection(annulus(0.5).pieces[0], (1.0, 0.05), (0.1, 0.05))
    assert np.allclose(p, [math.sqrt(0.2475), 0.05], atol=1e-12)


def test_random_rays_land_on_boundary_and_stay_collinear():
    rng = np.random.default_rng(98765)
    # (piece, curve radius, x scale of the curve, radius of the ray origins)
    cases = [(ellipse(0.5).pieces[0], 1.0, 0.5, 0.1), (annulus(0.5).pieces[1], 1.0, 1.0, 0.75),
             (annulus(0.5).pieces[0], 0.5, 1.0, 0.75)]
    for piece, radius, x_scale, start in cases:
        for _ in range(20):
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            wobble = rng.uniform(0.97, 1.03)
            near = (wobble * x_scale * radius * math.cos(theta),
                    wobble * radius * math.sin(theta))
            origin = (start * math.cos(theta), start * math.sin(theta))
            p = ray_boundary_intersection(piece, origin, near)
            assert abs(piece.value(p[0], p[1])) <= 1e-12
            d = np.subtract(near, origin)
            r = np.subtract(p, origin)
            cross = abs(d[0] * r[1] - d[1] * r[0])
            assert cross <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(r)


def test_no_root_in_bracket_raises():
    piece, = ellipse(0.5).pieces
    with pytest.raises(MeshAssumptionViolated, match="too coarse for the curved boundary, "
                                                     "refine it") as info:
        ray_boundary_intersection(piece, np.array([0.0, 0.0]), np.array([0.05, 0.05]))
    assert "np.float64" not in str(info.value)
    assert "(0.5, 2.0)" in str(info.value)
    assert "(0.0, 0.0) -> (0.05, 0.05)" in str(info.value)


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_NEWTON_ITER", 1)
    with pytest.raises(NoConvergence, match="in 1 iterations"):
        ray_boundary_intersection(ellipse(0.5).pieces[0], (0.0, 0.0), (0.3, 0.4))


def test_value_many_is_max_over_pieces():
    rng = np.random.default_rng(4242)
    pts = rng.uniform(-1.2, 1.2, size=(50, 2))
    for geom in (ellipse(0.5), annulus(0.5)):
        want = [max(p.value(x, y) for p in geom.pieces) for x, y in pts]
        assert np.allclose(geom.value_many(pts), want, rtol=0.0, atol=1e-14)
