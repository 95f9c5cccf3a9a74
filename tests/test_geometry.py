"""Implicit geometry: field values and ray intersection."""

import math

import numpy as np
import pytest

from shiftfem.errors import NoConvergence, NoRootInBracket
from shiftfem.geometry import (RayIntersectionQuery, annulus, ellipse, polygon,
                               ray_boundary_intersection, unit_square)


def test_polygon_signed_distance_and_classification():
    geom = unit_square()
    assert geom.value(0.5, 0.5) == pytest.approx(-0.5)
    assert geom.value(0.5, 0.0) == 0.0
    assert geom.value(2.0, 0.5) == pytest.approx(1.0)
    # nearest feature is the corner (0, 0)
    assert geom.value(-0.3, -0.4) == pytest.approx(0.5)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ellipse(-1.0)
    with pytest.raises(ValueError):
        annulus(0.0)
    with pytest.raises(ValueError):
        annulus(1.2)
    with pytest.raises(ValueError):
        polygon([(0.0, 0.0), (1.0, 0.0)])


def test_ray_from_center_hits_ellipse():
    # g(t) = (0.3 t / 0.5)^2 + (0.4 t)^2 - 1 = 0.52 t^2 - 1, root t = 1/sqrt(0.52)
    geom = ellipse(0.5)
    q = RayIntersectionQuery(origin=(0.0, 0.0), through=(0.3, 0.4))
    p = ray_boundary_intersection(geom, q)
    t = 1.0 / math.sqrt(0.52)
    assert np.allclose(p, [0.3 * t, 0.4 * t], atol=1e-12)
    assert abs(geom.value(p[0], p[1])) <= 1e-12


def test_offset_ray_hits_unit_circle_at_parameter_one():
    # (0.6 + 0.2 t)^2 + (0.6 t)^2 = 1 has roots t = 1 and t = -1.6
    geom = annulus(0.5)
    q = RayIntersectionQuery(origin=(0.6, 0.0), through=(0.8, 0.6))
    p = ray_boundary_intersection(geom, q, piece=geom.pieces[1])
    assert np.allclose(p, [0.8, 0.6], atol=1e-12)


def test_nearest_root_to_unit_parameter_wins():
    # ray (1 - 0.9 t, 0.05) crosses the inner circle r = 0.5 at
    # t = (1 -+ sqrt(0.2475)) / 0.9, both inside the bracket
    geom = annulus(0.5)
    q = RayIntersectionQuery(origin=(1.0, 0.05), through=(0.1, 0.05))
    p = ray_boundary_intersection(geom, q, piece=geom.pieces[0])
    assert np.allclose(p, [math.sqrt(0.2475), 0.05], atol=1e-12)


def test_piece_defaults_to_nearest_curve():
    geom = annulus(0.5)
    # through-point sits near the inner circle, so that piece is chosen
    q = RayIntersectionQuery(origin=(0.7, 0.1), through=(0.49, 0.07))
    p = ray_boundary_intersection(geom, q)
    assert math.hypot(p[0], p[1]) == pytest.approx(0.5, abs=1e-12)


def test_random_rays_land_on_boundary_and_stay_collinear():
    rng = np.random.default_rng(98765)
    geoms = [(ellipse(0.5), None), (annulus(0.5), "outer"), (annulus(0.5), "inner")]
    for geom, piece_name in geoms:
        piece = None
        radius = 1.0
        if piece_name is not None:
            piece = {p.name: p for p in geom.pieces}[piece_name]
            radius = 0.5 if piece_name == "inner" else 1.0
        for _ in range(20):
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            wobble = rng.uniform(0.97, 1.03)
            if geom.kind == "ellipse":
                near = (wobble * 0.5 * radius * math.cos(theta),
                        wobble * radius * math.sin(theta))
                origin = (0.1 * math.cos(theta), 0.1 * math.sin(theta))
            else:
                near = (wobble * radius * math.cos(theta),
                        wobble * radius * math.sin(theta))
                mid = 0.75
                origin = (mid * math.cos(theta), mid * math.sin(theta))
            q = RayIntersectionQuery(origin=origin, through=near)
            p = ray_boundary_intersection(geom, q, piece=piece)
            gval = geom.value(p[0], p[1]) if piece is None else piece.value(p[0], p[1])
            assert abs(gval) <= 1e-12
            d = np.subtract(near, origin)
            r = np.subtract(p, origin)
            cross = abs(d[0] * r[1] - d[1] * r[0])
            assert cross <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(r)


def test_no_root_in_bracket_raises():
    geom = ellipse(0.5)
    q = RayIntersectionQuery(origin=(np.float64(0.0), np.float64(0.0)),
                             through=(np.float64(0.05), np.float64(0.05)))
    with pytest.raises(NoRootInBracket) as info:
        ray_boundary_intersection(geom, q)
    assert "np.float64" not in str(info.value)
    assert "(0.0, 0.0) -> (0.05, 0.05)" in str(info.value)


def test_iteration_cap_raises():
    geom = ellipse(0.5)
    q = RayIntersectionQuery(origin=(0.0, 0.0), through=(0.3, 0.4))
    with pytest.raises(NoConvergence):
        ray_boundary_intersection(geom, q, tol=1e-30, max_iter=1)


def test_vectorized_field_values_match_scalar():
    rng = np.random.default_rng(4242)
    pts = rng.uniform(-1.2, 1.2, size=(50, 2))
    for geom in (ellipse(0.5), annulus(0.5), unit_square()):
        many = geom.value_many(pts)
        one = np.array([geom.value(x, y) for x, y in pts])
        assert np.allclose(many, one, atol=1e-14)


def test_piece_for_edge_selects_matching_circle():
    geom = annulus(0.5)
    s = math.sqrt(0.5)
    assert geom.piece_for_edge((0.5, 0.0), (0.5 * s, 0.5 * s)).name == "inner"
    assert geom.piece_for_edge((1.0, 0.0), (s, s)).name == "outer"
