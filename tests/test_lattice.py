"""Lattice geometry groundwork: hulls, polygons, orders, boundary chains."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropico.lattice import (
    LatticePolygon,
    LinearOrder,
    NonInjectiveOrder,
    boundary_chains,
    convex_hull,
    cross,
    extremal_vertices,
    grid_rectangle,
    lattice_length,
    primitive,
    standard_triangle,
    toric_degree,
)


def test_cross_and_primitive():
    assert cross((1, 0), (0, 1)) == 1
    assert cross((2, 1), (4, 2)) == 0
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, -5)) == (0, -1)
    assert lattice_length((3, 6)) == 3
    assert lattice_length((0, 4)) == 4


def test_convex_hull_known():
    pts = [(0, 0), (2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]
    assert convex_hull(pts) == [(0, 0), (2, 0), (0, 2)]


def test_convex_hull_degenerate():
    assert convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]
    assert convex_hull([(3, 4)]) == [(3, 4)]
    assert convex_hull([(3, 4), (3, 4)]) == [(3, 4)]


points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(points, min_size=1, max_size=14))
def test_convex_hull_idempotent_and_containing(pts):
    hull = convex_hull(pts)
    assert convex_hull(hull) == hull
    if len(hull) >= 3:
        poly = LatticePolygon(hull)
        assert all(poly.contains(p) for p in pts)


def test_polygon_canonical_order():
    P = LatticePolygon([(3, 0), (0, 0), (0, 3)])
    assert P.vertices == ((0, 0), (3, 0), (0, 3))
    assert P == standard_triangle(3)


def test_polygon_rejects_bad_input():
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (2, 0), (0, 2), (1, 0)])  # mid-side point
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (3, 0), (0, 3), (1, 1)])  # interior point
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (0, 0), (1, 0)])
    with pytest.raises(TypeError, match="must be integers, got 3.9"):
        LatticePolygon([(0, 0), (3.9, 0), (0, 3)])  # not truncated to 3
    # neither is a string or a bool read as the integer it spells
    with pytest.raises(TypeError, match="must be integers, got '3'"):
        LatticePolygon([(0, 0), ("3", 0), (0, 3)])
    with pytest.raises(TypeError, match="must be integers, got True"):
        LatticePolygon([(0, 0), (3, 0), (0, True)])


def test_area_and_counts():
    for d in (1, 2, 3, 4):
        P = standard_triangle(d)
        assert P.double_area() == d * d
        s, l = P.counts()
        assert s == 3 * d
        assert l == (d - 1) * (d - 2) // 2
    R = grid_rectangle(2, 3)
    assert R.double_area() == 12
    assert R.counts() == (10, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(points, min_size=3, max_size=10))
def test_picks_identity(pts):
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    P = LatticePolygon(hull)
    s, l = P.counts()
    assert P.double_area() == 2 * l + s - 2
    x0, y0, x1, y1 = P.bounding_box()
    box = [(x, y) for x in range(x0 - 1, x1 + 2) for y in range(y0 - 1, y1 + 2)]
    assert sorted(p for p in box if P.side_bits(p) is not None) == sorted(P.lattice_points())
    assert {p for p in box if P.side_bits(p)} == set(P.boundary_lattice_points())


def test_membership():
    P = standard_triangle(2)
    assert P.contains((1, 1)) and P.on_boundary((1, 1))
    assert P.strictly_contains((1, 0)) is False
    assert P.contains((2, 1)) is False
    assert sorted(P.lattice_points()) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]
    # sides (0,0)-(2,0), (2,0)-(0,2), (0,2)-(0,0) are bits 1, 2, 4
    assert {p: P.side_bits(p) for p in P.lattice_points()} == {
        (0, 0): 5, (1, 0): 1, (2, 0): 3, (1, 1): 2, (0, 2): 6, (0, 1): 4,
    }
    assert P.side_bits((2, 1)) is None
    assert standard_triangle(3).side_bits((1, 1)) == 0
    # looked up per point, so the polygon's area does not matter
    big = standard_triangle(10**9)
    assert big.side_bits((10**9, 0)) == 3 and big.side_bits((1, 1)) == 0


def test_boundary_lattice_points_cyclic():
    P = standard_triangle(2)
    cyc = P.boundary_lattice_points()
    assert len(cyc) == 6
    assert cyc[0] == (0, 0)
    assert set(cyc) == {(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (0, 1)}


def test_polygon_json_roundtrip():
    P = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    Q = LatticePolygon.from_json(P.to_json())
    assert P == Q
    assert json.loads(P.to_json())["vertices"] == [[0, 0], [1, 0], [2, 2], [0, 1]]


def test_order_key_and_default():
    order = LinearOrder.default()
    assert order.primary == (1, 0) and order.tiebreak == (0, -1)
    assert order.key((2, 5)) == (2, -5)
    assert LinearOrder.from_json(order.to_json()).key((3, 1)) == order.key((3, 1))


def test_order_refuses_non_integers():
    with pytest.raises(TypeError, match="must be integers, got 0.9"):
        LinearOrder((0.9, 1), (1, -1))
    with pytest.raises(TypeError, match="must be integers, got True"):
        LinearOrder.from_json('{"primary": [true, 0], "tiebreak": [0, -1]}')
    with pytest.raises(TypeError, match="must be integers, got '0'"):
        LinearOrder.from_json('{"primary": [1, 0], "tiebreak": ["0", -1]}')


def test_constructors_refuse_degenerate_input():
    with pytest.raises(ValueError, match="^degree must be positive$"):
        standard_triangle(0)
    with pytest.raises(ValueError, match="^side lengths must be positive$"):
        grid_rectangle(0, 2)
    with pytest.raises(ValueError, match="^order vectors must be 2-dimensional$"):
        LinearOrder((1, 0, 0), (0, 1))
    with pytest.raises(ValueError, match="^zero vector has no lattice length$"):
        lattice_length((0, 0))


def test_extremal_vertices_default_order():
    P = standard_triangle(3)
    p, q = extremal_vertices(P, LinearOrder.default())
    assert (p, q) == ((0, 3), (3, 0))


def test_non_injective_order_raises():
    with pytest.raises(NonInjectiveOrder):
        extremal_vertices(standard_triangle(2), LinearOrder((1, 0), (2, 0)))


def test_boundary_chains_split():
    P = standard_triangle(2)
    plus, minus = boundary_chains(P, LinearOrder.default())
    assert plus == ((0, 2), (1, 1), (2, 0))
    assert minus == ((0, 2), (0, 1), (0, 0), (1, 0), (2, 0))
    s, _ = P.counts()
    assert (len(plus) - 1) + (len(minus) - 1) == s


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=3, max_size=10))
def test_boundary_chains_cover(pts):
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    P = LatticePolygon(hull)
    order = LinearOrder.default()
    if not order.is_injective_on(P.lattice_points()):
        return
    plus, minus = boundary_chains(P, order)
    keys = [order.key(p) for p in plus]
    assert keys == sorted(keys)
    keys = [order.key(p) for p in minus]
    assert keys == sorted(keys)
    s, _ = P.counts()
    assert (len(plus) - 1) + (len(minus) - 1) == s
    assert set(plus) | set(minus) == set(P.boundary_lattice_points())


def test_toric_degree():
    td = toric_degree(standard_triangle(2))
    assert sorted(td.entries) == [((-1, 0), 2), ((0, -1), 2), ((1, 1), 2)]
    assert td.total() == (0, 0)
    td = toric_degree(grid_rectangle(1, 3))
    assert sorted(td.entries) == [((-1, 0), 3), ((0, -1), 1), ((0, 1), 1), ((1, 0), 3)]
