"""Increasing lattice paths, their multiplicities and decoded curves."""

import gc
import itertools
import json
import random
import weakref
from math import gcd

import pytest
from conftest import random_order

from tropico import paths
from tropico.lattice import (
    LatticePolygon,
    LinearOrder,
    boundary_chains,
    grid_rectangle,
    standard_triangle,
    sub,
)
from tropico.paths import (
    DualSubdivision,
    InvalidGenus,
    MalformedSubdivision,
    Side,
    count,
    decode,
    enumerate_paths,
    first_convex_vertex,
    mu,
    mu_side,
    path_to_json,
)
from tropico.real import (
    SignedPath,
    _combine,
    _mu_real_step,
    _pack,
    _nu_step,
    _step_classes,
    mu_real_side,
    nu_real_side,
    sign_class_of,
    welschinger_count,
)

DEFAULT = LinearOrder.default()
CUSP = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])

# One fixed genus-0 path on the degree-3 triangle.  The assertions below pin
# the orientation conventions: which side of the path is "plus", where the
# first convex corner of each side sits, and what the two one-sided
# multiplicities are.  If any convention flips, this test fails first.
CAL_PATH = ((0, 3), (0, 2), (0, 1), (1, 2), (1, 1), (1, 0), (2, 1), (2, 0), (3, 0))


def test_side_enum():
    assert ~Side.PLUS is Side.MINUS
    assert ~Side.MINUS is Side.PLUS


def test_calibration_convex_vertices():
    assert first_convex_vertex(CAL_PATH, Side.PLUS) == 2
    assert first_convex_vertex(CAL_PATH, Side.MINUS) == 3
    straight = ((0, 0), (1, 0), (2, 0))
    assert first_convex_vertex(straight, Side.PLUS) is None
    assert first_convex_vertex(straight, Side.MINUS) is None


def test_calibration_multiplicities():
    P = standard_triangle(3)
    assert mu_side(P, DEFAULT, CAL_PATH, Side.PLUS) == 1
    assert mu_side(P, DEFAULT, CAL_PATH, Side.MINUS) == 2
    assert mu(P, DEFAULT, CAL_PATH) == 2


def test_path_validation():
    P = standard_triangle(2)
    assert mu(P, DEFAULT, ((0, 2), (2, 0))) == 0  # valid path, no corners
    with pytest.raises(ValueError, match=r"^path must run from \(0, 2\) to \(2, 0\)$"):
        mu(P, DEFAULT, ((0, 1), (2, 0)))  # wrong start point
    with pytest.raises(ValueError, match="^path is not strictly increasing under the order$"):
        mu(P, DEFAULT, ((0, 2), (1, 0), (0, 1), (2, 0)))
    with pytest.raises(ValueError, match="^path leaves the polygon$"):
        mu(P, DEFAULT, ((0, 2), (1, 2), (2, 0)))
    with pytest.raises(ValueError, match="^a path needs at least one step$"):
        mu(P, DEFAULT, ((0, 2),))


def test_enumerate_paths_shape():
    P = standard_triangle(2)
    paths = list(enumerate_paths(P, DEFAULT, 5))
    assert len(paths) == 1
    for pts in paths:
        assert pts[0] == (0, 2) and pts[-1] == (2, 0)
        assert len(pts) == 6
        keys = [DEFAULT.key(p) for p in pts]
        assert keys == sorted(keys)
    assert len(set(paths)) == len(paths)


def test_enumerate_path_totals_degree_four():
    P = standard_triangle(4)
    s, l = P.counts()
    assert (s, l) == (12, 3)
    assert sum(1 for _ in enumerate_paths(P, DEFAULT, s - 2)) == 715
    assert sum(1 for _ in enumerate_paths(P, DEFAULT, s - 1)) == 286
    assert sum(1 for _ in enumerate_paths(P, DEFAULT, s)) == 78


def test_counts_small_degrees():
    assert count(standard_triangle(1), 0) == 1
    assert count(standard_triangle(2), -1) == 3
    assert count(standard_triangle(2), 0) == 1
    assert count(standard_triangle(3), -1) == 21
    assert count(standard_triangle(3), 0) == 12
    assert count(standard_triangle(3), 1) == 1


def test_counts_above_top_genus_vanish():
    assert count(standard_triangle(2), 1) == 0
    assert count(standard_triangle(3), 2) == 0


def test_invalid_genus():
    with pytest.raises(InvalidGenus):
        count(standard_triangle(1), -2)
    with pytest.raises(ValueError):
        list(enumerate_paths(standard_triangle(1), DEFAULT, 0))


def test_counts_match_node_polynomial_at_one_node():
    # One-node count from the polygon's basic invariants: six times the area
    # minus twice the boundary count plus the number of vertices.
    cases = [
        standard_triangle(2),
        standard_triangle(3),
        standard_triangle(4),
        grid_rectangle(2, 2),
        grid_rectangle(2, 3),
    ]
    for P in cases:
        s, l = P.counts()
        expected = 3 * P.double_area() - 2 * s + len(P.vertices)
        assert count(P, l - 1) == expected


def test_counts_match_kleiman_piene_node_polynomials():
    """Plane curves of degree d with delta nodes through the right number of
    generic points: the node polynomials of Kleiman and Piene ("Enumerating
    singular curves on surfaces", 1999) for delta <= 3, which hold for
    d >= delta / 2 + 1 (Fomin and Mikhalkin, "Labeled floor diagrams for
    plane curves", 2010).  Such a curve has genus (d - 1)(d - 2) / 2 - delta,
    negative where it is reducible."""
    polynomials = {
        1: lambda d: 3 * (d - 1) ** 2,
        2: lambda d: 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11) // 2,
        3: lambda d: (9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3 - 458 * d**2 - 829 * d
                      + 1050) // 2,
    }
    cells = 0
    for delta, node_polynomial in polynomials.items():
        for d in range(2, 7):
            if 2 * d >= delta + 2:
                g = (d - 1) * (d - 2) // 2 - delta
                assert count(standard_triangle(d), g) == node_polynomial(d), (d, delta)
                cells += 1
    assert cells == 14
    # the cells quoted with the polynomials
    assert count(standard_triangle(3), -2) == 15
    assert [count(standard_triangle(6), g) for g in (7, 8, 9)] == [41310, 2370, 75]


def test_blow_up_identity():
    """Cutting the unit corner (0, d) off tri d gives the toric blow-up of
    the plane at a point.  A degree-d curve through one more point is a
    curve of class dH - E there, so both counts agree with tri d's at every
    genus, although the two polygons differ in their paths."""
    for d in (3, 4, 5):
        P = LatticePolygon([(0, 0), (d, 0), (1, d - 1), (0, d - 1)])
        T = standard_triangle(d)
        assert P.counts()[0] == T.counts()[0] - 1
        g_max = T.counts()[1]
        counts = [count(P, g) for g in range(-1, g_max)]
        assert counts == [count(T, g) for g in range(-1, g_max)], d
        assert [welschinger_count(P, g) for g in range(-1, g_max)] == [
            welschinger_count(T, g) for g in range(-1, g_max)
        ], d
    assert counts == [65949, 109781, 90027, 36975, 7915, 882, 48]


def test_count_is_order_independent():
    orders = [DEFAULT, LinearOrder((1, 3), (1, 0)), LinearOrder((2, 1), (0, 1))]
    P = standard_triangle(3)
    for g in (-1, 0, 1):
        values = {count(P, g, order) for order in orders}
        assert len(values) == 1
    R = grid_rectangle(2, 2)
    for g in (-1, 0, 1):
        values = {count(R, g, order) for order in orders}
        assert len(values) == 1


def test_bidegree_counts():
    R = grid_rectangle(2, 2)
    assert count(R, 0) == 12
    assert count(R, 1) == 1
    assert count(grid_rectangle(1, 1), 0) == 1


def test_decode_calibration_path():
    P = standard_triangle(3)
    curves = decode(P, DEFAULT, CAL_PATH)
    assert sum(c.multiplicity for c in curves) == mu(P, DEFAULT, CAL_PATH)
    for c in curves:
        c.subdivision.validate_tiling()
        assert c.genus() == 0
        assert c.path == CAL_PATH
        assert c.marked_edges == tuple(
            (CAL_PATH[j], CAL_PATH[j + 1]) for j in range(len(CAL_PATH) - 1)
        )
        edge_keys = set(c.subdivision.edge_map())
        for a, b in c.marked_edges:
            assert ((a, b) if a <= b else (b, a)) in edge_keys


def test_decode_totals_over_all_paths():
    for P, g in [(standard_triangle(2), -1), (standard_triangle(2), 0), (standard_triangle(3), 0)]:
        s, _ = P.counts()
        total = 0
        for pts in enumerate_paths(P, DEFAULT, s + g - 1):
            curves = decode(P, DEFAULT, pts)
            assert sum(c.multiplicity for c in curves) == mu(P, DEFAULT, pts)
            total += sum(c.multiplicity for c in curves)
        assert total == count(P, g)


def test_decode_triangle_census():
    # Every decoded subdivision of a contributing path splits into triangles
    # and parallelograms, with s + 2g - 2 triangles and unit boundary edges.
    P = standard_triangle(3)
    s, _ = P.counts()
    for g in (-1, 0, 1):
        for pts in enumerate_paths(P, DEFAULT, s + g - 1):
            for c in decode(P, DEFAULT, pts):
                D = c.subdivision
                assert D.is_simple()
                assert len(D.triangles()) == s + 2 * g - 2
                for a, b in D.boundary_edges():
                    assert abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1


def test_subdivision_validation_rejects_garbage():
    square = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    t1 = LatticePolygon([(0, 0), (1, 0), (1, 1)])
    t2 = LatticePolygon([(0, 0), (1, 1), (0, 1)])
    DualSubdivision(square, (t1, t2)).validate_tiling()
    with pytest.raises(MalformedSubdivision):
        DualSubdivision(square, (t1,)).validate_tiling()
    t_overlap = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(MalformedSubdivision):
        DualSubdivision(square, (t1, t_overlap)).validate_tiling()
    big = LatticePolygon([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(MalformedSubdivision):
        DualSubdivision(square, (t1, big)).validate_tiling()


def test_subdivision_validation_names_each_fault():
    # tri2's sides carry lattice points in their middles, so a cell edge can
    # join two boundary points without lying on the boundary
    P = standard_triangle(2)
    t1 = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    t2 = LatticePolygon([(1, 0), (2, 0), (1, 1)])
    t3 = LatticePolygon([(0, 1), (1, 1), (0, 2)])
    t4 = LatticePolygon([(1, 0), (1, 1), (0, 1)])  # every edge joins two sides
    outside = LatticePolygon([(2, 1), (3, 1), (2, 2)])
    assert set(DualSubdivision(P, (t1, t2, t3, t4)).validate_tiling()) == {
        ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 1), (2, 0)), ((0, 2), (1, 1)),
        ((0, 1), (0, 2)), ((0, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1)),
        ((0, 1), (1, 1)),
    }
    faults = [
        ((t1, t2, t3), "cell areas do not add up to the ambient area"),
        ((t1, t1, t1, t4), r"edge \(0, 0\)-\(1, 0\) belongs to 3 cells"),
        ((t1, t1, t4, t4), r"boundary edge \(0, 0\)-\(1, 0\) has two cells"),
        # (0,1) and (1,0) are on different sides: the edge is interior
        ((t1, t2, t3, t3), r"interior edge \(0, 1\)-\(1, 0\) has only one cell"),
        # every edge is in two cells, but the doubled cell outside is not in P
        ((t4, t4, outside, outside), "cell sticks out of the ambient polygon"),
    ]
    for cells, message in faults:
        with pytest.raises(MalformedSubdivision, match=message):
            DualSubdivision(P, cells).validate_tiling()
    # rect2's fan around its interior point (1,1), one triangle doubled
    R = grid_rectangle(2, 2)
    fan = [LatticePolygon([a, b, (1, 1)])
           for a, b in (((0, 0), (2, 0)), ((2, 0), (2, 2)), ((2, 2), (0, 2)), ((0, 2), (0, 0)))]
    DualSubdivision(R, tuple(fan)).validate_tiling()
    with pytest.raises(MalformedSubdivision, match=r"interior edge \(0, 0\)-\(1, 1\) has only one cell"):
        DualSubdivision(R, tuple(fan[:3]) + (fan[2],)).validate_tiling()


def test_ambiguous_polygon_order_counts():
    # A support whose extremes depend on the order: the count does not.
    P = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    assert count(P, 0, DEFAULT) == 5
    assert count(P, 0, LinearOrder((-1, 0), (0, 1))) == 5


def test_ambiguous_polygon_path_profile():
    P = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    s, _ = P.counts()

    def profile(order):
        sizes = []
        for pts in enumerate_paths(P, order, s - 1):
            m = mu(P, order, pts)
            if m:
                sizes.append(m)
        return sorted(sizes)

    assert profile(DEFAULT) == [1, 4]
    assert profile(LinearOrder((-1, 0), (0, 1))) == [1, 4]
    assert profile(LinearOrder((1, 0), (0, 1))) == [1, 1, 3]


def test_path_json():
    data = json.loads(path_to_json(CAL_PATH))
    assert data["points"][0] == [0, 3]
    assert len(data["points"]) == len(CAL_PATH)


def test_context_cache_stays_bounded():
    rng = random.Random(5)
    P = standard_triangle(4)
    for _ in range(60):
        assert count(P, 0, random_order(rng)) == 675
        assert len(paths._contexts) <= paths._CONTEXTS_KEPT
    # like `table`: the default order, then a resampled one, genus by genus;
    # the default-order context and its memos stay in the cache throughout
    ctx = paths._context(P, DEFAULT)
    for g in range(-1, 4):
        assert count(P, g) == count(P, g, random_order(rng))
        assert paths._context(P, DEFAULT) is ctx


def test_decoded_cells_leave_with_their_context():
    # decoded cells live in their context's memo, so a long session that
    # decodes under ever new orders keeps only the last contexts' cells
    rng = random.Random(16)
    P = standard_triangle(3)
    pts = ((0, 3), (0, 2), (0, 1), (1, 2), (1, 1), (1, 0), (2, 1), (2, 0), (3, 0))
    cell = weakref.ref(decode(P, DEFAULT, pts)[0].subdivision.cells[0])
    gc.collect()
    assert cell() is not None
    for _ in range(paths._CONTEXTS_KEPT):
        assert count(P, 0, random_order(rng)) == 12
    gc.collect()
    assert cell() is None


# -- the walk: every path's rows, in enumeration order ----------------------


def _orders(seed, draws):
    rng = random.Random(seed)
    return [DEFAULT] + [random_order(rng) for _ in range(draws)]


def _reference_rows(P, order, n, rule, step_class=None):
    """(path, plus, minus) for every path with n steps, each side value
    evaluated on its own, the class of each step packed in the slot of the
    point it leaves."""
    ctx = paths._context(P, order)
    rows = []
    for pts in enumerate_paths(P, order, n):
        m = paths._check_path(ctx, pts)
        packed = 0
        if step_class is not None:
            packed = sum(step_class(k, *sub(b, a)) << 4 * ctx.points.index(a)
                         for k, (a, b) in enumerate(zip(pts, pts[1:])))
        rows.append((pts, ctx.side_value(rule, m, packed, Side.PLUS),
                     ctx.side_value(rule, m, packed, Side.MINUS)))
    return rows


@pytest.mark.parametrize("P, genera", [
    (standard_triangle(3), range(-2, 2)),
    (standard_triangle(4), range(-1, 4)),
    (grid_rectangle(3, 3), range(-1, 5)),
    (CUSP, (0, 1)),
])
def test_walk_rows_match_enumeration(P, genera):
    """Against a plain loop over `enumerate_paths`, under three orders and
    under mu, nu and the signed rule with a random quadrant sign per step:
    the walk without pruning yields every row of the loop, and the lazy
    walk exactly the rows whose product is nonzero, in the same order."""
    rng = random.Random(f"walk|{P.vertices}")
    for order in _orders(f"walk|{P.vertices}", 2):
        for g in genera:
            n = paths._steps_for_genus(P, g)
            signs = _step_classes([(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)])
            for rule, step_class in ((paths._mu_step, None), (_nu_step, None),
                                     (_mu_real_step, signs)):
                want = _reference_rows(P, order, n, rule, step_class)
                assert list(paths._path_sides(P, order, n, rule, step_class, lazy=False)) == want
                nonzero = [row for row in want if row[1] * row[2]]
                assert list(paths._path_sides(P, order, n, rule, step_class)) == nonzero


def test_walk_counts_rect4_genus_zero():
    """rect4 at g = 0, 817,190 paths, under the default order and a random
    one."""
    P = grid_rectangle(4, 4)
    for order in _orders("walk|rect4", 1):
        assert count(P, 0, order) == 10307900


@pytest.mark.parametrize("P, g", [(standard_triangle(3), -1), (standard_triangle(4), -1)])
def test_closure_rows_match_enumeration(P, g):
    """At g = -1, where pruning drops most prefixes, the rows that contribute
    are those of the walk without pruning, in the same order, for the
    sign-free rules and the signed rule."""
    n = paths._steps_for_genus(P, g)
    for order in _orders(f"rows|{P.vertices}", 2):
        signs = _step_classes([(k & 1, k >> 1 & 1) for k in range(n)])
        for rule, step_class in ((paths._mu_step, None), (_nu_step, None), (_mu_real_step, signs)):
            rows = {lazy: [row for row in paths._path_sides(P, order, n, rule, step_class, lazy)
                           if row[1] * row[2]] for lazy in (True, False)}
            assert rows[True]
            assert rows[True] == rows[False]


# -- reference recursion: point tuples, no memo, from the definition ---------


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _area_weight(u, v, classes, k):
    return [(abs(_cross(u, v)), classes)]


def _welschinger_weight(u, v, classes, k):
    """0 when a side of the corner triangle has even lattice length, else -1
    to the number of its interior lattice points (Pick)."""
    sides = (u, v, (u[0] + v[0], u[1] + v[1]))
    lengths = [gcd(abs(x), abs(y)) for x, y in sides]
    if any(n % 2 == 0 for n in lengths):
        return []
    interior = (abs(_cross(u, v)) - sum(lengths) + 2) // 2
    return [((-1) ** interior, classes)]


def _signed_weight(u, v, classes, k):
    merged = (u[0] + v[0], u[1] + v[1])
    return [
        (w, classes[: k - 1] + (cls,) + classes[k + 1 :])
        for w, cls in _combine(classes[k - 1], u, classes[k], v, merged)
    ]


def _reference_side(P, order, path, side, weight, classes=None):
    """One-sided value of a path: 0 below the side's boundary chain length,
    1 on the chain; else, at the first vertex turning the side's way, the
    weighted cut of the corner triangle plus the parallelogram mirror,
    which weighs 1 and swaps the two steps' classes."""
    alpha = boundary_chains(P, order)[0 if side is Side.PLUS else 1]
    if len(path) < len(alpha):
        return 0
    if path == alpha:
        return 1
    turn = 1 if side is Side.PLUS else -1
    for k in range(1, len(path) - 1):
        a, b, c = path[k - 1], path[k], path[k + 1]
        u, v = (b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])
        if _cross(u, v) * turn > 0:
            break
    else:
        return 0
    total = sum(
        w * _reference_side(P, order, path[:k] + path[k + 1 :], side, weight, cut)
        for w, cut in weight(u, v, classes, k)
    )
    mirror = (a[0] + v[0], a[1] + v[1])
    if P.contains(mirror):
        if classes is not None:
            classes = classes[: k - 1] + (classes[k], classes[k - 1]) + classes[k + 1 :]
        total += _reference_side(P, order, path[:k] + (mirror,) + path[k + 1 :], side, weight, classes)
    return total


@pytest.mark.parametrize("P, g", [
    (standard_triangle(3), 0), (standard_triangle(4), 1), (grid_rectangle(2, 2), 0), (CUSP, 0),
])
def test_side_values_match_reference_recursion(P, g):
    rng = random.Random(f"{P.vertices}|{g}")
    s, _ = P.counts()
    n = s + g - 1
    for _ in range(5):
        order = random_order(rng)
        choices = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)]
        for pts in enumerate_paths(P, order, n):
            classes = tuple(
                sign_class_of((b[0] - a[0], b[1] - a[1]), c)
                for a, b, c in zip(pts, pts[1:], choices)
            )
            signed = SignedPath(pts, classes)
            for side in Side:
                assert mu_side(P, order, pts, side) == _reference_side(P, order, pts, side, _area_weight)
                assert nu_real_side(P, order, pts, side) == _reference_side(
                    P, order, pts, side, _welschinger_weight)
                assert mu_real_side(P, order, signed, side) == _reference_side(
                    P, order, pts, side, _signed_weight, classes)


# -- the split at the points where a path meets its side's boundary chain ----


def _excursions(m, alpha):
    """The number of stretches between consecutive common points of the
    masks m and alpha over which they run apart."""
    touch = [i for i in range(m.bit_length()) if m & alpha >> i & 1]
    return sum(1 for f, g in zip(touch, touch[1:]) if (m | alpha) >> (f + 1) & ((1 << (g - f - 1)) - 1))


@pytest.mark.parametrize("P", [standard_triangle(4), grid_rectangle(3, 3), CUSP])
def test_side_values_split_at_the_boundary_chain(P):
    """No move cuts or mirrors a corner on the side's boundary chain alpha,
    so the moves on either side of a point where a path meets alpha never
    interact, and a side value is the product over the path's excursions
    away from alpha.  Over every mask, under four orders: the corners, and
    on masks with two excursions or more, every step rule against the
    reference recursion, the signed rule with a random quadrant sign per
    step."""
    rng = random.Random(f"split|{P.vertices}")
    split = nonzero = 0
    for order in _orders(f"split|{P.vertices}", 3):
        ctx = paths._context(P, order)
        ends = 1 | 1 << (ctx.n - 1)
        masks = [ends | inner << 1 for inner in range(1 << (ctx.n - 2))]
        for side in Side:
            alpha = ctx.alpha[side]
            found = {False: [], True: []}
            for m in masks:
                step = ctx._moves(m, side)
                if step.__class__ is not int:
                    assert not alpha >> step[1] & 1
                if _excursions(m, alpha) >= 2:
                    found[ctx.side_value(paths._mu_step, m, 0, side) > 0].append(m)
            split += len(found[False]) + len(found[True])
            nonzero += len(found[True])
            zero = found[False][:: 1 + len(found[False]) // 5]
            for m in rng.sample(found[True], min(10, len(found[True]))) + zero:
                pts = tuple(itertools.compress(ctx.points, map(int, bin(m)[:1:-1])))
                classes = tuple(sign_class_of(sub(b, a), (rng.randint(0, 1), rng.randint(0, 1)))
                                for a, b in zip(pts, pts[1:]))
                for rule, weight in ((paths._mu_step, _area_weight),
                                     (_nu_step, _welschinger_weight)):
                    assert ctx.side_value(rule, m, 0, side) == _reference_side(
                        P, order, pts, side, weight)
                assert ctx.side_value(_mu_real_step, m, _pack(classes, m), side) == _reference_side(
                    P, order, pts, side, _signed_weight, classes)
    # the cusp's paths are too short to leave alpha twice with mu > 0
    assert split and (nonzero or P is CUSP)
