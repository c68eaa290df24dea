"""Headline acceptance checks, one test per published criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add `-s` to see the witnessed values and the convention notes.
"""

import itertools
import random

from conftest import random_concave, run_grid_oracle
from tropico.lattice import (
    LatticePolygon,
    LinearOrder,
    NonInjectiveOrder,
    _edge_key,
    grid_rectangle,
    lattice_length,
    standard_triangle,
    sub,
    toric_degree,
)
from tropico.paths import (
    Side,
    count,
    enumerate_paths,
    first_convex_vertex,
    mu,
    mu_side,
)
from tropico.real import (
    SignedPath,
    mu_real,
    nu_real_side,
    real_signed_count,
    sign_class_of,
    welschinger_count,
)
from tropico.curves import (
    TropicalPolynomial,
    check_balancing,
    curve_of,
    curve_real_multiplicity,
    decode,
    dual_subdivision,
    marked_dual_graph,
)

DEFAULT = LinearOrder.default()
ORDER_WEST = LinearOrder((-1, 0), (0, 1))
ORDER_EAST = LinearOrder((1, 0), (0, 1))
CUSP = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))

COUNT_TABLE = {
    1: {0: 1},
    2: {-1: 3, 0: 1},
    3: {-1: 21, 0: 12, 1: 1},
    4: {-1: 666, 0: 675, 1: 225, 2: 27, 3: 1},
}


def _contributing(P, order, g):
    """(path, mu) for every path of positive multiplicity."""
    s, _ = P.counts()
    out = []
    for pts in enumerate_paths(P, order, s + g - 1):
        m = mu(P, order, pts)
        if m:
            out.append((pts, m))
    return out


def _all_paths(P, order, g):
    s, _ = P.counts()
    return list(enumerate_paths(P, order, s + g - 1))


def _nu(P, order, pts):
    plus = nu_real_side(P, order, pts, Side.PLUS)
    return plus and plus * nu_real_side(P, order, pts, Side.MINUS)


def test_criterion_01_degree_count_table():
    got = {
        d: {g: count(standard_triangle(d), g) for g in col}
        for d, col in COUNT_TABLE.items()
    }
    assert got == COUNT_TABLE
    print("criterion 01 PASS: degree/genus count table reproduced:", got)


def test_criterion_02_cusp_quadrilateral_two_orders():
    profiles = {}
    for name, order, want in (
        ("west", ORDER_WEST, [1, 4]),
        ("east", ORDER_EAST, [1, 1, 3]),
    ):
        assert count(CUSP, 0, order) == 5
        mults = sorted(m for _, m in _contributing(CUSP, order, 0))
        assert mults == want
        profiles[name] = mults
    assert len(profiles["west"]) == 2
    assert len(profiles["east"]) == 3
    print(
        "criterion 02 PASS: cusp quadrilateral count 5 under both orders;"
        f" per-path decompositions {profiles['west']} (size 2) and"
        f" {profiles['east']} (size 3)"
    )


def test_criterion_03_conic_node_count_decomposition():
    P = standard_triangle(2)
    contrib = _contributing(P, DEFAULT, -1)
    assert count(P, -1) == 3
    assert sorted(m for _, m in contrib) == [1, 2]
    curves = [c for pts, _ in contrib for c in decode(P, DEFAULT, pts)]
    assert len(curves) == 3
    assert all(c.multiplicity == 1 for c in curves)
    print(
        "criterion 03 PASS: conic one-node count 3 decomposes into 3"
        " multiplicity-1 tropical curves"
    )
    print(
        "criterion 03 NOTE: reinterpreted at curve level. The three"
        " unit-weight objects are the decoded curves, not the paths:"
        " exactly two paths contribute, with mu = 2 and mu = 1, and they"
        " decode to 2 + 1 curves of multiplicity 1 each. A scan over sign"
        " and tiebreak variants of axis and diagonal orders shows no"
        " injective order yields three contributing paths of mu = 1."
    )


def test_criterion_04_eight_step_calibration_path():
    P = standard_triangle(3)
    path = ((0, 3), (0, 2), (0, 1), (1, 2), (1, 1), (1, 0), (2, 1), (2, 0), (3, 0))

    k = first_convex_vertex(path, Side.PLUS)
    assert k == 2
    mirror = (
        path[k - 1][0] + path[k + 1][0] - path[k][0],
        path[k - 1][1] + path[k + 1][1] - path[k][1],
    )
    assert mirror == (1, 3)
    assert not P.contains(mirror)

    j = first_convex_vertex(path, Side.MINUS)
    assert j == 3
    mirror2 = (
        path[j - 1][0] + path[j + 1][0] - path[j][0],
        path[j - 1][1] + path[j + 1][1] - path[j][1],
    )
    assert mirror2 == (0, 0)
    assert P.contains(mirror2)

    assert mu_side(P, DEFAULT, path, Side.PLUS) == 1
    assert mu_side(P, DEFAULT, path, Side.MINUS) == 2
    assert mu(P, DEFAULT, path) == 2
    print(
        "criterion 04 PASS: calibration path has mu_plus 1 (first plus"
        " corner k=2, mirror (1,3) outside) and mu_minus 2 (first minus"
        " corner k=3, mirror (0,0) inside)"
    )


def test_criterion_05_discriminant_degree_identity():
    cases = [
        standard_triangle(2),
        standard_triangle(3),
        standard_triangle(4),
        grid_rectangle(2, 2),
        grid_rectangle(2, 3),
    ]
    values = []
    for P in cases:
        s, l = P.counts()
        expect = 3 * P.double_area() - 2 * s + len(P.vertices)
        assert count(P, l - 1) == expect
        values.append(expect)
    for d, v in zip((2, 3, 4), values):
        assert v == 3 * (d - 1) ** 2
    assert values == [3, 12, 27, 12, 20]
    print(
        "criterion 05 PASS: count(P, l-1) = 6 Area - 2 s + #vertices holds;"
        f" values {values}"
    )


def test_criterion_06_welschinger_values():
    vals = (
        welschinger_count(standard_triangle(3), 0),
        welschinger_count(standard_triangle(4), 1),
        welschinger_count(CUSP, 0),
    )
    assert vals == (8, 93, 1)
    print("criterion 06 PASS: Welschinger counts (8, 93, 1) reproduced")


def test_criterion_07_positive_point_real_counts():
    cubic = real_signed_count(standard_triangle(3), 0, None, [(0, 0)] * 8)
    quartic = real_signed_count(standard_triangle(4), 1, None, [(0, 0)] * 12)
    assert cubic == 12
    assert quartic == 217
    print(
        "criterion 07 PASS: all-positive-quadrant real counts 12 (cubic,"
        " g=0) and 217 (quartic, g=1)"
    )
    print(
        "criterion 07 NOTE: quadrant sign classes are uniformly two-element"
        " sets, {r, r xor parity(primitive(step))}; even-weight steps do"
        " NOT collapse to singletons (the singleton reading yields 153 for"
        " the quartic instead of 217)."
    )


def test_criterion_08_parity_and_bound_properties():
    rng = random.Random(20260819)
    instances = [
        (standard_triangle(d), DEFAULT, g)
        for d, col in COUNT_TABLE.items()
        for g in col
    ]
    instances += [(CUSP, ORDER_WEST, 0), (CUSP, ORDER_EAST, 0)]

    checks = 0
    for P, order, g in instances:
        paths = _all_paths(P, order, g)
        n = len(paths[0]) - 1
        vectors = [
            tuple(rng.choice(QUADRANTS) for _ in range(n)) for _ in range(50)
        ]
        for pts in paths:
            m = mu(P, order, pts)
            assert abs(_nu(P, order, pts)) <= m
            for vec in vectors:
                mr = mu_real(P, order, SignedPath.from_choices(pts, vec))
                assert 0 <= mr <= m
                assert (mr - m) % 2 == 0
                checks += 1

    positives = 0
    for P in (
        standard_triangle(1),
        standard_triangle(2),
        standard_triangle(3),
        standard_triangle(4),
        grid_rectangle(2, 2),
        grid_rectangle(2, 3),
    ):
        _, l = P.counts()
        for g in range(-1, l + 1):
            for pts in _all_paths(P, DEFAULT, g):
                nu = _nu(P, DEFAULT, pts)
                assert 0 <= nu <= mu(P, DEFAULT, pts)
                positives += 1
    assert checks > 50000
    print(
        f"criterion 08 PASS: 0 <= mu_real <= mu and parity match on {checks}"
        f" path/sign pairs; |nu| <= mu everywhere and nu >= 0 on {positives}"
        " triangle/rectangle paths"
    )


def test_criterion_09_order_invariance():
    rng = random.Random(20260819)

    def random_order():
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            try:
                return LinearOrder((a, b), (c, d))
            except NonInjectiveOrder:
                continue

    orders = [random_order() for _ in range(5)]
    polygons = [(standard_triangle(d), col) for d, col in COUNT_TABLE.items()]
    polygons.append((CUSP, {0: 5}))
    for P, col in polygons:
        for g, expect in col.items():
            vals = {count(P, g, o) for o in orders}
            assert vals == {expect}
        w = {welschinger_count(P, 0, o) for o in orders}
        assert len(w) == 1
    used = [(o.primary, o.tiebreak) for o in orders]
    print(
        "criterion 09 PASS: count (all table cells) and genus-0 Welschinger"
        f" counts agree across 5 random injective orders {used}"
    )


def test_criterion_10_decode_consistency():
    instances = [(standard_triangle(3), DEFAULT, g) for g in (-1, 0, 1)]
    instances += [(CUSP, ORDER_WEST, 0), (CUSP, ORDER_EAST, 0)]
    curves_seen = 0
    for P, order, g in instances:
        s, _ = P.counts()
        for pts in _all_paths(P, order, g):
            curves = decode(P, order, pts)
            assert sum(c.multiplicity for c in curves) == mu(P, order, pts)
            for c in curves:
                S = c.subdivision
                S.validate_tiling()
                assert len(S.triangles()) == s + 2 * g - 2
                for a, b in S.boundary_edges():
                    assert lattice_length(sub(b, a)) == 1
                G = marked_dual_graph(c)
                pieces = _cut_at_marks(G)
                for comp in _components(pieces):
                    assert sum(t == ("end",) for i in comp for t in pieces[i][:2]) == 1
                marks = sum(t[0] == "mark" for a, b, _ in pieces for t in (a, b))
                assert marks == 2 * len(G.marked)
                curves_seen += 1
    print(
        "criterion 10 PASS: decoded multiplicities sum to mu; every"
        f" subdivision tiles, has s+2g-2 triangles and unit boundary edges;"
        f" all {curves_seen} marked dual graphs split into one-end trees"
    )


def _cut_at_marks(G):
    """The graph's chains cut at their marked edges, as (terminal, terminal,
    chain edges); the cut at a marked edge e is the terminal ("mark", e) of
    the pieces on either side of it."""
    marked = set(G.marked)
    pieces = []
    for edges, *ends in G.chains:
        # a chain's terminal is a triangle's index, or -1 for the end
        a, b = (("tri", t) if t >= 0 else ("end",) for t in ends)
        for e in edges:
            if e in marked:
                pieces.append((a, ("mark", e), edges))
                a = ("mark", e)
        pieces.append((a, b, edges))
    return pieces


def _components(pieces):
    """The indices of the pieces grouped by connectivity: two pieces meet
    where they share a triangle terminal."""
    at = {}
    for i, (a, b, _) in enumerate(pieces):
        for t in (a, b):
            if t[0] == "tri":
                at.setdefault(t, []).append(i)
    seen, comps = set(), []
    for i in range(len(pieces)):
        if i in seen:
            continue
        comp, stack = [], [i]
        seen.add(i)
        while stack:
            j = stack.pop()
            comp.append(j)
            for t in pieces[j][:2]:
                for k in at.get(t, ()):
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
        comps.append(comp)
    return comps


def _graph_signs(pts, choice):
    return {
        _edge_key(pts[j], pts[j + 1]): sign_class_of(sub(pts[j + 1], pts[j]), choice[j])
        for j in range(len(pts) - 1)
    }


def test_criterion_11_curve_level_real_oracle():
    rng = random.Random(20260819)

    def exhaustive(n):
        return itertools.product(QUADRANTS, repeat=n)

    def sampled(n):
        fixed = [tuple([q] * n) for q in QUADRANTS]
        drawn = [tuple(rng.choice(QUADRANTS) for _ in range(n)) for _ in range(40)]
        return fixed + drawn

    instances = [
        (standard_triangle(1), DEFAULT, (-1, 0), exhaustive),
        (standard_triangle(2), DEFAULT, (-1, 0), exhaustive),
        (CUSP, ORDER_WEST, (0,), exhaustive),
        (CUSP, ORDER_EAST, (0,), exhaustive),
        (standard_triangle(3), DEFAULT, (-1, 0, 1), sampled),
    ]
    checked = 0
    for P, order, genera, choices in instances:
        for g in genera:
            for pts in _all_paths(P, order, g):
                graphs = [marked_dual_graph(c) for c in decode(P, order, pts)]
                n = len(pts) - 1
                for choice in choices(n):
                    signs = _graph_signs(pts, choice)
                    via_curves = sum(
                        curve_real_multiplicity(G, signs) for G in graphs
                    )
                    expected = mu_real(P, order, SignedPath.from_choices(pts, choice))
                    assert via_curves == expected
                    checked += 1
    assert checked > 3000
    print(
        "criterion 11 PASS: sum of curve-level real multiplicities equals"
        f" the signed path recursion on {checked} path/sign pairs"
        " (exhaustive where the sign space has at most 4^5 points, seeded"
        " 40 + 4 constant assignments per path for the cubic)"
    )
    print(
        "criterion 11 NOTE: chain phases on the dual graph use the same"
        " two-element sign classes mod the primitive edge direction as the"
        " path side, for every chain weight."
    )


def test_criterion_12_tropical_curve_suite():
    rng = random.Random(20260819)
    for P in (standard_triangle(3), grid_rectangle(2, 2)):
        degree = dict(toric_degree(P).entries)
        for _ in range(50):
            f = random_concave(P, rng)
            C = curve_of(f)
            D = dual_subdivision(f)
            assert check_balancing(C)
            assert len(C.vertices) == len(D.cells)
            assert len(C.bounded_edges) == len(D.interior_edges())
            assert len(C.rays) == len(D.boundary_edges())
            assert sum(c.double_area() for c in D.cells) == P.double_area()
            ray_weights: dict = {}
            for _, d, w in C.rays:
                ray_weights[d] = ray_weights.get(d, 0) + w
            assert ray_weights == degree
            run_grid_oracle(f, C)

    line = curve_of(TropicalPolynomial({(1, 0): 3, (0, 1): 5, (0, 0): 1}))
    assert len(line.vertices) == 1
    assert sorted(line.rays) == [(0, (-1, 0), 1), (0, (0, -1), 1), (0, (1, 1), 1)]
    print(
        "criterion 12 PASS: 100 random strictly concave draws pass"
        " balancing, duality counts, degree consistency, the grid"
        " corner-locus oracle and the area identity; the line reproduces"
        " its three unit rays"
    )
