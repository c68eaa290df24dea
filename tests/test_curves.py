"""Tropical polynomials, dual subdivisions, corner-locus curves."""

import copy
import hashlib
import pickle
import random
import re
from fractions import Fraction

import pytest
from conftest import all_near_curve, grid_tie_points, random_concave, run_grid_oracle

from tropico.lattice import (
    LatticePolygon,
    LinearOrder,
    convex_hull,
    cross,
    grid_rectangle,
    lattice_length,
    standard_triangle,
    sub,
    toric_degree,
)
from tropico.paths import enumerate_paths, mu
from tropico.curves import (
    DecodedCurve,
    DegenerateSupport,
    DualSubdivision,
    MalformedSubdivision,
    MarkedDualGraph,
    NotSimple,
    ParallelDirections,
    PlaneTropicalCurve,
    TropicalPolynomial,
    _scaled_heights,
    _upper_faces,
    canonicalize,
    check_balancing,
    curve_of,
    decode,
    dual_subdivision,
    genus_of_simple,
    is_smooth,
    marked_dual_graph,
    vertex_multiplicity,
)
import tropico.curves as curves

DEFAULT = LinearOrder.default()


def _conic_support():
    return [(i, j) for i in range(3) for j in range(3) if i + j <= 2]


def _concave(points, num=1, den=1):
    return TropicalPolynomial(
        {
            j: Fraction(-(3 * j[0] ** 2 + 3 * j[1] ** 2 + j[0] * j[1]) * num, den)
            for j in points
        }
    )


# -- polynomials ----------------------------------------------------------------


def test_eval_and_maximizers():
    f = TropicalPolynomial({(1, 0): 3, (0, 1): 5, (0, 0): 1})
    assert f.eval((0, 0)) == 5
    assert f.eval((10, 0)) == 13
    assert f.eval((-2, -4)) == 1
    assert sorted(f.maximizers((-2, -4))) == [(0, 0), (0, 1), (1, 0)]
    assert f.maximizers((10, 0)) == [(1, 0)]
    assert f.eval((Fraction(9, 2), 0)) == Fraction(15, 2)


def test_polynomial_exactness():
    with pytest.raises(TypeError):
        TropicalPolynomial({(0, 0): 1.5})
    f = TropicalPolynomial({(0, 0): "3/4", (1, 0): 2})
    assert f.terms[(0, 0)] == Fraction(3, 4)
    with pytest.raises(ValueError):
        TropicalPolynomial({})
    # exponents are lattice points: a float is refused, not truncated
    with pytest.raises(TypeError, match="must be integers, got 0.5"):
        TropicalPolynomial({(0.5, 0): 1, (1, 0): 3, (0, 1): 5})
    # a JSON float coefficient meets the same check as a Python float,
    # rather than becoming Fraction(0.1) = 3602879701896397/36028797018963968
    text = '{"terms": [{"exp": [1,0], "coeff": 0.1}, {"exp": [0,0], "coeff": "1"}]}'
    with pytest.raises(TypeError, match="coefficients must be exact"):
        TropicalPolynomial.from_json(text)
    exact = TropicalPolynomial.from_json(text.replace("0.1", '"0.1"'))
    assert exact.terms[(1, 0)] == Fraction(1, 10)
    # an exponent is a pair, given once: no coordinate is dropped and no
    # coefficient overwritten
    line = '{"terms": [{"exp": [1,0], "coeff": "3"}, {"exp": [0,1], "coeff": "5"}]}'
    for exp, message in (("[1]", r"two coordinates, got \[1\]"),
                         ("[1, 0, 7]", r"two coordinates, got \[1, 0, 7\]"),
                         ("[0,1]", r"repeated exponent \[0, 1\]")):
        with pytest.raises(ValueError, match=message):
            TropicalPolynomial.from_json(line.replace("[1,0]", exp))


def test_constructor_checks_exponents_and_coefficients():
    # the constructor holds its own terms to what `from_json` asks of JSON:
    # an exponent of another length is refused, not cut to two coordinates
    # or indexed past its end
    for exp in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'an exponent has two coordinates, got {exp!r}')}$"):
            TropicalPolynomial({exp: 0, (0, 0): 1})
    # a bool is not read as 0 or 1, as a lattice coordinate is not
    for flag in (True, False):
        with pytest.raises(TypeError, match=f"^coefficients must be int, Fraction or 'p/q' string, got {flag}$"):
            TropicalPolynomial({(1, 0): flag, (0, 1): 5, (0, 0): 1})
    text = '{"terms": [{"exp": [1,0], "coeff": true}, {"exp": [0,0], "coeff": "1"}]}'
    with pytest.raises(TypeError, match="got True$"):
        TropicalPolynomial.from_json(text)


def test_polynomial_json_roundtrip():
    f = TropicalPolynomial({(0, 0): Fraction(1, 3), (2, 1): -2, (0, 2): 0})
    assert TropicalPolynomial.from_json(f.to_json()) == f


def test_polynomial_is_an_immutable_value():
    f = TropicalPolynomial({(0, 0): Fraction(1, 3), (2, 1): -2, (0, 2): 0})
    with pytest.raises(TypeError):
        f.terms[(0, 0)] = Fraction(5)
    with pytest.raises(AttributeError, match="^cannot assign to field 'terms'$"):
        f.terms = {}
    with pytest.raises(AttributeError, match="^cannot delete field 'terms'$"):
        del f.terms
    assert f.terms == {(0, 0): Fraction(1, 3), (0, 2): 0, (2, 1): -2}
    D = dual_subdivision(f)
    # a copy is rebuilt from the terms alone and computes its own lift
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and g is not f
        assert repr(g) == repr(f)
        assert dual_subdivision(g) == D


def test_lift_is_computed_once_per_polynomial(monkeypatch):
    calls = []
    upper_faces = curves._upper_faces

    def counted(f, newton):
        calls.append(f)
        return upper_faces(f, newton)

    monkeypatch.setattr(curves, "_upper_faces", counted)
    # two sunken points, so `canonicalize` reads the face planes
    f = TropicalPolynomial({(0, 0): 0, (1, 0): -5, (2, 0): 0, (0, 1): 0, (1, 1): -5, (0, 2): 0})
    C = curve_of(f)
    D = dual_subdivision(f)
    g = canonicalize(f)
    assert curve_of(f) == C and dual_subdivision(f) is D and canonicalize(f) == g != f
    assert calls == [f]


def test_newton_polygon():
    f = TropicalPolynomial({j: 0 for j in _conic_support()})
    assert f.newton_polygon() == standard_triangle(2)


# -- dual subdivisions ------------------------------------------------------------


def test_flat_lift_gives_one_cell():
    f = TropicalPolynomial({j: 0 for j in _conic_support()})
    D = dual_subdivision(f)
    assert len(D.cells) == 1
    assert D.cells[0] == standard_triangle(2)


def test_strictly_concave_triangulations():
    D = dual_subdivision(_concave(_conic_support()))
    assert len(D.cells) == 4
    assert all(c.double_area() == 1 for c in D.cells)

    cubic = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    D3 = dual_subdivision(_concave(cubic))
    assert len(D3.cells) == 9
    assert is_smooth(D3)

    square = [(i, j) for i in range(3) for j in range(3)]
    Dq = dual_subdivision(_concave(square))
    assert len(Dq.cells) == 8
    assert is_smooth(Dq)


def test_tied_lift_gives_parallelogram_cell():
    # -(x^2+y^2) puts four lifted points on one plane, so the subdivision
    # keeps the larger cell instead of splitting the tie.
    f = TropicalPolynomial({j: -(j[0] ** 2 + j[1] ** 2) for j in _conic_support()})
    D = dual_subdivision(f)
    assert len(D.cells) == 3
    assert {len(c.vertices) for c in D.cells} == {3, 4}
    parallelogram = next(c for c in D.cells if len(c.vertices) == 4)
    assert parallelogram.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_mid_side_support_point_is_not_a_cell_vertex():
    # A support point in the middle of a cell side leaves no trace in the
    # cell's vertex list.
    f = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (2, 0): 0, (0, 1): 0})
    D = dual_subdivision(f)
    assert len(D.cells) == 1
    assert D.cells[0].vertices == ((0, 0), (2, 0), (0, 1))


def test_degenerate_support_raises():
    with pytest.raises(DegenerateSupport):
        dual_subdivision(TropicalPolynomial({(0, 0): 0, (1, 1): 2, (2, 2): 1}))
    with pytest.raises(DegenerateSupport):
        dual_subdivision(TropicalPolynomial({(1, 1): 4}))
    with pytest.raises(DegenerateSupport):
        curve_of(TropicalPolynomial({(0, 0): 0, (2, 1): 1}))


def test_genus_of_simple_requires_simple():
    pentagon = [(0, 0), (2, 0), (3, 1), (1, 2), (0, 1)]
    D = dual_subdivision(TropicalPolynomial({j: 0 for j in pentagon}))
    with pytest.raises(NotSimple):
        genus_of_simple(D)


def _coefficients(points, plane, scale):
    """A face as (points, alpha, beta, gamma): its plane on the heights of
    `_scaled_heights` is the lift x -> alpha*x1 + beta*x2 + gamma."""
    nx, ny, nz, c = plane
    return points, Fraction(-nx, nz * scale), Fraction(-ny, nz * scale), Fraction(c, nz * scale)


def _reference_upper_faces(f):
    """The upper faces by brute force, as `_coefficients` tuples: a plane
    through three lifted points supports an upper face exactly when every
    lifted point lies on or below it.  O(n^4); the reference for the gift
    wrapping in `_upper_faces`."""
    heights, scale = _scaled_heights(f)
    pts = sorted(heights)
    lifted = [(p[0], p[1], heights[p]) for p in pts]
    seen = {}
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                u = tuple(lifted[j][t] - lifted[i][t] for t in range(3))
                v = tuple(lifted[k][t] - lifted[i][t] for t in range(3))
                nz = u[0] * v[1] - u[1] * v[0]
                if nz == 0:
                    continue
                nx = u[1] * v[2] - u[2] * v[1]
                ny = u[2] * v[0] - u[0] * v[2]
                if nz < 0:
                    nx, ny, nz = -nx, -ny, -nz
                c = nx * lifted[i][0] + ny * lifted[i][1] + nz * lifted[i][2]
                contact = []
                below = True
                for q in lifted:
                    val = nx * q[0] + ny * q[1] + nz * q[2]
                    if val > c:
                        below = False
                        break
                    if val == c:
                        contact.append((q[0], q[1]))
                if not below:
                    continue
                key = frozenset(contact)
                if key not in seen:
                    seen[key] = _coefficients(tuple(sorted(contact)), (nx, ny, nz, c), scale)
    return sorted(seen.values())


_HULL_POLYGONS = (
    [standard_triangle(d) for d in range(1, 8)]
    + [grid_rectangle(d, d) for d in range(1, 5)]
    + [LatticePolygon([(0, 0), (1, 0), (2, 2), (0, 1)])]  # the cusp quadrilateral
)


def _hull_lifts(P, rng):
    """Seeded coefficient draws on P's lattice points, one of each kind."""
    pts = P.lattice_points()
    yield "generic", random_concave(P, rng)
    # small integers tie often: parallelograms and larger cells
    yield "ties", TropicalPolynomial({j: rng.randint(-2, 0) for j in pts})
    # a sparse support: the points left out make side midpoints of the
    # cells, and the low heights sink points below the hull
    kept = [j for j in pts if rng.random() < 0.6]
    if len(convex_hull(kept)) >= 3:
        yield "sparse", TropicalPolynomial(
            {j: Fraction(rng.randint(-12, 3), rng.randint(1, 3)) for j in kept}
        )
    height = Fraction(rng.randint(-3, 3), 4)
    yield "flat", TropicalPolynomial({j: height for j in pts})


def test_upper_faces_match_triple_enumeration():
    rng = random.Random(20261018)
    seen = {"generic": 0, "ties": 0, "sparse": 0, "flat": 0}
    sunken = mid_side = larger_cells = below_line = 0
    for P in _HULL_POLYGONS:
        for _ in range(2):
            for kind, f in _hull_lifts(P, rng):
                faces = _upper_faces(f, convex_hull(f.terms))
                reference = _reference_upper_faces(f)
                scale = _scaled_heights(f)[1]
                assert [_coefficients(face.points, face.plane, scale)
                        for face in faces] == reference, (kind, P.vertices)
                assert all(face.ring == tuple(convex_hull(face.points)) for face in faces)
                assert canonicalize(f) == TropicalPolynomial(
                    {j: min(a * j[0] + b * j[1] + g for _, a, b, g in reference) for j in f.terms}
                ), (kind, P.vertices)
                seen[kind] += 1
                contact = {j for face in faces for j in face.points}
                cells = [LatticePolygon(convex_hull(face.points)) for face in faces]
                if kind == "sparse":
                    sunken += len(f.terms) - len(contact)
                    mid_side += sum(c.on_boundary(j) and j not in c.vertices
                                    for face, c in zip(faces, cells) for j in face.points)
                if kind == "ties":
                    larger_cells += sum(len(c.vertices) > 3 for c in cells)
                # a support point on the line of an interior cell edge that
                # lies on neither face along it: the walk crosses that edge
                # once, and its pass must leave the point out of the contact
                along: dict = {}
                for i, c in enumerate(cells):
                    for a, b in c.sides():
                        along.setdefault((min(a, b), max(a, b)), []).append(i)
                below_line += sum(
                    j not in (a, b) and cross(sub(b, a), sub(j, a)) == 0
                    and all(j not in faces[i].points for i in cs)
                    for (a, b), cs in along.items() if len(cs) == 2 for j in f.terms
                )
    assert min(seen.values()) >= 18, seen
    # the draws reach every case the walk has to get right
    assert sunken and mid_side and larger_cells and below_line


_PINNED_POLYGONS = (
    [standard_triangle(d) for d in range(3, 8)]
    + [grid_rectangle(d, d) for d in range(2, 5)]
    + [LatticePolygon([(0, 0), (1, 0), (2, 2), (0, 1)])]  # the cusp quadrilateral
)


def _pinned_lifts():
    """Seeded lifts of every kind on each pinned polygon, then supports that
    span no area: collinear ones and single points."""
    rng = random.Random(20261019)
    for P in _PINNED_POLYGONS:
        pts = P.lattice_points()
        for _ in range(2):
            yield random_concave(P, rng)
            yield TropicalPolynomial({j: rng.randint(-2, 0) for j in pts})
            kept = [j for j in pts if rng.random() < 0.6]
            if len(convex_hull(kept)) >= 3:
                yield TropicalPolynomial(
                    {j: Fraction(rng.randint(-12, 3), rng.randint(1, 3)) for j in kept}
                )
            # each coefficient over its own denominator: the lift's scale is
            # their lcm
            yield TropicalPolynomial({
                j: Fraction(-(2 * j[0] ** 2 + 2 * j[1] ** 2 + j[0] * j[1]) * 35 + rng.randint(-9, 9),
                            rng.choice((5, 6, 7, 35)))
                for j in pts
            })
    for d in ((1, 0), (0, 1), (1, 1), (2, -1)):
        yield TropicalPolynomial({(t * d[0], 3 + t * d[1]): Fraction(rng.randint(-6, 2), rng.randint(1, 4))
                                  for t in range(5)})
    for j in ((0, 0), (2, -3)):
        yield TropicalPolynomial({j: Fraction(rng.randint(-6, 6), rng.randint(1, 4))})


# The repr of `curve_of`, `dual_subdivision` and `canonicalize` on each of
# `_pinned_lifts`, in that order on one polynomial, or the type and message of
# what the call raised: a change to anything the three output changes the
# digest.
_LIFT_OUTPUT_DIGEST = (231, "eb91ae7d385d985b2eb886d1cd53e81859d5cd2305287c3e5e45a329636c3cd0")


def test_lift_outputs_are_pinned():
    h = hashlib.sha256()
    calls = 0
    for f in _pinned_lifts():
        for fn in (curve_of, dual_subdivision, canonicalize):
            try:
                out = repr(fn(f))
            except (ValueError, ArithmeticError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            h.update(f"{fn.__name__}|{out}\n".encode())
            calls += 1
    assert (calls, h.hexdigest()) == _LIFT_OUTPUT_DIGEST


# -- canonical coefficients --------------------------------------------------------


def test_canonicalize_lifts_sunken_coefficients():
    f = TropicalPolynomial({(0, 0): 0, (1, 0): -5, (2, 0): 0, (0, 1): 0, (1, 1): -5, (0, 2): 0})
    g = canonicalize(f)
    assert g.terms[(1, 0)] == 0
    assert g.terms[(1, 1)] == 0
    assert canonicalize(g) == g
    rng = random.Random(3)
    for _ in range(40):
        x = (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
        assert f.eval(x) == g.eval(x)
    assert dual_subdivision(f).cells == dual_subdivision(g).cells


def test_canonicalize_collinear_support():
    f = TropicalPolynomial({(0, 0): 0, (1, 1): -1, (2, 2): 0})
    g = canonicalize(f)
    assert g.terms[(1, 1)] == 0
    assert canonicalize(g) == g
    h = TropicalPolynomial({(0, 0): 0, (0, 2): -1, (0, 3): 3})
    gh = canonicalize(h)
    assert gh.terms == {(0, 0): 0, (0, 2): 2, (0, 3): 3}
    already = TropicalPolynomial({(0, 0): 0, (0, 1): 7, (0, 3): 0})
    assert canonicalize(already) == already
    single = TropicalPolynomial({(2, 3): Fraction(1, 2)})
    assert canonicalize(single) == single


def _brute_rank(points):
    """The rank of the difference vectors from the first point."""
    vs = [(p[0] - points[0][0], p[1] - points[0][1]) for p in points]
    if all(v == (0, 0) for v in vs):
        return 0
    if all(u[0] * v[1] - u[1] * v[0] == 0 for u in vs for v in vs):
        return 1
    return 2


def test_support_dimension_is_the_rank_of_differences():
    # `canonicalize` and `_subdivision` read the support's dimension from the
    # size of its `convex_hull`: one point, the two ends of a segment, or more
    rng = random.Random(20261019)
    directions = [(1, 0), (0, 1), (1, 1), (2, 1), (1, -3), (-3, 5)]
    seen = set()
    for _ in range(300):
        base = (rng.randint(-5, 5), rng.randint(-5, 5))
        kind = rng.randrange(3)
        if kind == 0:
            pts = [base] * rng.randint(1, 3)
        elif kind == 1:
            d = rng.choice(directions)
            pts = [(base[0] + t * d[0], base[1] + t * d[1])
                   for t in (rng.randint(-4, 4) for _ in range(rng.randint(2, 6)))]
        else:
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 8))]
        rng.shuffle(pts)
        assert min(len(convex_hull(pts)), 3) - 1 == _brute_rank(pts), pts
        seen.add(_brute_rank(pts))
    assert seen == {0, 1, 2}


def test_canonicalize_collinear_matches_concave_envelope():
    rng = random.Random(20261020)
    for d in [(1, 0), (0, 1), (1, 1), (2, 1), (1, -3)]:
        for _ in range(40):
            base = (rng.randint(-3, 3), rng.randint(-3, 3))
            ts = rng.sample(range(-5, 6), rng.randint(2, 7))
            heights = {t: Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for t in ts}
            f = TropicalPolynomial(
                {(base[0] + t * d[0], base[1] + t * d[1]): a for t, a in heights.items()}
            )
            g = canonicalize(f)
            for t, a in heights.items():
                # the least concave function above the lifts: the largest of
                # a point's own height and every chord over it
                envelope = max(
                    [a] + [heights[i] + (heights[j] - heights[i]) * Fraction(t - i, j - i)
                           for i in ts for j in ts if i <= t <= j and i < j]
                )
                assert g.terms[(base[0] + t * d[0], base[1] + t * d[1])] == envelope
            assert canonicalize(g) == g
            for _ in range(5):
                x = (Fraction(rng.randint(-20, 20), 4), Fraction(rng.randint(-20, 20), 4))
                assert g.eval(x) == f.eval(x)


def test_canonicalize_preserves_generic_coefficients():
    rng = random.Random(11)
    f = random_concave(standard_triangle(2), rng)
    assert canonicalize(f) == f


# -- corner locus -------------------------------------------------------------------


def test_line_curve():
    f = TropicalPolynomial({(1, 0): 3, (0, 1): 5, (0, 0): 1})
    C = curve_of(f)
    assert C.vertices == ((Fraction(-2), Fraction(-4)),)
    assert C.bounded_edges == ()
    assert sorted(C.rays) == [(0, (-1, 0), 1), (0, (0, -1), 1), (0, (1, 1), 1)]
    assert check_balancing(C)


def test_line_curve_translates_with_coefficients():
    for a, b, c in [(0, 0, 0), (2, -1, 3), (Fraction(1, 2), 0, Fraction(5, 3))]:
        f = TropicalPolynomial({(1, 0): a, (0, 1): b, (0, 0): c})
        C = curve_of(f)
        assert C.vertices == ((Fraction(c - a), Fraction(c - b)),)


def test_square_support_curve():
    f = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0})
    C = curve_of(f)
    assert C.vertices == ((Fraction(0), Fraction(0)),)
    assert sorted(C.rays) == [
        (0, (-1, 0), 1),
        (0, (0, -1), 1),
        (0, (0, 1), 1),
        (0, (1, 0), 1),
    ]
    assert check_balancing(C)


def test_sparse_support_of_large_degree():
    # the curve layer works on the support and the sides, never on every
    # lattice point of the Newton polygon
    n = 10**6
    f = TropicalPolynomial({(n, 0): 0, (0, n): 0, (0, 0): 0, (1, 1): n, (n // 2, 0): -1})
    sub_ = dual_subdivision(f)
    assert sorted(c.vertices for c in sub_.cells) == [
        ((0, 0), (1, 1), (0, n)),
        ((0, 0), (n, 0), (1, 1)),
        ((0, n), (1, 1), (n, 0)),
    ]
    C = curve_of(f)
    assert check_balancing(C)
    assert sorted(w for _, _, w in C.rays) == [n, n, n]
    assert canonicalize(f).terms[(n // 2, 0)] == 0


def test_curve_of_checks_face_planes_and_dual_edges(monkeypatch):
    f = random_concave(standard_triangle(3), random.Random(29))
    face = f._faces[0]
    nx, ny, nz, c = face.plane
    with monkeypatch.context() as m:
        m.setitem(face.__dict__, "plane", (nx, ny, nz, c + 1))
        with pytest.raises(ArithmeticError, match="^face plane misses one of its own lifts$"):
            curve_of(f)
    assert check_balancing(curve_of(f))
    # move an interior cell edge off its two cells' common side: the dual
    # edge between them keeps its direction, which is normal to the old side
    emap = f._subdivision[1]
    (a, b), incident = next((e, cs) for e, cs in sorted(emap.items()) if len(cs) == 2)
    shift = (1, 0) if a[1] != b[1] else (0, 1)
    monkeypatch.delitem(emap, (a, b))
    monkeypatch.setitem(emap, (a, (b[0] + shift[0], b[1] + shift[1])), incident)
    with pytest.raises(ArithmeticError, match="^dual edge is not orthogonal to its cell edge$"):
        curve_of(f)


def test_curve_vertices_maximize_their_cells():
    rng = random.Random(23)
    f = random_concave(standard_triangle(3), rng)
    C = curve_of(f)
    D = dual_subdivision(f)
    assert len(C.vertices) == len(D.cells)
    for v, cell in zip(C.vertices, D.cells):
        found = set(f.maximizers(v))
        assert set(cell.vertices) <= found


def test_balancing_hand_built():
    Y = PlaneTropicalCurve(
        vertices=((Fraction(0), Fraction(0)),),
        bounded_edges=(),
        rays=((0, (-1, 0), 1), (0, (0, -1), 1), (0, (1, 1), 1)),
    )
    assert check_balancing(Y)
    bad = PlaneTropicalCurve(
        vertices=((Fraction(0), Fraction(0)),),
        bounded_edges=(),
        rays=((0, (-1, 0), 2), (0, (0, -1), 1), (0, (1, 1), 1)),
    )
    assert not check_balancing(bad)
    two = PlaneTropicalCurve(
        vertices=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        bounded_edges=((0, 1, 2, (1, 0)),),
        rays=(
            (0, (-1, 0), 2),
            (0, (0, -1), 1),
            (0, (0, 1), 1),
            (1, (1, 0), 2),
            (1, (0, -1), 1),
            (1, (0, 1), 1),
        ),
    )
    assert check_balancing(two)
    assert not check_balancing(
        PlaneTropicalCurve(two.vertices, ((0, 1, 1, (1, 0)),), two.rays)
    )


def test_vertex_multiplicity():
    assert vertex_multiplicity((1, 0), 1, (0, 1), 1) == 1
    assert vertex_multiplicity((1, 0), 1, (1, 2), 1) == 2
    assert vertex_multiplicity((1, 0), 3, (0, 1), 1) == 3
    assert vertex_multiplicity((1, 1), 2, (1, -1), 1) == 4
    with pytest.raises(ParallelDirections):
        vertex_multiplicity((1, 0), 1, (-2, 0), 5)


def test_duality_degree_balancing_and_grid():
    rng = random.Random(20260819)
    polys = [standard_triangle(3), grid_rectangle(2, 2)]
    for P in polys:
        for _ in range(5):
            f = random_concave(P, rng)
            C = curve_of(f)
            D = dual_subdivision(f)
            assert check_balancing(C)
            assert len(C.vertices) == len(D.cells)
            assert len(C.bounded_edges) == len(D.interior_edges())
            assert len(C.rays) == len(D.boundary_edges())
            assert sum(c.double_area() for c in D.cells) == P.double_area()
            ray_weights: dict = {}
            for v, d, w in C.rays:
                ray_weights[d] = ray_weights.get(d, 0) + w
            assert ray_weights == dict(toric_degree(P).entries)
            run_grid_oracle(f, C)


def test_grid_oracle_rejects_wrong_curve():
    # The oracle must actually bite: feed it the curve of a different draw.
    rng = random.Random(5)
    f1 = random_concave(standard_triangle(3), rng)
    f2 = random_concave(standard_triangle(3), rng)
    assert f1.terms != f2.terms
    C2 = curve_of(f2)
    pts = grid_tie_points(f1, C2)
    assert not all_near_curve(pts, C2, 1 / 64 + 1e-9)


def test_smooth_curve_genus_equals_interior_count():
    cubic = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    D = dual_subdivision(_concave(cubic))
    assert is_smooth(D)
    _, l = D.ambient.counts()
    assert genus_of_simple(D) == l == 1


# -- marked dual graphs ---------------------------------------------------------


def test_marked_dual_graph_line():
    P = standard_triangle(1)
    pts = ((0, 1), (0, 0), (1, 0))
    (c,) = decode(P, DEFAULT, pts)
    G = marked_dual_graph(c)
    assert len(G.triangles) == 1
    assert len(G.crossings) == 0
    assert len(G.chains) == 3
    assert len(G.marked) == 2
    for edges, _, _ in G.chains:
        (a, b), = edges
        assert lattice_length(sub(b, a)) == 1
    assert sorted((left, right) for _, left, right in G.chains) == [(0, -1)] * 3
    for i, (edges, _, _) in enumerate(G.chains):
        assert G.chain_of(edges[0]) == i


def test_marked_dual_graph_parallelogram_crossing():
    P = standard_triangle(2)
    s, _ = P.counts()
    found = 0
    for pts in enumerate_paths(P, DEFAULT, s - 2):
        if mu(P, DEFAULT, pts) == 0:
            continue
        for c in decode(P, DEFAULT, pts):
            G = marked_dual_graph(c)
            if not G.crossings:
                continue
            found += 1
            long_chains = [edges for edges, _, _ in G.chains if len(edges) >= 2]
            assert long_chains
            for edges in long_chains:
                vecs = set()
                for a, b in edges:
                    v = (b[0] - a[0], b[1] - a[1])
                    vecs.add(max(v, (-v[0], -v[1])))
                assert len(vecs) == 1
    assert found > 0


def test_marked_dual_graph_rejects_non_simple():
    pentagon = [(0, 0), (2, 0), (3, 1), (1, 2), (0, 1)]
    D = dual_subdivision(TropicalPolynomial({j: 0 for j in pentagon}))
    fake = DecodedCurve(D, ((0, 0), (2, 0)), (), 1)
    with pytest.raises(NotSimple):
        marked_dual_graph(fake)


def test_marked_dual_graph_rejects_a_mark_off_the_subdivision():
    P = standard_triangle(2)
    pts = next(iter(enumerate_paths(P, DEFAULT, 5)))
    (c,) = decode(P, DEFAULT, pts)
    marked_dual_graph(c)
    stray = DecodedCurve(c.subdivision, c.path, c.marked_edges[:2] + (((2, 0), (0, 0)),), 1)
    with pytest.raises(MalformedSubdivision, match=r"^marked step \(2, 0\)-\(0, 0\) is not a subdivision edge$"):
        marked_dual_graph(stray)


def test_marked_dual_graph_counts_chain_slots(monkeypatch):
    # Through an edge map that `validate_tiling` accepts, every triangle
    # ends exactly three chains; an edge map short of one triangle edge
    # leaves that triangle with two.
    validate = DualSubdivision.validate_tiling

    def short_edge_map(self):
        edges = validate(self)
        del edges[((0, 0), (1, 0))]
        return edges

    P = standard_triangle(1)
    (c,) = decode(P, DEFAULT, ((0, 1), (0, 0), (1, 0)))
    monkeypatch.setattr(DualSubdivision, "validate_tiling", short_edge_map)
    with pytest.raises(MalformedSubdivision, match=r"^triangle 0 has 2 chain slots, expected 3$"):
        marked_dual_graph(c)


def test_decoded_graph_chains_carry_step_marks():
    P = standard_triangle(3)
    pts = ((0, 3), (0, 2), (0, 1), (1, 2), (1, 1), (1, 0), (2, 1), (2, 0), (3, 0))
    for c in decode(P, DEFAULT, pts):
        G = marked_dual_graph(c)
        assert len(G.marked) == len(c.marked_edges)
        for e in G.marked:
            G.chain_of(e)  # raises KeyError if an edge is on no chain
    with pytest.raises(KeyError, match=r"is on no chain"):
        G.chain_of(((0, 0), (3, 0)))


def test_marked_dual_graph_rejects_an_unknown_terminal():
    # A terminal is a triangle's index or -1 for the end; the fold reads
    # -2 - nibble as the cut at a mark, so -2 may not come in by hand.
    P = standard_triangle(1)
    (c,) = decode(P, DEFAULT, ((0, 1), (0, 0), (1, 0)))
    G = marked_dual_graph(c)
    assert MarkedDualGraph(G.triangles, G.crossings, G.chains, G.marked) == G
    (edges, _, right), *rest = G.chains
    for t in (-2, len(G.triangles)):
        for row in ((edges, t, right), (edges, 0, t)):
            with pytest.raises(ValueError, match=rf"chain terminal {t} is neither -1 nor a "
                                                 r"triangle index below 1$"):
                MarkedDualGraph(G.triangles, G.crossings, (row, *rest), G.marked)
