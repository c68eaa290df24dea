"""Tropical polynomials and the plane curves they cut out.

A tropical polynomial is a maximum of affine forms indexed by lattice
points.  Lifting each index to its coefficient height and taking upper
faces of the convex hull subdivides the Newton polygon; the curve is the
locus where the maximum is attained twice, dual to that subdivision cell
by cell.  The same duality turns a decoded path subdivision into the
marked graph consumed by the curve-level real multiplicity.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .lattice import (
    LatticePoint,
    LatticePolygon,
    _coordinate,
    _Record,
    convex_hull,
    cross,
    lattice_length,
    primitive,
    sub,
)
from .paths import DecodedCurve, DualSubdivision, MalformedSubdivision, _ambient_side, _edge_key
from .real import Chain, EdgeKey, MarkedDualGraph

RationalPoint = tuple[Fraction, Fraction]


class DegenerateSupport(ValueError):
    """The support spans no area, so there is no plane curve to extract."""


class NotSimple(ValueError):
    """The subdivision has a cell that is neither a triangle nor a
    parallelogram."""


class ParallelDirections(ValueError):
    """Two edge directions at a vertex are parallel."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("coefficients must be exact (int, Fraction or 'p/q' string)")
    return Fraction(value)


class TropicalPolynomial:
    """A max-plus polynomial: max over support points j of <j, x> + a_j."""

    def __init__(self, terms: Mapping[LatticePoint, object]):
        items = {}
        for j, a in terms.items():
            key = (_coordinate(j[0]), _coordinate(j[1]))
            items[key] = _as_fraction(a)
        if not items:
            raise ValueError("empty support")
        self.terms: dict[LatticePoint, Fraction] = dict(sorted(items.items()))

    def support(self) -> list[LatticePoint]:
        return list(self.terms)

    def eval(self, x) -> Fraction:
        px, py = Fraction(x[0]), Fraction(x[1])
        return max(j[0] * px + j[1] * py + a for j, a in self.terms.items())

    def maximizers(self, x) -> list[LatticePoint]:
        """Support points whose affine form attains the maximum at x."""
        px, py = Fraction(x[0]), Fraction(x[1])
        vals = {j: j[0] * px + j[1] * py + a for j, a in self.terms.items()}
        top = max(vals.values())
        return [j for j, v in vals.items() if v == top]

    def newton_polygon(self) -> LatticePolygon:
        return LatticePolygon(convex_hull(self.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, TropicalPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}: {a}" for j, a in self.terms.items())
        return f"TropicalPolynomial({{{inner}}})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "terms": [
                    {"exp": [j[0], j[1]], "coeff": str(a)}
                    for j, a in self.terms.items()
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TropicalPolynomial":
        """The polynomial of `to_json`'s form.  Each exponent must have two
        coordinates and appear once: ValueError otherwise."""
        terms: dict[LatticePoint, object] = {}
        for t in json.loads(text)["terms"]:
            exp = t["exp"]
            if len(exp) != 2:
                raise ValueError(f"an exponent has two coordinates, got {exp!r}")
            j = (_coordinate(exp[0]), _coordinate(exp[1]))
            if j in terms:
                raise ValueError(f"repeated exponent {list(j)}")
            terms[j] = t["coeff"]
        return cls(terms)


def _scaled_heights(f: TropicalPolynomial) -> tuple[dict[LatticePoint, int], int]:
    """Integer heights obtained by clearing denominators; positive scaling
    leaves the upper-face structure unchanged."""
    scale = lcm(*(a.denominator for a in f.terms.values()))
    return {j: int(a * scale) for j, a in f.terms.items()}, scale


class _Face(_Record):
    """One upper face of the lifted hull: the support points on it and the
    exact affine function x -> alpha*x1 + beta*x2 + gamma it lifts to."""

    points: tuple[LatticePoint, ...]
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __init__(self, points: tuple[LatticePoint, ...], alpha: Fraction, beta: Fraction,
                 gamma: Fraction):
        self.__dict__.update(points=points, alpha=alpha, beta=beta, gamma=gamma)

    def value_at(self, j) -> Fraction:
        return self.alpha * j[0] + self.beta * j[1] + self.gamma


def _upper_faces(f: TropicalPolynomial, newton: list[LatticePoint]) -> list[_Face]:
    """All 2-dimensional upper faces of the hull of lifted support points;
    `newton` is the support's `convex_hull`, which must span an area.

    Gift wrapping (Chand-Kapur) in integer arithmetic on the heights of
    `_scaled_heights`.  The walk starts from the upper edge that leaves the
    lexicographically first support point along a side of the Newton
    polygon, and crosses every cell edge once.  Across an edge, the next
    face lies on the plane through it that has every support point strictly
    across on or below it, and its contact set is every lifted point on that
    plane.  A cell side with no point across lies on the Newton polygon's
    boundary.  Each crossing is one pass over the support, so the hull costs
    O(faces * n).  Faces are deduplicated by contact set.
    """
    heights, scale = _scaled_heights(f)
    lifted = [(x, y, heights[x, y]) for x, y in sorted(heights)]

    def face_across(a: LatticePoint, b: LatticePoint):
        """(normal, contact) of the upper face on the right of the cell edge
        a -> b, or None when no support point lies strictly on its right."""
        ax, ay, az = a[0], a[1], heights[a]
        ex, ey, ez = b[0] - ax, b[1] - ay, heights[b] - az
        normal = None
        for qx, qy, qz in lifted:
            ux, uy, uz = qx - ax, qy - ay, qz - az
            if ex * uy - ey * ux >= 0:
                continue
            if normal is None or normal[0] * ux + normal[1] * uy + normal[2] * uz > 0:
                # the first point across, or one above the plane so far: the
                # plane through the edge and it, as (q - a) x (b - a), which
                # points up because q is on the right
                normal = (uy * ez - uz * ey, uz * ex - ux * ez, ux * ey - uy * ex)
        if normal is None:
            return None
        nx, ny, nz = normal
        c = nx * ax + ny * ay + nz * az
        contact = tuple((x, y) for x, y, z in lifted if nx * x + ny * y + nz * z == c)
        return (nx, ny, nz, c), contact

    # The first support point is the Newton polygon's first vertex, and every
    # support point on the line to the next vertex lies on that side.  The
    # one of steepest lift starts an upper edge, with the polygon on its left.
    x0, y0, z0 = lifted[0]
    v1 = newton[1]
    d = (v1[0] - x0, v1[1] - y0)

    def slope(q) -> Fraction:
        return Fraction(q[2] - z0, d[0] * (q[0] - x0) + d[1] * (q[1] - y0))

    top = max((q for q in lifted[1:] if cross(d, (q[0] - x0, q[1] - y0)) == 0), key=slope)
    faces: dict[tuple[LatticePoint, ...], _Face] = {}
    crossed: set[EdgeKey] = set()
    todo = [face_across(top[:2], (x0, y0))]
    while todo:
        (nx, ny, nz, c), contact = todo.pop()
        if contact in faces:
            continue
        faces[contact] = _Face(
            points=contact,
            alpha=Fraction(-nx, nz * scale),
            beta=Fraction(-ny, nz * scale),
            gamma=Fraction(c, nz * scale),
        )
        ring = convex_hull(contact)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            key = _edge_key(a, b)
            if key not in crossed:
                crossed.add(key)
                nxt = face_across(a, b)
                if nxt is not None:
                    todo.append(nxt)
    return sorted(faces.values(), key=lambda face: face.points)


def _subdivision(f: TropicalPolynomial) -> tuple[list[_Face], DualSubdivision, dict]:
    """The upper faces of f's lift, the subdivision with one cell per face
    in face order, and the edge map its tiling check returned."""
    newton = convex_hull(f.terms)
    if len(newton) < 3:
        raise DegenerateSupport("support spans no area")
    faces = _upper_faces(f, newton)
    cells = tuple(LatticePolygon(convex_hull(face.points)) for face in faces)
    out = DualSubdivision(ambient=LatticePolygon(newton), cells=cells)
    return faces, out, out.validate_tiling()


def dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """The regular subdivision of the Newton polygon induced by the
    coefficient lift: one cell per upper face of the lifted hull."""
    return _subdivision(f)[1]


def canonicalize(f: TropicalPolynomial) -> TropicalPolynomial:
    """Raise each coefficient to the value of the concave hull of the lift
    over the support.  The curve is unchanged and the result is idempotent.

    For a 2-dimensional support, a point on an upper face keeps its own
    height, and a sunken point takes the least of the face planes over it,
    which is the concave hull's value there."""
    # `convex_hull` keeps one point of a point and the two ends of a segment
    newton = convex_hull(f.terms)
    if len(newton) == 1:
        return TropicalPolynomial(f.terms)
    if len(newton) > 2:
        faces = _upper_faces(f, newton)
        contact = {j for face in faces for j in face.points}
        new = dict(f.terms)
        for j in new:
            if j not in contact:
                new[j] = min(face.value_at(j) for face in faces)
        return TropicalPolynomial(new)
    # collinear support: parameterize the line and take the 1-dimensional
    # upper hull of (parameter, height)
    pts = f.support()
    base = newton[0]
    d = primitive(sub(newton[1], base))
    idx = 0 if d[0] != 0 else 1

    def param(p: LatticePoint) -> int:
        return (p[idx] - base[idx]) // d[idx]

    lifted = sorted((param(p), f.terms[p]) for p in pts)
    hull: list[tuple[int, Fraction]] = []
    for t, a in lifted:
        while len(hull) >= 2:
            (t1, a1), (t2, a2) = hull[-2], hull[-1]
            if (a2 - a1) * (t - t1) <= (a - a1) * (t2 - t1):
                hull.pop()
            else:
                break
        hull.append((t, a))
    # the upper hull is concave, so it is the least of its pieces
    return TropicalPolynomial({
        p: min(a1 + (a2 - a1) * Fraction(param(p) - t1, t2 - t1)
               for (t1, a1), (t2, a2) in zip(hull, hull[1:]))
        for p in pts
    })


class PlaneTropicalCurve(_Record):
    """A balanced weighted piecewise-linear curve in the plane.

    Vertices have exact rational coordinates.  A bounded edge is
    (vertex index a, vertex index b, weight, primitive direction a -> b);
    a ray is (vertex index, primitive direction, weight).
    """

    vertices: tuple[RationalPoint, ...]
    bounded_edges: tuple[tuple[int, int, int, LatticePoint], ...]
    rays: tuple[tuple[int, LatticePoint, int], ...]

    def __init__(self, vertices: tuple[RationalPoint, ...],
                 bounded_edges: tuple[tuple[int, int, int, LatticePoint], ...],
                 rays: tuple[tuple[int, LatticePoint, int], ...]):
        self.__dict__.update(vertices=vertices, bounded_edges=bounded_edges, rays=rays)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[str(x), str(y)] for x, y in self.vertices],
            "bounded_edges": [
                {"ends": [a, b], "weight": w, "direction": list(d)}
                for a, b, w, d in self.bounded_edges
            ],
            "rays": [
                {"vertex": v, "direction": list(d), "weight": w}
                for v, d, w in self.rays
            ],
        }


def _rational_primitive(vx: Fraction, vy: Fraction) -> LatticePoint:
    scale = lcm(vx.denominator, vy.denominator)
    return primitive((int(vx * scale), int(vy * scale)))


def curve_of(f: TropicalPolynomial) -> PlaneTropicalCurve:
    """The corner locus of f as a weighted graph dual to its subdivision:
    a vertex per cell, a bounded edge per interior cell edge, a ray per
    boundary cell edge, weights equal to dual lattice lengths."""
    return _curve_and_subdivision(f)[0]


def _curve_and_subdivision(f: TropicalPolynomial) -> tuple[PlaneTropicalCurve, DualSubdivision]:
    """`curve_of(f)` and `dual_subdivision(f)` from one `_subdivision`."""
    faces, sub_, emap = _subdivision(f)
    vertices: list[RationalPoint] = []
    for face in faces:
        for p in face.points:
            if face.value_at(p) != f.terms[p]:
                raise ArithmeticError("face plane misses one of its own lifts")
        vertices.append((-face.alpha, -face.beta))
    bounded = []
    rays = []
    for (a, b), incident in sorted(emap.items()):
        w = lattice_length(sub(b, a))
        if len(incident) == 2:
            i, j = incident
            vx = vertices[j][0] - vertices[i][0]
            vy = vertices[j][1] - vertices[i][1]
            d = _rational_primitive(vx, vy)
            if d[0] * (b[0] - a[0]) + d[1] * (b[1] - a[1]) != 0:
                raise ArithmeticError("dual edge is not orthogonal to its cell edge")
            bounded.append((i, j, w, d))
        else:
            (i,) = incident
            # the tiling check put this edge on a side; the ray is its outward normal
            s0, s1 = _ambient_side(sub_.ambient, a, b)
            rays.append((i, primitive((s1[1] - s0[1], s0[0] - s1[0])), w))
    curve = PlaneTropicalCurve(
        vertices=tuple(vertices),
        bounded_edges=tuple(bounded),
        rays=tuple(rays),
    )
    return curve, sub_


def check_balancing(C: PlaneTropicalCurve) -> bool:
    """True when the weighted primitive directions leaving each vertex sum
    to zero."""
    totals = {i: [0, 0] for i in range(len(C.vertices))}
    for a, b, w, d in C.bounded_edges:
        totals[a][0] += w * d[0]
        totals[a][1] += w * d[1]
        totals[b][0] -= w * d[0]
        totals[b][1] -= w * d[1]
    for v, d, w in C.rays:
        totals[v][0] += w * d[0]
        totals[v][1] += w * d[1]
    return all(t == [0, 0] for t in totals.values())


def vertex_multiplicity(v1: LatticePoint, w1: int, v2: LatticePoint, w2: int) -> int:
    """Multiplicity of a trivalent vertex with two of its edge directions:
    w1 * w2 * |det(v1, v2)|."""
    det = cross(v1, v2)
    if det == 0:
        raise ParallelDirections(f"directions {v1} and {v2} are parallel")
    return w1 * w2 * abs(det)


def genus_of_simple(S: DualSubdivision) -> int:
    """Genus of the curve dual to a subdivision made of triangles and
    parallelograms: (triangles - boundary edges) / 2 + 1."""
    if not S.is_simple():
        raise NotSimple("subdivision has a cell that is not a triangle or parallelogram")
    r = len(S.triangles())
    x = len(S.boundary_edges())
    return (r - x) // 2 + 1


def is_smooth(S: DualSubdivision) -> bool:
    """True when every cell is a triangle of minimal area."""
    return all(
        len(c.vertices) == 3 and c.double_area() == 1 for c in S.cells
    )


def marked_dual_graph(D: DecodedCurve) -> MarkedDualGraph:
    """Dual graph of a decoded subdivision with the path steps as marks.

    Chains collect runs of parallel subdivision edges joined across
    parallelogram cells (the dual curve passes straight through those);
    each chain ends either at a triangle node or at a boundary end.
    """
    sub_ = D.subdivision
    emap = sub_.validate_tiling()
    if not sub_.is_simple():
        raise NotSimple("decoded subdivision has a cell that is not simple")
    cells = sub_.cells
    triangles: list[LatticePolygon] = []
    crossings: list[LatticePolygon] = []
    tri_of_cell: dict[int, int] = {}
    for i, c in enumerate(cells):
        if len(c.vertices) == 3:
            tri_of_cell[i] = len(triangles)
            triangles.append(c)
        else:
            crossings.append(c)

    passthrough: dict[tuple[EdgeKey, int], EdgeKey] = {}
    for i, c in enumerate(cells):
        if len(c.vertices) != 4:
            continue
        a, b, cc, d = c.vertices
        for e1, e2 in (((a, b), (d, cc)), ((b, cc), (a, d))):
            k1, k2 = _edge_key(*e1), _edge_key(*e2)
            passthrough[(k1, i)] = k2
            passthrough[(k2, i)] = k1

    def extend(start: EdgeKey, cell: int | None):
        run: list[EdgeKey] = []
        cur_e, cur_c = start, cell
        while True:
            if cur_c is None:
                return run, ("end",)
            if cur_c in tri_of_cell:
                return run, ("tri", tri_of_cell[cur_c])
            nxt = passthrough[(cur_e, cur_c)]
            if nxt == start or nxt in run:
                raise MalformedSubdivision("cycle of parallelogram crossings")
            run.append(nxt)
            others = [c for c in emap[nxt] if c != cur_c]
            cur_e, cur_c = nxt, (others[0] if others else None)

    chains: list[Chain] = []
    assigned: set[EdgeKey] = set()
    slot_count: dict[int, int] = {}
    for e in sorted(emap):
        if e in assigned:
            continue
        incident = emap[e]
        left_cell = incident[0]
        right_cell = incident[1] if len(incident) == 2 else None
        left_run, left_term = extend(e, left_cell)
        right_run, right_term = extend(e, right_cell)
        edges = tuple(reversed(left_run)) + (e,) + tuple(right_run)
        assigned.update(edges)
        v = sub(e[1], e[0])
        chains.append(
            Chain(
                edges=edges,
                terminals=(left_term, right_term),
                weight=lattice_length(v),
                direction=primitive((-v[1], v[0])),
            )
        )
        for t in (left_term, right_term):
            if t[0] == "tri":
                slot_count[t[1]] = slot_count.get(t[1], 0) + 1
    for t in range(len(triangles)):
        if slot_count.get(t, 0) != 3:
            raise MalformedSubdivision(
                f"triangle {t} has {slot_count.get(t, 0)} chain slots, expected 3"
            )

    marked = []
    for a, b in D.marked_edges:
        key = _edge_key(a, b)
        if key not in emap:
            raise MalformedSubdivision(f"marked step {a}-{b} is not a subdivision edge")
        marked.append(key)
    return MarkedDualGraph(
        triangles=tuple(triangles),
        crossings=tuple(crossings),
        chains=tuple(chains),
        marked=tuple(marked),
    )
