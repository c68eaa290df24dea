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
from functools import cached_property
from math import lcm
from types import MappingProxyType

from .lattice import (
    LatticePoint,
    LatticePolygon,
    _coordinate,
    _edge_key,
    _Record,
    convex_hull,
    cross,
    lattice_length,
    primitive,
    sub,
)
from .paths import DecodedCurve, DualSubdivision, MalformedSubdivision, _ambient_side
from .real import EdgeKey, MarkedDualGraph

RationalPoint = tuple[Fraction, Fraction]


class DegenerateSupport(ValueError):
    """The support spans no area, so there is no plane curve to extract."""


class NotSimple(ValueError):
    """The subdivision has a cell that is neither a triangle nor a
    parallelogram."""


class ParallelDirections(ValueError):
    """Two edge directions at a vertex are parallel."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"coefficients must be int, Fraction or 'p/q' string, got {value!r}")
    if isinstance(value, float):
        raise TypeError("coefficients must be exact (int, Fraction or 'p/q' string)")
    return Fraction(value)


class TropicalPolynomial(_Record):
    """A max-plus polynomial: max over support points j of <j, x> + a_j.

    An immutable value: `terms` is a read-only view, and assigning or
    deleting an attribute raises AttributeError.  Its lift is computed once,
    on first use, and kept in the instance `__dict__` by `cached_property`,
    as a polygon's derived data is: the support's hull and Newton polygon,
    the integer heights, the upper faces and the subdivision they cut out.
    `curve_of`, `dual_subdivision` and `canonicalize` read it.

    Each exponent must be a pair of integers (ValueError for another length,
    TypeError for a non-integer) and each coefficient exact: an int, a
    Fraction or a 'p/q' string, never a float or a bool (TypeError).
    """

    terms: Mapping[LatticePoint, Fraction]

    def __init__(self, terms: Mapping[LatticePoint, object]):
        items = {}
        for j, a in terms.items():
            if len(j) != 2:
                raise ValueError(f"an exponent has two coordinates, got {j!r}")
            key = (_coordinate(j[0]), _coordinate(j[1]))
            items[key] = _as_fraction(a)
        if not items:
            raise ValueError("empty support")
        self.__dict__["terms"] = MappingProxyType(dict(sorted(items.items())))

    @classmethod
    def _from_sorted(cls, terms: dict[LatticePoint, Fraction]) -> "TropicalPolynomial":
        """The polynomial on terms that are already checked: integer pairs in
        ascending order, each with a Fraction."""
        self = object.__new__(cls)
        self.__dict__["terms"] = MappingProxyType(terms)
        return self

    def __reduce__(self):
        return (self.__class__, (dict(self.terms),))

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
        # a support that spans no area meets the polygon's own check
        return self._newton if len(self._hull) > 2 else LatticePolygon(self._hull)

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

    # -- the lift ------------------------------------------------------------

    @cached_property
    def _hull(self) -> list[LatticePoint]:
        """The support's `convex_hull`: one point, two, or a polygon."""
        return convex_hull(self.terms)

    @cached_property
    def _newton(self) -> LatticePolygon:
        """The Newton polygon, bound from `_hull`, which must span an area.
        The wrap reads its side bits and the subdivision keeps it as its
        ambient, so the tiling check finds them computed."""
        return LatticePolygon._from_ring(self._hull)

    @cached_property
    def _heights(self) -> tuple[dict[LatticePoint, int], int]:
        return _scaled_heights(self)

    @cached_property
    def _faces(self) -> list[_Face]:
        """The upper faces of the lift; the support must span an area."""
        return _upper_faces(self, self._hull)

    @cached_property
    def _subdivision(self) -> tuple[DualSubdivision, dict]:
        """The subdivision with one cell per upper face of the lift, in face
        order, and the edge map its tiling check returned."""
        if len(self._hull) < 3:
            raise DegenerateSupport("support spans no area")
        cells = tuple(LatticePolygon._from_ring(face.ring) for face in self._faces)
        out = DualSubdivision(ambient=self._newton, cells=cells)
        return out, out.validate_tiling()


def _scaled_heights(f: TropicalPolynomial) -> tuple[dict[LatticePoint, int], int]:
    """Integer heights obtained by clearing denominators; positive scaling
    leaves the upper-face structure unchanged."""
    scale = lcm(*(a.denominator for a in f.terms.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in f.terms.items()}, scale


class _Face(_Record):
    """One upper face of the lifted hull: the support points on it, in
    ascending order; the integer plane (nx, ny, nz, c) it lies on, nx*x +
    ny*y + nz*h = c on the heights h of `_scaled_heights` with nz > 0; and
    its ring, the counterclockwise hull of its points from their least."""

    points: tuple[LatticePoint, ...]
    plane: tuple[int, int, int, int]
    ring: tuple[LatticePoint, ...]

    def __init__(self, points: tuple[LatticePoint, ...], plane: tuple[int, int, int, int],
                 ring: tuple[LatticePoint, ...]):
        self.__dict__.update(points=points, plane=plane, ring=ring)


def _upper_faces(f: TropicalPolynomial, newton: list[LatticePoint]) -> list[_Face]:
    """All 2-dimensional upper faces of the hull of lifted support points;
    `newton` is the support's `convex_hull`, which must span an area.

    Gift wrapping (Chand-Kapur) in integer arithmetic on the heights of
    `_scaled_heights`.  The walk starts from the upper edge that leaves the
    lexicographically first support point along a side of the Newton
    polygon, and crosses every cell edge once, except those on a side of the
    Newton polygon, which have no support point across.  Across an edge, the
    next face lies on the plane through it that has every support point
    strictly across on or below it, and its contact set is every lifted point
    on that plane.  One pass over the support finds both: the planes through
    the lifted edge are ordered by their height at every point across, so the
    pass keeps the points across that lie on the plane so far and drops them
    when the plane rises.  A point on the edge's own line joins the contact
    when it lies on the final plane, and no point on the near side can, or
    the face across would overlap the face the walk came from.  Each crossing
    is one pass over the support, so the hull costs O(faces * n).  Faces are
    deduplicated by contact set; each is `_Face(contact, plane, ring)`.

    Every edge the walk crosses has a support point across.  The first has
    the Newton polygon on its right; any other with none on its right would
    lie on a supporting line of the support, so on a side of the Newton
    polygon, and its two ends would share that side.
    """
    heights = f._heights[0]
    # the terms, and so the heights, are in ascending order
    lifted = [(x, y, z) for (x, y), z in heights.items()]
    side_bits = f._newton.side_bits
    bits = {j: side_bits(j) for j in heights}

    def face_across(a: LatticePoint, b: LatticePoint):
        """(plane, contact) of the upper face on the right of the cell edge
        a -> b."""
        ax, ay, az = a[0], a[1], heights[a]
        ex, ey, ez = b[0] - ax, b[1] - ay, heights[b] - az
        # q lies across, on the right of a -> b, when ex*qy - ey*qx < k and
        # on the edge's line when they are equal; it lies above the plane
        # so far when nx*qx + ny*qy + nz*qz > c
        k = ex * ay - ey * ax
        nx = ny = nz = c = 0
        on: list[LatticePoint] = []
        line = []
        for qx, qy, qz in lifted:
            turn = ex * qy - ey * qx
            if turn > k:
                continue
            if turn == k:
                line.append((qx, qy, qz))
                continue
            rise = nx * qx + ny * qy + nz * qz
            if rise > c or not on:
                # the first point across, or one above the plane so far: the
                # plane through the edge and it, as (q - a) x (b - a), which
                # points up because q is on the right
                ux, uy, uz = qx - ax, qy - ay, qz - az
                nx, ny, nz = uy * ez - uz * ey, uz * ex - ux * ez, ux * ey - uy * ex
                c = nx * ax + ny * ay + nz * az
                on = [(qx, qy)]
            elif rise == c:
                on.append((qx, qy))
        on.extend((x, y) for x, y, z in line if nx * x + ny * y + nz * z == c)
        on.sort()
        return (nx, ny, nz, c), tuple(on)

    # The first support point is the Newton polygon's first vertex, and every
    # support point on the line to the next vertex lies on that side.  The
    # one of steepest lift starts an upper edge, with the polygon on its left.
    # The slope to a point q on that side is (qz - z0) / t with t > 0 its
    # projection on the side, so slopes compare by cross-multiplying.
    x0, y0, z0 = lifted[0]
    v1 = newton[1]
    d = (v1[0] - x0, v1[1] - y0)
    top, rise, run = None, 0, 0
    for qx, qy, qz in lifted[1:]:
        ux, uy = qx - x0, qy - y0
        if d[0] * uy - d[1] * ux == 0:
            t = d[0] * ux + d[1] * uy
            if top is None or (qz - z0) * run > rise * t:
                top, rise, run = (qx, qy), qz - z0, t
    faces: dict[tuple[LatticePoint, ...], _Face] = {}
    crossed: set[EdgeKey] = set()
    todo = [face_across(top, (x0, y0))]
    while todo:
        plane, contact = todo.pop()
        if contact in faces:
            continue
        if len(contact) == 3:
            # a triangle: its least point first, then counterclockwise
            p, q, r = contact
            turn = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
            ring = (p, q, r) if turn > 0 else (p, r, q)
        else:
            ring = tuple(convex_hull(contact))
        faces[contact] = _Face(contact, plane, ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if bits[a] & bits[b]:
                # on a side of the Newton polygon: no support point across
                continue
            key = _edge_key(a, b)
            if key not in crossed:
                crossed.add(key)
                todo.append(face_across(a, b))
    return sorted(faces.values(), key=lambda face: face.points)


def dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """The regular subdivision of the Newton polygon induced by the
    coefficient lift: one cell per upper face of the lifted hull."""
    return f._subdivision[0]


def canonicalize(f: TropicalPolynomial) -> TropicalPolynomial:
    """Raise each coefficient to the value of the concave hull of the lift
    over the support.  The curve is unchanged and the result is idempotent.

    For a 2-dimensional support, a point on an upper face keeps its own
    height, and a sunken point takes the least of the face planes over it,
    which is the concave hull's value there."""
    # `convex_hull` keeps one point of a point and the two ends of a segment
    newton = f._hull
    if len(newton) == 1:
        return TropicalPolynomial(f.terms)
    if len(newton) > 2:
        faces = f._faces
        scale = f._heights[1]
        contact = {j for face in faces for j in face.points}
        new = dict(f.terms)
        for j in new:
            if j not in contact:
                # a face's scaled value at j is (c - nx*j1 - ny*j2) / nz, nz > 0
                low, den = None, 1
                for face in faces:
                    nx, ny, nz, c = face.plane
                    v = c - nx * j[0] - ny * j[1]
                    if low is None or v * den < low * nz:
                        low, den = v, nz
                new[j] = Fraction(low, den * scale)
        return TropicalPolynomial._from_sorted(new)
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


def curve_of(f: TropicalPolynomial) -> PlaneTropicalCurve:
    """The corner locus of f as a weighted graph dual to its subdivision:
    a vertex per cell, a bounded edge per interior cell edge, a ray per
    boundary cell edge, weights equal to dual lattice lengths."""
    sub_, emap = f._subdivision
    faces = f._faces
    heights, scale = f._heights
    vertices: list[RationalPoint] = []
    for face in faces:
        nx, ny, nz, c = face.plane
        for p in face.points:
            if nx * p[0] + ny * p[1] + nz * heights[p] != c:
                raise ArithmeticError("face plane misses one of its own lifts")
        # the vertex is (-alpha, -beta) of the face
        vertices.append((Fraction(nx, nz * scale), Fraction(ny, nz * scale)))
    bounded = []
    rays = []
    for (a, b), incident in sorted(emap.items()):
        w = lattice_length(sub(b, a))
        if len(incident) == 2:
            i, j = incident
            # vertex k is (xk, yk) / (zk * scale) for the plane (xk, yk, zk, _)
            # of face k, and zi, zj > 0
            xi, yi, zi, _ = faces[i].plane
            xj, yj, zj, _ = faces[j].plane
            d = primitive((xj * zi - xi * zj, yj * zi - yi * zj))
            if d[0] * (b[0] - a[0]) + d[1] * (b[1] - a[1]) != 0:
                raise ArithmeticError("dual edge is not orthogonal to its cell edge")
            bounded.append((i, j, w, d))
        else:
            (i,) = incident
            # the tiling check put this edge on a side; the ray is its outward normal
            s0, s1 = _ambient_side(sub_.ambient, a, b)
            rays.append((i, primitive((s1[1] - s0[1], s0[0] - s1[0])), w))
    return PlaneTropicalCurve(
        vertices=tuple(vertices),
        bounded_edges=tuple(bounded),
        rays=tuple(rays),
    )


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
    each chain ends either at a triangle node or at a boundary end.  The
    cells' edges and opposite sides are read from the cells, which compute
    them once.  The chains are walked with int terminals and kept as the
    graph's rows (`MarkedDualGraph`).
    """
    sub_ = D.subdivision
    emap = sub_.validate_tiling()
    triangles: list[LatticePolygon] = []
    crossings: list[LatticePolygon] = []
    # the terminal of a chain that runs into cell i, its triangle's index or
    # None for a parallelogram, and the parallelogram's opposite sides; the
    # outside of the polygon is cell -1, the last entry, whose terminal is
    # the end, -1
    terminal: list[int | None] = []
    across: list[dict | None] = []
    for c in sub_.cells:
        if len(c.vertices) == 3:
            terminal.append(len(triangles))
            across.append(None)
            triangles.append(c)
        else:
            opposite = c._across
            if opposite is None:
                raise NotSimple("decoded subdivision has a cell that is not simple")
            terminal.append(None)
            across.append(opposite)
            crossings.append(c)
    terminal.append(-1)

    def extend(start: EdgeKey, cell: int, run: list[EdgeKey]) -> int:
        """The terminal reached from edge `start` into `cell`, through the
        parallelograms on the way, whose far sides are appended to run."""
        e = start
        while True:
            t = terminal[cell]
            if t is not None:
                return t
            nxt = across[cell][e]
            if nxt == start or nxt in run:
                raise MalformedSubdivision("cycle of parallelogram crossings")
            run.append(nxt)
            incident = emap[nxt]
            if incident[0] != cell:
                cell = incident[0]
            else:
                cell = incident[1] if len(incident) == 2 else -1
            e = nxt

    rows = []
    assigned: set[EdgeKey] = set()
    slots = [0] * len(triangles)
    for e in sorted(emap):
        incident = emap[e]
        left_cell = incident[0]
        right_cell = incident[1] if len(incident) == 2 else -1
        left, right = terminal[left_cell], terminal[right_cell]
        if left is not None and right is not None:
            edges = (e,)
        elif e in assigned:
            # every edge of a chain that crosses a parallelogram borders one
            continue
        else:
            left_run: list[EdgeKey] = []
            right_run: list[EdgeKey] = []
            left = extend(e, left_cell, left_run)
            right = extend(e, right_cell, right_run)
            edges = (*reversed(left_run), e, *right_run)
            assigned.update(edges)
        rows.append((edges, left, right))
        if left >= 0:
            slots[left] += 1
        if right >= 0:
            slots[right] += 1
    for t, k in enumerate(slots):
        if k != 3:
            raise MalformedSubdivision(f"triangle {t} has {k} chain slots, expected 3")

    marked = []
    for a, b in D.marked_edges:
        key = _edge_key(a, b)
        if key not in emap:
            raise MalformedSubdivision(f"marked step {a}-{b} is not a subdivision edge")
        marked.append(key)
    return MarkedDualGraph._from_rows(
        tuple(triangles), tuple(crossings), tuple(rows), tuple(marked)
    )
